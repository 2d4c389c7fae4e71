"""Self-test of the checks: each must reject a corrupted copy of real output.

A check that can never fail shows nothing.  After every run the benchmark
corrupts its own first repeat's CSV (and the traced repeat's captured
counts and draws) in ways each check exists to catch, and reports any
corruption a check let through.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks


def _with(cols: dict, key: str, change) -> dict:
    """A copy of the columns with one column changed."""
    out = {k: v.copy() for k, v in cols.items()}
    out[key] = change(out[key])
    return out


def _set(index, value):
    def change(v):
        v[index] = value
        return v

    return change


def _ids_corruptions(cols: dict, slope: bool):
    energy, se = cols["energy"], cols["std_error"]
    over = 2.0 * (2.0 * math.sqrt(1.0 / math.pi) * math.sqrt(energy[-1]) + 3.0 * se[-1])
    yield "non-monotone IDS curve", _with(cols, "estimate", lambda v: v[[0, 1, 2, 3, 5, 4, 6, 7, 8, 9]])
    yield "estimate above the sqrt(E) bound", _with(cols, "estimate", _set(-1, over))
    yield "zero estimate", _with(cols, "estimate", _set(0, 0.0))
    yield "energy grid not the one requested", _with(cols, "energy", _set(3, energy[3] * 1.01))
    if slope:
        yield "log-log slope 0.2 too steep", _with(cols, "estimate", lambda v: v * energy**0.2)


def _monotonicity_corruptions(cols: dict):
    quad, se = cols["quadrature"], cols["std_error"]
    # Swapping whole rows keeps each MC value beside its own quadrature value.
    swapped = {k: (v if k == "w" else v[::-1].copy()) for k, v in cols.items()}
    yield "quadrature gap of the wrong sign", swapped
    yield "MC estimate 4 SE off the quadrature value", _with(
        cols, "estimate", _set(0, quad[0] + 1e-6 + 4.0 * se[0])
    )


def _gibbs_corruptions(cols: dict):
    n = int(cols["vertex"].max()) + 1
    yield "field outside the support", _with(cols, "beta", _set(slice(0, n), 0.1))
    yield "fields not from the model's law", _with(cols, "beta", lambda v: v * 1.2)


def _traced_corruptions(wl, work_dir: Path):
    cap = dict(np.load(work_dir / "capture.npz"))
    if "sturm_counts" in cap:
        counts = cap["sturm_counts"].copy()
        counts[0, 0] += 1
        yield "Sturm count off by one", checks.check_sturm(
            cap["sturm_diag"], cap["sturm_off"], cap["sturm_energies"], counts
        )
    if "dense_0_counts" in cap:
        yield "dense count off by one", checks.check_dense(
            cap["dense_0_edges"], cap["dense_0_diag"], cap["dense_0_offdiag"],
            cap["dense_0_energies"], cap["dense_0_counts"] + 1,
        )
    if "laplace_0" in cap:
        n, w = cap["laplace_0_key"]
        shape = next(s for s, ww in wl.exact_grids if math.prod(s) == int(n) and ww == float(w))
        yield "exact draws 10% off the Laplace law", checks.check_exact_laplace(
            cap["laplace_0"] * 1.1, shape=shape, w=float(w)
        )


def accepted_corruptions(wl, csv_bytes: bytes, run_dir: Path) -> list[str]:
    """Names of the corruptions that the workload's checks failed to reject."""
    cols = checks.read_columns(csv_bytes)
    if wl.name.startswith("ids"):
        cases = _ids_corruptions(cols, slope=wl.name == "ids_path")
    elif wl.name == "monotonicity_quad":
        cases = _monotonicity_corruptions(cols)
    else:
        cases = _gibbs_corruptions(cols)
    missed = [name for name, bad_cols in cases if not wl.check(bad_cols)]
    flipped = bytearray(csv_bytes)
    flipped[-2] = ord("0") if flipped[-2] != ord("0") else ord("1")
    if not checks.check_same_bytes(csv_bytes, bytes(flipped)):
        missed.append("CSV with one altered byte")
    traced = run_dir / "traced" / "capture.npz"
    if traced.exists():
        missed += [name for name, found in _traced_corruptions(wl, traced.parent) if not found]
    return [f"check accepted: {name}" for name in missed]
