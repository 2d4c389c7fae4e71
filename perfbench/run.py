"""End-to-end benchmark of the rso command line, one workload per run.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of ids_path, ids_box, monotonicity_quad, sample_gibbs, or all.
A run launches the workload's rso command as a fresh process, again and
again, for about S seconds (at least three times), each time with rso seed
N.  It then checks the first repeat's CSV against values computed here
apart from rsolab, checks that every later repeat wrote the same bytes, and
prints the median of each end-to-end metric.  With --trace 1 it adds one
traced repeat and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full record of the run goes to perfbench/out/.

The CLI runs from src/ through PYTHONPATH, since the package need not be
installed.  --workers, the BLAS thread variables and OMP_NUM_THREADS are
left as the caller has them, so the run measures the defaults users get.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Repeats per run, however short --seconds is: the medians need three.
MIN_ROUNDS = 3
#: No repeat starts this long after the run began, so a run ends in time.
LAST_START_S = 60
#: A repeat that runs this long is killed and counted as failed.
CHILD_TIMEOUT_S = 50
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "fields_per_s": "fields/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # rso arguments before --seed and --out-dir
    csv: str  # the table the command writes
    fields: int  # beta fields one repeat draws (kept fields, for Gibbs)
    check: Callable[[dict], list[str]]  # columns of the first repeat's CSV -> problems
    exact_grids: tuple = ()  # ((grid shape, W), ...) the exact sampler draws on
    counts: bool = False  # the traced repeat must capture eigenvalue counts
    probe: bool = False  # pair every repeat with the reduction probe


def _ids_args(d, half_side, e_min, e_max, samples):
    return (
        "ids", "--d", str(d), "--L", str(half_side), "--W", "1.0", "--bc", "dirichlet",
        "--e-min", repr(e_min), "--e-max", repr(e_max), "--n-energies", "10",
        "--samples", str(samples), "--chains", "4",
    )  # fmt: skip


def _workloads() -> dict[str, Workload]:
    import numpy as np

    import checks

    path_samples, box_samples, mono_samples = 2000, 100, 1_000_000
    gibbs = dict(shape=(9, 9), w=1.0, chains=2, samples=60, batch=5)
    items = [
        Workload(
            "ids_path",
            _ids_args(1, 2000, 1e-4, 1e-2, path_samples),
            "ids.csv",
            path_samples,
            lambda cols: checks.check_ids(
                cols, grid=np.geomspace(1e-4, 1e-2, 10), w=1.0, samples=path_samples, slope=(0.4, 0.6)
            ),
            exact_grids=(((4001,), 1.0),),
            counts=True,
            probe=True,
        ),
        Workload(
            "ids_box",
            _ids_args(2, 8, 0.05, 1.0, box_samples),
            "ids.csv",
            box_samples,
            lambda cols: checks.check_ids(
                cols, grid=np.geomspace(0.05, 1.0, 10), w=1.0, samples=box_samples
            ),
            exact_grids=(((17, 17), 1.0),),
            counts=True,
        ),
        Workload(
            "monotonicity_quad",
            ("monotonicity", "--vertices", "2", "--w-low", "0.5", "--w-high", "1.0",
             "--quad-tol", "1e-06", "--samples", str(mono_samples)),  # fmt: skip
            "monotonicity.csv",
            2 * mono_samples,
            lambda cols: checks.check_monotonicity(cols, w_low=0.5, w_high=1.0, tol=1e-6),
            exact_grids=(((2,), 0.5), ((2,), 1.0)),
        ),
        Workload(
            "sample_gibbs",
            ("sample", "--sampler", "gibbs", "--d", "2", "--L", "4", "--W", "1.0",
             "--samples", str(gibbs["samples"]), "--chains", str(gibbs["chains"]),
             "--burn-in", "100", "--thinning", "10"),  # fmt: skip
            "sample.csv",
            gibbs["samples"],
            lambda cols: checks.check_gibbs(cols, **gibbs),
        ),
    ]
    return {w.name: w for w in items}


# ---------------------------------------------------------------------------
# One repeat
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RSO_SEED", None)  # it would override --seed
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_repeat(wl: Workload, seed: int, out_dir: Path, traced: bool = False) -> dict:
    """Launch one rso process and wait for it; wall, CPU and RSS come from wait4."""
    out_dir.mkdir(parents=True)
    stamp = out_dir / "first_draw"
    script, first_arg = ("traced.py", out_dir) if traced else ("launch.py", stamp)
    cmd = [sys.executable, str(BENCH / script), str(first_arg), *wl.argv,
           "--seed", str(seed), "--out-dir", str(out_dir)]  # fmt: skip
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamp_text = stamp.read_text() if stamp.exists() else ""
    setup = float(stamp_text) - t0 if stamp_text else None
    csv_path = out_dir / wl.csv
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": setup,
        "fields_per_s": wl.fields / (wall - setup) if setup is not None else None,
        "csv": csv_path.read_bytes() if csv_path.exists() else None,
        "stderr_tail": (out_dir / "stderr").read_text(errors="replace")[-2000:],
    }


def reduction_probe() -> bool:
    """laplace_audit on the 2x2 wired box at lambda = (1e-10, 0, 0, 0).

    Its inputs are fixed, not drawn from --seed.  The chain reducer's
    var = sum(x^2)/n - mean^2 cancels to exactly 0 here, so SE = 0,
    dev_se = inf and the audit fails although the sampler is exact.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rsolab import MonteCarloConfig, build_grid, laplace_audit

    g = build_grid((2, 2), w=1.0, boundary="wired")
    report = laplace_audit(g, [[1e-10, 0.0, 0.0, 0.0]], MonteCarloConfig(n_samples=10_000, seed=0))
    return bool(report["all_passed"])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "commit": commit,
    }


def traced_checks(wl: Workload, work_dir: Path) -> list[str]:
    """Counts and exact draws captured in the traced repeat, against checks.py."""
    import numpy as np

    import checks

    cap = np.load(work_dir / "capture.npz")
    bad = []
    if "sturm_diag" in cap:
        bad += checks.check_sturm(cap["sturm_diag"], cap["sturm_off"], cap["sturm_energies"], cap["sturm_counts"])
    k = 0
    while f"dense_{k}_diag" in cap:
        p = f"dense_{k}_"
        bad += checks.check_dense(
            cap[p + "edges"], cap[p + "diag"], cap[p + "offdiag"], cap[p + "energies"], cap[p + "counts"]
        )
        k += 1
    if wl.counts and "sturm_diag" not in cap and k == 0:
        bad.append("no eigenvalue counts were captured")
    laplace = {}
    k = 0
    while f"laplace_{k}" in cap:
        n, w = cap[f"laplace_{k}_key"]
        laplace[(int(n), float(w))] = cap[f"laplace_{k}"]
        k += 1
    for shape, w in wl.exact_grids:
        values = laplace.get((int(np.prod(shape)), w))
        if values is None:
            bad.append(f"no exact draws captured on grid {shape}, W={w}")
        else:
            bad += checks.check_exact_laplace(values, shape=shape, w=w)
    return bad


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import selftest

    run_dir = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    repeats = []
    start = time.monotonic()
    while True:
        repeats.append(run_repeat(wl, seed, run_dir / f"repeat{len(repeats)}"))
        elapsed = time.monotonic() - start
        if elapsed > LAST_START_S or (
            len(repeats) >= MIN_ROUNDS and elapsed * (len(repeats) + 1) / len(repeats) > seconds
        ):
            break
    if trace:
        repeats.append(run_repeat(wl, seed, run_dir / "traced", traced=True))

    # Every repeat is one operation; it fails when rso exits nonzero or its
    # CSV differs from the first repeat's.  Outputs of operations that did
    # not fail must pass the checks, or the run is not correct.
    operations, problems = [], []
    first = next((r["csv"] for r in repeats if r["exit_code"] == 0 and r["csv"] is not None), None)
    for i, rep in enumerate(repeats):
        label = "traced repeat" if trace and i == len(repeats) - 1 else f"repeat {i}"
        if rep["exit_code"] != 0 or rep["csv"] is None:
            operations.append((label, False, f"exit code {rep['exit_code']}: {rep['stderr_tail'][-300:]}"))
            continue
        mismatch = checks.check_same_bytes(first, rep["csv"])
        operations.append((label, not mismatch, "; ".join(mismatch)))
    if first is not None:
        problems += [f"output: {p}" for p in wl.check(checks.read_columns(first))]
    if trace and repeats[-1]["exit_code"] == 0:
        problems += [f"traced repeat: {p}" for p in traced_checks(wl, run_dir / "traced")]
    if wl.probe:
        for i in range(len(repeats)):
            passed = reduction_probe()
            operations.append((f"reduction probe {i}", passed, "" if passed else "laplace_audit failed: SE is 0"))
    if first is not None:
        problems += [f"self-test: {p}" for p in selftest.accepted_corruptions(wl, first, run_dir)]

    good = [r for r in repeats[: len(repeats) - int(trace)] if r["exit_code"] == 0 and r["setup_s"] is not None]
    if not good:
        raise RuntimeError(f"{wl.name}: no repeat completed; last stderr:\n{repeats[-1]['stderr_tail']}")
    if trace and repeats[-1]["exit_code"] != 0:
        raise RuntimeError(f"{wl.name}: the traced repeat failed:\n{repeats[-1]['stderr_tail']}")
    if trace:
        layer = json.loads((run_dir / "traced" / "trace.json").read_text())["metrics"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        overhead = repeats[-1]["wall_s"] - statistics.median(r["wall_s"] for r in good)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            k: {"value": statistics.median(r[k] for r in good), "unit": unit}
            for k, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": not problems,
        "attempted": len(operations),
        "failed": sum(1 for _, ok, _ in operations if not ok),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": ["rso", *wl.argv, "--seed", str(seed)],
        "machine": machine(),
        "repeats": [{k: v for k, v in r.items() if k != "csv"} for r in repeats],
        "operations": [{"name": n, "ok": ok, "detail": d} for n, ok, d in operations],
        "problems": problems,
        "result": result,
    }
    (OUT / f"result-{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for name, ok, detail in operations:
        if not ok:
            print(f"{wl.name}: failed {name}: {detail}", file=sys.stderr)
    for p in problems:
        print(f"{wl.name}: INCORRECT {p}", file=sys.stderr)
    return result


def _print_summary(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rsolab" / "cli.py").is_file():
        print(f"error: {SRC / 'rsolab'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    workloads = _workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)} or all", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        results[name] = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace))
        _print_summary(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
