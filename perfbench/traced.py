"""Run one rso command in this process with a span around each layer call.

Usage: python perfbench/traced.py <work-dir> <rso argument>...

The layer functions are wrapped at the names their callers look up, so the
program itself is unchanged.  Spans are kept in memory and written out when
the command ends:

  spans.npz    every span: name, parent, start, end, thread CPU time, work
  capture.npz  a few fields and counts seen at the layer boundaries
  trace.json   exit code, per-layer metrics and span names

A span's parent is the innermost open span of its thread; a chain thread
with no open span takes the main thread's innermost span, which is the
estimator that started the thread pool.
"""

import itertools
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

_t0 = time.perf_counter()
import rsolab.cli  # noqa: E402  (timed: cli.import_s)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import rsolab.field  # noqa: E402
import rsolab.stats  # noqa: E402

#: Dense-count calls whose operators are kept for the eigvalsh check.
DENSE_CAPTURE = 3
#: Path fields kept from the first Sturm call for the eigvalsh_tridiagonal check.
STURM_CAPTURE = 3


class Tracer:
    """Span recorder; spans are (id, name code, parent id, start, end, cpu, work)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, work=None, after=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else -1)
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
            self.spans.append((sid, code, parent, t0, t1, c1 - c0, work(args, out) if work else 1.0))
            if after is not None:
                after(args, out)
            return out

        return traced

    def patch(self, module, attr, name, work=None, after=None):
        """Wrap module.attr; a name the program no longer has leaves its layer at 0."""
        if hasattr(module, attr):
            setattr(module, attr, self.wrap(getattr(module, attr), name, work, after))
        elif name not in self.names:
            self.names.append(name)


class Capture:
    """Values seen at the layer boundaries, for the checks made after the run."""

    def __init__(self):
        self.laplace: dict[tuple, list] = {}
        self.sturm = None
        self.dense: list[tuple] = []
        self.quad_nodes = 0
        self.quad_peak_bytes = 0

    def exact_draws(self, args, betas):
        g = args[0]
        key = (g.n_vertices, float(g.weights[0]) if g.n_edges else 0.0)
        x = np.exp(-betas.sum(axis=1) / betas.shape[1])
        self.laplace.setdefault(key, []).append(x)

    def sturm_counts(self, args, counts):
        if self.sturm is None:
            diag, off, energies = args[:3]
            k = min(STURM_CAPTURE, len(diag))
            self.sturm = (np.array(diag[:k]), np.array(off), np.array(energies), np.array(counts[:k]))

    def dense_counts(self, args, counts):
        if len(self.dense) < DENSE_CAPTURE:
            m, energies = args[:2]
            self.dense.append((m.diag.copy(), m.offdiag.copy(), m.graph.edges.copy(), np.array(energies), np.array(counts)))

    def quadrature(self, oracle):
        """Count integrand nodes and take the peak traced allocation of each call."""

        def measured(g, integrand, *args, **kwargs):
            def counted(beta):
                self.quad_nodes += beta.shape[0]
                return integrand(beta)

            tracemalloc.start()
            try:
                return oracle(g, counted, *args, **kwargs)
            finally:
                self.quad_peak_bytes = max(self.quad_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def save(self, path: Path):
        arrays = {}
        for i, ((n, w), xs) in enumerate(sorted(self.laplace.items())):
            arrays[f"laplace_{i}"] = np.concatenate(xs)
            arrays[f"laplace_{i}_key"] = np.array([n, w])
        if self.sturm is not None:
            for key, value in zip(("diag", "off", "energies", "counts"), self.sturm):
                arrays[f"sturm_{key}"] = value
        for i, dense in enumerate(self.dense):
            for key, value in zip(("diag", "offdiag", "edges", "energies", "counts"), dense):
                arrays[f"dense_{i}_{key}"] = value
        np.savez(path, **arrays)


def self_times(sid, parent, start, end) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children of one parent are sorted by start; shifting each parent's group
    past the previous one lets one running maximum of end times serve all
    groups at once.
    """
    order = np.lexsort((start, parent))
    p, a, b = parent[order], start[order], end[order]
    groups, rank = np.unique(p, return_inverse=True)
    shift = rank * (end.max() - start.min() + 1.0) - start.min()
    a, b = a + shift, b + shift
    reach = np.maximum.accumulate(np.concatenate(([-np.inf], b[:-1])))
    covered = np.bincount(rank, weights=np.clip(b - np.maximum(a, reach), 0.0, None))
    at = np.minimum(np.searchsorted(groups, sid), groups.size - 1)
    return (end - start) - np.where(groups[at] == sid, covered[at], 0.0)


SPAN_FIELDS = ("id", "name", "parent", "start", "end", "cpu", "work")


def layer_metrics(names: list[str], spans: dict, capture: Capture) -> dict:
    """Per-layer metrics from the span columns; a layer the command never calls reads 0."""
    sid, code, parent, start, end, cpu, work = (spans[k] for k in SPAN_FIELDS)
    dur = end - start
    self_time = self_times(sid, parent, start, end)

    def mask(name):
        return code == names.index(name)

    def total(name, values=dur):
        return float(values[mask(name)].sum())

    def per(name, scale, values=dur):
        m = mask(name)
        den = float(work[m].sum())
        return float(values[m].sum()) * scale / den if den else 0.0

    est = mask("stats.estimator")
    direct = np.isin(parent, sid[est])
    return {
        "rig.draws": (total("field.sample_rig", work), "count"),
        "rig.ns_per_draw": (per("field.sample_rig", 1e9), "ns"),
        "field.exact.us_per_field": (per("stats.sample_beta_batch", 1e6), "us"),
        "field.exact.self_us_per_field": (per("stats.sample_beta_batch", 1e6, values=self_time), "us"),
        "field.gibbs.us_per_site_update": (per("field.gibbs_update_site", 1e6), "us"),
        "field.gibbs.refreshes": (float(mask("field.fresh_green").sum()), "count"),
        "field.gibbs.refresh_ms": (per("field.fresh_green", 1e3), "ms"),
        "field.quadrature.s": (total("field.quadrature_oracle"), "s"),
        "field.quadrature.nodes": (float(capture.quad_nodes), "count"),
        "field.quadrature.rss_growth_mb": (capture.quad_peak_bytes / 2**20, "MB"),
        "operators.sturm.ns_per_site_energy": (per("stats.sturm_counts_batch", 1e9), "ns"),
        "operators.sturm.site_energies": (total("stats.sturm_counts_batch", work), "count"),
        "operators.dense_count.ms_per_field": (per("stats.count_eigenvalues_many", 1e3), "ms"),
        "operators.assemble.us_per_field": (per("stats.operator_from_two_beta", 1e6), "us"),
        "stats.self_s": (float(self_time[est].sum()), "s"),
        "stats.wait_s": (float(np.clip(dur - cpu, 0.0, None)[direct].sum()), "s"),
        "stats.slices": (float(mask("stats.sample_beta_batch").sum()), "count"),
        "io.write_csv_s": (total("cli.write_csv"), "s"),
        "io.csv_bytes": (total("cli.write_csv", work), "bytes"),
        "cli.import_s": (IMPORT_S, "s"),
    }


def main() -> int:
    work_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer, capture = Tracer(), Capture()
    cli, field, stats = rsolab.cli, rsolab.field, rsolab.stats
    tracer.patch(field, "sample_rig", "field.sample_rig", work=lambda a, out: float(np.size(out)))
    tracer.patch(field, "gibbs_update_site", "field.gibbs_update_site")
    tracer.patch(field, "fresh_green", "field.fresh_green")
    tracer.patch(field, "quadrature_oracle", "field.quadrature_oracle")
    if hasattr(field, "quadrature_oracle"):
        field.quadrature_oracle = capture.quadrature(field.quadrature_oracle)
    tracer.patch(
        stats, "sample_beta_batch", "stats.sample_beta_batch",
        work=lambda a, out: float(out.shape[0]), after=capture.exact_draws,
    )
    tracer.patch(
        stats, "sturm_counts_batch", "stats.sturm_counts_batch",
        work=lambda a, out: float(out.size * np.shape(a[0])[1]), after=capture.sturm_counts,
    )
    tracer.patch(stats, "count_eigenvalues_many", "stats.count_eigenvalues_many", after=capture.dense_counts)
    tracer.patch(stats, "operator_from_two_beta", "stats.operator_from_two_beta")
    tracer.patch(cli, "estimate_ids", "stats.estimator")
    tracer.patch(cli, "monotonicity_check", "stats.estimator")
    tracer.patch(cli, "write_csv", "cli.write_csv", work=lambda a, out: float(Path(out).stat().st_size))

    code = tracer.wrap(cli.main, "cli.main")(argv)

    spans = {k: np.array(c) for k, c in zip(SPAN_FIELDS, zip(*tracer.spans))}
    np.savez(work_dir / "spans.npz", **spans)
    metrics = layer_metrics(tracer.names, spans, capture)
    capture.save(work_dir / "capture.npz")
    (work_dir / "trace.json").write_text(
        json.dumps({"exit_code": code, "names": tracer.names, "metrics": metrics}, indent=1)
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
