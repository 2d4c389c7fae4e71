"""Command-line runner: reproducible simulation and audit commands.

Commands
--------
sample        draw beta fields and dump them as ``sweep,vertex,beta`` CSV
ids           integrated density of states on an energy grid, with audits
wegner        spectral-increment audit against the square-root bound
decay         log-linear fit of Green-moment decay along a lattice axis
critical      closed-form critical couplings and the branching-factor scan
resistance    per-sample Green / effective-resistance identity check
martingale    boundary-mass martingale means, compensator flatness, Ward moments
monotonicity  coupling monotonicity of the Green ratio on a small path
validate      oracle suite: Laplace, Gamma marginal, RIG, resistance identity

Every command writes CSV data files plus a JSON summary into ``--out-dir``
and re-emits byte-identical files when rerun with the same flags and seed.
The environment variable ``RSO_SEED`` overrides ``--seed``.  Only long
flags exist.  Exit codes: 0 pass, 1 configuration error, 2 numeric
failure, 3 audit failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._version import VERSION
from .critical import ROOT_RESIDUAL_TOL, comparison_scan, critical_report
from .field import (
    PositivityLossError,
    QuadratureBudgetError,
    BetaField,
    SamplerConfig,
    gibbs_chain,
    sample_beta_batch,
)
from .graphs import build_box, build_grid, dump_graph, load_graph
from .io import optional_infinite, write_csv, write_summary
from .operators import BOUNDARY_CONDITIONS, FactorizationError, ResidualError
from .resistance import (
    HARMONIC_TOL,
    IDENTITY_RTOL,
    NetworkError,
    identity_check,
)
from .rig import rig_cdf, sample_rig
from .rng import chain_seed_key, philox_stream
from .stats import (
    SE_SLACK,
    MonteCarloConfig,
    _chain_sizes,
    bound_audit,
    decay_moment_fit,
    estimate_ids,
    fit_loglog_slope,
    gamma_chain_check,
    gamma_marginal_test,
    laplace_audit,
    martingale_check,
    monotonicity_check,
    wegner_audit,
)

__all__ = ["ConfigError", "main"]

#: Row cap for the sample dump (samples x vertices); guards accidental huge files.
MAX_DUMP_ROWS = 5_000_000

#: Keys accepted in a ``sample`` key=value config file; they mirror the flags.
CONFIG_FILE_KEYS = ("seed", "burn_in", "thinning", "chains")

_NUMERIC_ERRORS = (
    FactorizationError,
    ResidualError,
    PositivityLossError,
    QuadratureBudgetError,
    NetworkError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


class ConfigError(ValueError):
    """Invalid command-line or config-file input (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors raise instead of calling sys.exit."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated values of ``text`` as ``kind`` (float or int), at least one."""
    try:
        vals = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        noun = "reals" if kind is float else "integers"
        raise ConfigError(f"{flag} expects a comma-separated list of {noun}: {exc}") from exc
    if not vals:
        raise ConfigError(f"{flag} must list at least one value")
    return vals


def _config_dict(args: argparse.Namespace) -> dict:
    """The parsed flags, verbatim, for embedding into the JSON summary."""
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = VERSION
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed_block(seed: int, chains: int) -> dict:
    return {
        "master": seed,
        "chain_keys": [chain_seed_key(seed, c) for c in range(chains)],
    }


def _finish(args, command: str, results, passed: bool, seeds: dict) -> int:
    summary = write_summary(
        _out_dir(args) / f"{command}.json",
        command=command,
        config=_config_dict(args),
        results=results,
        passed=passed,
        seeds=seeds,
    )
    print(f"{command}: {'pass' if passed else 'FAIL'} -> {summary}")
    return 0 if passed else 3


def _add_mc_options(p: argparse.ArgumentParser, samples: int) -> None:
    p.add_argument("--samples", type=int, default=samples, help="total retained samples")
    p.add_argument("--seed", type=int, default=0, help="master seed (RSO_SEED overrides)")
    p.add_argument("--chains", type=int, default=1, help="independent exact-sampler chains")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict:
    """Parse a key=value config file; keys mirror the sample flags."""
    out: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = int(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key} expects an integer") from exc
    return out


def _cmd_sample(args: argparse.Namespace) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}

    def pick(name: str, default):
        flag_value = getattr(args, name)
        if flag_value is not None:
            return flag_value
        return file_cfg.get(name, default)

    mc = MonteCarloConfig(n_samples=args.samples, seed=pick("seed", 0), chains=pick("chains", 1))
    seed, chains = mc.seed, mc.chains
    burn_in = pick("burn_in", 500)
    thinning = pick("thinning", 10)
    # validated for both samplers, since the summary reports these settings
    cfg = SamplerConfig(seed=seed, burn_in=burn_in, thinning=thinning)

    g = build_box(args.d, args.half_side, w=args.w, boundary=args.boundary)
    if args.samples * g.n_vertices > MAX_DUMP_ROWS:
        raise ConfigError(
            f"dump of {args.samples} samples x {g.n_vertices} vertices exceeds "
            f"{MAX_DUMP_ROWS} rows; reduce --samples or the box size"
        )

    blocks = []
    for chain, n_chain in enumerate(_chain_sizes(mc.n_samples, chains)):
        if n_chain == 0:
            continue
        if args.sampler == "exact":
            blocks.append(sample_beta_batch(g, n_chain, philox_stream(seed, chain)))
        else:
            blocks.append(gibbs_chain(g, cfg, n_chain, chain=chain))
    betas = np.concatenate(blocks, axis=0)

    rows = (
        (k, v, betas[k, v])
        for k in range(betas.shape[0])
        for v in range(g.n_vertices)
    )
    csv_path = write_csv(_out_dir(args) / "sample.csv", ["sweep", "vertex", "beta"], rows)
    results = {
        "n_vertices": g.n_vertices,
        "n_samples": int(betas.shape[0]),
        "sampler": args.sampler,
        "beta_mean": float(betas.mean()),
        "beta_min": float(betas.min()),
        "csv": csv_path.name,
        "effective": {
            "seed": seed,
            "burn_in": burn_in,
            "thinning": thinning,
            "chains": chains,
        },
    }
    return _finish(args, "sample", results, True, _seed_block(seed, chains))


# ---------------------------------------------------------------------------
# ids / wegner / decay
# ---------------------------------------------------------------------------


def _energy_grid(args: argparse.Namespace) -> np.ndarray:
    if args.energies is not None:
        return np.asarray(_parse_list(args.energies, "--energies", float))
    if not (0 < args.e_min <= args.e_max):
        raise ConfigError("need 0 < --e-min <= --e-max")
    if args.n_energies < 1:
        raise ConfigError("--n-energies must be positive")
    if args.linear_grid:
        return np.linspace(args.e_min, args.e_max, args.n_energies)
    return np.geomspace(args.e_min, args.e_max, args.n_energies)


def _cmd_ids(args: argparse.Namespace) -> int:
    energies = _energy_grid(args)
    cfg = MonteCarloConfig(n_samples=args.samples, seed=args.seed, chains=args.chains)
    curve = estimate_ids(args.d, args.half_side, args.w, args.bc, energies, cfg)
    try:
        fit = fit_loglog_slope(curve)
    except ValueError:
        fit = None  # fewer than two positive estimates on this grid
    audit = bound_audit(curve)
    audit["ratio_to_energy"] = [
        float(r) if math.isfinite(r) else None for r in audit["ratio_to_energy"]
    ]

    rows = [
        (float(e), est.value, est.std_error, float(ub), est.n_samples)
        for e, est, ub in zip(curve.energies, curve.estimates, audit["upper_bound"])
    ]
    csv_path = write_csv(
        _out_dir(args) / "ids.csv",
        ["energy", "estimate", "std_error", "upper_bound", "n_samples"],
        rows,
    )
    results = {
        "bc": curve.bc,
        "rows": [
            {"energy": float(e), "estimate": est}
            for e, est in zip(curve.energies, curve.estimates)
        ],
        "fit": fit,
        "bound_audit": audit,
        "monotone_violations": curve.monotone_violations(),
        "csv": csv_path.name,
    }
    return _finish(args, "ids", results, bool(audit["upper_ok"]), _seed_block(cfg.seed, cfg.chains))


def _cmd_wegner(args: argparse.Namespace) -> int:
    epsilons = _parse_list(args.epsilons, "--epsilons", float)
    cfg = MonteCarloConfig(n_samples=args.samples, seed=args.seed, chains=args.chains)
    report = wegner_audit(args.d, args.half_side, args.w, args.bc, args.energy, epsilons, cfg)
    csv_path = write_csv(
        _out_dir(args) / "wegner.csv",
        ["epsilon", "estimate", "std_error", "bound", "passed", "ratio_to_epsilon"],
        [
            (r["epsilon"], r["estimate"], r["std_error"], r["bound"], r["passed"], r["ratio_to_epsilon"])
            for r in report["rows"]
        ],
    )
    report["csv"] = csv_path.name
    return _finish(
        args, "wegner", report, bool(report["all_passed"]), _seed_block(cfg.seed, cfg.chains)
    )


def _cmd_decay(args: argparse.Namespace) -> int:
    cfg = MonteCarloConfig(n_samples=args.samples, seed=args.seed, chains=args.chains)
    fit = decay_moment_fit(args.d, args.half_side, args.w, args.kind, cfg, boundary=args.boundary)
    fitted = np.log(fit.prefactor) - fit.decay_rate * fit.distances
    cols = zip(fit.distances, fit.log_moments, fitted, fit.log_moment_std_errors)
    csv_path = write_csv(
        _out_dir(args) / "decay.csv",
        ["distance", "log_moment", "fitted", "log_moment_std_error"],
        [(int(t), float(lm), float(fv), float(se)) for t, lm, fv, se in cols],
    )
    results = {
        "kind": args.kind,
        "boundary": args.boundary,
        "decay_rate": fit.decay_rate,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
        "log_moment_std_errors": fit.log_moment_std_errors.tolist(),
        "csv": csv_path.name,
    }
    return _finish(args, "decay", results, True, _seed_block(cfg.seed, cfg.chains))


# ---------------------------------------------------------------------------
# critical / resistance / martingale / monotonicity
# ---------------------------------------------------------------------------


def _cmd_critical(args: argparse.Namespace) -> int:
    if args.d is None and not args.scan:
        raise ConfigError("either --d or --scan is required")
    results: dict = {}
    passed = True
    if args.d is not None:
        rep = critical_report(args.d)
        results["report"] = {
            "d": rep.d,
            "w_c": optional_infinite(rep.w_c),
            "w_c_prime": rep.w_c_prime,
            "w_cr": optional_infinite(rep.w_cr),
            "residual": rep.residual,
        }
        if rep.residual is not None:
            passed = passed and rep.residual <= ROOT_RESIDUAL_TOL
    if args.scan:
        if args.d_min < 2 or args.d_max < args.d_min:
            raise ConfigError("need 2 <= --d-min <= --d-max")
        scan = comparison_scan(args.d_min, args.d_max)
        csv_path = write_csv(
            _out_dir(args) / "critical_scan.csv",
            ["d", "f_value"],
            list(zip(scan["d_values"], scan["f_values"])),
        )
        scan["csv"] = csv_path.name
        results["scan"] = scan
        passed = passed and bool(scan["passed"])
    return _finish(args, "critical", results, passed, {"master": args.seed})


def _identity_checks(g, betas: np.ndarray, w: float, inner: int) -> tuple[list, float, float]:
    """Resistance-identity reports of each field in betas, their worst relative
    error and their worst harmonic residual (both 0.0 when there are none)."""
    reps = [identity_check(BetaField(graph=g, beta=beta, w=w), inner) for beta in betas]
    return reps, max([0.0, *(r.rel_err for r in reps)]), max([0.0, *(r.harmonic_residual for r in reps)])


def _cmd_resistance(args: argparse.Namespace) -> int:
    if args.half_side >= args.outer_half_side:
        raise ConfigError("--L must be smaller than --K")
    g = build_box(args.d, args.outer_half_side, w=args.w, boundary="wired")
    betas = sample_beta_batch(g, args.samples, philox_stream(args.seed, 0))
    reps, worst_rel, worst_harm = _identity_checks(g, betas, args.w, args.half_side)
    nw_ok = all(rep.nash_williams <= rep.rhs * (1.0 + 1e-9) for rep in reps)
    rows = [(i, r.lhs, r.rhs, r.rel_err, r.harmonic_residual, r.nash_williams) for i, r in enumerate(reps)]
    csv_path = write_csv(
        _out_dir(args) / "resistance.csv",
        ["sample", "lhs", "rhs", "rel_err", "harmonic_residual", "nash_williams"],
        rows,
    )
    passed = worst_rel <= args.tol and worst_harm <= HARMONIC_TOL and nw_ok
    results = {
        "max_rel_err": worst_rel,
        "max_harmonic_residual": worst_harm,
        "rel_tol": args.tol,
        "harmonic_tol": HARMONIC_TOL,
        "nash_williams_below_resistance": nw_ok,
        "n_samples": args.samples,
        "csv": csv_path.name,
    }
    return _finish(args, "resistance", results, passed, _seed_block(args.seed, 1))


def _cmd_martingale(args: argparse.Namespace) -> int:
    inner = _parse_list(args.inner, "--inner", int)
    cfg = MonteCarloConfig(n_samples=args.samples, seed=args.seed, chains=args.chains)
    report = martingale_check(args.d, args.outer_half_side, inner, args.w, cfg)
    csv_path = write_csv(
        _out_dir(args) / "martingale.csv",
        ["half_side", "psi_mean", "psi_std_error", "psi_dev_se", "bracket_mean", "bracket_std_error"],
        [
            (
                r["half_side"],
                r["mean"].value,
                r["mean"].std_error,
                r["mean_dev_se"],
                r["bracket"].value,
                r["bracket"].std_error,
            )
            for r in report["rows"]
        ],
    )
    report["csv"] = csv_path.name
    passed = bool(report["means_ok"] and report["brackets_ok"])
    return _finish(args, "martingale", report, passed, _seed_block(cfg.seed, cfg.chains))


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    if args.w_low > args.w_high:
        raise ConfigError("--w-low must not exceed --w-high")
    if args.vertices < 2:
        raise ConfigError("--vertices must be at least 2")
    target = args.target if args.target is not None else args.vertices - 1
    if not (0 <= args.source < args.vertices and 0 <= target < args.vertices):
        raise ConfigError("--source/--target out of range")
    g_low = build_grid((args.vertices,), w=args.w_low, boundary=args.boundary)
    g_high = build_grid((args.vertices,), w=args.w_high, boundary=args.boundary)
    cfg = MonteCarloConfig(n_samples=args.samples, seed=args.seed, chains=args.chains)
    report = monotonicity_check(
        g_low, g_high, args.source, target, cfg, quadrature_tol=args.quad_tol
    )
    csv_rows = [
        ("low", args.w_low, report["low"].value, report["low"].std_error, report.get("quad_low")),
        ("high", args.w_high, report["high"].value, report["high"].std_error, report.get("quad_high")),
    ]
    csv_path = write_csv(
        _out_dir(args) / "monotonicity.csv",
        ["measure", "w", "estimate", "std_error", "quadrature"],
        csv_rows,
    )
    report["csv"] = csv_path.name
    passed = bool(report["ordering_ok"])
    if "quad_low" in report:
        passed = passed and bool(report["mc_matches_quad"] and report["quad_ordering_ok"])
    return _finish(args, "monotonicity", report, passed, _seed_block(cfg.seed, cfg.chains))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

#: Fixed Laplace probe vectors for the 2x2 wired oracle box.
_VALIDATE_LAMBDAS = (
    (0.3, 0.3, 0.3, 0.3),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 0.5, 0.0, 0.5),
    (0.2, 0.4, 0.6, 0.8),
    (1.5, 1.5, 1.5, 1.5),
)

#: (d, outer half side, inner half side, W) for the identity spot checks.
_VALIDATE_IDENTITY_CASES = ((1, 12, 3, 1.0), (2, 5, 2, 0.5))


def _cmd_validate(args: argparse.Namespace) -> int:
    from scipy.stats import kstest

    if args.rig_samples < 2:
        raise ConfigError("--rig-samples must be at least 2 (the RIG checks need a standard error)")
    checks: list[dict] = []
    seed = args.seed

    def add(name: str, value: float, threshold: float, ok: bool) -> None:
        checks.append(
            {"check": name, "value": float(value), "threshold": float(threshold), "passed": bool(ok)}
        )

    # Laplace transform oracle on the 2x2 wired box at W = 1.
    g_box = build_grid((2, 2), w=1.0, boundary="wired")
    laplace = laplace_audit(
        g_box,
        np.array(_VALIDATE_LAMBDAS),
        MonteCarloConfig(n_samples=args.samples, seed=seed),
    )
    for i, row in enumerate(laplace["rows"]):
        add(f"laplace_dev_se_{i}", row["dev_se"], SE_SLACK, row["dev_se"] <= SE_SLACK)

    # Gamma(1/2, 1) pinning marginal on the three-vertex path with zero eta.
    # The KS threshold scales as 1/sqrt(n); at the default 1e5 samples it is
    # exactly the reference value 0.01.
    g_path = build_grid((3,), w=1.0, boundary="zero")
    gamma = gamma_marginal_test(g_path, MonteCarloConfig(n_samples=args.samples, seed=seed + 1))
    gamma_ks_tol = 0.01 * math.sqrt(100_000 / args.samples)
    add("gamma_mean_dev_se", gamma["mean_dev_se"], 3.0, gamma["mean_dev_se"] <= 3.0)
    add("gamma_var_dev_se", gamma["var_dev_se"], 4.0, gamma["var_dev_se"] <= 4.0)
    add("gamma_ks", gamma["ks_distance"], gamma_ks_tol, gamma["ks_distance"] < gamma_ks_tol)

    # Gibbs cross-check of the same marginal at fixed sizes: 2 chains of 750
    # thinned draws are correlated, so the mean's SE comes from batch means.
    gibbs = SamplerConfig(seed=seed + 5, burn_in=200, thinning=4)
    chains = [gibbs_chain(g_path, gibbs, 750, chain=c) for c in range(2)]
    rep = gamma_chain_check(g_path, chains)
    add("gibbs_gamma_mean_dev_se", rep["mean_dev_se"], SE_SLACK, rep["mean_dev_se"] <= SE_SLACK)
    add("gibbs_gamma_ks", rep["ks_distance"], 0.08, rep["ks_distance"] < 0.08)

    # Reciprocal-inverse-Gaussian moments and distribution.  The KS threshold
    # scales as 1/sqrt(n); at the default 1e6 draws it is exactly the
    # reference value 0.002.
    rig_ks_tol = 2.0 / math.sqrt(args.rig_samples)
    for j, a in enumerate((0.1, 1.0, 10.0)):
        ys = sample_rig(a, philox_stream(seed + 2, j), size=args.rig_samples)
        n = ys.size
        mean, se_mean = float(ys.mean()), float(ys.std(ddof=1) / math.sqrt(n))
        inv = 1.0 / ys
        inv_mean, se_inv = float(inv.mean()), float(inv.std(ddof=1) / math.sqrt(n))
        dev_mean = abs(mean - (a + 1.0)) / se_mean
        dev_inv = abs(inv_mean - 1.0 / a) / se_inv
        ks = float(kstest(ys, lambda t: rig_cdf(a, t)).statistic)
        add(f"rig_mean_dev_se_a{j}", dev_mean, 4.0, dev_mean <= 4.0)
        add(f"rig_inv_dev_se_a{j}", dev_inv, 4.0, dev_inv <= 4.0)
        add(f"rig_ks_a{j}", ks, rig_ks_tol, ks < rig_ks_tol)

    # Resistance identity on small boxes.
    for j, (d, outer, inner, w) in enumerate(_VALIDATE_IDENTITY_CASES):
        g = build_box(d, outer, w=w, boundary="wired")
        betas = sample_beta_batch(g, args.identity_samples, philox_stream(seed + 3, j))
        _, max_rel, max_harm = _identity_checks(g, betas, w, inner)
        add(f"identity_rel_err_d{d}", max_rel, IDENTITY_RTOL, max_rel <= IDENTITY_RTOL)
        add(f"identity_harmonic_d{d}", max_harm, HARMONIC_TOL, max_harm <= HARMONIC_TOL)

    # Optional: structural round-trip of a graph dump file.
    if args.graph is not None:
        try:
            text = Path(args.graph).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read graph file {args.graph}: {exc}") from exc
        g = load_graph(text)
        canonical = dump_graph(g)
        stable = dump_graph(load_graph(canonical)) == canonical
        add("graph_roundtrip_stable", 1.0 if stable else 0.0, 1.0, stable)
        if g.n_vertices <= 64:
            lam = np.full(g.n_vertices, 0.3)
            rep = laplace_audit(
                g, lam[None, :], MonteCarloConfig(n_samples=min(args.samples, 20_000), seed=seed + 4)
            )
            dev = rep["rows"][0]["dev_se"]
            add("graph_laplace_dev_se", dev, SE_SLACK, dev <= SE_SLACK)

    csv_path = write_csv(
        _out_dir(args) / "validate.csv",
        ["check", "value", "threshold", "passed"],
        [(c["check"], c["value"], c["threshold"], c["passed"]) for c in checks],
    )
    passed = all(c["passed"] for c in checks)
    results = {"checks": checks, "csv": csv_path.name}
    return _finish(args, "validate", results, passed, {"master": seed})


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rso",
        description="Simulation and audit laboratory for a random Schrodinger "
        "operator with inverse-Gaussian-type potential.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def new(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--out-dir", default=".", help="directory for CSV/JSON outputs")
        p.set_defaults(func=func)
        return p

    p = new("sample", _cmd_sample, "draw beta fields and dump sweep,vertex,beta CSV")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--L", dest="half_side", type=int, required=True, help="box radius")
    p.add_argument("--W", dest="w", type=float, required=True, help="edge weight")
    p.add_argument(
        "--boundary", choices=("wired", "zero"), default="wired", help="boundary field"
    )
    p.add_argument("--samples", type=int, default=100, help="retained samples")
    p.add_argument(
        "--sampler", choices=("exact", "gibbs"), default="exact", help="field sampler"
    )
    p.add_argument("--config", default=None, help="key=value config file (keys mirror flags)")
    p.add_argument("--seed", type=int, default=None, help="master seed (RSO_SEED overrides)")
    p.add_argument("--burn-in", type=int, default=None, help="Gibbs burn-in sweeps")
    p.add_argument("--thinning", type=int, default=None, help="Gibbs sweeps between samples")
    p.add_argument("--chains", type=int, default=None, help="independent chains")

    p = new("ids", _cmd_ids, "integrated density of states with slope fit and bound audit")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--L", dest="half_side", type=int, required=True, help="box radius")
    p.add_argument("--W", dest="w", type=float, required=True, help="edge weight")
    p.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="simple")
    p.add_argument("--energies", default=None, help="explicit comma-separated energy grid")
    p.add_argument("--e-min", type=float, default=1e-4, help="grid start")
    p.add_argument("--e-max", type=float, default=1e-2, help="grid end")
    p.add_argument("--n-energies", type=int, default=10, help="grid size")
    p.add_argument(
        "--linear-grid", action="store_true", help="linear energy grid (default geometric)"
    )
    _add_mc_options(p, samples=20_000)

    p = new("wegner", _cmd_wegner, "spectral increments against the square-root bound")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--L", dest="half_side", type=int, required=True, help="box radius")
    p.add_argument("--W", dest="w", type=float, required=True, help="edge weight")
    p.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="simple")
    p.add_argument("--energy", type=float, required=True, help="center energy")
    p.add_argument("--epsilons", default="0.1,0.05,0.01", help="half-widths, comma-separated")
    _add_mc_options(p, samples=20_000)

    p = new("decay", _cmd_decay, "Green-moment decay fit along the first lattice axis")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--L", dest="half_side", type=int, required=True, help="box radius")
    p.add_argument("--W", dest="w", type=float, required=True, help="edge weight")
    p.add_argument("--kind", choices=("quarter", "ratio"), default="ratio", help="moment kind")
    p.add_argument(
        "--boundary", choices=("wired", "zero"), default="wired", help="sampling boundary field"
    )
    _add_mc_options(p, samples=20_000)

    p = new("critical", _cmd_critical, "critical couplings and branching-factor scan")
    p.add_argument("--d", type=int, default=None, help="dimension for the point report")
    p.add_argument("--scan", action="store_true", help="also scan f(d) over a range")
    p.add_argument("--d-min", type=int, default=2, help="scan start")
    p.add_argument("--d-max", type=int, default=10, help="scan end")
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)

    p = new("resistance", _cmd_resistance, "Green vs effective-resistance identity per sample")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--K", dest="outer_half_side", type=int, required=True, help="outer box radius")
    p.add_argument("--L", dest="half_side", type=int, required=True, help="inner box radius")
    p.add_argument("--W", dest="w", type=float, required=True, help="edge weight")
    p.add_argument("--samples", type=int, default=100, help="independent fields")
    p.add_argument("--seed", type=int, default=0, help="master seed (RSO_SEED overrides)")
    p.add_argument("--tol", type=float, default=IDENTITY_RTOL, help="relative agreement tolerance")

    p = new("martingale", _cmd_martingale, "boundary-mass martingale across nested boxes")
    p.add_argument("--d", type=int, default=2, help="lattice dimension")
    p.add_argument("--K", dest="outer_half_side", type=int, default=8, help="outer box radius")
    p.add_argument("--inner", default="2,3,4", help="inner box radii, comma-separated")
    p.add_argument("--W", dest="w", type=float, default=1.0, help="edge weight")
    _add_mc_options(p, samples=4_000)

    p = new("monotonicity", _cmd_monotonicity, "coupling monotonicity of the Green ratio")
    p.add_argument("--w-low", type=float, default=0.5, help="dominated edge weight")
    p.add_argument("--w-high", type=float, default=1.0, help="dominating edge weight")
    p.add_argument("--vertices", type=int, default=3, help="path length")
    p.add_argument("--source", type=int, default=0, help="ratio source vertex")
    p.add_argument("--target", type=int, default=None, help="ratio target vertex (default: last)")
    p.add_argument(
        "--boundary", choices=("wired", "zero"), default="wired", help="boundary field"
    )
    p.add_argument(
        "--quad-tol", type=float, default=1e-6, help="MC/quadrature match tolerance"
    )
    _add_mc_options(p, samples=40_000)

    p = new("validate", _cmd_validate, "oracle suite: Laplace, Gamma marginal, RIG, identity")
    p.add_argument("--samples", type=int, default=100_000, help="MC samples per audit")
    p.add_argument("--rig-samples", type=int, default=1_000_000, help="draws per RIG case")
    p.add_argument("--identity-samples", type=int, default=10, help="fields per identity case")
    p.add_argument("--seed", type=int, default=0, help="master seed (RSO_SEED overrides)")
    p.add_argument("--graph", default=None, help="optional graph dump file to round-trip")

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1

    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1

    env_seed = os.environ.get("RSO_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: RSO_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 1

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:  # before ValueError: LinAlgError is one
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
