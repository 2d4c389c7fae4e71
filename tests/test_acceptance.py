"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Every test prints a single ``C<k>: PASS/FAIL`` line (run with ``-s`` to see
them live) and then asserts, so the suite doubles as a checklist.  Sample
sizes, seeds, and tolerances are pinned; nothing here is adaptive.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from rsolab.critical import (
    GAMMA_QUARTER,
    branching_factor,
    comparison_scan,
    critical_report,
    fractional_moment_critical_w,
)
from rsolab.field import exact_field, fresh_green, gibbs_update_site
from rsolab.graphs import build_box, build_grid
from rsolab.operators import (
    assemble,
    count_eigenvalues_leq,
    green_column,
    operator_from_two_beta,
    path_sum_green,
)
from rsolab.resistance import identity_check
from rsolab.rig import rig_cdf, rig_pdf, sample_rig
from rsolab.rng import philox_stream
from rsolab.stats import (
    MonteCarloConfig,
    bound_audit,
    estimate_ids,
    fit_loglog_slope,
    gamma_marginal_test,
    laplace_audit,
    martingale_check,
    monotonicity_check,
    wegner_audit,
)


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"\n{cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_c01_laplace_transform_matches_closed_form():
    # 2x2 wired box, five fixed weight vectors, 3 SE at 1e5 samples, < 2 min
    g = build_grid((2, 2), w=1.0, boundary="wired")
    lams = [
        np.zeros(4),
        np.full(4, 0.3),
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([0.2, 0.5, 0.1, 0.9]),
        np.array([2.0, 1.0, 0.5, 0.25]),
    ]
    t0 = time.perf_counter()
    rep = laplace_audit(g, lams, MonteCarloConfig(n_samples=100_000, seed=101, chains=4))
    elapsed = time.perf_counter() - t0
    worst = max(r["dev_se"] for r in rep["rows"])
    ok = rep["all_passed"] and elapsed < 120.0
    _verdict("C1", ok, f"worst deviation {worst:.2f} SE over 5 vectors, {elapsed:.1f}s")


def test_c02_gamma_marginal_of_diagonal_rate():
    # zero boundary field on a 3-vertex path: 1/(2 G(0,0)) ~ Gamma(1/2, 1)
    g = build_grid((3,), w=1.0, boundary="zero")
    rep = gamma_marginal_test(
        g, MonteCarloConfig(n_samples=100_000, seed=202, chains=4), vertex=0
    )
    ok = rep["mean_dev_se"] <= 3.0 and rep["var_dev_se"] <= 4.0 and rep["ks_distance"] < 0.01
    _verdict(
        "C2",
        ok,
        f"mean dev {rep['mean_dev_se']:.2f} SE, var dev {rep['var_dev_se']:.2f} SE, "
        f"KS {rep['ks_distance']:.4f}",
    )


def test_c03_rig_sampler_moments_and_ks():
    # moments at 4 SE over 1e6 draws; KS < 0.002 against the certified CDF
    details = []
    ok = True
    for a in (0.1, 1.0, 10.0):
        # certify the closed-form CDF against direct density quadrature first
        cert_err = 0.0
        for y in np.geomspace(0.05, 40.0, 12) * max(a, 1.0):
            val, err = quad(
                lambda s: 2.0 * s * rig_pdf(a, s * s), 0.0, np.sqrt(y), epsabs=1e-12, epsrel=1e-12
            )
            assert err < 1e-10
            cert_err = max(cert_err, abs(val - rig_cdf(a, y)))
        assert cert_err < 1e-9

        rng = philox_stream(500 + int(a * 10))
        y = sample_rig(a, rng, size=1_000_000)
        n = y.size
        mean_dev = abs(y.mean() - (a + 1.0)) / (y.std(ddof=1) / np.sqrt(n))
        inv = 1.0 / y
        inv_dev = abs(inv.mean() - 1.0 / a) / (inv.std(ddof=1) / np.sqrt(n))
        ks = kstest(y, lambda t: rig_cdf(a, t)).statistic + cert_err
        ok = ok and mean_dev <= 4.0 and inv_dev <= 4.0 and ks < 0.002
        details.append(f"a={a}: devs {mean_dev:.2f}/{inv_dev:.2f} SE, KS {ks:.5f}")
    _verdict("C3", ok, "; ".join(details))


def test_c04_gibbs_conditional_mean():
    # frozen complement on the 3x3 wired box: E[y | rest] = a + 1 at 4 SE
    g = build_box(2, 1, w=1.0, boundary="wired")
    rng = philox_stream(606)
    f = exact_field(g, rng)
    green0 = fresh_green(g, f.beta)
    beta_work = f.beta.copy()
    details = []
    ok = True
    for j in (0, 4):
        ys = np.empty(100_000)
        a = 0.0
        for i in range(ys.size):
            green = green0.copy()
            y, a = gibbs_update_site(beta_work, green, g.eta, j, rng)
            beta_work[j] = f.beta[j]
            ys[i] = y
        dev = abs(ys.mean() - (a + 1.0)) / (ys.std(ddof=1) / np.sqrt(ys.size))
        ok = ok and dev <= 4.0
        details.append(f"site {j}: a={a:.3f}, dev {dev:.2f} SE")
    _verdict("C4", ok, "; ".join(details))


def test_c05_ids_exponent_and_upper_bound():
    # d=1, W=1, Dirichlet, half side 2000: slope in [0.4, 0.6], sqrt bound
    energies = np.geomspace(1e-4, 1e-2, 10)
    t0 = time.perf_counter()
    curve = estimate_ids(
        1, 2000, 1.0, "dirichlet", energies,
        MonteCarloConfig(n_samples=20_000, seed=303, chains=4),
    )
    elapsed = time.perf_counter() - t0
    fit = fit_loglog_slope(curve)
    audit = bound_audit(curve)
    ok = 0.4 <= fit["slope"] <= 0.6 and audit["upper_ok"] and elapsed < 1800.0
    _verdict(
        "C5",
        ok,
        f"slope {fit['slope']:.4f}, bound margin {audit['upper_margin_min']:.2e}, {elapsed:.0f}s",
    )


def test_c06_wegner_increments():
    # d=1, W=1, E=0.5: spectral mass of (E-eps, E+eps] under the sqrt bound
    rep = wegner_audit(
        1, 500, 1.0, "simple", 0.5, (0.1, 0.05, 0.01),
        MonteCarloConfig(n_samples=20_000, seed=707, chains=4),
    )
    worst = max(r["estimate"] / r["bound"] for r in rep["rows"])
    _verdict("C6", rep["all_passed"], f"worst estimate/bound ratio {worst:.3f}")


def test_c07_resistance_identity():
    # tilted Dirichlet Green value == network effective resistance, per sample
    details = []
    ok = True
    for d, big, small in ((1, 20, 5), (2, 8, 3)):
        g = build_box(d, big, w=1.0, boundary="wired")
        rng = philox_stream(808 + d)
        worst_rel = worst_harm = 0.0
        for _ in range(100):
            f = exact_field(g, rng)
            rep = identity_check(f, small, tol=1e-8)
            worst_rel = max(worst_rel, rep.rel_err)
            worst_harm = max(worst_harm, rep.harmonic_residual)
        ok = ok and worst_rel <= 1e-8 and worst_harm <= 1e-10
        details.append(f"d={d}: rel {worst_rel:.1e}, harmonic {worst_harm:.1e}")
    _verdict("C7", ok, "; ".join(details))


def test_c08_boundary_mass_martingale():
    # d=2, outer half side 8, inner {2,3,4}: E[psi]=1 and constant bracket
    rep = martingale_check(
        2, 8, (2, 3, 4), 1.0, MonteCarloConfig(n_samples=4000, seed=404, chains=4)
    )
    worst = max(r["mean_dev_se"] for r in rep["rows"])
    ok = rep["means_ok"] and rep["brackets_ok"]
    _verdict("C8", ok, f"worst mean deviation {worst:.2f} SE, brackets constant")


def test_c09_coupling_monotonicity():
    # 3-vertex wired path at w = 0.5 vs 1.0: MC ordering + quadrature match
    g_low = build_grid((3,), w=0.5, boundary="wired")
    g_high = build_grid((3,), w=1.0, boundary="wired")
    rep = monotonicity_check(
        g_low, g_high, 0, 2,
        MonteCarloConfig(n_samples=200_000, seed=909, chains=4),
        quadrature_tol=1e-6,
    )
    ok = rep["ordering_ok"] and rep["mc_matches_quad"] and rep["quad_ordering_ok"]
    _verdict(
        "C9", ok, f"gap {rep['gap']:.5f} (quadrature {rep['quad_gap']:.5f}), MC matches quadrature"
    )


def test_c10_critical_couplings():
    ok = True
    worst_res = 0.0
    for d in range(2, 7):
        rep = critical_report(d)
        worst_res = max(worst_res, rep.residual)
        ok = ok and rep.residual <= 1e-10
    for d in range(1, 7):
        closed = np.sqrt(np.pi) / (GAMMA_QUARTER * 2.0**0.75 * d)
        ok = ok and abs(fractional_moment_critical_w(d) - closed) <= 1e-12
    f2 = branching_factor(fractional_moment_critical_w(2), 2)
    ok = ok and abs(f2 - 2.908) <= 1e-3
    scan = comparison_scan(2, 10)
    ok = ok and scan["increasing"] and scan["derivatives_ok"]
    _verdict(
        "C10",
        ok,
        f"root residual {worst_res:.1e}, f(2)={f2:.4f}, "
        f"derivative err {scan['derivative_max_rel_err']:.1e}",
    )


def test_c11_cross_method_eigenvalue_counts():
    # 200 fixed random instances <= 144 vertices: the counter (Sturm on the
    # paths, Householder + Sturm on the grids) agrees with eigvalsh
    rng = philox_stream(1111)
    checked = 0
    for k in range(200):
        if k % 2 == 0:
            n = int(rng.integers(2, 25))
            g = build_grid((n,), w=float(rng.uniform(0.3, 2.0)), boundary="wired")
        else:
            rows = int(rng.integers(2, 13))
            cols = int(rng.integers(2, 145 // rows))
            g = build_grid((rows, cols), w=float(rng.uniform(0.3, 2.0)), boundary="wired")
        f = exact_field(g, rng)
        m = assemble(f, bc="simple")
        eigs = np.linalg.eigvalsh(m.to_dense())
        for energy in rng.uniform(float(eigs[0]) - 0.5, float(eigs[-1]) + 0.5, size=3):
            want = int(np.count_nonzero(eigs <= energy))
            got = count_eigenvalues_leq(m, float(energy))
            assert got == want, (k, energy, want, got)
            checked += 1

    # walk expansion against the linear solve on a 3-vertex graph
    g3 = build_grid((3,), w=0.5, boundary="wired")
    f3 = exact_field(g3, philox_stream(1212))
    m3 = operator_from_two_beta(g3, 2.0 * f3.beta, bc="simple", scaled=False, w=0.5)
    col = green_column(m3, 0)
    worst_walk = max(
        abs(path_sum_green(g3, f3.beta, 0, j, max_len=200) - col[j]) for j in range(3)
    )
    ok = checked == 600 and worst_walk <= 1e-8
    _verdict("C11", ok, f"{checked} energy checks agree exactly, walk-sum error {worst_walk:.1e}")


def test_c12_byte_identical_reruns(tmp_path):
    from rsolab.cli import main

    argv = [
        "wegner", "--d", "1", "--L", "30", "--W", "1.0", "--energy", "0.5",
        "--epsilons", "0.1,0.05", "--samples", "2000", "--seed", "7",
    ]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == 0
        runs.append((out / "wegner.csv").read_bytes())
    ok = runs[0] == runs[1]
    _verdict("C12", ok, f"rerun CSV identical ({len(runs[0])} bytes)")
