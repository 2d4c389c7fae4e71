"""Command-line contract: exit codes, output formats, determinism, overrides.

Every invocation goes through main(argv) in-process; one subprocess smoke
test covers the `rso` entry point declared in pyproject.toml, run in a fresh
interpreter the way the installed wrapper runs it.  Reruns into the same
directory must reproduce CSV and JSON summaries byte for byte.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsolab
import rsolab.field
import rsolab.stats
from rsolab.cli import main
from rsolab.graphs import build_grid, dump_graph


def run(tmp_path, *argv) -> int:
    return main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])


def load_summary(tmp_path, command) -> dict:
    return json.loads((tmp_path / f"{command}.json").read_text())


class TestParsing:
    def test_version_and_help_exit_zero(self, capsys):
        assert main(["--version"]) == 0
        assert main(["--help"]) == 0
        assert main(["critical", "--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command_and_flag(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["critical", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_removed_workers_flag_is_rejected(self, tmp_path, capsys):
        # chains run serially; a leftover --workers must fail, not be ignored
        code = run(tmp_path, "ids", "--d", "1", "--L", "5", "--W", "1.0",
                   "--samples", "10", "--workers", "2")
        assert code == 1
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not (tmp_path / "ids.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("ids", "--d", "1", "--L", "5", "--W", "1.0", "--samples", "10", "--sampler", "gibbs"),
            ("monotonicity", "--vertices", "2", "--samples", "10", "--burn-in", "5"),
        ],
    )
    def test_removed_gibbs_flags_are_rejected(self, tmp_path, capsys, argv):
        # estimators draw exact samples only; Gibbs flags belong to `sample`
        assert run(tmp_path, *argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_required_flag(self, capsys):
        assert main(["ids", "--d", "1"]) == 1  # --L and --W missing
        capsys.readouterr()

    def test_bad_list_value(self, tmp_path, capsys):
        code = run(tmp_path, "wegner", "--d", "1", "--L", "5", "--W", "1",
                   "--energy", "0.5", "--epsilons", "0.1,abc")
        assert code == 1
        assert "--epsilons" in capsys.readouterr().err


class TestCritical:
    def test_point_report_d2(self, tmp_path, capsys):
        assert run(tmp_path, "critical", "--d", "2") == 0
        out = capsys.readouterr().out
        assert "critical: pass" in out
        summary = load_summary(tmp_path, "critical")
        assert summary["command"] == "critical"
        assert summary["passed"] is True
        res = summary["results"]["report"]
        assert abs(res["w_c"]["value"] - 0.0062319690769072605) < 1e-11
        assert res["w_c"]["infinite"] is False
        assert res["residual"] <= 1e-10

    def test_d1_serializes_none_not_infinity(self, tmp_path, capsys):
        assert run(tmp_path, "critical", "--d", "1") == 0
        capsys.readouterr()
        text = (tmp_path / "critical.json").read_text()
        assert "Infinity" not in text
        res = json.loads(text)["results"]["report"]
        assert res["w_c"] == {"value": None, "infinite": True}
        assert res["w_cr"] == {"value": None, "infinite": True}

    def test_requires_d_or_scan(self, tmp_path, capsys):
        assert run(tmp_path, "critical") == 1
        assert "--d or --scan" in capsys.readouterr().err

    def test_scan_writes_csv_and_reruns_identically(self, tmp_path, capsys):
        assert run(tmp_path, "critical", "--scan", "--d-min", "2", "--d-max", "5") == 0
        csv1 = (tmp_path / "critical_scan.csv").read_bytes()
        json1 = (tmp_path / "critical.json").read_bytes()
        assert run(tmp_path, "critical", "--scan", "--d-min", "2", "--d-max", "5") == 0
        capsys.readouterr()
        assert (tmp_path / "critical_scan.csv").read_bytes() == csv1
        assert (tmp_path / "critical.json").read_bytes() == json1
        header = csv1.split(b"\n", 1)[0]
        assert header == b"d,f_value"


class TestSample:
    def test_exact_dump_shape_and_summary(self, tmp_path, capsys):
        code = run(tmp_path, "sample", "--d", "1", "--L", "2", "--W", "1.0",
                   "--samples", "6", "--seed", "3")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "sample.csv").read_text().splitlines()
        assert lines[0] == "sweep,vertex,beta"
        assert len(lines) == 1 + 6 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        float(first[2])  # parseable 17-significant-digit value
        summary = load_summary(tmp_path, "sample")
        assert summary["results"]["n_samples"] == 6
        assert summary["seeds"]["master"] == 3
        assert len(summary["seeds"]["chain_keys"]) == 1

    def test_config_file_fills_unset_flags(self, tmp_path, capsys):
        cfg = tmp_path / "sampler.cfg"
        cfg.write_text("# sampler settings\nseed = 42\nburn-in = 30\nthinning = 2\nchains = 2\n")
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1.0",
                   "--samples", "4", "--sampler", "gibbs", "--config", str(cfg))
        assert code == 0
        capsys.readouterr()
        eff = load_summary(tmp_path, "sample")["results"]["effective"]
        assert eff == {"seed": 42, "burn_in": 30, "thinning": 2, "chains": 2,
                       "refresh_every": None}

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sampler.cfg"
        cfg.write_text("seed = 42\n")
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1.0",
                   "--samples", "2", "--seed", "9", "--config", str(cfg))
        assert code == 0
        capsys.readouterr()
        assert load_summary(tmp_path, "sample")["seeds"]["master"] == 9

    def test_config_file_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "sampler.cfg"
        cfg.write_text("temperature = 3\n")
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1.0",
                   "--config", str(cfg))
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_gibbs_settings_validated_for_every_sampler(self, tmp_path, capsys):
        # the summary reports these settings, so the exact sampler checks them too
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1", "--samples", "2",
                   "--thinning", "0", "--burn-in", "-3", "--refresh-every", "0")
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "sample.csv").exists()

    def test_row_cap_refused_before_sampling(self, tmp_path, capsys):
        code = run(tmp_path, "sample", "--d", "2", "--L", "40", "--W", "1.0",
                   "--samples", "1000")
        assert code == 1
        assert "rows" in capsys.readouterr().err

    def test_env_seed_overrides_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RSO_SEED", "777")
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1.0",
                   "--samples", "2", "--seed", "5")
        assert code == 0
        capsys.readouterr()
        assert load_summary(tmp_path, "sample")["seeds"]["master"] == 777

    def test_env_seed_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RSO_SEED", "abc")
        code = run(tmp_path, "sample", "--d", "1", "--L", "1", "--W", "1.0")
        assert code == 1
        assert "RSO_SEED" in capsys.readouterr().err


class TestStochasticCommands:
    def test_wegner_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ("wegner", "--d", "1", "--L", "10", "--W", "1.0", "--energy", "0.5",
                "--epsilons", "0.1,0.05", "--samples", "60", "--seed", "4")
        assert run(tmp_path, *argv) == 0
        csv1 = (tmp_path / "wegner.csv").read_bytes()
        json1 = (tmp_path / "wegner.json").read_bytes()
        assert run(tmp_path, *argv) == 0
        capsys.readouterr()
        assert (tmp_path / "wegner.csv").read_bytes() == csv1
        assert (tmp_path / "wegner.json").read_bytes() == json1
        assert csv1.split(b"\n", 1)[0] == b"epsilon,estimate,std_error,bound,passed,ratio_to_epsilon"

    def test_ids_quick_run(self, tmp_path, capsys):
        code = run(tmp_path, "ids", "--d", "1", "--L", "50", "--W", "1.0",
                   "--samples", "200", "--e-min", "0.001", "--e-max", "0.1",
                   "--n-energies", "4", "--seed", "1")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "ids.csv").read_text().splitlines()
        assert lines[0] == "energy,estimate,std_error,upper_bound,n_samples"
        assert len(lines) == 5
        summary = load_summary(tmp_path, "ids")
        assert summary["passed"] is True
        assert summary["config"]["samples"] == 200

    def test_decay_quick_run(self, tmp_path, capsys):
        code = run(tmp_path, "decay", "--d", "1", "--L", "5", "--W", "1.0",
                   "--samples", "100", "--seed", "6")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "decay.csv").read_text().splitlines()
        assert lines[0] == "distance,log_moment,fitted"
        assert len(lines) == 7

    def test_martingale_quick_run(self, tmp_path, capsys):
        code = run(tmp_path, "martingale", "--d", "1", "--K", "4", "--inner", "1,2",
                   "--W", "1.0", "--samples", "500", "--seed", "8")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "martingale.csv").read_text().splitlines()
        assert lines[0] == ("half_side,psi_mean,psi_std_error,psi_dev_se,"
                            "bracket_mean,bracket_std_error")

    def test_monotonicity_quick_run(self, tmp_path, capsys):
        code = run(tmp_path, "monotonicity", "--samples", "3000", "--seed", "10")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "monotonicity.csv").read_text().splitlines()
        assert lines[0] == "measure,w,estimate,std_error,quadrature"
        assert len(lines) == 3

    def test_resistance_quick_run(self, tmp_path, capsys):
        code = run(tmp_path, "resistance", "--d", "1", "--K", "5", "--L", "2",
                   "--W", "1.0", "--samples", "5", "--seed", "12")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "resistance.csv").read_text().splitlines()
        assert lines[0] == "sample,lhs,rhs,rel_err,harmonic_residual,nash_williams"
        assert len(lines) == 6


class TestFailureExitCodes:
    def test_numeric_failure_is_exit_two(self, tmp_path, capsys):
        # an unreachable quadrature certification budget aborts with code 2
        code = run(tmp_path, "monotonicity", "--samples", "500", "--quad-tol", "1e-12")
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_audit_failure_is_exit_three(self, tmp_path, capsys):
        code = run(tmp_path, "resistance", "--d", "1", "--K", "5", "--L", "2",
                   "--W", "1.0", "--samples", "3", "--tol", "1e-18")
        assert code == 3
        out = capsys.readouterr().out
        assert "resistance: FAIL" in out
        assert load_summary(tmp_path, "resistance")["passed"] is False

    def test_semantic_config_error_is_exit_one(self, tmp_path, capsys):
        code = run(tmp_path, "resistance", "--d", "1", "--K", "2", "--L", "3",
                   "--W", "1.0")
        assert code == 1
        assert "--L" in capsys.readouterr().err


class TestValidate:
    def test_reduced_suite_passes(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--samples", "2000", "--rig-samples", "20000",
                   "--identity-samples", "2", "--seed", "0")
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "validate.csv").read_text().splitlines()
        assert lines[0] == "check,value,threshold,passed"
        assert all(line.endswith(",1") for line in lines[1:])
        summary = load_summary(tmp_path, "validate")
        assert summary["passed"] is True
        names = [c["check"] for c in summary["results"]["checks"]]
        assert any(n.startswith("laplace") for n in names)
        assert any(n.startswith("rig_ks") for n in names)
        assert any(n.startswith("identity_rel") for n in names)
        assert {"gibbs_gamma_mean_dev_se", "gibbs_gamma_ks"} <= set(names)

    def test_graph_roundtrip_check(self, tmp_path, capsys):
        g = build_grid((2, 2), 1.0, boundary="wired")
        dump = tmp_path / "square.graph"
        dump.write_text(dump_graph(g))
        code = run(tmp_path, "validate", "--samples", "2000", "--rig-samples", "20000",
                   "--identity-samples", "2", "--graph", str(dump))
        assert code == 0
        capsys.readouterr()
        names = [c["check"] for c in load_summary(tmp_path, "validate")["results"]["checks"]]
        assert "graph_roundtrip_stable" in names
        assert "graph_laplace_dev_se" in names

    def test_missing_graph_file(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--samples", "2000", "--rig-samples", "20000",
                   "--graph", str(tmp_path / "nope.graph"))
        assert code == 1
        capsys.readouterr()


class TestJsonSummaryShape:
    def test_summary_keys_and_sorted_json(self, tmp_path, capsys):
        assert run(tmp_path, "critical", "--d", "3") == 0
        capsys.readouterr()
        raw = (tmp_path / "critical.json").read_text()
        summary = json.loads(raw)
        assert set(summary) == {"command", "config", "version", "results", "passed", "seeds"}
        assert raw == json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert summary["config"]["d"] == 3


def child_env() -> dict:
    """Environment in which a child interpreter imports this suite's rsolab."""
    env = dict(os.environ)
    src = str(Path(rsolab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_smoke(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rso"]
    assert target == "rsolab.cli:main"
    # the body of the wrapper script that an installer writes for this entry point
    wrapper = "import sys; from rsolab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "critical", "--d", "2", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "critical: pass" in proc.stdout


def test_module_main_matches_script():
    proc = subprocess.run(
        [sys.executable, "-m", "rsolab.cli", "--version"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("rso ")


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # only validate, the pinning KS report, the Gamma-marginal audit and the
    # Levy concentration use them, so they load inside those functions
    probe = (
        "import sys, rsolab.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_traced_layer_names_exist():
    # perfbench/traced.py wraps layers by the names their callers look up; a
    # renamed layer would read 0 in the per-layer metrics instead of failing
    layers = {"cli": rsolab.cli, "field": rsolab.field, "stats": rsolab.stats}
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "traced.py").read_text())
    patched = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    ]
    assert len(patched) >= 10
    assert [f"{mod}.{attr}" for mod, attr in patched if not hasattr(layers[mod], attr)] == []
