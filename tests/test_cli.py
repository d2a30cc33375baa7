"""Unit tests for the command-line interface."""

import dataclasses

import pytest

from bosefluct.checks import REGISTRY
from bosefluct.cli import OUTPUT_DIR_ENV, main

FAST_CHECKS = "lifetime-exponents virial-imperfect virial-wibg u-commutation"


def write_config(path, checks=FAST_CHECKS, extra=""):
    path.write_text(
        "[scenario]\n"
        "beta_thermal = 1.0\n"
        "coupling = 1.0\n"
        "[run]\n"
        f"checks = {checks}\n"
        f"{extra}"
    )
    return path


class TestListChecks:
    def test_registry_size_and_names(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) >= 14
        for name in ("spectrum", "variance-oracle", "goldstone-imperfect",
                     "goldstone-wibg", "structure-factor", "equivalence"):
            assert any(line.startswith(name) for line in lines)
        assert len(lines) == len(REGISTRY)


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.ini")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
        for name in FAST_CHECKS.split():
            table = out_dir / f"{name}.csv"
            meta = out_dir / f"{name}.csv.meta"
            assert table.exists() and meta.exists()
            first = table.read_text().splitlines()[0]
            assert first.startswith("# ")  # commented column header
            meta_text = meta.read_text()
            assert f"check: {name}" in meta_text
            assert "passed: True" in meta_text
            assert "config_hash: " in meta_text
        stdout = capsys.readouterr().out
        assert "all 4 checks passed" in stdout

    def test_byte_reproducible_and_worker_invariant(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.ini")
        outputs = []
        for sub, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out_dir = tmp_path / sub
            assert main(["run", str(cfg), "--out", str(out_dir),
                         "--workers", workers]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out_dir.glob("*.csv"))})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "sweep.ini", checks="lifetime-exponents")
        out_dir = tmp_path / "envout"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_dir))
        assert main(["run", str(cfg)]) == 0
        assert (out_dir / "lifetime-exponents.csv").exists()

    def test_unknown_check_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini", checks="no-such-check")
        assert main(["run", str(cfg)]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_bad_scenario_field(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\ntemperature = 3\n[run]\nchecks = spectrum\n")
        assert main(["run", str(cfg)]) == 2

    def test_tolerance_override_can_fail(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.ini", checks="divergence-exponents")
        code = main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--tol", "divergence-exponents=1e-12"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_from_config(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.ini", checks="divergence-exponents",
                           extra="[tolerances]\ndivergence-exponents = 1e-12\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_bad_tolerance_value_is_config_error(self, tmp_path, capsys, route, value):
        extra = f"[tolerances]\nequivalence = {value}\n" if route == "config" else ""
        cfg = write_config(tmp_path / "sweep.ini", checks="equivalence", extra=extra)
        out_dir = tmp_path / "o"
        argv = ["run", str(cfg), "--out", str(out_dir)]
        if route == "flag":
            argv += ["--tol", f"equivalence={value}"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not any(out_dir.glob("*.csv"))

    @pytest.mark.parametrize("field,value", [("beta_thermal", "inf"), ("mass", "nan"),
                                             ("coupling", "-inf")])
    def test_non_finite_scenario_is_config_error(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[scenario]\n{field} = {value}\n"
                       "[run]\nchecks = equivalence bubble-scaling\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_raising_check_keeps_the_others(self, tmp_path, capsys, monkeypatch):
        def raising(ctx, tol):
            return 1.0 / 0.0

        monkeypatch.setitem(REGISTRY, "equivalence",
                            dataclasses.replace(REGISTRY["equivalence"], runner=raising))
        cfg = write_config(tmp_path / "sweep.ini", checks="equivalence virial-imperfect")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "equivalence: ERROR (ZeroDivisionError: float division by zero)" in captured.err
        assert "virial-imperfect: pass" in captured.out
        assert (out_dir / "virial-imperfect.csv").exists()
        assert not (out_dir / "equivalence.csv").exists()
        meta = (out_dir / "equivalence.csv.meta").read_text().splitlines()
        assert "passed: False" in meta
        assert "error: ZeroDivisionError: float division by zero" in meta

    @pytest.mark.parametrize("route,value", [("config", "-3"), ("config", "0"),
                                             ("flag", "0"), ("flag", "-2")])
    def test_worker_count_below_one_is_config_error(self, tmp_path, capsys, route, value):
        extra = f"workers = {value}\n" if route == "config" else ""
        cfg = write_config(tmp_path / "sweep.ini", checks="equivalence", extra=extra)
        out_dir = tmp_path / "o"
        argv = ["run", str(cfg), "--out", str(out_dir)]
        if route == "flag":
            argv += ["--workers", value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_bad_tol_syntax(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.ini")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--tol", "nonsense"]) == 2


class TestSpectrum:
    def test_writes_table(self, tmp_path):
        assert main(["spectrum", "--model", "wibg", "--qmin", "0.01",
                     "--qmax", "1.0", "--points", "5",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "# q,eps_q,E_q,E_q_q_over_eps_q,omega"
        assert len(lines) == 6

    def test_imperfect_model(self, tmp_path):
        assert main(["spectrum", "--model", "imperfect", "--qmin", "0.1",
                     "--qmax", "1.0", "--points", "3",
                     "--out", str(tmp_path)]) == 0

    def test_unknown_model(self, tmp_path):
        assert main(["spectrum", "--model", "ideal", "--qmin", "0.1",
                     "--qmax", "1.0", "--points", "3",
                     "--out", str(tmp_path)]) == 2

    def test_bad_range(self, tmp_path):
        assert main(["spectrum", "--model", "wibg", "--qmin", "1.0",
                     "--qmax", "0.1", "--points", "3",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("qmin,qmax", [("0.1", "inf"), ("nan", "1.0"), ("0.1", "nan")])
    def test_non_finite_bound_refused_before_any_work(self, tmp_path, capsys, qmin, qmax):
        assert main(["spectrum", "--model", "wibg", "--qmin", qmin, "--qmax", qmax,
                     "--points", "3", "--out", str(tmp_path)]) == 2
        assert "need 0 < qmin < qmax and points >= 2" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()
