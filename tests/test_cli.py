"""Unit tests for the command-line interface."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosefluct
from bosefluct import cli
from bosefluct.checks import REGISTRY, CheckContext, run_check
from bosefluct.cli import main

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  the benchmark's table gate, read only

FAST_CHECKS = "lifetime-exponents virial-imperfect virial-wibg u-commutation"


def read_meta(path):
    return dict(line.split(": ", 1) for line in path.read_text().splitlines())


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

    def test_fock_tables_independent_of_the_blas_thread_count(self, tmp_path):
        # one process per thread count: OpenBLAS reads its setting when it loads
        cfg = write_config(tmp_path / "sweep.ini",
                           checks="bch clt goldstone-imperfect goldstone-wibg")
        src = str(Path(bosefluct.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        runs = {threads: subprocess.Popen(
                    [sys.executable, "-m", "bosefluct.cli", "run", str(cfg),
                     "--out", str(tmp_path / threads)],
                    env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                    stdout=subprocess.DEVNULL)
                for threads in ("1", "2")}
        assert [run.wait(timeout=300) for run in runs.values()] == [0, 0]
        tables = [{p.name: p.read_bytes() for p in sorted((tmp_path / threads).glob("*.csv"))}
                  for threads in runs]
        assert len(tables[0]) == 4 and tables[0] == tables[1]

    def test_fock_checks_keep_one_core_busy(self):
        # at the default OpenBLAS thread count: a BLAS call on a few dozen rows or more wakes
        # a second thread, which spins between calls and doubles CPU time against wall time
        script = ("import time\n"
                  "from bosefluct.checks import run_check\n"
                  "wall, cpu = time.perf_counter(), time.process_time()\n"
                  "for name in ('bch', 'clt', 'goldstone-imperfect', 'goldstone-wibg'):\n"
                  "    run_check(name)\n"
                  "print(time.process_time() - cpu, time.perf_counter() - wall)\n")
        src = str(Path(bosefluct.__file__).parents[1])
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        cpu, wall = map(float, done.stdout.split())
        assert cpu <= 1.25 * wall

    def test_output_dir_defaults_to_the_current_directory(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "sweep.ini", checks="lifetime-exponents")
        out_dir = tmp_path / "cwd"
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        assert main(["run", str(cfg)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "lifetime-exponents.csv", "lifetime-exponents.csv.meta"]

    def test_unknown_check_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini", checks="no-such-check")
        assert main(["run", str(cfg)]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_bad_scenario_field(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\ntemperature = 3\n[run]\nchecks = spectrum\n")
        assert main(["run", str(cfg)]) == 2

    def test_meta_records_every_judgement(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.ini", checks=" ".join(REGISTRY))
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
        for name, spec in REGISTRY.items():
            meta = read_meta(out_dir / f"{name}.csv.meta")
            assert float(meta["tolerance"]) == spec.default_tolerance
            assert meta["tolerance_source"] == "default"
            judgements = run_check(name).judgements
            for j in judgements:
                assert {j.name, f"{j.name}_bound", f"{j.name}_margin"} <= set(meta)
                assert float(meta[f"{j.name}_bound"]) == j.bound
            holds = all(float(meta[f"{j.name}_margin"]) > 0.0 for j in judgements)
            assert meta["passed"] == str(holds) == "True"
            # the default scenario's tables are the benchmark's reference tables
            reference = (workloads.REFERENCE_DIR / f"{name}.csv").read_text()
            assert workloads.compare_tables((out_dir / f"{name}.csv").read_text(), reference) == []

    def test_tolerance_override_shows_in_the_meta(self, tmp_path, capsys):
        # equivalence's distance is exactly 0 at the default, so it passes even 1e-30
        cfg = write_config(tmp_path / "sweep.ini", checks="equivalence variance-oracle",
                           extra="[tolerances]\nequivalence = 1e-30\nvariance-oracle = 1e-30\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 1
        for name, passed in (("equivalence", "True"), ("variance-oracle", "False")):
            meta = read_meta(out_dir / f"{name}.csv.meta")
            assert meta["tolerance"] == meta["worst_bound"] == "1e-30"
            assert meta["tolerance_source"] == "config"
            assert meta["passed"] == passed == str(float(meta["worst_margin"]) > 0.0)
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("equivalence: pass") for line in lines)
        line = next(line for line in lines if line.startswith("variance-oracle: "))
        assert line.startswith("variance-oracle: FAIL") and line.endswith("; worst fails)")

    def test_tolerance_override_can_fail(self, tmp_path, capsys):
        # the check passes at its default tolerance and fails under a tight [tolerances] entry
        plain = write_config(tmp_path / "plain.ini", checks="divergence-exponents")
        assert main(["run", str(plain), "--out", str(tmp_path / "plain")]) == 0
        assert "FAIL" not in capsys.readouterr().out
        tight = write_config(tmp_path / "tight.ini", checks="divergence-exponents",
                             extra="[tolerances]\ndivergence-exponents = 1e-12\n")
        assert main(["run", str(tight), "--out", str(tmp_path / "tight")]) == 1
        assert "divergence-exponents: FAIL" in capsys.readouterr().out

    def test_tolerance_from_config(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.ini", checks="divergence-exponents",
                           extra="[tolerances]\ndivergence-exponents = 1e-12\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 1
        meta = read_meta(out_dir / "divergence-exponents.csv.meta")
        assert meta["tolerance"] == "1e-12"
        assert meta["tolerance_source"] == "config"

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("route", ["config", "unselected"])
    def test_bad_tolerance_value_is_config_error(self, tmp_path, capsys, route, value):
        # every [tolerances] entry is judged, whether or not its check runs
        checks = "equivalence" if route == "config" else "lifetime-exponents"
        cfg = write_config(tmp_path / "sweep.ini", checks=checks,
                           extra=f"[tolerances]\nequivalence = {value}\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not any(out_dir.glob("*.csv"))

    @pytest.mark.parametrize("field,value", [("beta_thermal", "inf"), ("mass", "nan"),
                                             ("coupling", "-inf"), ("coupling", "-1"),
                                             ("mass", "-1"),
                                             ("beta_thermal", "0"),
                                             ("condensate_density", "2"), ("v0", "-1"),
                                             ("kappa", "0")])
    def test_non_finite_scenario_is_config_error(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[scenario]\n{field} = {value}\n"
                       "[run]\nchecks = equivalence bubble-scaling\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("field,checks", [
        ("condensate_amplitude", "virial-wibg equivalence lifetime-exponents"),
        ("condensate_density", "virial-imperfect divergence-exponents")])
    def test_no_condensate_is_config_error(self, tmp_path, capsys, field, checks):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[scenario]\n{field} = 0\n[run]\nchecks = {checks}\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (f"config error: {field} must be nonzero: "
                                           "every scenario has a condensate\n")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_zero_coupling_is_config_error(self, tmp_path, capsys):
        # the mean-field Goldstone remainder vanishes without a coupling
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[scenario]\ncoupling = 0\n[run]\nchecks = goldstone-imperfect\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("config error: coupling must be nonzero")
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

    def test_raising_check_removes_an_earlier_table(self, tmp_path, monkeypatch):
        # an error meta must not sit next to a table that an earlier run wrote
        out_dir = tmp_path / "o"
        first = write_config(tmp_path / "first.ini", checks="equivalence")
        assert main(["run", str(first), "--out", str(out_dir)]) == 0
        assert (out_dir / "equivalence.csv").exists()

        def raising(ctx, tol):
            return 1.0 / 0.0

        monkeypatch.setitem(REGISTRY, "equivalence",
                            dataclasses.replace(REGISTRY["equivalence"], runner=raising))
        second = write_config(tmp_path / "second.ini", checks="equivalence virial-imperfect")
        assert main(["run", str(second), "--out", str(out_dir)]) == 1
        assert not (out_dir / "equivalence.csv").exists()
        assert read_meta(out_dir / "equivalence.csv.meta")["status"] == "error"
        assert (out_dir / "virial-imperfect.csv").exists()

    def test_meta_records_status_and_thread_time(self, tmp_path, monkeypatch):
        def raising(ctx, tol):
            return 1.0 / 0.0

        monkeypatch.setitem(REGISTRY, "equivalence",
                            dataclasses.replace(REGISTRY["equivalence"], runner=raising))
        cfg = write_config(tmp_path / "sweep.ini",
                           checks="virial-imperfect divergence-exponents equivalence",
                           extra="[tolerances]\ndivergence-exponents = 1e-12\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 1
        for name, status, passed in (("virial-imperfect", "pass", "True"),
                                     ("divergence-exponents", "fail", "False"),
                                     ("equivalence", "error", "False")):
            meta = read_meta(out_dir / f"{name}.csv.meta")
            assert (meta["status"], meta["passed"]) == (status, passed)
            if status == "error":
                assert "thread_time_s" not in meta and "wall_time_s" not in meta
            else:
                assert 0.0 <= float(meta["thread_time_s"]) < math.inf
                keys = list(meta)
                assert keys.index("thread_time_s") == keys.index("wall_time_s") + 1

    @pytest.mark.parametrize("route,value", [("config", "-3"), ("config", "0"),
                                             ("flag", "0"), ("flag", "-2")])
    def test_worker_count_below_one_is_config_error(self, tmp_path, capsys, route, value):
        extra = f"workers = {value}\n" if route == "config" else ""  # an unknown [run] key
        cfg = write_config(tmp_path / "sweep.ini", checks="equivalence", extra=extra)
        out_dir = tmp_path / "o"
        argv = ["run", str(cfg), "--out", str(out_dir)]
        if route == "flag":
            argv += ["--workers", value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("extra", [
        "[tolerance]\ndivergence-exponents = 1e-12\n",  # a typo must not judge at the default
        "out = x\n",
        "[tolerances]\nno-such-check = 1e-3\n"], ids=["section", "run-key", "tolerance-key"])
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path / "sweep.ini", checks="divergence-exponents", extra=extra)
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown ")
        assert not out_dir.exists()

    def test_repeated_check_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.ini", checks="lifetime-exponents lifetime-exponents")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "config error: check 'lifetime-exponents' is selected twice\n")
        assert not out_dir.exists()

    def test_meta_records_the_scenario(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[scenario]\ncondensate_amplitude = -1\n[run]\nchecks = virial-wibg\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        meta = read_meta(tmp_path / "virial-wibg.csv.meta")
        scenario = dataclasses.asdict(CheckContext(condensate_amplitude=-1.0))
        assert {key: meta[f"scenario_{key}"] for key in scenario} == {
            key: str(value) for key, value in scenario.items()}
        assert meta["scenario_condensate_amplitude"] == "-1.0"

    def test_readme_example_config_loads(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        example = readme.split("## CLI", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "example.ini"
        cfg.write_text(example)
        ctx, names, tols, _ = cli._load_config(cfg)
        assert names and set(names) <= set(tols) <= set(REGISTRY)
        assert any(tols[name] != REGISTRY[name].default_tolerance for name in names)


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

    @pytest.mark.parametrize("command", [
        ["run", "CONFIG"],
        ["spectrum", "--model", "wibg", "--qmin", "0.1", "--qmax", "1.0", "--points", "3"]],
        ids=["run", "spectrum"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "sweep.ini", checks="lifetime-exponents")
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = [str(cfg) if arg == "CONFIG" else arg for arg in command]
        assert main(argv + ["--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"error: --out {taken}: File exists\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini", "taken"]
