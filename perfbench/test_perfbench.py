"""Tests of the benchmark's own machinery (inputs, tracer, metric names, gates)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy.integrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bosefluct  # noqa: E402
import bosefluct.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["qsweep", "oracle"])
def test_inputs_depend_on_the_seed_only(workload):
    first = workloads.make_inputs(workload, 5)
    assert json.dumps(first) == json.dumps(workloads.make_inputs(workload, 5))
    assert json.dumps(first) != json.dumps(workloads.make_inputs(workload, 6))


def test_suite_uses_no_seed():
    assert workloads.make_inputs("suite", 1) == workloads.make_inputs("suite", 2) == {}


def test_oracle_words_are_balanced_and_within_length():
    inputs = workloads.make_inputs("oracle", 3)
    for tokens in inputs["words"]:
        assert 8 <= len(tokens) <= 12
        for mode in {tuple(m) for m, _ in tokens}:
            daggers = [d for m, d in tokens if tuple(m) == mode]
            assert daggers.count(True) == daggers.count(False)


def _bindings():
    """Every attribute the tracer may rebind, by identity."""
    modules = [bosefluct] + [getattr(bosefluct, name) for name in tracer.LAYER_MODULES]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls_name in tracer.FOCK_METHODS:
        cls = getattr(bosefluct.fock, cls_name)
        snapshot.update({(cls_name, k): v for k, v in vars(cls).items()})
    snapshot["eigvalsh"] = numpy.linalg.eigvalsh
    snapshot["quad"] = scipy.integrate.quad
    return snapshot


def test_tracer_records_spans_and_restores_every_binding():
    before = _bindings()
    trace = tracer.Tracer()
    trace.install(bosefluct)
    try:
        assert bosefluct.fluctuations.structure_factor is not before[
            ("bosefluct.fluctuations", "structure_factor")]
        assert bosefluct.structure_factor is bosefluct.fluctuations.structure_factor
        ctx = bosefluct.checks.CheckContext()
        root = trace.enter(tracer.ROOT)
        bosefluct.fluctuations.structure_factor(0.5, ctx.wibg)
        bosefluct.asymptotics.bose_bubble_integral(0.5, ctx.imperfect_thermal)
        trace.exit(root)
    finally:
        trace.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert trace.calls["fluctuations.structure_factor"] == 1
    assert trace.calls["fluctuations.variance_rho0_wibg"] == 1
    assert trace.calls["asymptotics.quad"] >= 1 and trace.counts["integrand_evals"] > 0
    # self times telescope: together they cover the root span exactly
    assert sum(trace.self_s.values()) == pytest.approx(trace.total_s[tracer.ROOT], rel=1e-9)


def test_every_reported_metric_is_declared():
    declared = {kind: {m["name"] for m in DECLARED[kind]} for kind in ("end_to_end", "per_layer")}
    layers = tracer.Tracer().metrics(workloads.reference_checks())
    passes = [{"traced": False, "wall_s": 1.0},
              {"traced": True, "wall_s": 1.5, "layers": layers, "spans": 0}]
    assert set(run.layer_metrics(passes)) == declared["per_layer"]
    assert set(run.END_TO_END) == declared["end_to_end"]


def test_reference_tables_cover_the_registry():
    assert workloads.reference_checks() == sorted(bosefluct.checks.REGISTRY)


def test_table_gate_tolerance():
    ref = "# q,label,value\n0.5,coth,1.0\n0.25,bubble,1e-14\n"
    assert workloads.compare_tables(ref, ref) == []
    close = "# q,label,value\n0.5,coth,1.0000001\n0.25,bubble,2e-14\n"
    assert workloads.compare_tables(close, ref) == []
    far = "# q,label,value\n0.5,coth,1.00001\n0.25,bubble,1e-9\n"
    assert len(workloads.compare_tables(far, ref)) == 2
    renamed = "# q,label,value\n0.5,coth2,1.0\n0.25,bubble,1e-14\n"
    assert len(workloads.compare_tables(renamed, ref)) == 1


def test_missing_tables_fail_every_check(tmp_path):
    checks = workloads.reference_checks()
    failures = workloads.gate_suite(1, tmp_path, checks)
    assert len(failures) == len(checks) and all(failures)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qsweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
