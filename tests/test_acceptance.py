"""Acceptance criteria: the ten primary verification statements.

Each test exercises the corresponding registered check at its stated
tolerance and asserts the quantitative sub-conditions directly, so a
failure pinpoints which bound broke rather than just which check.
"""

import sys
from pathlib import Path

import pytest

from bosefluct import cli
from bosefluct.checks import REGISTRY, CheckContext, run_check

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

_CACHE = {}


def check(name):
    """Run each registered check once per session and reuse the result."""
    if name not in _CACHE:
        _CACHE[name] = run_check(name, CheckContext())
    return _CACHE[name]


def judged(name):
    """The judged values of check ``name`` by judgement name."""
    return {j.name: j.value for j in check(name).judgements}


class TestCriterion01Spectrum:
    """Dense two-mode diagonalization reproduces the collective spectrum."""

    def test_gap_against_closed_form(self):
        result = check("spectrum")
        assert judged("spectrum")["worst_rel"] < 1e-8
        assert len(result.rows) == 50

    def test_small_q_gap(self):
        assert judged("spectrum")["omega_rel"] < 1e-3

    def test_passes(self):
        assert check("spectrum").passed


class TestCriterion02VarianceOracle:
    """Closed-form variances match the independent Wick pairing oracle."""

    def test_ground_state_exactly_half(self):
        result = check("variance-oracle")
        by_case = {row[0]: row for row in result.rows}
        for label in ("rho_ground", "A_ground"):
            assert by_case[label][3] < 1e-12

    def test_all_four_within_tolerance(self):
        result = check("variance-oracle")
        assert judged("variance-oracle")["worst"] < 1e-3
        labels = {row[0] for row in result.rows}
        assert {"rho_thermal", "A_thermal", "rho0_wibg", "A_wibg"} <= labels

    def test_passes(self):
        assert check("variance-oracle").passed


class TestCriterion03DivergenceExponents:
    """Small-q powers: coth term -2, bubble term -1."""

    def test_exponents(self):
        result = check("divergence-exponents")
        assert abs(result.details["coth"] + 2.0) < 0.02
        assert abs(result.details["bubble"] + 1.0) < 0.05

    def test_passes(self):
        assert check("divergence-exponents").passed


class TestCriterion04DeltaExponents:
    """Abnormal-fluctuation volume exponent by phase: 1/3, 1/6, 0."""

    def test_phase_classification(self):
        result = check("delta-exponents")
        targets = {"condensed": 1.0 / 3.0, "critical": 1.0 / 6.0, "normal": 0.0}
        seen = set()
        for phase, fitted, target, err in result.rows:
            assert target == pytest.approx(targets[phase])
            assert err < 0.03
            seen.add(phase)
        assert seen == set(targets)

    def test_passes(self):
        assert check("delta-exponents").passed


class TestCriterion05Bch:
    """Weyl composition defect shrinks with volume and obeys the bound."""

    def test_monotone_decrease(self):
        rows = check("bch").rows
        defects = [row[1] for row in rows]
        assert defects == sorted(defects, reverse=True)

    def test_seminorm_bound(self):
        for _, defect, bound in check("bch").rows:
            assert defect <= bound * (1.0 + 1e-9) + 1e-9

    def test_passes(self):
        assert check("bch").passed


class TestCriterion06Clt:
    """Characteristic function is Gaussian with the closed-form variance."""

    def test_fitted_variance_within_percent(self):
        result = check("clt")
        assert judged("clt")["worst_rel"] < 0.01
        assert len(result.rows) == 10

    def test_real_character(self):
        assert judged("clt")["worst_imag"] < 1e-6

    def test_passes(self):
        assert check("clt").passed


class TestCriterion07GoldstoneClosure:
    """Canonical pair dynamics closes on the oscillator, both models."""

    @pytest.mark.parametrize("name", ["goldstone-imperfect", "goldstone-wibg"])
    def test_identity_defect(self, name):
        assert check(name).details["identity_defect"] < 1e-10
        assert judged(name)["identity_rel"] < 2e-15  # relative to ||P H rho P||

    @pytest.mark.parametrize("name", ["goldstone-imperfect", "goldstone-wibg"])
    def test_remainder_rate(self, name):
        assert check(name).details["remainder_rate"] == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("name", ["goldstone-imperfect", "goldstone-wibg"])
    def test_virial_ratio(self, name):
        assert check(name).details["virial_ratio"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("name", ["goldstone-imperfect", "goldstone-wibg"])
    def test_passes(self, name):
        assert check(name).passed


class TestCriterion08StructureFactor:
    """Linear condensate law vs nonzero full-density constant at q -> 0."""

    def test_linear_slope_constancy(self):
        assert judged("structure-factor")["slope_spread"] < 0.01

    def test_full_density_plateau(self):
        result = check("structure-factor")
        assert judged("structure-factor")["full_ratio"] < 1.05
        assert all(row[2] > 0.0 for row in result.rows)

    def test_passes(self):
        assert check("structure-factor").passed


class TestCriterion09UCommutation:
    """Full interaction commutes with density fluctuations; truncation breaks it."""

    def test_exact_commutation_and_rewrite(self):
        by_label = {row[0]: row[1] for row in check("u-commutation").rows}
        assert by_label["full_interaction_commutator"] < 1e-10
        assert by_label["quadratic_rewrite"] < 1e-10

    def test_truncated_interaction_fails_to_commute(self):
        by_label = {row[0]: row[1] for row in check("u-commutation").rows}
        assert by_label["truncated_interaction_commutator"] > 1e-3

    def test_passes(self):
        assert check("u-commutation").passed


class TestCriterion10Equivalence:
    """(f, 0) and (0, Jf) define the same limiting field in both models."""

    def test_distance_vanishes(self):
        result = check("equivalence")
        assert judged("equivalence")["worst"] < 1e-10
        assert len(result.rows) == 20
        assert {row[0] for row in result.rows} == {"imperfect", "wibg"}

    def test_passes(self):
        assert check("equivalence").passed


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_default_table_matches_the_benchmark_reference(name, tmp_path):
    """The written table agrees with the benchmark's reference cell by cell."""
    result = check(name)
    table = tmp_path / f"{name}.csv"
    cli._write_table(table, result.columns, result.rows)
    reference = (workloads.REFERENCE_DIR / f"{name}.csv").read_text()
    assert workloads.compare_tables(table.read_text(), reference) == []
