"""Unit tests for the check registry's scenario context."""

import pytest

from bosefluct.checks import CheckContext, run_check


def test_wibg_params_follow_the_amplitude():
    params = CheckContext(condensate_amplitude=2.0).wibg
    assert params.condensate_density == params.total_density == 4.0


@pytest.mark.parametrize("name", ["virial-wibg", "equivalence", "lifetime-exponents",
                                  "u-commutation", "truncation-rederivation"])
def test_wibg_checks_pass_at_larger_amplitude(name):
    assert run_check(name, CheckContext(condensate_amplitude=2.0)).passed


@pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0])
def test_tolerance_not_above_zero_is_refused(tolerance):
    with pytest.raises(ValueError, match="must be positive"):
        run_check("virial-imperfect", tolerance=tolerance)


def test_goldstone_wibg_rows_are_bit_identical():
    assert run_check("goldstone-wibg").rows == run_check("goldstone-wibg").rows


@pytest.mark.parametrize("name,keys", [
    ("delta-exponents", {"delta_condensed", "delta_critical", "delta_normal", "worst_error"}),
    ("u-commutation", {"commutator_defect", "rewrite_defect", "wibg_commutator_norm",
                       "wibg_commutator_floor"}),
    ("truncation-rederivation", {"reordering_defect", "substitution_defect"}),
    ("lifetime-exponents", {"exponent_imperfect", "exponent_wibg", "worst_error"}),
    ("spectrum", {"worst_rel", "omega_rel", "omega_rel_bound"}),
    ("structure-factor", {"slope_spread", "full_ratio", "full_ratio_bound"}),
])
def test_details_record_the_judged_values(name, keys):
    assert set(run_check(name).details) == keys
