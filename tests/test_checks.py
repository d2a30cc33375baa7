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
