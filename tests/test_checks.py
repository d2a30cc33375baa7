"""Unit tests for the check registry: scenario context, spectrum sectors, oracle scenarios."""

import math

import numpy as np
import pytest

from bosefluct import fock
from bosefluct.checks import CheckContext, run_check

Q = (0, 0, 1)


def spectrum_workspace():
    return fock.FockWorkspace(2.0 * math.pi, [Q, (0, 0, -1)], 20)


def test_wibg_params_follow_the_amplitude():
    params = CheckContext(condensate_amplitude=2.0).wibg
    assert params.condensate_density == params.total_density == 4.0


@pytest.mark.parametrize("name", ["virial-wibg", "equivalence", "lifetime-exponents",
                                  "u-commutation", "truncation-rederivation"])
def test_wibg_checks_pass_at_larger_amplitude(name):
    assert run_check(name, CheckContext(condensate_amplitude=2.0)).passed


@pytest.mark.parametrize("kwargs", [dict(kappa=-1.0), dict(mass=math.nan), dict(v0=math.inf),
                                    dict(beta_thermal=math.inf), dict(coupling=0.0),
                                    dict(v0=0.0), dict(kappa=math.inf)],
                         ids=["kappa-negative", "mass-nan", "v0-inf", "beta-inf", "coupling-0",
                              "v0-0", "kappa-inf"])
def test_scenario_refused_at_construction(kwargs):
    with pytest.raises(ValueError):
        CheckContext(**kwargs)


@pytest.mark.parametrize("ctx", [CheckContext(condensate_density=0.25),
                                 CheckContext(total_density=2.0)], ids=["rho0-1/4", "rho-2"])
def test_goldstone_imperfect_passes_when_the_densities_differ(ctx):
    # the mean-field ground state is all condensate; rho0 sets only the thermal state
    assert ctx.imperfect_ground.condensate_density == ctx.total_density
    assert ctx.imperfect_thermal.condensate_density == ctx.condensate_density
    result = run_check("goldstone-imperfect", ctx)
    assert result.passed
    assert abs(result.details["remainder_rate"] + 0.5) < 0.1


@pytest.mark.parametrize("ctx", [CheckContext(v0=1.0 / 256.0), CheckContext(mass=1.0 / 256.0)],
                         ids=["v0-1/256", "mass-1/256"])
def test_virial_ratio_holds_for_a_small_gap(ctx):
    # Omega = 1/8: the linear regime ends near q ~ Omega, so the q-tail shrinks with it
    result = run_check("virial-wibg", ctx)
    assert result.passed
    assert abs(result.details["virial_ratio"] - 1.0) < 1e-6
    # goldstone-wibg judges the same ratio
    assert abs(run_check("goldstone-wibg", ctx).details["virial_ratio"] - 1.0) < 1e-6


def test_goldstone_wibg_passes_for_a_soft_potential():
    assert run_check("goldstone-wibg", CheckContext(v0=1e-3)).passed


@pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0, float("inf")])
def test_tolerance_not_above_zero_is_refused(tolerance):
    with pytest.raises(ValueError, match="must be positive"):
        run_check("virial-imperfect", tolerance=tolerance)


def test_spectrum_gap_is_checked_at_the_limit_away_from_the_default():
    # at the default kappa^2 = 4 m c^2 v0 cancels the q^2 term; at v0 = 0.1 it does not
    result = run_check("spectrum", CheckContext(v0=0.1))
    assert result.passed
    assert result.details["omega_rel"] < 1e-10


def test_spectrum_sector_gap_matches_the_dense_gap():
    ws = spectrum_workspace()
    for eps, g, _, gap, _ in run_check("spectrum").rows:
        dense = np.linalg.eigvalsh(fock.pair_block(ws, Q, eps, g).toarray())
        assert gap == pytest.approx(dense[1] - dense[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ctx", [CheckContext(mass=2.0), CheckContext(beta_thermal=0.5),
                                 CheckContext(mass=0.5), CheckContext(mass=4.0),
                                 CheckContext(mass=1.0 / 16.0), CheckContext(mass=1.0 / 64.0)],
                         ids=["mass-2", "beta-half", "mass-half", "mass-4", "mass-sixteenth",
                              "mass-sixty-fourth"])
def test_variance_oracle_passes_away_from_the_default(ctx):
    assert run_check("variance-oracle", ctx).passed


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
    ("divergence-exponents", {"coth", "bubble", "bubble_bound"}),
    ("bubble-scaling", {"worst_rel", "tail_factor"}),
])
def test_details_record_the_judged_values(name, keys):
    assert set(run_check(name).details) == keys


@pytest.mark.parametrize("kappa", [0.5, 1.0, 64.0])
def test_u_commutation_passes_away_from_the_default_range(kappa):
    # a narrow potential vanishes at the torus momenta of the side-2 box; a
    # wide one keeps that box, where the rounding of U stays small
    result = run_check("u-commutation", CheckContext(kappa=kappa))
    assert result.passed
    assert result.details["wibg_commutator_norm"] > 10.0 * result.details["wibg_commutator_floor"]


@pytest.mark.parametrize("mass", [1.0 / 4.0, 1.0 / 16.0])
def test_structure_factor_passes_for_a_light_gas(mass):
    result = run_check("structure-factor", CheckContext(mass=mass))
    assert result.passed
    assert result.details["full_ratio"] < result.details["full_ratio_bound"]


@pytest.mark.parametrize("v0", [1.0 / 4.0, 1.0 / 16.0])
def test_structure_factor_passes_for_a_weak_potential(v0):
    # the q window shrinks with (m c v0)^2, not with the mass alone
    result = run_check("structure-factor", CheckContext(v0=v0))
    assert result.passed
    assert result.details["full_ratio"] < result.details["full_ratio_bound"]


def test_variance_oracle_ground_rows_follow_the_closed_forms(monkeypatch):
    # the ground rows are judged against the closed forms, not a literal 1/2
    from bosefluct import fluctuations
    for name, label in (("variance_rho_imperfect", "rho_ground"),
                        ("variance_A_imperfect", "A_ground")):
        with monkeypatch.context() as patch:
            closed_fn = getattr(fluctuations, name)
            patch.setattr(fluctuations, name, lambda q, p, *a: closed_fn(q, p, *a) + 0.25)
            result = run_check("variance-oracle")
        row = next(row for row in result.rows if row[0] == label)
        assert row[1] == 0.75 and row[3] == pytest.approx(0.25)
        assert not result.passed
