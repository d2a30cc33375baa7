"""Unit tests for the check registry: scenario context, spectrum sectors, oracle scenarios."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bosefluct import checks, fock
from bosefluct.checks import REGISTRY, CheckContext, CheckResult, Judgement, run_check

Q = (0, 0, 1)


def judged(result):
    return {j.name: j for j in result.judgements}


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
                                    dict(v0=0.0), dict(kappa=math.inf), dict(coupling=-1.0)],
                         ids=["kappa-negative", "mass-nan", "v0-inf", "beta-inf", "coupling-0",
                              "v0-0", "kappa-inf", "coupling-negative"])
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
    assert judged(result)["omega_rel"].value < 1e-10


def test_spectrum_sector_gap_matches_the_dense_gap():
    ws = spectrum_workspace()
    for eps, g, _, gap, _ in run_check("spectrum").rows:
        dense = np.linalg.eigvalsh(fock.pair_block(ws, Q, eps, g).tocsr().toarray())
        assert gap == pytest.approx(dense[1] - dense[0], rel=1e-12, abs=0.0)


def test_no_check_multiplies_two_sparse_matrices(monkeypatch):
    # operator algebra runs on stride diagonals; CSR goes only to scipy's solvers and slices
    def refuse(*args, **kwargs):
        raise AssertionError("sparse x sparse product")
    monkeypatch.setattr(sp._compressed._cs_matrix, "_matmul_sparse", refuse)
    ws = spectrum_workspace()
    with pytest.raises(AssertionError, match="sparse x sparse"):  # the patch holds
        ws.creator(Q) @ ws.creator(Q)
    assert len(REGISTRY) == 16
    for name in REGISTRY:
        assert run_check(name).passed, name


@pytest.mark.parametrize("ctx", [CheckContext(mass=2.0), CheckContext(beta_thermal=0.5),
                                 CheckContext(mass=0.5), CheckContext(mass=4.0),
                                 CheckContext(mass=1.0 / 16.0), CheckContext(mass=1.0 / 64.0)],
                         ids=["mass-2", "beta-half", "mass-half", "mass-4", "mass-sixteenth",
                              "mass-sixty-fourth"])
def test_variance_oracle_passes_away_from_the_default(ctx):
    assert run_check("variance-oracle", ctx).passed


def test_goldstone_wibg_rows_are_bit_identical():
    assert run_check("goldstone-wibg").rows == run_check("goldstone-wibg").rows


# judged values map to their bounds, unjudged details to None
@pytest.mark.parametrize("name,keys", [
    ("delta-exponents", {"delta_condensed": None, "delta_critical": None, "delta_normal": None,
                         "worst_error": 0.03}),
    ("u-commutation", {"commutator_defect": 1e-10, "rewrite_defect": 1e-10,
                       "wibg_commutator_norm": checks.WIBG_COMMUTATOR_FLOOR}),
    ("truncation-rederivation", {"reordering_defect": 1e-10, "substitution_defect": 1e-10}),
    ("lifetime-exponents", {"exponent_imperfect": None, "exponent_wibg": None, "worst_error": 0.05,
                            "target_distance": checks.LIFETIME_ROUNDING_BOUND}),
    ("spectrum", {"worst_rel": 1e-8, "omega_rel": checks.OMEGA_REL_BOUND}),
    ("structure-factor", {"slope_spread": 0.01, "full_ratio": checks.FULL_RATIO_BOUND,
                          "min_full": 0.0}),
    ("divergence-exponents", {"coth": None, "bubble": None, "coth_error": 0.02,
                              "bubble_error": checks.DIVERGENCE_BUBBLE_BOUND}),
    ("bubble-scaling", {"worst_rel": 1e-5, "worst_tail": checks.BUBBLE_TAIL_FACTOR}),
])
def test_details_record_the_judged_values(name, keys):
    result = run_check(name)
    assert {j.name: j.bound for j in result.judgements} | dict.fromkeys(result.details) == keys


@pytest.mark.parametrize("kappa", [0.5, 1.0, 64.0])
def test_u_commutation_passes_away_from_the_default_range(kappa):
    # a narrow potential vanishes at the torus momenta of the side-2 box; a
    # wide one keeps that box, where the rounding of U stays small
    result = run_check("u-commutation", CheckContext(kappa=kappa))
    assert result.passed
    floor = judged(result)["wibg_commutator_norm"]
    assert floor.value > 10.0 * floor.bound


@pytest.mark.parametrize("mass", [1.0 / 4.0, 1.0 / 16.0])
def test_structure_factor_passes_for_a_light_gas(mass):
    result = run_check("structure-factor", CheckContext(mass=mass))
    assert result.passed
    assert judged(result)["full_ratio"].value < judged(result)["full_ratio"].bound


@pytest.mark.parametrize("v0", [1.0 / 4.0, 1.0 / 16.0])
def test_structure_factor_passes_for_a_weak_potential(v0):
    # the q window shrinks with (m c v0)^2, not with the mass alone
    result = run_check("structure-factor", CheckContext(v0=v0))
    assert result.passed
    assert judged(result)["full_ratio"].value < judged(result)["full_ratio"].bound


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


@pytest.mark.parametrize("name,ctx", [
    ("goldstone-imperfect", CheckContext(total_density=4.0, condensate_density=4.0)),
    ("goldstone-imperfect", CheckContext(mass=1.0 / 128.0)),
    ("goldstone-imperfect", CheckContext(mass=1.0 / 256.0)),
    ("goldstone-wibg", CheckContext(condensate_amplitude=4.0)),
    ("goldstone-wibg", CheckContext(mass=1.0 / 256.0)),
], ids=["imperfect-rho-4", "imperfect-mass-1/128", "imperfect-mass-1/256", "wibg-c-4",
        "wibg-mass-1/256"])
def test_goldstone_defects_are_judged_at_their_rounding_scale(name, ctx):
    # the absolute defects grow with the norms of the products H X, past 1e-10
    # here; divided by ||P H X P|| they stay at the rounding of one product
    result = run_check(name, ctx)
    assert result.details["identity_defect"] > 1e-10
    assert result.passed
    assert judged(result)["identity_rel"].bound == 2e-15


@pytest.mark.parametrize("value,bound,relation,holds,margin", [
    (1.0, 2.0, "<", True, 1.0), (2.0, 2.0, "<", False, 0.0), (2.0, 2.0, "<=", True, 0.0),
    (3.0, 2.0, "<=", False, -1.0), (3.0, 2.0, ">", True, 1.0), (2.0, 2.0, ">", False, 0.0),
])
def test_judgement_holds_inside_its_bound(value, bound, relation, holds, margin):
    judgement = Judgement("x", value, bound, relation)
    assert judgement.holds is holds and judgement.margin == margin


@pytest.mark.parametrize("relation", ["<", "<=", ">"])
def test_nan_never_holds(relation):
    assert not Judgement("x", math.nan, 1.0, relation).holds


def test_judgement_refuses_another_relation():
    with pytest.raises(KeyError):
        Judgement("x", 1.0, 2.0, ">=").holds


def test_result_needs_judgements_under_distinct_names():
    assert CheckResult(("a",), [], (Judgement("x", 0.0, 1.0),)).passed
    assert not CheckResult(("a",), [], (Judgement("x", 0.0, 1.0), Judgement("y", 2.0, 1.0))).passed
    for judgements in ((), (Judgement("x", 0.0, 1.0), Judgement("x", 0.5, 1.0))):
        with pytest.raises(ValueError, match="needs judgements"):
            CheckResult(("a",), [], judgements)


def test_runners_leave_the_verdict_to_their_judgements():
    """No runner writes ``passed``; every bound is the tolerance, a module constant or 0."""
    tree = ast.parse(Path(checks.__file__).read_text())
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and target.id.isupper()}
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Name) and node.id == "passed")
        assert not (isinstance(node, ast.keyword) and node.arg == "passed")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Judgement":
            args = node.args + [None] * (4 - len(node.args))
            for keyword in node.keywords:
                args[["name", "value", "bound", "relation"].index(keyword.arg)] = keyword.value
            bound, relation = args[2], args[3]
            assert (isinstance(bound, ast.Name) and bound.id in constants | {"tol"}
                    or isinstance(bound, ast.Constant) and bound.value == 0), ast.unparse(node)
            assert relation is None or relation.value in ("<", "<=", ">"), ast.unparse(node)
    runners = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and getattr(node.returns, "id", None) == "CheckResult" and node.name != "run_check"]
    assert len(runners) == len(REGISTRY) - 2  # goldstone and virial: one runner per gas pair
    for runner in runners:
        assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Judgement"
                   for node in ast.walk(runner)), runner.name
