"""Unit tests for the closed-form fluctuation variances and forms."""

import math

import numpy as np
import pytest

from bosefluct.fluctuations import (
    FluctuationSpec,
    covariance_form,
    equivalence_distance,
    j_map,
    structure_factor,
    symplectic_sigma,
    variance_A_imperfect,
    variance_A_wibg,
    variance_general,
    variance_rho0_wibg,
    variance_rho_imperfect,
)
from bosefluct.checks import CheckContext
from bosefluct.model import (
    ModelParams,
    bogoliubov_coefficients,
    dispersion,
    gaussian_potential,
    omega_gap,
)


def imperfect_params(beta=math.inf):
    return ModelParams(mass=1.0, beta=beta, total_density=1.0,
                       condensate_density=1.0, coupling=1.0)


def wibg_params(beta=math.inf, v0=1.0, kappa=2.0):
    return ModelParams(mass=1.0, beta=beta, total_density=1.0,
                       condensate_density=1.0, condensate_amplitude=1.0,
                       potential=gaussian_potential(v0, kappa))


def flat_wibg_params(v0, beta=math.inf):
    """Effectively constant potential: c^2 v(q) = v0 for any desk-scale q."""
    return wibg_params(beta=beta, v0=v0, kappa=1e8)


Q_UNIT_EPS = math.sqrt(2.0)  # |q| with eps_q = 1 at mass 1


class TestNamedVariances:
    def test_rho_imperfect_ground(self):
        assert variance_rho_imperfect((0, 0, 1.0), imperfect_params()) == 0.5

    def test_A_imperfect_ground(self):
        assert variance_A_imperfect((0, 0, 1.0), imperfect_params()) == 0.5

    def test_A_imperfect_thermal(self):
        value = variance_A_imperfect((0, 0, Q_UNIT_EPS), imperfect_params(beta=2.0))
        assert value == pytest.approx(0.5 / math.tanh(1.0))

    def test_rho_imperfect_thermal_exceeds_coth(self):
        params = imperfect_params(beta=2.0)
        value = variance_rho_imperfect((0, 0, Q_UNIT_EPS), params)
        assert value > 0.5 / math.tanh(1.0)

    def test_rho0_wibg_ground(self):
        value = variance_rho0_wibg(Q_UNIT_EPS, flat_wibg_params(1.5))
        assert value == pytest.approx(0.25, rel=1e-9)

    def test_A_wibg_ground(self):
        value = variance_A_wibg(Q_UNIT_EPS, flat_wibg_params(1.5))
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_wibg_product_is_coth_sq(self):
        params = wibg_params(beta=1.5)
        q = 0.8
        prod = variance_rho0_wibg(q, params) * variance_A_wibg(q, params)
        from bosefluct.model import bogoliubov_spectrum

        energy = bogoliubov_spectrum(q * q / 2.0, params.c2v(q))
        assert prod == pytest.approx(0.25 / math.tanh(0.75 * energy) ** 2)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            variance_rho_imperfect((0, 0, 0), imperfect_params())
        with pytest.raises(ValueError):
            variance_A_imperfect((0, 0, 0), imperfect_params())


class TestVarianceGeneral:
    def test_reduces_to_named(self):
        params_i = imperfect_params(beta=2.0)
        params_w = wibg_params(beta=2.0)
        q = (0, 0, 0.9)
        cases = [
            (FluctuationSpec("imperfect", q, f_q0=1.0), variance_rho_imperfect(q, params_i), params_i),
            (FluctuationSpec("imperfect", q, g_q0=1.0), variance_A_imperfect(q, params_i), params_i),
            (FluctuationSpec("wibg", q, f_q0=1.0), variance_rho0_wibg(0.9, params_w), params_w),
            (FluctuationSpec("wibg", q, g_q0=1.0), variance_A_wibg(0.9, params_w), params_w),
        ]
        for spec, named, params in cases:
            assert variance_general(spec, params) == pytest.approx(named, rel=1e-9)

    @pytest.mark.parametrize("q", [1e-6, 1e-4, 1e-2])
    def test_wibg_small_q_against_coefficients(self, q):
        # plus_sq = eps/E and minus_sq = E/eps, computed without the
        # (eps + c^2 v) - c^2 v difference that cancels at small q
        params = CheckContext().wibg
        co = bogoliubov_coefficients(dispersion(q, params), params.c2v(q))
        rho0 = variance_general(FluctuationSpec("wibg", q, f_q0=1.0), params)
        a_var = variance_general(FluctuationSpec("wibg", q, g_q0=1.0), params)
        assert rho0 == pytest.approx(co.plus_sq / 2.0, rel=1e-12, abs=0.0)
        assert a_var == pytest.approx(co.minus_sq / 2.0, rel=1e-12, abs=0.0)

    def test_gauge_direction_vanishes_imperfect(self):
        # (f, g) = (w, Jw) has field value w + i(-i w) ... = 2w only for g = -Jf;
        # the null direction is f + i g = 0, i.e. g = i f.
        spec = FluctuationSpec("imperfect", (0, 0, 1.0), f_q0=1.0, g_q0=1.0j)
        assert variance_general(spec, imperfect_params()) == 0.0

    def test_renormalized_small_q_limits(self):
        params = wibg_params()
        omega = omega_gap(params)
        q = 1e-3
        rho_r = FluctuationSpec("wibg", (0, 0, q), f_q0=1.0, renorm_exponent=-0.5)
        a_r = FluctuationSpec("wibg", (0, 0, q), g_q0=1.0, renorm_exponent=+0.5)
        assert variance_general(rho_r, params) == pytest.approx(1.0 / (2.0 * omega), rel=1e-4)
        assert variance_general(a_r, params) == pytest.approx(omega / 2.0, rel=1e-4)

    def test_j_substitution_invariance(self):
        # (f, g) -> (f + h, g - Jh) leaves the limiting field, hence the
        # ground-state variance, unchanged.
        rng = np.random.default_rng(41)
        for model, params in (("imperfect", imperfect_params()), ("wibg", wibg_params())):
            for _ in range(20):
                f, g, h = (complex(*rng.normal(size=2)) for _ in range(3))
                base = FluctuationSpec(model, (0, 0, 0.7), f_q0=f, g_q0=g)
                shifted = FluctuationSpec(model, (0, 0, 0.7), f_q0=f + h,
                                          g_q0=g - j_map(h))
                assert variance_general(base, params) == pytest.approx(
                    variance_general(shifted, params), rel=1e-12, abs=1e-12)


class TestSymplecticAndCovariance:
    def test_canonical_pair(self):
        q = (0, 0, 0.5)
        rho = FluctuationSpec("imperfect", q, f_q0=1.0)
        a_op = FluctuationSpec("imperfect", q, g_q0=1.0)
        assert symplectic_sigma(rho, a_op, imperfect_params()) == pytest.approx(1.0)

    def test_self_and_antisymmetry(self):
        rng = np.random.default_rng(43)
        params = wibg_params()
        for _ in range(20):
            q = (0, 0, rng.uniform(0.1, 2.0))
            s1 = FluctuationSpec("wibg", q, f_q0=complex(*rng.normal(size=2)),
                                 g_q0=complex(*rng.normal(size=2)))
            s2 = FluctuationSpec("wibg", q, f_q0=complex(*rng.normal(size=2)),
                                 g_q0=complex(*rng.normal(size=2)))
            assert symplectic_sigma(s1, s1, params) == pytest.approx(0.0, abs=1e-12)
            assert symplectic_sigma(s1, s2, params) == pytest.approx(
                -symplectic_sigma(s2, s1, params), abs=1e-12)

    def test_full_form_composition(self):
        params = imperfect_params()
        q = (0, 0, 0.8)
        s1 = FluctuationSpec("imperfect", q, f_q0=0.3 + 0.1j, g_q0=-0.2j)
        s2 = FluctuationSpec("imperfect", q, f_q0=-1.0, g_q0=0.5 + 0.5j)
        form = covariance_form(s1, s2, params)
        assert form.full == form.s + 0.5j * form.sigma
        # ground-state symmetric part is (1/2) Re[conj(w1) w2]
        expected = 0.5 * (np.conj(s1.field_value) * s2.field_value).real
        assert form.s == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("wibg", wibg_params(beta=1.5)),
    ])
    def test_cauchy_schwarz(self, model, params):
        rng = np.random.default_rng(47)
        for _ in range(500):
            q = (0, 0, rng.uniform(0.05, 2.5))
            draws = rng.normal(size=8)
            s1 = FluctuationSpec(model, q, f_q0=complex(draws[0], draws[1]),
                                 g_q0=complex(draws[2], draws[3]))
            s2 = FluctuationSpec(model, q, f_q0=complex(draws[4], draws[5]),
                                 g_q0=complex(draws[6], draws[7]))
            sigma = symplectic_sigma(s1, s2, params)
            v1 = variance_general(s1, params)
            v2 = variance_general(s2, params)
            assert sigma**2 / 4.0 <= v1 * v2 * (1.0 + 1e-12) + 1e-15

    def test_mismatched_specs_rejected(self):
        params = imperfect_params()
        s1 = FluctuationSpec("imperfect", (0, 0, 1.0), f_q0=1.0)
        with pytest.raises(ValueError):
            symplectic_sigma(s1, FluctuationSpec("wibg", (0, 0, 1.0), f_q0=1.0), params)
        with pytest.raises(ValueError):
            symplectic_sigma(s1, FluctuationSpec("imperfect", (0, 0, 2.0), f_q0=1.0), params)


class TestEquivalenceDistance:
    def test_canonical_distance_one(self):
        params = imperfect_params()
        rho = FluctuationSpec("imperfect", (0, 0, 0.5), f_q0=1.0)
        a_op = FluctuationSpec("imperfect", (0, 0, 0.5), g_q0=1.0)
        assert equivalence_distance(rho, a_op, params) == pytest.approx(1.0, abs=1e-9)

    def test_j_pair_is_null(self):
        rng = np.random.default_rng(53)
        for model, params in (("imperfect", imperfect_params()), ("wibg", wibg_params())):
            for _ in range(10):
                f = complex(*rng.normal(size=2))
                s_f = FluctuationSpec(model, (0, 0, 0.4), f_q0=f)
                s_jf = FluctuationSpec(model, (0, 0, 0.4), g_q0=j_map(f))
                assert equivalence_distance(s_f, s_jf, params) == pytest.approx(0.0, abs=1e-9)

    def test_self_distance_zero(self):
        spec = FluctuationSpec("wibg", (0, 0, 0.3), f_q0=1.0 + 2.0j, g_q0=-0.5)
        assert equivalence_distance(spec, spec, wibg_params()) == 0.0

    def test_triangle_inequality(self):
        params = wibg_params()
        rng = np.random.default_rng(59)
        for _ in range(1000):
            q = (0, 0, rng.uniform(0.1, 1.0))
            specs = [FluctuationSpec("wibg", q,
                                     f_q0=complex(*rng.normal(size=2)),
                                     g_q0=complex(*rng.normal(size=2)))
                     for _ in range(3)]
            d12 = equivalence_distance(specs[0], specs[1], params)
            d23 = equivalence_distance(specs[1], specs[2], params)
            d13 = equivalence_distance(specs[0], specs[2], params)
            assert d13 <= d12 + d23 + 1e-9


class TestStructureFactor:
    def test_condensate_kind_linear_slope(self):
        params = wibg_params()
        omega = omega_gap(params)
        c_sq = params.condensate_amplitude**2
        for q in (1e-4, 3e-4, 1e-3):
            assert structure_factor(q, params) / q == pytest.approx(
                c_sq / omega, rel=1e-4)

    def test_full_kind_adds_pair_bubble(self):
        params = wibg_params()
        q = 5e-4
        assert structure_factor(q, params, "full") > structure_factor(q, params)

    def test_full_kind_thermal_unsupported(self):
        with pytest.raises(ValueError):
            structure_factor(0.1, wibg_params(beta=2.0), "full")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            structure_factor(0.1, wibg_params(), "total")
