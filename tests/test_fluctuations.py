"""Unit tests for the closed-form fluctuation variances and forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bogoliubov_reference import half_angles
from bosefluct import fluctuations
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
from bosefluct.asymptotics import bose_bubble_integral, wibg_pair_bubble
from bosefluct.checks import CheckContext
from bosefluct.model import ModelParams, dispersion, omega_gap


def imperfect_params(beta=math.inf):
    return ModelParams(mass=1.0, beta=beta, total_density=1.0,
                       condensate_density=1.0, coupling=1.0)


def wibg_params(beta=math.inf, v0=1.0, kappa=2.0):
    return ModelParams(mass=1.0, beta=beta, total_density=1.0,
                       condensate_density=1.0, condensate_amplitude=1.0,
                       v0=v0, kappa=kappa)


def flat_wibg_params(v0, beta=math.inf):
    """Effectively constant potential: c^2 v(q) = v0 for any desk-scale q."""
    return wibg_params(beta=beta, v0=v0, kappa=1e8)


Q_UNIT_EPS = math.sqrt(2.0)  # |q| with eps_q = 1 at mass 1


@pytest.fixture
def bubble_calls(monkeypatch):
    """Counts the thermal bubbles the closed forms integrate, on an empty memo.

    The memo is cleared before and after, so the count does not depend on test
    order and no value of a patched bubble outlives the test.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bose_bubble_integral(*args, **kwargs)

    fluctuations._thermal_bubble.cache_clear()
    monkeypatch.setattr(fluctuations, "bose_bubble_integral", counted)
    yield calls
    fluctuations._thermal_bubble.cache_clear()


class TestNamedVariances:
    def test_rho_imperfect_ground(self):
        assert variance_rho_imperfect(1.0, imperfect_params()) == 0.5

    def test_A_imperfect_ground(self):
        assert variance_A_imperfect(1.0, imperfect_params()) == 0.5

    def test_A_imperfect_thermal(self):
        value = variance_A_imperfect(Q_UNIT_EPS, imperfect_params(beta=2.0))
        assert value == pytest.approx(0.5 / math.tanh(1.0))

    def test_rho_imperfect_thermal_exceeds_coth(self):
        params = imperfect_params(beta=2.0)
        value = variance_rho_imperfect(Q_UNIT_EPS, params)
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
            variance_rho_imperfect(0.0, imperfect_params())
        with pytest.raises(ValueError):
            variance_A_imperfect(0.0, imperfect_params())


class TestVarianceGeneral:
    def test_reduces_to_named(self):
        params_i = imperfect_params(beta=2.0)
        params_w = wibg_params(beta=2.0)
        q = 0.9
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
        # eps/E = (cosh a + sinh a)^2 = 1/(cosh a - sinh a)^2 and E/eps =
        # (cosh a - sinh a)^2; the difference form has no cancellation at small q
        params = CheckContext().wibg
        cosh_a, sinh_a = half_angles(dispersion(q, params), params.c2v(q))
        rho0 = variance_general(FluctuationSpec("wibg", q, f_q0=1.0), params)
        a_var = variance_general(FluctuationSpec("wibg", q, g_q0=1.0), params)
        assert rho0 == pytest.approx(0.5 / (cosh_a - sinh_a) ** 2, rel=1e-12, abs=0.0)
        assert a_var == pytest.approx((cosh_a - sinh_a) ** 2 / 2.0, rel=1e-12, abs=0.0)

    def test_gauge_direction_vanishes_imperfect(self):
        # (f, g) = (w, Jw) has field value w + i(-i w) ... = 2w only for g = -Jf;
        # the null direction is f + i g = 0, i.e. g = i f.
        spec = FluctuationSpec("imperfect", 1.0, f_q0=1.0, g_q0=1.0j)
        assert variance_general(spec, imperfect_params()) == 0.0

    def test_renormalized_small_q_limits(self):
        params = wibg_params()
        omega = omega_gap(params)
        q = 1e-3
        rho_r = FluctuationSpec("wibg", q, f_q0=1.0, renorm_exponent=-0.5)
        a_r = FluctuationSpec("wibg", q, g_q0=1.0, renorm_exponent=+0.5)
        assert variance_general(rho_r, params) == pytest.approx(1.0 / (2.0 * omega), rel=1e-4)
        assert variance_general(a_r, params) == pytest.approx(omega / 2.0, rel=1e-4)

    def test_j_substitution_invariance(self):
        # (f, g) -> (f + h, g - Jh) leaves the limiting field, hence the
        # ground-state variance, unchanged.
        rng = np.random.default_rng(41)
        for model, params in (("imperfect", imperfect_params()), ("wibg", wibg_params())):
            for _ in range(20):
                f, g, h = (complex(*rng.normal(size=2)) for _ in range(3))
                base = FluctuationSpec(model, 0.7, f_q0=f, g_q0=g)
                shifted = FluctuationSpec(model, 0.7, f_q0=f + h,
                                          g_q0=g - j_map(h))
                assert variance_general(base, params) == pytest.approx(
                    variance_general(shifted, params), rel=1e-12, abs=1e-12)


class TestSymplecticAndCovariance:
    def test_canonical_pair(self):
        q = 0.5
        rho = FluctuationSpec("imperfect", q, f_q0=1.0)
        a_op = FluctuationSpec("imperfect", q, g_q0=1.0)
        assert symplectic_sigma(rho, a_op) == pytest.approx(1.0)

    def test_self_and_antisymmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            q = rng.uniform(0.1, 2.0)
            s1 = FluctuationSpec("wibg", q, f_q0=complex(*rng.normal(size=2)),
                                 g_q0=complex(*rng.normal(size=2)))
            s2 = FluctuationSpec("wibg", q, f_q0=complex(*rng.normal(size=2)),
                                 g_q0=complex(*rng.normal(size=2)))
            assert symplectic_sigma(s1, s1) == pytest.approx(0.0, abs=1e-12)
            assert symplectic_sigma(s1, s2) == pytest.approx(
                -symplectic_sigma(s2, s1), abs=1e-12)

    def test_full_form_composition(self):
        params = imperfect_params()
        q = 0.8
        s1 = FluctuationSpec("imperfect", q, f_q0=0.3 + 0.1j, g_q0=-0.2j)
        s2 = FluctuationSpec("imperfect", q, f_q0=-1.0, g_q0=0.5 + 0.5j)
        form = covariance_form(s1, s2, params)
        # ground-state symmetric part is (1/2) Re[conj(w1) w2]
        expected = 0.5 * (np.conj(s1.field_value) * s2.field_value).real
        assert form.s == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("wibg", wibg_params(beta=1.5)),
        ("imperfect", imperfect_params(beta=1.5)),
        ("wibg", wibg_params()),
    ])
    def test_cauchy_schwarz(self, model, params):
        rng = np.random.default_rng(47)
        for _ in range(500):
            q = rng.uniform(0.05, 2.5)
            draws = rng.normal(size=8)
            s1 = FluctuationSpec(model, q, f_q0=complex(draws[0], draws[1]),
                                 g_q0=complex(draws[2], draws[3]))
            s2 = FluctuationSpec(model, q, f_q0=complex(draws[4], draws[5]),
                                 g_q0=complex(draws[6], draws[7]))
            form = covariance_form(s1, s2, params)
            assert form.sigma == symplectic_sigma(s1, s2)
            v1 = variance_general(s1, params)
            v2 = variance_general(s2, params)
            assert form.sigma**2 / 4.0 <= v1 * v2 * (1.0 + 1e-12) + 1e-15
            # the full determinant of the 2x2 two-point matrix
            assert v1 * v2 - form.s**2 - form.sigma**2 / 4.0 >= -1e-9 * v1 * v2

    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("imperfect", imperfect_params(beta=1.0)),
        ("wibg", wibg_params()),
        ("wibg", wibg_params(beta=1.0)),
    ], ids=["imperfect-ground", "imperfect-thermal", "wibg-ground", "wibg-thermal"])
    def test_symmetric_part_is_the_polarized_variance(self, model, params):
        # oracle: s = (V(s1 + s2) - V(s1 - s2)) / 4 on a common exponent
        rng = np.random.default_rng(61)
        for _ in range(200):
            q = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            exponent = rng.uniform(-1.0, 1.0)
            w = rng.normal(size=8)
            s1 = FluctuationSpec(model, q, f_q0=complex(w[0], w[1]),
                                 g_q0=complex(w[2], w[3]), renorm_exponent=exponent)
            s2 = FluctuationSpec(model, q, f_q0=complex(w[4], w[5]),
                                 g_q0=complex(w[6], w[7]), renorm_exponent=exponent)
            plus = variance_general(replace(s1, f_q0=s1.f_q0 + s2.f_q0,
                                            g_q0=s1.g_q0 + s2.g_q0), params)
            minus = variance_general(replace(s1, f_q0=s1.f_q0 - s2.f_q0,
                                             g_q0=s1.g_q0 - s2.g_q0), params)
            s = covariance_form(s1, s2, params).s
            assert abs(s - (plus - minus) / 4.0) <= 1e-12 * (plus + minus)

    @pytest.mark.parametrize("f2,params,calls", [
        (0.3 - 1.0j, imperfect_params(beta=1.0), 1),
        (1.0j, imperfect_params(beta=1.0), 0),  # Re(conj f1 f2) = 0
        (0.3 - 1.0j, imperfect_params(), 0),  # ground state
    ], ids=["thermal", "orthogonal-f", "ground"])
    def test_one_bubble_per_form(self, bubble_calls, f2, params, calls):
        s1 = FluctuationSpec("imperfect", 0.4, f_q0=1.0, g_q0=0.2 + 0.5j)
        s2 = FluctuationSpec("imperfect", 0.4, f_q0=f2, g_q0=-0.7)
        covariance_form(s1, s2, params)
        assert len(bubble_calls) == calls

    @pytest.mark.parametrize("q", [1e-3, 0.1])
    @pytest.mark.parametrize("kind", ["wibg", "wibg_thermal"])
    def test_canonical_pair_of_mixed_exponents(self, q, kind):
        # (|q|^-1/2 rho0, |q|^1/2 A): the exponents differ across the pair
        params = getattr(CheckContext(), kind)
        rho_r = FluctuationSpec("wibg", q, f_q0=1.0, renorm_exponent=-0.5)
        a_r = FluctuationSpec("wibg", q, g_q0=1.0, renorm_exponent=0.5)
        form = covariance_form(rho_r, a_r, params)
        assert form.s == pytest.approx(0.0, abs=1e-15)
        assert form.sigma == pytest.approx(1.0, rel=1e-12)

    def test_mismatched_specs_rejected(self):
        s1 = FluctuationSpec("imperfect", 1.0, f_q0=1.0)
        with pytest.raises(ValueError):
            symplectic_sigma(s1, FluctuationSpec("wibg", 1.0, f_q0=1.0))
        with pytest.raises(ValueError):
            symplectic_sigma(s1, FluctuationSpec("imperfect", 2.0, f_q0=1.0))

    def test_nearby_norms_refused(self):
        # a form is evaluated at one |q|: norms 1e-7 apart relative are not the same
        rho = FluctuationSpec("imperfect", 0.5, f_q0=1.0)
        a_op = FluctuationSpec("imperfect", 0.5 * (1.0 + 1e-7), g_q0=1.0)
        with pytest.raises(ValueError, match="wavevector"):
            symplectic_sigma(rho, a_op)
        with pytest.raises(ValueError, match="wavevector"):
            covariance_form(rho, a_op, imperfect_params())


class TestThermalBubbleMemo:
    """The closed forms integrate each thermal bubble once per ``(|q|, params, rtol)``."""

    Q = 0.4

    def gram(self, q, params):
        """A variance, then the three entries of a 2x2 Gram matrix, at one ``|q|``."""
        variance_rho_imperfect(q, params)
        s1 = FluctuationSpec("imperfect", q, f_q0=0.6 - 0.2j, g_q0=0.3j, renorm_exponent=1.0)
        s2 = FluctuationSpec("imperfect", q, f_q0=-1.1 + 0.4j, g_q0=0.5, renorm_exponent=1.0)
        return [covariance_form(a, b, params).s for a, b in ((s1, s2), (s1, s1), (s2, s2))]

    def test_a_variance_and_its_gram_matrix_share_one_bubble(self, bubble_calls):
        self.gram(self.Q, imperfect_params(beta=1.0))
        assert len(bubble_calls) == 1

    def test_each_new_key_integrates_once_more(self, bubble_calls):
        params = imperfect_params(beta=1.0)
        self.gram(self.Q, params)
        variance_rho_imperfect(self.Q, params, rtol=1e-10)
        assert len(bubble_calls) == 2
        self.gram(0.7, params)
        assert len(bubble_calls) == 3
        self.gram(self.Q, imperfect_params(beta=2.0))
        assert len(bubble_calls) == 4
        self.gram(self.Q, params)
        variance_rho_imperfect(self.Q, params, rtol=1e-10)
        assert len(bubble_calls) == 4

    def test_memo_equals_a_direct_integral(self, bubble_calls):
        params = imperfect_params(beta=1.0)
        for rtol in (1e-7, 1e-10):
            direct = bose_bubble_integral(self.Q, params, rtol=rtol).value
            assert fluctuations._thermal_bubble(self.Q, params, rtol) == direct
            assert fluctuations._thermal_bubble(self.Q, params, rtol) == direct
        assert len(bubble_calls) == 2

    def test_a_raising_bubble_is_not_memoized(self, bubble_calls):
        uncondensed = replace(imperfect_params(beta=1.0), condensate_density=0.0)
        for attempt in (1, 2):
            with pytest.raises(ValueError, match="density must be positive"):
                fluctuations._thermal_bubble(self.Q, uncondensed, 1e-7)
            assert len(bubble_calls) == attempt

    def test_memo_stays_within_its_bound(self, monkeypatch, bubble_calls):
        monkeypatch.setattr(fluctuations, "bose_bubble_integral",
                            lambda q, params, rtol: bose_bubble_integral(q, imperfect_params()))
        bound = fluctuations._thermal_bubble.cache_info().maxsize
        params = imperfect_params(beta=1.0)
        for n in range(bound + 8):
            fluctuations._thermal_bubble(0.1 + n, params, 1e-7)
            assert fluctuations._thermal_bubble.cache_info().currsize <= bound
        assert fluctuations._thermal_bubble.cache_info().currsize == bound


class TestEquivalenceDistance:
    def test_canonical_distance_one(self):
        params = imperfect_params()
        rho = FluctuationSpec("imperfect", 0.5, f_q0=1.0)
        a_op = FluctuationSpec("imperfect", 0.5, g_q0=1.0)
        assert equivalence_distance(rho, a_op, params) == pytest.approx(1.0, abs=1e-9)

    def test_j_pair_is_null(self):
        rng = np.random.default_rng(53)
        for model, params in (("imperfect", imperfect_params()), ("wibg", wibg_params())):
            for _ in range(10):
                f = complex(*rng.normal(size=2))
                s_f = FluctuationSpec(model, 0.4, f_q0=f)
                s_jf = FluctuationSpec(model, 0.4, g_q0=j_map(f))
                assert equivalence_distance(s_f, s_jf, params) == pytest.approx(0.0, abs=1e-9)

    def test_differing_norms_refused(self):
        # the q -> 0 limit starts from one |q|: two norms give no common sequence
        rho = FluctuationSpec("wibg", 0.5, f_q0=1.0)
        with pytest.raises(ValueError, match="wavevector"):
            equivalence_distance(rho, FluctuationSpec("wibg", 0.9, g_q0=1.0), wibg_params())

    def test_differing_exponents_refused(self):
        # |q|^-1/2 rho0 - |q|^1/2 rho0 has limit variance 1/4, not the 0 of
        # a difference spec that keeps only the first exponent
        rho_down = FluctuationSpec("wibg", 0.3, f_q0=1.0, renorm_exponent=-0.5)
        rho_up = FluctuationSpec("wibg", 0.3, f_q0=1.0, renorm_exponent=0.5)
        with pytest.raises(ValueError, match="renormalization exponents"):
            equivalence_distance(rho_down, rho_up, wibg_params())

    def test_negative_limit_shows_its_magnitude(self, monkeypatch):
        monkeypatch.setattr(fluctuations, "richardson", lambda *args: -1e-12)
        spec = FluctuationSpec("wibg", 0.3, f_q0=1.0)
        assert equivalence_distance(spec, spec, wibg_params()) == math.sqrt(1e-12)

    def test_self_distance_zero(self):
        spec = FluctuationSpec("wibg", 0.3, f_q0=1.0 + 2.0j, g_q0=-0.5)
        assert equivalence_distance(spec, spec, wibg_params()) == 0.0

    def test_triangle_inequality(self):
        params = wibg_params()
        rng = np.random.default_rng(59)
        for _ in range(1000):
            q = rng.uniform(0.1, 1.0)
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


BAD_NORMS = {"3-vector": (0.0, 0.0, 0.5), "zero": 0.0, "negative": -0.5,
             "nan": math.nan, "inf": math.inf}
Q_ENTRY_POINTS = {
    "spec": lambda q: FluctuationSpec("wibg", q, f_q0=1.0),
    "structure-condensate": lambda q: structure_factor(q, wibg_params(), "condensate"),
    "structure-full": lambda q: structure_factor(q, wibg_params(), "full"),
    "thermal-bubble": lambda q: bose_bubble_integral(q, imperfect_params(beta=1.0)),
    "pair-bubble": lambda q: wibg_pair_bubble(q, wibg_params()),
}


@pytest.mark.parametrize("entry", Q_ENTRY_POINTS.values(), ids=Q_ENTRY_POINTS.keys())
@pytest.mark.parametrize("q", BAD_NORMS.values(), ids=BAD_NORMS.keys())
def test_only_a_positive_finite_norm_is_taken(entry, q):
    # every closed form depends on |q| alone, so a 3-vector is refused like the others
    with pytest.raises(TypeError if isinstance(q, tuple) else ValueError):
        entry(q)
