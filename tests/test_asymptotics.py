"""Unit tests for the bubble integrals, power-law slopes and extrapolation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from bosefluct import asymptotics
from bosefluct.asymptotics import bose_bubble_integral, fit_power_law, richardson, wibg_pair_bubble
from bosefluct.checks import DELTA_BOX_SIDES, DELTA_PHASES, CheckContext
from bosefluct.fluctuations import variance_rho_imperfect
from bosefluct.model import ModelParams, bogoliubov_spectrum, dispersion, pair_averages


def thermal_params(beta=1.0, mass=1.0, rho0=1.0):
    return ModelParams(mass=mass, beta=beta, total_density=max(rho0, 1.0),
                       condensate_density=rho0)


def wibg_params():
    return ModelParams(mass=1.0, beta=math.inf, total_density=1.0,
                       condensate_density=1.0, condensate_amplitude=1.0,
                       v0=1.0, kappa=2.0)


def brute_force_bubble(q_norm, params, mu_shift=0.0, rho=None):
    """Independent 2-D quadrature oracle: no analytic angular step."""
    beta, m = params.beta, params.mass
    rho = params.condensate_density if rho is None else rho

    def occ(eps):
        return 1.0 / math.expm1(beta * (eps - mu_shift))

    def inner(u, r):
        p_sq = r * r + q_norm * q_norm + 2.0 * r * q_norm * u
        return occ(p_sq / (2.0 * m)) * (occ(r * r / (2.0 * m)) + 1.0)

    def radial(r):
        if r == 0.0:
            return 0.0
        val, _ = integrate.quad(inner, -1.0, 1.0, args=(r,), epsrel=1e-10,
                                epsabs=1e-14, limit=200)
        return r * r * val

    k_max = q_norm + math.sqrt(60.0 * m / beta) + 1.0
    value, _ = integrate.quad(radial, 0.0, k_max, points=[q_norm],
                              epsrel=1e-10, epsabs=0.0, limit=400)
    return value / (2.0 * rho) / (4.0 * math.pi**2)


def strict_quad(*args, **kwargs):
    """The value of ``integrate.quad``, refused when QUADPACK flags it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return integrate.quad(*args, **kwargs)[0]


def quad_bose_bubble(q_norm, params, mu_shift=0.0, rho=None, rtol=1e-10):
    """QUADPACK oracle on the closed-form angular step: a scalar integrand with
    the log singularity at ``|k| = |q|`` as the one breakpoint."""
    beta, m = params.beta, params.mass
    rho = params.condensate_density if rho is None else rho

    def radial(r):
        if r == 0.0:
            return 0.0
        x_lo = beta * (dispersion(r - q_norm, params) - mu_shift)
        x_hi = beta * (dispersion(r + q_norm, params) - mu_shift)
        angular = m / (beta * r * q_norm) * (math.log(-math.expm1(-x_hi))
                                             - math.log(-math.expm1(-x_lo)))
        return -r * r / math.expm1(-beta * (dispersion(r, params) - mu_shift)) * angular

    k_max = q_norm + math.sqrt(60.0 * m / beta) + 1.0
    value = strict_quad(radial, 0.0, k_max, points=[q_norm], epsrel=rtol, epsabs=0.0, limit=400)
    return value / (2.0 * rho) / (4.0 * math.pi**2)


class TestBoseBubble:
    def test_ground_state_zero(self):
        res = bose_bubble_integral(1.0, thermal_params(beta=math.inf))
        assert res.value == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_against_nested_quadrature(self):
        rng = np.random.default_rng(61)
        for _ in range(4):
            q = rng.uniform(0.2, 2.0)
            beta = rng.uniform(0.5, 2.0)
            params = thermal_params(beta=beta, mass=rng.uniform(0.5, 1.5))
            fast = bose_bubble_integral(q, params, rtol=1e-10)
            slow = brute_force_bubble(q, params)
            assert fast.value == pytest.approx(slow, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_normal_phase_oracle(self):
        params = thermal_params()
        fast = bose_bubble_integral(0.7, params, mu_shift=-0.4,
                                    norm_density=1.0, rtol=1e-10)
        slow = brute_force_bubble(0.7, params, mu_shift=-0.4, rho=1.0)
        assert fast.value == pytest.approx(slow, rel=1e-6)

    def test_monotone_decreasing_in_q(self):
        params = thermal_params()
        values = [bose_bubble_integral(q, params).value for q in (0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_condensed_small_q_scaling(self):
        # value * q tends to a constant: the 1/|q| divergence of the bubble
        params = thermal_params()
        products = [q * bose_bubble_integral(q, params).value
                    for q in (0.02, 0.01, 0.005)]
        spread = (max(products) - min(products)) / products[-1]
        assert spread < 0.02

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bose_bubble_integral(0.0, thermal_params())
        with pytest.raises(ValueError):
            bose_bubble_integral(1.0, thermal_params(), mu_shift=0.5)
        with pytest.raises(ValueError):
            bose_bubble_integral(1.0, thermal_params(rho0=0.0))

    def test_error_estimate_reported(self):
        res = bose_bubble_integral(1.0, thermal_params())
        assert 0.0 < res.error < 1e-5 * abs(res.value)
        assert res.tail_bound < 1e-8

    def test_finite_where_e_to_the_x_overflows(self):
        # at s = sqrt(m / beta) = 1/8, beta eps passes 709 below the radial cutoff
        res = bose_bubble_integral(math.pi, CheckContext(mass=1.0 / 64.0).imperfect_thermal)
        assert math.isfinite(res.value) and res.value > 0.0

    @pytest.mark.parametrize("rtol", [1e-7, 1e-10])
    @pytest.mark.parametrize("ctx", [CheckContext(mass=4.0), CheckContext(beta_thermal=0.25)],
                             ids=["mass-4", "beta-quarter"])
    def test_converges_below_the_quadpack_floor(self, ctx, rtol):
        # at m / beta = 4 QUADPACK detects roundoff and gives up below q = 3e-4, and
        # the nested oracle is off by half there. q I(q) -> 4 is smooth in q, so a
        # quadratic through the QUADPACK values at 3, 6 and 9e-4 predicts q = 1e-4
        params = ctx.imperfect_thermal
        qs = [3e-4, 6e-4, 9e-4]
        trend = np.polyfit(qs, [q * quad_bose_bubble(q, params) for q in qs], 2)
        value = bose_bubble_integral(1e-4, params, rtol=rtol).value
        assert 1e-4 * value == pytest.approx(np.polyval(trend, 1e-4), rel=rtol, abs=0.0)


def nested_pair_bubble(q_norm, params):
    """Reference pair bubble: adaptive quad over u = cos(theta) nested in
    adaptive quad over r, with scalar model calls at every point."""
    def depletion_and_anomalous(r):
        eps = dispersion(r, params)
        g = params.c2v(r)
        energy = bogoliubov_spectrum(eps, g)
        return 0.5 * ((eps + g) / energy - 1.0), -g / (2.0 * energy)

    def inner(u, r, n_r, m_r):
        p = math.sqrt(max(r * r + q_norm * q_norm + 2.0 * r * q_norm * u, 0.0))
        if p == 0.0:
            return 0.0
        n_p, m_p = depletion_and_anomalous(p)
        return n_p * (n_r + 1.0) + m_p * m_r

    def radial(r):
        if r == 0.0:
            return 0.0
        n_r, m_r = depletion_and_anomalous(r)
        val, _ = integrate.quad(inner, -1.0, 1.0, args=(r, n_r, m_r),
                                epsrel=1e-8, epsabs=1e-14, limit=200)
        return r * r * val

    for kappa_scale in (2.0, 4.0, 8.0, 16.0):
        if abs(params.v(kappa_scale)) < 1e-14 * abs(params.v(0.0)):
            break
    else:
        kappa_scale = 32.0
    value, _ = integrate.quad(radial, 0.0, q_norm + 2.0 * kappa_scale, points=[q_norm],
                              epsrel=1e-7, epsabs=0.0, limit=400)
    return value / (4.0 * math.pi**2)


def quad_pair_bubble(q_norm, params, rtol=1e-10):
    """QUADPACK oracle over ``r`` on the fixed inner Gauss-Legendre rule: a scalar
    radial integrand with the kink at ``r = |q|`` as the one breakpoint."""
    nodes, weights = np.polynomial.legendre.leggauss(asymptotics.PAIR_NODES)

    def radial(r):
        if r == 0.0:
            return 0.0
        half = min(r, q_norm)
        p = max(r, q_norm) + half * nodes
        k = np.concatenate(([r], p))
        n, m = pair_averages(dispersion(k[:, None], params), params.c2v(k), params.beta)
        return r / q_norm * half * float(weights @ (p * (n[1:] * (n[0] + 1.0) + m[1:] * m[0])))

    k_max = q_norm + 2.0 * params.kappa * math.sqrt(14.0 * math.log(10.0))
    value = strict_quad(radial, 0.0, k_max, points=[q_norm], epsrel=rtol, epsabs=0.0, limit=400)
    return value / (4.0 * math.pi**2)


_EDGES = np.log(np.geomspace(1e-4, 2.0, 7))  # six log-strata of q, one q drawn in each
# plus the upper edge, where the p interval [|r-q|, r+q] is longest and the
# fixed inner rule is least converged (24 nodes miss by 1e-6 there at kappa = 0.5)
PAIR_QS = np.append(np.exp(np.random.default_rng(17).uniform(_EDGES[:-1], _EDGES[1:])), 2.0)
PAIR_SCENARIOS = {"default": CheckContext(), "kappa": CheckContext(kappa=0.5),
                  "v0": CheckContext(v0=0.1), "mass": CheckContext(mass=0.25),
                  "amplitude": CheckContext(condensate_amplitude=0.5)}
# The nested reference costs 0.1-0.4 s a call, so the default scenario takes
# every stratum, each corner every other one, and the narrow-potential corner
# the upper edge as well. The mass and amplitude corners give the same
# integral (it depends on m c^2 only), so between them they cover all six.
REFERENCE_QS = {"default": [0, 1, 2, 3, 4, 5], "kappa": [0, 2, 4, 6], "v0": [1, 3, 5],
                "mass": [0, 2, 4], "amplitude": [1, 3, 5]}


class TestWibgPairBubble:
    @pytest.mark.parametrize("scenario", PAIR_SCENARIOS)
    def test_matches_nested_quadrature(self, scenario):
        params = PAIR_SCENARIOS[scenario].wibg
        for q in PAIR_QS[REFERENCE_QS[scenario]]:
            fast = wibg_pair_bubble(q, params).value
            assert fast == pytest.approx(nested_pair_bubble(q, params), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("scenario", PAIR_SCENARIOS)
    def test_inner_rule_converged(self, scenario, monkeypatch):
        params = PAIR_SCENARIOS[scenario].wibg
        base = [wibg_pair_bubble(q, params).value for q in PAIR_QS]
        monkeypatch.setattr(asymptotics, "PAIR_NODES", 2 * asymptotics.PAIR_NODES)
        doubled = [wibg_pair_bubble(q, params).value for q in PAIR_QS]
        assert base == pytest.approx(doubled, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("scenario", PAIR_SCENARIOS)
    def test_error_estimate_reported(self, scenario):
        params = PAIR_SCENARIOS[scenario].wibg
        for q in PAIR_QS:
            res = wibg_pair_bubble(q, params)
            assert 0.0 < res.error < 1e-7 * res.value
            assert 0.0 <= res.tail_bound < 1e-12 * res.value

    def test_positive_and_finite(self):
        res = wibg_pair_bubble(0.3, wibg_params())
        assert 0.0 < res.value < 1.0

    def test_small_q_plateau(self):
        params = wibg_params()
        values = [wibg_pair_bubble(q, params).value for q in (1e-3, 1e-4)]
        assert values[0] == pytest.approx(values[1], rel=1e-3)

    def test_thermal_unsupported(self):
        with pytest.raises(ValueError):
            wibg_pair_bubble(0.3, thermal_params(beta=1.0))

    def test_missing_potential_refused(self):
        with pytest.raises(ValueError, match="no potential"):
            wibg_pair_bubble(0.3, thermal_params(beta=math.inf))


THERMAL_SCENARIOS = {"default": CheckContext(), "mass-quarter": CheckContext(mass=0.25),
                     "mass-4": CheckContext(mass=4.0),
                     "beta-quarter": CheckContext(beta_thermal=0.25),
                     "beta-4": CheckContext(beta_thermal=4.0)}


class TestAgainstQuadpack:
    """Both bubbles at rtol 1e-10 against their scalar QUADPACK routes, over the
    log-strata of q in [1e-4, 2] and the scenario corners."""

    @pytest.mark.parametrize("scenario", THERMAL_SCENARIOS)
    def test_thermal_bubble(self, scenario):
        params = THERMAL_SCENARIOS[scenario].imperfect_thermal
        for q in PAIR_QS:
            fast = bose_bubble_integral(q, params, rtol=1e-10).value
            assert fast == pytest.approx(quad_bose_bubble(q, params), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind,mu_shift", [phase[:2] for phase in DELTA_PHASES[1:]],
                             ids=[phase[0] for phase in DELTA_PHASES[1:]])
    def test_uncondensed_delta_phases(self, kind, mu_shift):
        thermal = CheckContext().imperfect_thermal
        uncondensed = replace(thermal, condensate_density=0.0)
        for box in DELTA_BOX_SIDES:
            q = 2.0 * math.pi / box
            fast = bose_bubble_integral(q, uncondensed, mu_shift=mu_shift,
                                        norm_density=thermal.total_density, rtol=1e-10).value
            slow = quad_bose_bubble(q, uncondensed, mu_shift, thermal.total_density)
            assert fast == pytest.approx(slow, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("scenario", PAIR_SCENARIOS)
    def test_pair_bubble(self, scenario):
        params = PAIR_SCENARIOS[scenario].wibg
        for q in PAIR_QS:
            fast = wibg_pair_bubble(q, params, rtol=1e-10).value
            assert fast == pytest.approx(quad_pair_bubble(q, params), rel=1e-9, abs=0.0)


def test_bubbles_evaluate_the_model_on_arrays(monkeypatch):
    # the rule calls dispersion once per round on every node (the thermal tail
    # bound adds QUADPACK's scalar calls); a per-point integrand calls it
    # thousands of times
    calls = []

    def counted(k, params):
        calls.append(k)
        return dispersion(k, params)

    monkeypatch.setattr(asymptotics, "dispersion", counted)
    ctx = CheckContext()
    bose_bubble_integral(0.5, ctx.imperfect_thermal)
    thermal = len(calls)
    wibg_pair_bubble(0.5, ctx.wibg)
    assert thermal <= 100 and len(calls) - thermal <= 20


@pytest.mark.parametrize("bubble,params", [
    (bose_bubble_integral, thermal_params(beta=1.0)),
    (wibg_pair_bubble, wibg_params()),
])
def test_unconverged_radial_quadrature_raises(bubble, params, monkeypatch):
    # one round of the rule does not reach rtol = 1e-7 on either bubble: both refuse it
    monkeypatch.setattr(asymptotics, "_GK_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        bubble(0.3, params)


class TestGaussKronrod:
    """The G10/K21 rule on integrands with known integrals."""

    NODES = asymptotics._K21_NODES
    RULES = {"K21": (asymptotics._K21_WEIGHTS, 31), "G10": (asymptotics._G10_WEIGHTS, 19)}

    def test_symmetric_nodes_and_weights(self):
        assert np.array_equal(self.NODES, -self.NODES[::-1])
        assert np.all(np.diff(self.NODES) > 0.0)
        for weights, _ in self.RULES.values():
            assert np.array_equal(weights, weights[::-1])

    def test_gauss_part_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = self.RULES["G10"][0]
        assert np.count_nonzero(gauss) == 10
        np.testing.assert_allclose(self.NODES[gauss > 0.0], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(gauss[gauss > 0.0], weights, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("rule", ["K21", "G10"])
    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.3, 2.2)])
    def test_monomials(self, rule, a, b):
        weights, exact_to = self.RULES[rule]
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        x = centre + half * self.NODES
        assert half * weights.sum() == pytest.approx(b - a, rel=1e-15)

        def error(degree):
            exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            return abs(half * (weights @ x**degree) - exact) / (half * (weights @ abs(x)**degree))

        assert max(error(d) for d in range(exact_to + 1)) < 1e-14
        if (a, b) == (-1.0, 1.0):  # and no further: the next even degree is missed
            assert error(exact_to + 1) > 1e-12

    @pytest.mark.parametrize("rtol", [1e-7, 1e-10])
    def test_adaptive_rule_meets_rtol(self, rtol):
        calls = []

        def lorentzian(x):
            calls.append(x.shape)
            return 1.0 / (1.0 + 100.0 * x * x)

        value, error = asymptotics._gauss_kronrod(lorentzian, [-1.0, 2.0], rtol)
        exact = (math.atan(20.0) + math.atan(10.0)) / 10.0
        assert 0.0 < error <= rtol * abs(value)
        assert value == pytest.approx(exact, rel=rtol, abs=0.0)
        assert len(calls) > 1 and all(shape[1] == 21 for shape in calls)

    def test_unreachable_tolerance_refused(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            asymptotics._gauss_kronrod(np.cos, [0.0, 1.0], 1e-20)


class TestFitPowerLaw:
    def test_planted_exponents(self):
        qs = np.geomspace(0.01, 0.1, 8)
        for exponent in (-2.0, -1.0, 0.5, 1.0, 2.0):
            assert abs(fit_power_law([(q, 3.7 * q**exponent) for q in qs]) - exponent) < 1e-3

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1.0), (0.2, -2.0), (0.3, 3.0), (0.4, 4.0)])


def volume_delta(variance):
    """delta of the growth ``V^(2 delta)`` of ``variance(2 pi / L)`` over the box sides L."""
    return fit_power_law([(box**3, variance(2.0 * math.pi / box))
                          for box in DELTA_BOX_SIDES]) / 2.0


class TestDeltaExponent:
    def test_condensed(self):
        delta = volume_delta(lambda q: variance_rho_imperfect(q, thermal_params()))
        assert delta == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_critical(self):
        params = ModelParams(mass=1.0, beta=1.0, total_density=1.0)
        delta = volume_delta(lambda q: bose_bubble_integral(q, params, norm_density=1.0).value)
        assert delta == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_normal(self):
        params = ModelParams(mass=1.0, beta=1.0, total_density=1.0)
        delta = volume_delta(lambda q: bose_bubble_integral(
            q, params, mu_shift=-0.5, norm_density=1.0).value)
        assert abs(delta) < 0.01


class TestDynamicalRates:
    def test_rate_fit_matches_lifetime(self):
        qs = np.geomspace(1e-4, 1e-3, 6)
        imper, wibg = thermal_params(beta=math.inf), wibg_params()
        eps = fit_power_law([(q, dispersion(q, imper)) for q in qs])
        energy = fit_power_law([(q, bogoliubov_spectrum(dispersion(q, wibg), wibg.c2v(q)))
                                for q in qs])
        assert eps == pytest.approx(2.0, abs=1e-6)
        assert energy == pytest.approx(1.0, abs=1e-3)

    def test_coth_vs_bubble_exponent_gap(self):
        # the bubble diverges one power of |q| slower than the thermal coth
        params = thermal_params()
        qs = np.geomspace(0.01, 0.05, 6)
        coth = fit_power_law(
            [(q, 0.5 / math.tanh(q * q / 4.0)) for q in qs])
        bubble = fit_power_law(
            [(q, bose_bubble_integral(q, params).value) for q in qs])
        assert bubble - coth == pytest.approx(1.0, abs=0.1)


class TestRichardson:
    def test_polynomial_exact(self):
        xs = np.array([0.5, 0.25, 0.125, 0.0625])
        ys = 2.0 - 3.0 * xs + 7.0 * xs**2 + xs**3
        assert richardson(xs, ys, (1, 2, 3)) == pytest.approx(2.0, abs=1e-10)

    def test_powers_basis_exact(self):
        xs = np.array([0.25, 0.2, 0.125])
        ys = 1.5 + 0.3 * xs + 0.9 * xs**3
        assert richardson(xs, ys, (1, 3)) == pytest.approx(1.5, abs=1e-12)
        # the plain quadratic basis does not reproduce an odd-power tail
        assert abs(richardson(xs, ys, (1, 2)) - 1.5) > 1e-5

    def test_powers_sample_count(self):
        with pytest.raises(ValueError):
            richardson([0.1, 0.2], [1.0, 2.0], (1, 2))

    def test_richardson_validation(self):
        # one sample more than the basis would make a least-squares fit, not an interpolation
        with pytest.raises(ValueError):
            richardson([0.1, 0.2, 0.4], [1.0, 2.0, 3.0], (1,))
