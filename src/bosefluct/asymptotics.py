"""Quadrature and scaling analysis: bubble integrals, power-law slopes, extrapolation.

Provides the thermal bubble integral entering the density-fluctuation
variance of the mean-field gas, the zero-temperature pair bubble of the
superfluid gas, the log-log slope of a sampled power law, and
Richardson extrapolation for the q -> 0 and V -> infinity limits. The
layer computes values only; ``checks`` compares them with targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import integrate

from .model import ModelParams, dispersion, pair_averages

__all__ = [
    "IntegralResult",
    "bose_bubble_integral",
    "wibg_pair_bubble",
    "fit_power_law",
    "richardson",
]

# Node count of the pair bubble's inner Gauss-Legendre rule. 24 nodes miss
# by 1e-6 at kappa = 0.5; 48 agree with 96 to 1e-10 over the tested
# scenario corners.
PAIR_NODES = 48
# Cached (leggauss takes about a third as long as a whole pair bubble) and
# built on first use: leggauss calls LAPACK, and calling it at import raised
# the peak memory of a full `bosefluct run`, whose checks run in a worker
# thread, by 4-8%.
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value with its error estimate and radial tail bound."""

    value: float
    error: float
    tail_bound: float


def _wavevector_norm(q) -> float:
    """``float(q)`` of a positive finite norm ``|q|``: TypeError for a 3-vector, else ValueError."""
    q_norm = float(q)
    if not (q_norm > 0.0 and math.isfinite(q_norm)):
        raise ValueError("q must be a positive finite norm |q|")
    return q_norm


def _radial_cutoff(params: ModelParams, q_norm: float) -> float:
    """Radius beyond which the thermal factor is below ~1e-12."""
    # beta * (K - q)^2 / (2m) >= 30 gives e^{-30} ~ 1e-13 suppression.
    return q_norm + math.sqrt(60.0 * params.mass / params.beta) + 1.0


# Gauss-Kronrod 10/21 pair on [-1, 1], QUADPACK's qk21 (Piessens et al.,
# QUADPACK, Springer 1983). Nodes run from the right end to the centre; the
# odd-indexed ones are the 10-point Gauss nodes, with the weights _G10_HALF.
_K21_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_K21_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980178400, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G10_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the same rules over all 21 nodes in ascending order; Gauss weight 0 off its nodes
_K21_NODES = np.concatenate((-_K21_HALF_NODES[:-1], _K21_HALF_NODES[::-1]))
_K21_WEIGHTS = np.concatenate((_K21_HALF_WEIGHTS[:-1], _K21_HALF_WEIGHTS[::-1]))
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1::2] = np.concatenate((_G10_HALF, _G10_HALF[::-1]))
# Caps on the rounds of bisection and on the subintervals before a bubble is
# refused: below the roundoff floor every interval keeps splitting, so the
# interval cap bounds the memory and work a refusal costs.
_GK_MAX_ROUNDS = 30
_GK_MAX_INTERVALS = 400
# Breakpoints of the thermal bubble at |q| (1 - g) and |q| + (k_max - |q|) g:
# graded toward its log singularity at |k| = |q|, so that no bisection has to
# chase it there
_LOG_GRADING = 2.0 ** (-4.0 * np.arange(1, 10))


def _gauss_kronrod(f, breakpoints, rtol: float) -> Tuple[float, float]:
    """Globally adaptive G10/K21 quadrature of ``f`` over ``[breakpoints[0], breakpoints[-1]]``.

    ``f`` maps an array of abscissae to the integrand on that array. Each
    round calls it once, on the ``(n, 21)`` Kronrod nodes of the ``n`` new
    intervals; the intervals start at the consecutive ``breakpoints``, which
    are never evaluated. An interval's value is its K21 sum and its error
    ``|K21 - G10|``. The routine returns ``(value, error)``, both summed over
    the intervals, once the error is at most ``rtol * |value|``; until then
    it bisects every interval whose error is above its share
    ``rtol * |value| / n`` of the tolerance. It raises
    ``RuntimeError`` after ``_GK_MAX_ROUNDS`` rounds or beyond
    ``_GK_MAX_INTERVALS`` intervals.
    """
    edges = np.asarray(breakpoints, dtype=float)
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = values = errors = np.empty(0)
    for _ in range(_GK_MAX_ROUNDS):
        centre, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        fx = f(centre[:, None] + half[:, None] * _K21_NODES)
        lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
        values = np.concatenate((values, half * (fx @ _K21_WEIGHTS)))
        errors = np.concatenate((errors, half * np.abs(fx @ (_K21_WEIGHTS - _G10_WEIGHTS))))
        value, error = float(values.sum()), float(errors.sum())
        if error <= rtol * abs(value):
            return value, error
        split = errors > rtol * abs(value) / len(errors)
        if len(errors) + np.count_nonzero(split) > _GK_MAX_INTERVALS:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        keep = ~split
        lo, hi, values, errors = lo[keep], hi[keep], values[keep], errors[keep]
    raise RuntimeError(
        f"bubble quadrature did not converge: value={value:.3e} err={error:.3e}"
    )


def bose_bubble_integral(q, params: ModelParams, mu_shift: float = 0.0,
                         norm_density: float | None = None,
                         rtol: float = 1e-7) -> IntegralResult:
    """Thermal bubble ``(1/2 rho0) (2 pi)^-3 int d^3k n(eps_{k+q}) (n(eps_k)+1)``.

    The angular integral is done in closed form (the occupation is a
    function of a variable linear in ``cos theta``), leaving one radial
    integral. The adaptive G10/K21 rule does it to ``rtol`` on an array
    integrand, with breakpoints graded geometrically toward the integrable
    log singularity at ``|k| = |q|`` from both sides. ``error`` is the
    rule's estimate, and ``tail_bound`` (one scalar QUADPACK integral of
    the exponential envelope) bounds the integrand beyond the cutoff. Raises
    ``RuntimeError`` when the rule does not converge. Exactly zero at
    ``beta = inf``.

    Parameters
    ----------
    q : float norm ``|q|``, positive and finite
    mu_shift : float
        Nonpositive chemical-potential shift applied to both factors
        (normal/critical phases of the free gas).
    norm_density : float, optional
        Density in the ``1/(2 rho)`` prefactor; defaults to the
        condensate density in ``params``.
    """
    q_norm = _wavevector_norm(q)
    if mu_shift > 0.0:
        raise ValueError("mu_shift must be <= 0")
    rho = params.condensate_density if norm_density is None else norm_density
    if rho <= 0.0:
        raise ValueError("normalization density must be positive")
    if params.is_ground_state:
        return IntegralResult(0.0, 0.0, 0.0)

    beta, m = params.beta, params.mass

    def radial(r):
        # r^2 (n(eps_r) + 1) times the closed-form angular integral
        # int_{-1}^{1} du n(eps(|k+q|)) = m / (beta r q) log[(1 - e^{-x+}) / (1 - e^{-x-})]
        # with x-+ = beta (eps(r -+ q) - mu); 1 - e^{-x} = -expm1(-x) is accurate
        # near x = 0 and, unlike e^x - 1, cannot overflow
        eps = dispersion(np.stack((r, r - q_norm, r + q_norm))[..., None], params)
        one_minus = -np.expm1(-beta * (eps - mu_shift))
        return r * m / (beta * q_norm) * np.log(one_minus[2] / one_minus[1]) / one_minus[0]

    k_max = _radial_cutoff(params, q_norm)
    prefactor = 1.0 / (2.0 * rho) / (4.0 * math.pi**2)
    breakpoints = np.concatenate(([0.0], q_norm * (1.0 - _LOG_GRADING), [q_norm],
                                  q_norm + (k_max - q_norm) * _LOG_GRADING[::-1], [k_max]))
    value, abserr = _gauss_kronrod(radial, breakpoints, rtol)
    # Tail beyond k_max: both factors bounded by the exponential envelope.
    x_tail = beta * (dispersion(k_max - q_norm, params) - mu_shift)
    tail, _ = integrate.quad(
        lambda r: 2.0 * r * r * math.exp(-beta * (dispersion(r - q_norm, params) - mu_shift)),
        k_max, k_max + 20.0,
    )
    tail_bound = prefactor * tail / max(1.0 - math.exp(-x_tail), 0.5)
    return IntegralResult(prefactor * value, prefactor * abserr, tail_bound)


def wibg_pair_bubble(q, params: ModelParams, rtol: float = 1e-7) -> IntegralResult:
    """Ground-state pair bubble of the superfluid gas.

    ``(2 pi)^-3 int d^3k [n_{k+q}(n_k + 1) + m_{k+q} m_k]`` with the
    depletion density ``n_k = sinh^2 a_k`` and the anomalous average
    ``m_k = -c^2 v(k) / (2 E_k)``, the ``model.pair_averages`` of the
    ground state. This is the excited-mode contribution to the
    full-density structure factor at zero temperature.

    The angular variable becomes ``p = |k + q|`` (``du = p dp / (r q)``),
    so at radius ``r = |k|`` the inner integral is
    ``(1 / r q) int_{|r-q|}^{r+q} p [n_p (n_r + 1) + m_p m_r] dp``. That
    integrand is analytic in ``p`` (the ``1/p`` of ``n_p`` and ``m_p``
    cancels against the Jacobian), so a fixed Gauss-Legendre rule of
    ``PAIR_NODES`` nodes converges exponentially. The adaptive G10/K21
    rule does the outer integral over ``r`` to ``rtol``, with the kink at
    ``r = |q|`` as a breakpoint; each of its rounds evaluates the inner
    rule once, on an ``(n_r, PAIR_NODES)`` array.

    ``q`` is the norm ``|q|``, positive and finite. ``error`` is the outer
    rule's estimate; the fixed inner rule has no estimate of its own (the
    tests hold it against a rule of twice its size). ``tail_bound`` bounds
    the integrand beyond the cutoff. Like the thermal bubble, it raises
    ``RuntimeError`` when the outer rule does not converge.
    """
    q_norm = _wavevector_norm(q)
    if not params.is_ground_state:
        raise ValueError("pair bubble implemented for the ground state only")
    nodes, weights = _gauss_legendre(PAIR_NODES)

    def radial(r):
        # p runs over [|r-q|, r+q]: midpoint max(r, q), half-width min(r, q)
        half = np.minimum(r, q_norm)[..., None]
        p = np.maximum(r, q_norm)[..., None] + half * nodes
        k = np.concatenate((r[..., None], p), axis=-1)
        # one radius per entry of k[..., None], not one 3-vector
        n, m = pair_averages(dispersion(k[..., None], params), params.c2v(k), params.beta)
        inner = p * (n[..., 1:] * (n[..., :1] + 1.0) + m[..., 1:] * m[..., :1])
        return r / q_norm * half[..., 0] * (inner @ weights)

    # Depletion decays like (c^2 v / 2 eps)^2; beyond twice the radius where
    # v / v0 = 1e-14 the gaussian tail of v leaves nothing
    k_max = q_norm + 2.0 * params.kappa * math.sqrt(14.0 * math.log(10.0))
    prefactor = 1.0 / (4.0 * math.pi**2)
    value, abserr = _gauss_kronrod(radial, [0.0, q_norm, k_max], rtol)
    n_t, m_t = pair_averages(dispersion(k_max, params), params.c2v(k_max), params.beta)
    tail_bound = prefactor * 8.0 * k_max**2 * (abs(n_t) + abs(m_t))
    return IntegralResult(prefactor * value, prefactor * abserr, tail_bound)


def fit_power_law(samples: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log(value)`` against ``log(q)``.

    Requires at least 4 samples with strictly positive abscissae and
    values.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 samples for a power-law fit")
    qs = np.array([s[0] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    if np.any(qs <= 0.0) or np.any(vals <= 0.0):
        raise ValueError("power-law fit requires positive samples")
    slope, _ = np.polyfit(np.log(qs), np.log(vals), 1)
    return float(slope)


def richardson(xs: Sequence[float], ys: Sequence[float],
               powers: Sequence[float]) -> float:
    """Extrapolate ``y(x)`` to ``x = 0`` in a chosen correction basis.

    Solves ``y = y0 + sum_j c_j x^p_j`` exactly through the samples and
    returns ``y0``. Each caller names the powers its error expansion
    carries, e.g. ``(1, 2, 3)`` for a smooth sequence or odd powers only
    for lattice sums of an integrand with an excluded ``1/k^2`` point.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(powers) + 1:
        raise ValueError("need exactly len(powers) + 1 samples")
    design = np.column_stack([np.ones_like(xs)] + [xs**p for p in powers])
    return float(np.linalg.solve(design, ys)[0])
