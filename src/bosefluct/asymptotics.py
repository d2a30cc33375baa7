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


def _radial_cutoff(params: ModelParams, q_norm: float) -> float:
    """Radius beyond which the thermal factor is below ~1e-12."""
    # beta * (K - q)^2 / (2m) >= 30 gives e^{-30} ~ 1e-13 suppression.
    return q_norm + math.sqrt(60.0 * params.mass / params.beta) + 1.0


def _radial_quad(radial, q_norm: float, k_max: float, rtol: float) -> Tuple[float, float]:
    """Adaptive quadrature of ``radial`` over ``[0, k_max]`` with the kink at ``|q|``.

    Returns ``(value, abserr)``; raises ``RuntimeError`` when the error
    estimate exceeds ten times the requested relative tolerance.
    """
    value, abserr = integrate.quad(radial, 0.0, k_max, points=[q_norm],
                                   epsrel=rtol, epsabs=0.0, limit=400)
    if abserr > 10.0 * rtol * max(abs(value), 1e-300) and abserr > 1e-12:
        raise RuntimeError(
            f"bubble quadrature did not converge: value={value:.3e} err={abserr:.3e}"
        )
    return value, abserr


def bose_bubble_integral(q, params: ModelParams, mu_shift: float = 0.0,
                         norm_density: float | None = None,
                         rtol: float = 1e-7) -> IntegralResult:
    """Thermal bubble ``(1/2 rho0) (2 pi)^-3 int d^3k n(eps_{k+q}) (n(eps_k)+1)``.

    The angular integral is done in closed form (the occupation is a
    function of a variable linear in ``cos theta``), leaving a single
    adaptive radial quadrature with the integrable log singularity at
    ``|k| = |q|`` declared as a breakpoint. Exactly zero at ``beta = inf``.

    Parameters
    ----------
    q : 3-vector or scalar norm, nonzero
    mu_shift : float
        Nonpositive chemical-potential shift applied to both factors
        (normal/critical phases of the free gas).
    norm_density : float, optional
        Density in the ``1/(2 rho)`` prefactor; defaults to the
        condensate density in ``params``.
    """
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ValueError("q must be nonzero")
    if mu_shift > 0.0:
        raise ValueError("mu_shift must be <= 0")
    rho = params.condensate_density if norm_density is None else norm_density
    if rho <= 0.0:
        raise ValueError("normalization density must be positive")
    if params.is_ground_state:
        return IntegralResult(0.0, 0.0, 0.0)

    beta, m = params.beta, params.mass

    def angular(r: float) -> float:
        # int_{-1}^{1} du n(eps(|k+q|) - mu) with |k+q|^2 = r^2+q^2+2rqu
        x_lo = beta * (dispersion(r - q_norm, params) - mu_shift)
        x_hi = beta * (dispersion(r + q_norm, params) - mu_shift)
        jac = m / (beta * r * q_norm)
        lo = -math.expm1(-x_lo)  # 1 - e^{-x}, accurate near x = 0
        hi = -math.expm1(-x_hi)
        if lo <= 0.0:
            return math.inf  # only reachable at the breakpoint itself
        return jac * (math.log(hi) - math.log(lo))

    def radial(r: float) -> float:
        if r == 0.0:
            return 0.0
        eps_r = dispersion(r, params)
        # n + 1 = 1 / (1 - e^{-x}): no overflow where e^x would pass the float range
        occ_plus_one = -1.0 / math.expm1(-beta * (eps_r - mu_shift))
        return r * r * occ_plus_one * angular(r)

    k_max = _radial_cutoff(params, q_norm)
    prefactor = 1.0 / (2.0 * rho) / (4.0 * math.pi**2)
    value, abserr = _radial_quad(radial, q_norm, k_max, rtol)
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
    ``PAIR_NODES`` nodes, evaluated on arrays, converges exponentially. One
    adaptive quadrature over ``r`` to ``rtol``, with the kink at
    ``r = |q|`` as a breakpoint, does the outer integral.

    ``error`` is the outer quadrature's estimate; the fixed inner rule
    has no estimate of its own (the tests hold it against a rule of twice
    its size). ``tail_bound`` bounds the integrand beyond the cutoff. Like
    the thermal bubble, it raises ``RuntimeError`` when the outer
    quadrature does not converge.
    """
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ValueError("q must be nonzero")
    if not params.is_ground_state:
        raise ValueError("pair bubble implemented for the ground state only")
    nodes, weights = _gauss_legendre(PAIR_NODES)

    def radial(r: float) -> float:
        if r == 0.0:
            return 0.0
        # p runs over [|r-q|, r+q]: midpoint max(r, q), half-width min(r, q)
        half = min(r, q_norm)
        p = max(r, q_norm) + half * nodes
        k = np.concatenate(([r], p))
        # one radius per row of k[:, None], not one 3-vector
        n, m = pair_averages(dispersion(k[:, None], params), params.c2v(k), params.beta)
        inner = p * (n[1:] * (n[0] + 1.0) + m[1:] * m[0])
        return r / q_norm * half * float(weights @ inner)

    # Depletion decays like (c^2 v / 2 eps)^2; beyond twice the radius where
    # v / v0 = 1e-14 the gaussian tail of v leaves nothing
    k_max = q_norm + 2.0 * params.kappa * math.sqrt(14.0 * math.log(10.0))
    prefactor = 1.0 / (4.0 * math.pi**2)
    value, abserr = _radial_quad(radial, q_norm, k_max, rtol)
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
