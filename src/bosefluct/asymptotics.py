"""Quadrature and scaling analysis: bubble integrals and power-law fits.

Provides the thermal bubble integral entering the density-fluctuation
variance of the mean-field gas, the zero-temperature pair bubble of the
superfluid gas, log-log power-law fitting, the delta exponent that
classifies abnormal fluctuations across phases, and Richardson
extrapolation helpers for the q -> 0 and V -> infinity limits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import integrate

from .model import ModelParams, bogoliubov_spectrum, dispersion

__all__ = [
    "IntegralResult",
    "PowerLawFit",
    "PhaseTag",
    "bose_bubble_integral",
    "wibg_pair_bubble",
    "fit_power_law",
    "delta_exponent",
    "lifetime_exponent",
    "dynamical_rate_fit",
    "richardson",
    "richardson_powers",
]

DELTA_BOX_SIDES = (60.0, 85.0, 120.0, 170.0, 240.0, 340.0)  # box sides L of the delta fit


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value with its error estimate and radial tail bound."""

    value: float
    error: float
    tail_bound: float


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law ``value = amplitude * q^exponent``."""

    exponent: float
    amplitude: float
    r_squared: float
    window: Tuple[float, float]


@dataclass(frozen=True)
class PhaseTag:
    """Phase label for the delta-exponent classifier.

    ``kind`` is one of ``condensed`` (macroscopic zero mode present),
    ``critical`` (no condensate, zero chemical-potential shift) or
    ``normal`` (no condensate, strictly negative shift ``mu_shift``).
    """

    kind: str
    mu_shift: float = 0.0

    REFERENCE = {"condensed": 1.0 / 3.0, "critical": 1.0 / 6.0, "normal": 0.0}

    def __post_init__(self):
        if self.kind not in self.REFERENCE:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.kind == "normal" and not self.mu_shift < 0.0:
            raise ValueError("normal phase requires mu_shift < 0")
        if self.kind != "normal" and self.mu_shift != 0.0:
            raise ValueError("mu_shift applies to the normal phase only")

    @property
    def reference_delta(self) -> float:
        return self.REFERENCE[self.kind]


def _radial_cutoff(params: ModelParams, q_norm: float) -> float:
    """Radius beyond which the thermal factor is below ~1e-12."""
    # beta * (K - q)^2 / (2m) >= 30 gives e^{-30} ~ 1e-13 suppression.
    return q_norm + math.sqrt(60.0 * params.mass / params.beta) + 1.0


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
        occ_plus_one = 1.0 + 1.0 / math.expm1(beta * (eps_r - mu_shift))
        return r * r * occ_plus_one * angular(r)

    k_max = _radial_cutoff(params, q_norm)
    prefactor = 1.0 / (2.0 * rho) / (4.0 * math.pi**2)
    value, abserr = integrate.quad(
        radial, 0.0, k_max, points=[q_norm], epsrel=rtol, epsabs=0.0, limit=400
    )
    # Tail beyond k_max: both factors bounded by the exponential envelope.
    x_tail = beta * (dispersion(k_max - q_norm, params) - mu_shift)
    tail, _ = integrate.quad(
        lambda r: 2.0 * r * r * math.exp(-beta * (dispersion(r - q_norm, params) - mu_shift)),
        k_max, k_max + 20.0,
    )
    tail_bound = prefactor * tail / max(1.0 - math.exp(-x_tail), 0.5)
    if abserr > 10.0 * rtol * max(abs(value), 1e-300) and abserr > 1e-12:
        raise RuntimeError(
            f"bubble quadrature did not converge: value={value:.3e} err={abserr:.3e}"
        )
    return IntegralResult(prefactor * value, prefactor * abserr, tail_bound)


def wibg_pair_bubble(q, params: ModelParams, rtol: float = 1e-7) -> IntegralResult:
    """Ground-state pair bubble of the superfluid gas.

    ``(2 pi)^-3 int d^3k [n_{k+q}(n_k + 1) + m_{k+q} m_k]`` with the
    depletion density ``n_k = sinh^2 a_k`` and the anomalous average
    ``m_k = -c^2 v(k) / (2 E_k)``. This is the excited-mode contribution
    to the full-density structure factor at zero temperature.
    """
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ValueError("q must be nonzero")
    if not params.is_ground_state:
        raise ValueError("pair bubble implemented for the ground state only")
    def depletion_and_anomalous(r: float):
        eps = dispersion(r, params)
        g = params.c2v(r)
        energy = bogoliubov_spectrum(eps, g)
        n = 0.5 * ((eps + g) / energy - 1.0)
        return n, -g / (2.0 * energy)

    def inner(u: float, r: float, n_r: float, m_r: float) -> float:
        p = math.sqrt(max(r * r + q_norm * q_norm + 2.0 * r * q_norm * u, 0.0))
        if p == 0.0:
            return 0.0
        n_p, m_p = depletion_and_anomalous(p)
        return n_p * (n_r + 1.0) + m_p * m_r

    def radial(r: float) -> float:
        if r == 0.0:
            return 0.0
        n_r, m_r = depletion_and_anomalous(r)
        val, _ = integrate.quad(inner, -1.0, 1.0, args=(r, n_r, m_r),
                                epsrel=rtol * 0.1, epsabs=1e-14, limit=200)
        return r * r * val

    # Depletion decays like (c^2 v / 2 eps)^2; the gaussian tail of v
    # makes everything beyond a few widths negligible.
    # crude width probe of the potential tail
    for kappa_scale in (2.0, 4.0, 8.0, 16.0):
        if abs(params.v(kappa_scale)) < 1e-14 * abs(params.v(0.0)):
            break
    else:
        kappa_scale = 32.0
    k_max = q_norm + 2.0 * kappa_scale
    prefactor = 1.0 / (4.0 * math.pi**2)
    value, abserr = integrate.quad(radial, 0.0, k_max, points=[q_norm],
                                   epsrel=rtol, epsabs=0.0, limit=400)
    n_t, m_t = depletion_and_anomalous(k_max)
    tail_bound = prefactor * 8.0 * k_max**2 * (abs(n_t) + abs(m_t))
    return IntegralResult(prefactor * value, prefactor * abserr, tail_bound)


def fit_power_law(samples: Sequence[Tuple[float, float]]) -> PowerLawFit:
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
    lx, ly = np.log(qs), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        amplitude=float(math.exp(intercept)),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        window=(float(qs.min()), float(qs.max())),
    )


def delta_exponent(phase: PhaseTag, params: ModelParams) -> PowerLawFit:
    """Fitted volume-scaling exponent of the coupled-sequence variance.

    Evaluates the density-fluctuation variance at the first nonzero box
    momentum ``|q_L| = 2 pi / L`` for each side in ``DELTA_BOX_SIDES``, fits its growth as
    ``V^(2 delta)``, and returns the fit with ``exponent`` already
    divided down to delta. Reference values: 1/3 (condensed, the coth
    term dominates), 1/6 (critical, massless bubble), 0 (normal).
    """
    if params.is_ground_state:
        raise ValueError("delta classification is a finite-temperature statement")
    if phase.kind == "condensed" and params.condensate_density <= 0.0:
        raise ValueError("condensed phase requires condensate_density > 0")
    from .fluctuations import variance_rho_imperfect

    samples = []
    for box in DELTA_BOX_SIDES:
        q_norm = 2.0 * math.pi / box
        if phase.kind == "condensed":
            value = variance_rho_imperfect(q_norm, params)
        else:
            value = bose_bubble_integral(
                q_norm, params, mu_shift=phase.mu_shift,
                norm_density=params.total_density,
            ).value
        samples.append((box**3, value))
    fit = fit_power_law(samples)
    return PowerLawFit(
        exponent=fit.exponent / 2.0,
        amplitude=fit.amplitude,
        r_squared=fit.r_squared,
        window=fit.window,
    )


def lifetime_exponent(model: str) -> int:
    """Power of ``1/|q|`` in the natural time rescaling of the pair dynamics.

    The mean-field gas closes after ``t -> t / eps_q`` (quadratic
    dispersion, exponent 2); the superfluid gas after ``t -> t / E_q``
    (linear collective spectrum, exponent 1).
    """
    if model == "imperfect":
        return 2
    if model == "wibg":
        return 1
    raise ValueError(f"unknown model tag {model!r}")


def dynamical_rate_fit(model: str, params: ModelParams,
                       q_norms: Sequence[float]) -> PowerLawFit:
    """Fit the small-q power of the dynamical normalization energy.

    The normalization is ``eps_q`` for the mean-field gas and ``E_q``
    for the superfluid gas; the fitted exponent should match
    ``lifetime_exponent`` at small momenta.
    """
    samples = []
    for q_norm in q_norms:
        eps = dispersion(q_norm, params)
        if model == "imperfect":
            samples.append((q_norm, eps))
        elif model == "wibg":
            samples.append((q_norm, bogoliubov_spectrum(eps, params.c2v(q_norm))))
        else:
            raise ValueError(f"unknown model tag {model!r}")
    return fit_power_law(samples)


def richardson_powers(xs: Sequence[float], ys: Sequence[float],
                      powers: Sequence[float]) -> float:
    """Extrapolate ``y(x)`` to ``x = 0`` with a chosen correction basis.

    Solves ``y = y0 + sum_j c_j x^p_j`` exactly through the samples and
    returns ``y0``. Useful when the error expansion is known to contain
    only specific powers (e.g. odd powers for lattice sums of an
    integrand with an excluded ``1/k^2`` point).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(powers) + 1:
        raise ValueError("need exactly len(powers) + 1 samples")
    design = np.column_stack([np.ones_like(xs)] + [xs**p for p in powers])
    return float(np.linalg.solve(design, ys)[0])


def richardson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Polynomial extrapolation of ``y(x)`` to ``x = 0``.

    Fits the unique degree-(n-1) polynomial through the points and
    returns its constant term; with 3-4 points on a smooth sequence
    this removes the leading corrections in x.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need two or more matched samples")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        coeffs = np.polyfit(xs, ys, len(xs) - 1)
    return float(coeffs[-1])
