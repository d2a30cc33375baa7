"""Closed-form fluctuation-operator quantities for both condensed gases.

Variances of the density / order-parameter / condensate-density
fluctuations at finite wavevector q, the symmetric form ``s`` and
symplectic form ``sigma`` of the emergent boson field, the equivalence
pseudometric between smearing pairs (f, g), and the static structure
factor. Normalization is the self-adjoint cos-convention in which the
ground-state density-fluctuation variance of the mean-field gas is
exactly 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import bose_bubble_integral, richardson, wibg_pair_bubble
from .model import ModelParams, bogoliubov_spectrum, dispersion, thermal_kernel

__all__ = [
    "FluctuationSpec",
    "FormValue",
    "j_map",
    "variance_rho_imperfect",
    "variance_A_imperfect",
    "variance_rho0_wibg",
    "variance_A_wibg",
    "variance_general",
    "symplectic_sigma",
    "covariance_form",
    "equivalence_distance",
    "structure_factor",
]


def j_map(f_q0: complex) -> complex:
    """The intertwining map ``(Jf)(q, 0) = -i f(q, 0)``.

    Swapping a density smearing f for the order-parameter smearing Jf
    produces the same limiting fluctuation field.
    """
    return -1j * complex(f_q0)


@dataclass(frozen=True)
class FluctuationSpec:
    """A smeared fluctuation operator at one nonzero wavevector.

    Only the test-function values at ``(q, 0)`` matter in the limit;
    the mirrored values ``f(0, q) = conj(f(q, 0))`` are implied by the
    self-adjointness constraint and not stored separately.

    Parameters
    ----------
    model : {"imperfect", "wibg"}
    q : momentum 3-vector (or scalar norm), nonzero
    f_q0, g_q0 : complex
        Density and order-parameter smearing values at ``(q, 0)``.
    renorm_exponent : float
        Power of ``|q|`` multiplying the bare operator.
    """

    model: str
    q: tuple
    f_q0: complex = 0.0
    g_q0: complex = 0.0
    renorm_exponent: float = 0.0

    def __post_init__(self):
        if self.model not in ("imperfect", "wibg"):
            raise ValueError(f"unknown model tag {self.model!r}")
        qa = np.atleast_1d(np.asarray(self.q, dtype=float))
        if qa.size == 1:
            qa = np.array([0.0, 0.0, float(qa[0])])
        if qa.shape != (3,):
            raise ValueError("q must be a scalar norm or a 3-vector")
        if not np.any(qa != 0.0):
            raise ValueError("q must be nonzero")
        object.__setattr__(self, "q", tuple(qa))
        object.__setattr__(self, "f_q0", complex(self.f_q0))
        object.__setattr__(self, "g_q0", complex(self.g_q0))

    @property
    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q))

    @property
    def field_value(self) -> complex:
        """The combination ``f + i g`` the limiting field depends on."""
        return self.f_q0 + 1j * self.g_q0

    @property
    def renorm_factor(self) -> float:
        return self.q_norm**self.renorm_exponent


@dataclass(frozen=True)
class FormValue:
    """Symmetric plus symplectic part of the limit covariance."""

    s: float
    sigma: float

    @property
    def full(self) -> complex:
        return self.s + 0.5j * self.sigma


def variance_rho_imperfect(q, params: ModelParams, rtol: float = 1e-7) -> float:
    """Density-fluctuation variance of the mean-field gas at wavevector q.

    ``(1/2) coth(beta eps_q / 2)`` plus the thermal bubble integral;
    exactly 1/2 in the ground state.
    """
    if params.condensate_density <= 0.0:
        raise ValueError("density-fluctuation normalization needs condensate_density > 0")
    return variance_general(FluctuationSpec("imperfect", q, f_q0=1.0), params, rtol)


def variance_A_imperfect(q, params: ModelParams) -> float:
    """Order-parameter fluctuation variance ``(1/2) coth(beta eps_q / 2)``."""
    return variance_general(FluctuationSpec("imperfect", q, g_q0=1.0), params)


def variance_rho0_wibg(q, params: ModelParams) -> float:
    """Bare condensate-density fluctuation variance ``(eps/2E) coth(beta E/2)``."""
    return variance_general(FluctuationSpec("wibg", q, f_q0=1.0), params)


def variance_A_wibg(q, params: ModelParams) -> float:
    """Bare order-parameter fluctuation variance ``(E/2eps) coth(beta E/2)``."""
    return variance_general(FluctuationSpec("wibg", q, g_q0=1.0), params)


def variance_general(spec: FluctuationSpec, params: ModelParams,
                     rtol: float = 1e-7) -> float:
    """Variance of the smeared fluctuation ``F(f, g)`` at the spec's q.

    Mean-field gas: ``(1/2)|f + ig|^2 coth(beta eps_q/2) + |f|^2 I(q)``
    with the bubble integral ``I`` (zero in the ground state, recovering
    ``(1/2)|f + ig|^2``). Superfluid gas:
    ``(eps |f + ig|^2 + 2 c^2 v Im(f + ig)^2) / (2E)`` times
    ``coth(beta E/2)``, the form of
    ``((eps + c^2 v)|w|^2 - c^2 v Re w^2) / (2E)`` that does not cancel
    at small q. Both give the four named variances at
    ``(f, g) = (1, 0)`` and ``(0, 1)`` and are multiplied by the squared
    renormalization factor ``|q|^(2 renorm_exponent)``.
    """
    w = spec.field_value
    q_norm = spec.q_norm
    scale = spec.renorm_factor**2
    eps = dispersion(q_norm, params)
    if spec.model == "imperfect":
        value = abs(w) ** 2 * thermal_kernel(eps, params.beta)
        if spec.f_q0 != 0.0 and not params.is_ground_state:
            value += abs(spec.f_q0) ** 2 * bose_bubble_integral(q_norm, params, rtol=rtol).value
        return scale * value
    if params.condensate_amplitude == 0.0:
        raise ValueError("superfluid formulas need a nonzero condensate amplitude")
    g = params.c2v(q_norm)
    energy = bogoliubov_spectrum(eps, g)
    value = (eps * abs(w) ** 2 + 2.0 * g * w.imag**2) / energy
    return scale * thermal_kernel(energy, params.beta) * value


def _check_compatible(spec1: FluctuationSpec, spec2: FluctuationSpec):
    if spec1.model != spec2.model:
        raise ValueError("specs use different models")
    if not np.allclose(spec1.q, spec2.q):
        raise ValueError("specs use different wavevectors")


def symplectic_sigma(spec1: FluctuationSpec, spec2: FluctuationSpec,
                     params: ModelParams) -> float:
    """Symplectic form ``sigma = Im[conj(f1 + i g1) (f2 + i g2)]``.

    Model-independent: it descends from the limit of the commutator,
    which only sees the condensate amplitude. ``sigma((rho), (A)) = 1``.
    """
    _check_compatible(spec1, spec2)
    value = (spec1.field_value.conjugate() * spec2.field_value).imag
    return float(value * spec1.renorm_factor * spec2.renorm_factor)


def covariance_form(spec1: FluctuationSpec, spec2: FluctuationSpec,
                    params: ModelParams, rtol: float = 1e-7) -> FormValue:
    """Full sesquilinear form ``s + i sigma / 2`` between two specs.

    The symmetric part is obtained by polarization of the variance
    quadratic form, so it automatically satisfies the Cauchy-Schwarz
    bound ``|sigma|^2 / 4 <= s11 s22``.
    """
    _check_compatible(spec1, spec2)
    if spec1.renorm_exponent != spec2.renorm_exponent:
        raise ValueError("polarization needs a common renormalization exponent")
    plus = replace(spec1, f_q0=spec1.f_q0 + spec2.f_q0, g_q0=spec1.g_q0 + spec2.g_q0)
    minus = replace(spec1, f_q0=spec1.f_q0 - spec2.f_q0, g_q0=spec1.g_q0 - spec2.g_q0)
    s = 0.25 * (variance_general(plus, params, rtol) - variance_general(minus, params, rtol))
    return FormValue(s=s, sigma=symplectic_sigma(spec1, spec2, params))


def equivalence_distance(spec1: FluctuationSpec, spec2: FluctuationSpec,
                         params: ModelParams) -> float:
    """Pseudometric between smearing pairs: sqrt of the limit variance
    of the difference spec as q -> 0.

    Zero exactly when the limiting fluctuation fields coincide, e.g.
    for the pair ``(f, 0)`` versus ``(0, Jf)``. The q -> 0 limit is a
    Richardson extrapolation over the four wavevector norms
    ``|q| 2^-j``, j = 0..3, seeded from the specs' own q.
    """
    if spec1.model != spec2.model:
        raise ValueError("specs use different models")
    diff = replace(spec1, f_q0=spec1.f_q0 - spec2.f_q0, g_q0=spec1.g_q0 - spec2.g_q0)
    q_tail = [spec1.q_norm * 0.5**j for j in range(4)]
    values = [variance_general(replace(diff, q=qn), params) for qn in q_tail]
    limit = richardson(q_tail, values)
    return math.sqrt(max(limit, 0.0))


def structure_factor(q, params: ModelParams, density_kind: str = "condensate",
                     rtol: float = 1e-7) -> float:
    """Static structure factor of the superfluid gas at wavevector q.

    ``condensate`` kind: ``2 c^2`` times the bare condensate-density
    variance, i.e. ``c^2 (eps_q / E_q) coth(beta E_q / 2)``; linear in
    ``|q|`` at zero temperature with slope ``c^2 / Omega``. ``full``
    kind (ground state only) adds the excited-mode pair bubble and
    tends to a nonzero constant as q -> 0.
    """
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ValueError("q must be nonzero")
    c_sq = params.condensate_amplitude**2
    condensate_part = 2.0 * c_sq * variance_rho0_wibg(q_norm, params)
    if density_kind == "condensate":
        return condensate_part
    if density_kind == "full":
        if not params.is_ground_state:
            raise ValueError("full-density structure factor implemented at beta = inf")
        return condensate_part + wibg_pair_bubble(q_norm, params, rtol=rtol).value
    raise ValueError(f"unknown density_kind {density_kind!r}")

