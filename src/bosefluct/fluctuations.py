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

import functools
import math
from dataclasses import dataclass, replace

from .asymptotics import _wavevector_norm, bose_bubble_integral, richardson, wibg_pair_bubble
from .model import ModelParams, bogoliubov_spectrum, dispersion, gas_table, thermal_kernel

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
        Checked by the gas's table when a form is evaluated.
    q : float norm ``|q|``, positive and finite: every closed form depends on it alone
    f_q0, g_q0 : complex
        Density and order-parameter smearing values at ``(q, 0)``.
    renorm_exponent : float
        Power of ``|q|`` multiplying the bare operator.
    """

    model: str
    q: float
    f_q0: complex = 0.0
    g_q0: complex = 0.0
    renorm_exponent: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", _wavevector_norm(self.q))
        object.__setattr__(self, "f_q0", complex(self.f_q0))
        object.__setattr__(self, "g_q0", complex(self.g_q0))

    @property
    def field_value(self) -> complex:
        """The combination ``f + i g`` the limiting field depends on."""
        return self.f_q0 + 1j * self.g_q0

    @property
    def renorm_factor(self) -> float:
        return self.q**self.renorm_exponent


@dataclass(frozen=True)
class FormValue:
    """Symmetric plus symplectic part of the limit covariance."""

    s: float
    sigma: float


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
    """Variance of the smeared fluctuation ``F(f, g)`` at the spec's q:
    the diagonal of the symmetric form, which gives the four named
    variances at ``(f, g) = (1, 0)`` and ``(0, 1)``."""
    return _symmetric_form(spec, spec, params, rtol)


def _symmetric_form(spec1: FluctuationSpec, spec2: FluctuationSpec,
                    params: ModelParams, rtol: float = 1e-7) -> float:
    """The real bilinear form ``s`` behind every variance and covariance.

    With ``w = f + ig``, ``g`` the table's pairing, ``E`` the collective energy,
    ``K`` the thermal kernel and ``r`` the renormalization factors: ``r1 r2 K(E_q)
    (eps_q Re(conj w1 w2) + 2 g Im w1 Im w2) / E_q``, which does not cancel at
    small q as ``(eps + g) Re(conj w1 w2) - g Re(w1 w2)`` does. ``g = 0`` is the
    mean-field kernel, to which the mean-field gas adds ``Re(conj f1 f2) I(q)``
    with the thermal bubble ``I`` (zero in the ground state)."""
    w1, w2 = spec1.field_value, spec2.field_value
    scale = spec1.renorm_factor * spec2.renorm_factor
    eps = dispersion(spec1.q, params)
    g = gas_table(spec1.model, params).g(spec1.q)
    energy = bogoliubov_spectrum(eps, g)
    overlap = (w1.conjugate() * w2).real
    value = thermal_kernel(energy, params.beta) * (
        (eps * overlap + 2.0 * g * w1.imag * w2.imag) / energy)
    f_overlap = (spec1.f_q0.conjugate() * spec2.f_q0).real
    if spec1.model == "imperfect" and f_overlap != 0.0 and not params.is_ground_state:
        value += f_overlap * _thermal_bubble(spec1.q, params, rtol)
    return scale * value


@functools.lru_cache(maxsize=256)
def _thermal_bubble(q: float, params: ModelParams, rtol: float) -> float:
    """``bose_bubble_integral(q, params, rtol=rtol).value``, integrated once per key.

    A variance and the covariances of its Gram matrix at one ``|q|`` share the
    bubble, which is nearly all their cost. The key holds every input the value
    depends on, so a hit is bit-identical to a new integral; a raise is not kept.
    The bubble is looked up at call time, so a patched or traced binding sees
    every miss."""
    return bose_bubble_integral(q, params, rtol=rtol).value


def _check_compatible(spec1: FluctuationSpec, spec2: FluctuationSpec):
    """Refuses two specs unless they share the model and exactly the same ``|q|``."""
    if spec1.model != spec2.model:
        raise ValueError("specs use different models")
    if spec1.q != spec2.q:
        raise ValueError("specs use different wavevector norms |q|")


def symplectic_sigma(spec1: FluctuationSpec, spec2: FluctuationSpec) -> float:
    """Symplectic form ``sigma = Im[conj(f1 + i g1) (f2 + i g2)]``.

    Model-independent: it descends from the limit of the commutator,
    which only sees the condensate amplitude. ``sigma((rho), (A)) = 1``.
    """
    _check_compatible(spec1, spec2)
    value = (spec1.field_value.conjugate() * spec2.field_value).imag
    return float(value * spec1.renorm_factor * spec2.renorm_factor)


def covariance_form(spec1: FluctuationSpec, spec2: FluctuationSpec,
                    params: ModelParams) -> FormValue:
    """Full sesquilinear form ``s + i sigma / 2`` between two specs.

    The matrix ``s_ij + i sigma_ij / 2`` over any specs is the two-point
    matrix of a state: Hermitian and positive semidefinite, with ``s``
    its real part. Hence Cauchy-Schwarz,
    ``s11 s22 - s12^2 >= sigma12^2 / 4``. The exponents may differ, as
    in the canonical pair ``(|q|^-1/2 rho0, |q|^1/2 A)``.
    """
    sigma = symplectic_sigma(spec1, spec2)  # refuses incompatible specs
    return FormValue(s=_symmetric_form(spec1, spec2, params), sigma=sigma)


def equivalence_distance(spec1: FluctuationSpec, spec2: FluctuationSpec,
                         params: ModelParams) -> float:
    """Pseudometric between smearing pairs: sqrt of the limit variance
    of the difference spec as q -> 0.

    Zero exactly when the limiting fluctuation fields coincide, e.g.
    for the pair ``(f, 0)`` versus ``(0, Jf)``. The q -> 0 limit is a
    Richardson extrapolation over the four wavevector norms
    ``|q| 2^-j``, j = 0..3, seeded from the specs' common q; a limit that rounds
    negative shows as ``sqrt(|limit|)``. Both specs must share the model, ``|q|``
    and ``renorm_exponent``: the difference spec has one exponent.
    """
    _check_compatible(spec1, spec2)
    if spec1.renorm_exponent != spec2.renorm_exponent:
        raise ValueError("specs use different renormalization exponents")
    diff = replace(spec1, f_q0=spec1.f_q0 - spec2.f_q0, g_q0=spec1.g_q0 - spec2.g_q0)
    q_tail = [spec1.q * 0.5**j for j in range(4)]
    values = [variance_general(replace(diff, q=qn), params) for qn in q_tail]
    limit = richardson(q_tail, values, (1, 2, 3))
    return math.sqrt(abs(limit))


def structure_factor(q, params: ModelParams, density_kind: str = "condensate",
                     rtol: float = 1e-7) -> float:
    """Static structure factor of the superfluid gas at wavevector norm ``q = |q|``.

    ``condensate`` kind: ``2 c^2`` times the bare condensate-density
    variance, i.e. ``c^2 (eps_q / E_q) coth(beta E_q / 2)``; linear in
    ``|q|`` at zero temperature with slope ``c^2 / Omega``. ``full``
    kind (ground state only) adds the excited-mode pair bubble and
    tends to a nonzero constant as q -> 0.
    """
    c_sq = params.condensate_amplitude**2
    condensate_part = 2.0 * c_sq * variance_rho0_wibg(q, params)  # its spec refuses q
    if density_kind == "condensate":
        return condensate_part
    if density_kind == "full":
        if not params.is_ground_state:
            raise ValueError("full-density structure factor implemented at beta = inf")
        return condensate_part + wibg_pair_bubble(q, params, rtol=rtol).value
    raise ValueError(f"unknown density_kind {density_kind!r}")

