"""Physical parameters, dispersion and Bogoliubov diagonalization data.

Closed-form scalar layer shared by every other module: the free-particle
dispersion, Bose occupation numbers, the thermal two-point kernel
``(1/2) coth(beta e / 2)``, the Bogoliubov excitation spectrum with its
transformation coefficients, and the collective gap constant
``Omega = sqrt(4 m c^2 v(0))`` of the superfluid model. The other
modules take these formulas from here rather than writing them out.

Units: hbar = 1 throughout. ``beta = math.inf`` is a first-class value
and selects the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ModelParams",
    "MomentumGrid",
    "BogoliubovCoefficients",
    "gaussian_potential",
    "dispersion",
    "bose_occupation",
    "thermal_kernel",
    "bogoliubov_spectrum",
    "bogoliubov_coefficients",
    "omega_gap",
]

MODE_CAP = 2_000_000  # most modes a MomentumGrid enumerates


def gaussian_potential(v0: float = 1.0, kappa: float = 2.0) -> Callable[[float], float]:
    """Default radial test potential ``v(k) = v0 * exp(-k^2 / kappa^2)``.

    Even, bounded, and ``v(0) = v0 > 0``, which is all the superfluid
    model requires of its two-body potential.
    """
    if not v0 > 0.0:  # nan fails too
        raise ValueError("v0 must be positive (v(0) > 0 required)")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")

    def v(k_norm):
        return v0 * np.exp(-np.asarray(k_norm) ** 2 / kappa**2)

    return v


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs for both gas models.

    Parameters
    ----------
    mass : float
        Particle mass ``m`` (energy^-1 length^-2 with hbar = 1).
    beta : float
        Inverse temperature; ``math.inf`` means ground state. The other
        numbers must be finite.
    total_density : float
        Average particle density ``rho``.
    condensate_density : float
        Condensate density ``rho0`` (mean-field gas). ``0 <= rho0 <= rho``.
    condensate_amplitude : float
        Real condensate amplitude ``c`` (superfluid model; phase fixed to 0).
    coupling : float
        Mean-field coupling ``lambda`` (energy * length^3).
    potential : callable, optional
        Radial two-body potential ``v(|k|)``; required by the superfluid
        model. Defaults to None (mean-field gas does not use it).
    """

    mass: float
    beta: float = math.inf
    total_density: float = 1.0
    condensate_density: float = 0.0
    condensate_amplitude: float = 0.0
    coupling: float = 0.0
    potential: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive (math.inf allowed)")
        if isinstance(self.condensate_amplitude, complex):
            raise TypeError("condensate_amplitude must be real (phase convention alpha = 0)")
        for name in ("total_density", "condensate_density", "condensate_amplitude", "coupling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.total_density < 0.0:
            raise ValueError("total_density must be nonnegative")
        if not (0.0 <= self.condensate_density <= self.total_density + 1e-12):
            raise ValueError("need 0 <= condensate_density <= total_density")

    @property
    def is_ground_state(self) -> bool:
        return math.isinf(self.beta)

    @property
    def chemical_potential(self) -> float:
        """Mean-field limit value ``mu = lambda * rho``."""
        return self.coupling * self.total_density

    def v(self, k_norm):
        """Two-body potential at radial momentum ``|k|``.

        A scalar gives a ``float``; an array of radii gives an array of
        the same shape, element by element.
        """
        if self.potential is None:
            raise ValueError("no potential supplied (superfluid model input)")
        value = self.potential(abs(k_norm))
        # getattr, not np.ndim: scalar calls stay cheap in per-mode loops
        return np.asarray(value, dtype=float) if getattr(value, "ndim", 0) else float(value)

    def c2v(self, k_norm):
        """Condensate-weighted coupling ``c^2 v(|k|)``; scalar or array like ``v``."""
        return self.condensate_amplitude**2 * self.v(k_norm)


def dispersion(k, params: ModelParams) -> float:
    """Free-particle dispersion ``|k|^2 / (2 m)``.

    ``k`` may be a scalar (interpreted as ``|k|``), a 3-vector, or an
    array of 3-vectors along the last axis (returns an array). Even in
    ``k``; vanishes exactly at ``k = 0``.
    """
    # real scalars skip numpy: quadrature integrands call this per point
    if isinstance(k, (float, int)):
        k = float(k)
        if not math.isfinite(k):
            raise ValueError("non-finite momentum components")
        return k * k / (2.0 * params.mass)
    arr = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite momentum components")
    if arr.ndim == 0:
        k_sq = float(arr) * float(arr)
    elif arr.ndim == 1:
        k_sq = float(arr @ arr)
    else:
        return np.sum(arr**2, axis=-1) / (2.0 * params.mass)
    return k_sq / (2.0 * params.mass)


def bose_occupation(eps, beta: float):
    """Bose factor ``1 / (exp(beta eps) - 1)``.

    Returns 0 for the ground state (``beta = inf``). Raises on
    ``eps <= 0`` at finite beta, where the factor diverges.
    Accepts scalars or arrays in ``eps``.
    """
    eps_arr = np.asarray(eps, dtype=float)
    if math.isinf(beta):
        out = np.zeros_like(eps_arr)
        return float(out) if eps_arr.ndim == 0 else out
    x = beta * eps_arr
    if np.any(x <= 0.0):
        raise ValueError("bose_occupation requires eps > 0 at finite beta")
    # e^{-x} / (1 - e^{-x}) is 1 / (e^x - 1) without overflow at large x
    out = np.exp(-x) / -np.expm1(-x)
    return float(out) if eps_arr.ndim == 0 else out


def thermal_kernel(energy: float, beta: float) -> float:
    """Symmetric two-point weight ``(1/2) coth(beta e / 2)`` of a mode of energy ``e``.

    Exactly 1/2 in the ground state (``beta = inf``); ``e`` must be
    positive at finite beta, where the weight diverges at ``e = 0``.
    """
    if math.isinf(beta):
        return 0.5
    if not energy > 0.0:
        raise ValueError("thermal_kernel requires energy > 0 at finite beta")
    return 0.5 / math.tanh(beta * energy / 2.0)


def bogoliubov_spectrum(eps_k, c2v_k):
    """Collective excitation energy ``E = sqrt(eps (eps + 2 c^2 v))``.

    Reduces to ``eps`` for ``c2v = 0`` and is linear in ``|k|`` at small
    momentum when ``c2v(0) > 0``.
    """
    e = np.asarray(eps_k, dtype=float)
    g = np.asarray(c2v_k, dtype=float)
    if np.any(e < 0.0) or np.any(g < 0.0):
        raise ValueError("bogoliubov_spectrum needs nonnegative inputs")
    out = np.sqrt(e * (e + 2.0 * g))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BogoliubovCoefficients:
    """Hyperbolic data of the canonical transformation at one mode.

    ``plus_sq = eps/E`` and ``minus_sq = E/eps`` are the squared
    quadrature rescalings ``(cosh a + sinh a)^2`` and
    ``(cosh a - sinh a)^2``; their product is exactly 1.
    """

    tanh2a: float
    cosh2a: float
    sinh2a: float
    plus_sq: float
    minus_sq: float

    @property
    def cosh_a(self) -> float:
        return math.sqrt((self.cosh2a + 1.0) / 2.0)

    @property
    def sinh_a(self) -> float:
        # sinh2a = 2 sinh a cosh a fixes the sign of sinh a
        return self.sinh2a / (2.0 * self.cosh_a)


def bogoliubov_coefficients(eps_k: float, c2v_k: float) -> BogoliubovCoefficients:
    """Transformation coefficients ``tanh 2a = -c^2 v / (eps + c^2 v)``.

    Raises for ``eps_k = 0`` where the excitation energy vanishes and
    the coefficients are singular.
    """
    if eps_k <= 0.0:
        raise ValueError("bogoliubov coefficients singular at eps_k <= 0")
    if c2v_k < 0.0:
        raise ValueError("c2v_k must be nonnegative")
    energy = bogoliubov_spectrum(eps_k, c2v_k)
    cosh2a = (eps_k + c2v_k) / energy
    sinh2a = -c2v_k / energy
    return BogoliubovCoefficients(
        tanh2a=sinh2a / cosh2a,
        cosh2a=cosh2a,
        sinh2a=sinh2a,
        plus_sq=eps_k / energy,
        minus_sq=energy / eps_k,
    )


def omega_gap(params: ModelParams) -> float:
    """Collective gap constant ``Omega = sqrt(4 m c^2 v(0))``.

    This is the zero-momentum limit of ``E_q |q| / eps_q``, the
    frequency of the emergent oscillator pair in the superfluid model.
    """
    c = params.condensate_amplitude
    if c == 0.0:
        raise ValueError("no condensate: omega_gap needs c != 0")
    v0 = params.v(0.0)
    if v0 <= 0.0:
        raise ValueError("omega_gap needs v(0) > 0")
    return math.sqrt(4.0 * params.mass * c**2 * v0)


class MomentumGrid:
    """Finite-volume momentum lattice ``(2 pi / L) Z^3`` with a cutoff.

    Parameters
    ----------
    box_side : float
        Side length ``L`` of the cubic box; volume ``V = L^3``.
    cutoff : float
        Momentum cutoff ``K_max``; ``modes`` holds every lattice vector
        with ``|k| <= K_max``. A grid whose enumeration would exceed
        ``MODE_CAP`` modes is refused.

    Attributes
    ----------
    modes : ndarray, shape (N, 3)
        Physical momentum vectors.
    lattice_points : ndarray of int, shape (N, 3)
        The same modes in lattice units (``k = 2 pi n / L``).
    """

    def __init__(self, box_side: float, cutoff: float):
        if box_side <= 0.0:
            raise ValueError("box_side must be positive")
        if cutoff <= 0.0:
            raise ValueError("cutoff must be positive")
        self.box_side = float(box_side)
        self.cutoff = float(cutoff)
        self.spacing = 2.0 * math.pi / self.box_side

        n_max = int(math.floor(self.cutoff / self.spacing))
        est = (2 * n_max + 1) ** 3
        if est > MODE_CAP:
            raise ValueError(f"mode enumeration would produce ~{est} modes (cap {MODE_CAP})")
        rng = np.arange(-n_max, n_max + 1)
        pts = np.array(np.meshgrid(rng, rng, rng, indexing="ij")).reshape(3, -1).T
        norms_sq = np.sum(pts**2, axis=1)
        keep = norms_sq * self.spacing**2 <= self.cutoff**2 * (1.0 + 1e-12)
        pts = pts[keep]
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], np.sum(pts**2, axis=1)))
        self.lattice_points = pts[order]
        self.modes = self.lattice_points * self.spacing

    @property
    def volume(self) -> float:
        return self.box_side**3

    def __len__(self) -> int:
        return len(self.modes)

    def __repr__(self) -> str:
        return (
            f"MomentumGrid(L={self.box_side:g}, K_max={self.cutoff:g}, "
            f"modes={len(self)})"
        )
