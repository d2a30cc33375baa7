"""Physical parameters, dispersion and Bogoliubov two-point averages.

Closed-form scalar layer shared by every other module: the free-particle
dispersion, the Bose factor, the thermal two-point kernel
``(1/2) coth(beta e / 2)``, the Bogoliubov excitation spectrum, the
normal and anomalous averages of one Bogoliubov mode, the collective
gap constant ``Omega = sqrt(4 m c^2 v(0))`` of the superfluid model, the
weights of the smeared fluctuation ``F(f, g)``, and :func:`gas_table`, the
numbers in which the two gases differ. The other modules take these from
here rather than writing them out.

Units: hbar = 1 throughout. ``beta = math.inf`` is a first-class value
and selects the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ModelParams",
    "MomentumGrid",
    "dispersion",
    "bose_occupation",
    "thermal_kernel",
    "bogoliubov_spectrum",
    "pair_averages",
    "omega_gap",
    "fluct_weights",
    "GasTable",
    "gas_table",
]

MODE_CAP = 2_000_000  # most modes a MomentumGrid enumerates


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
    v0, kappa : float
        Height ``v(0)`` and width of the superfluid model's two-body
        potential ``v(k) = v0 exp(-k^2 / kappa^2)``; both positive and
        finite. ``v0`` defaults to None: the mean-field gas has no
        potential.
    """

    mass: float
    beta: float = math.inf
    total_density: float = 1.0
    condensate_density: float = 0.0
    condensate_amplitude: float = 0.0
    coupling: float = 0.0
    v0: float | None = None
    kappa: float = 2.0

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
        for name in ("v0", "kappa"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def is_ground_state(self) -> bool:
        return math.isinf(self.beta)

    def v(self, k_norm):
        """Two-body potential ``v0 exp(-k^2 / kappa^2)`` at radial momentum ``|k|``.

        A scalar gives a ``float``; an array of radii gives an array of
        the same shape, element by element.
        """
        if self.v0 is None:
            raise ValueError("no potential supplied (superfluid model input)")
        value = self.v0 * np.exp(-np.asarray(k_norm) ** 2 / self.kappa**2)
        return value if value.ndim else float(value)

    def c2v(self, k_norm):
        """Condensate-weighted coupling ``c^2 v(|k|)``; scalar or array like ``v``."""
        return self.condensate_amplitude**2 * self.v(k_norm)


def dispersion(k, params: ModelParams) -> float:
    """Free-particle dispersion ``|k|^2 / (2 m)``.

    ``k`` may be a scalar (interpreted as ``|k|``), a 3-vector, or an
    array of 3-vectors along the last axis (returns an array). Even in
    ``k``; vanishes exactly at ``k = 0``.
    """
    # real scalars skip numpy: closed forms pass one |k|, and quad's tail integrand one per point
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

    Returns 0 for the ground state (``beta = inf``). At finite beta it
    raises unless ``beta eps > 0`` (NaN included), since the factor
    diverges at ``eps = 0``. Scalars give floats and arrays give arrays,
    from the same arithmetic.
    """
    eps_arr = np.asarray(eps, dtype=float)
    if math.isinf(beta):
        out = np.zeros_like(eps_arr)
        return float(out) if eps_arr.ndim == 0 else out
    x = beta * eps_arr
    if not (x > 0.0).all():
        raise ValueError("Bose factor needs beta * energy > 0 at finite beta")
    # e^{-x} / (1 - e^{-x}) is 1 / (e^x - 1) without overflow at large x
    out = np.exp(-x) / -np.expm1(-x)
    return float(out) if eps_arr.ndim == 0 else out


def thermal_kernel(energy, beta: float):
    """Symmetric two-point weight ``(1/2) coth(beta e / 2) = n(e) + 1/2`` of a mode.

    Exactly 1/2 in the ground state (``beta = inf``); ``e`` must be
    positive at finite beta, where the weight diverges at ``e = 0``.
    """
    return bose_occupation(energy, beta) + 0.5


def bogoliubov_spectrum(eps_k, c2v_k):
    """Collective excitation energy ``E = sqrt(eps (eps + 2 c^2 v))``.

    Reduces to ``eps`` for ``c2v = 0`` and is linear in ``|k|`` at small
    momentum when ``c2v(0) > 0``.
    """
    e = np.asarray(eps_k, dtype=float)
    g = np.asarray(c2v_k, dtype=float)
    if (e < 0.0).any() or (g < 0.0).any():
        raise ValueError("bogoliubov_spectrum needs nonnegative inputs")
    out = np.sqrt(e * (e + 2.0 * g))
    return float(out) if out.ndim == 0 else out


def pair_averages(eps, g, beta: float):
    """Normal and anomalous averages ``(N, M)`` of one Bogoliubov mode.

    ``N = <a*_k a_k> = n + (2n + 1) sinh^2 a`` and ``M = <a_k a_-k> =
    -(2n + 1) g / 2E``, with ``E = bogoliubov_spectrum(eps, g)``,
    ``sinh^2 a = ((eps + g) / E - 1) / 2`` and ``n = bose_occupation(E,
    beta)``. Their quadratures are ``N + 1/2 + M = (n + 1/2) eps / E`` and
    ``N + 1/2 - M = (n + 1/2) E / eps``. ``g = 0`` is the mean-field gas,
    with ``(N, M) = (n, 0)``. Scalars give floats and arrays give arrays.
    Raises unless ``eps > 0`` (NaN included): the rotation is singular at
    the zero mode.
    """
    if not np.greater(eps, 0.0).all():
        raise ValueError("pair averages need eps > 0")
    energy = bogoliubov_spectrum(eps, g)
    sinh_sq = 0.5 * ((eps + g) / energy - 1.0)
    anomalous = -g / (2.0 * energy)
    if math.isinf(beta):  # n = 0: the ground-state pair bubble builds no occupation array
        return sinh_sq, anomalous
    n = bose_occupation(energy, beta)
    weight = 2.0 * n + 1.0
    return n + weight * sinh_sq, weight * anomalous


def _condensate_amplitude(params: ModelParams) -> float:
    """The superfluid amplitude ``c``; refuses ``c = 0``, which leaves no condensate."""
    c = params.condensate_amplitude
    if c == 0.0:
        raise ValueError("the superfluid gas needs a nonzero condensate amplitude c")
    return c


def omega_gap(params: ModelParams) -> float:
    """Collective gap constant ``Omega = sqrt(4 m c^2 v(0))``.

    This is the zero-momentum limit of ``E_q |q| / eps_q``, the
    frequency of the emergent oscillator pair in the superfluid model.
    """
    c = _condensate_amplitude(params)
    return math.sqrt(4.0 * params.mass * c**2 * params.v(0.0))


def fluct_weights(amplitude: float, f_q0: complex, g_q0: complex
                  ) -> tuple[complex, complex, complex, complex]:
    """Weights of the parts ``B* a_0``, ``a*_0 B``, ``B*``, ``B`` of the smeared fluctuation
    ``F(f, g) = (1/2z)[f B* a_0 + conj(f) a*_0 B] + (i/2)[g B* - conj(g) B]``, ``B* = a*_q +
    a*_{-q}``, at zero-mode ``amplitude`` z. Refuses ``F(0, 0)`` and ``z = 0``."""
    f, g = complex(f_q0), complex(g_q0)
    if f == 0.0 and g == 0.0:
        raise ValueError("needs a nonzero smearing f or g")
    if amplitude == 0.0:
        raise ValueError("needs a nonzero zero-mode amplitude")
    norm = 1.0 / (2.0 * amplitude)
    return norm * f, norm * f.conjugate(), 0.5j * g, -0.5j * g.conjugate()


@dataclass(frozen=True)
class GasTable:
    """The numbers in which the two gases differ; built by :func:`gas_table`."""

    g: Callable[[float], float]  # pairing at |k|
    mu: float  # chemical potential
    u: float  # number coupling
    exponent: float  # r of the canonical pair (|q|^-r rho, |q|^r A)
    amplitude: Callable[[float], float]  # zero-mode amplitude z at volume V
    omega: Callable[[], float]  # frequency of the oscillator the pair closes on


def gas_table(model: str, params: ModelParams) -> GasTable:
    """The :class:`GasTable` of the mean-field gas ``imperfect`` / the superfluid ``wibg``:
    ``g(|k|)`` is 0 / ``c^2 v(|k|)``, ``(mu, u)`` is ``(lambda rho, lambda)`` / ``(0, v(0))``,
    ``z(V)`` is ``sqrt(rho0 V)`` / ``c sqrt(V)``, ``r`` is 0 / 1/2, ``Omega`` is 1 /
    :func:`omega_gap`. ``z`` and ``Omega`` are evaluated on demand: the superfluid gas
    refuses them at ``c = 0``, where its couplings are the free gas's. Refuses other tags."""
    if model == "imperfect":
        return GasTable(g=lambda k_norm: 0.0, mu=params.coupling * params.total_density,
                        u=params.coupling, exponent=0.0, omega=lambda: 1.0,
                        amplitude=lambda volume: math.sqrt(params.condensate_density * volume))
    if model == "wibg":
        return GasTable(g=params.c2v, mu=0.0, u=params.v(0.0), exponent=0.5,
                        amplitude=lambda volume: _condensate_amplitude(params) * math.sqrt(volume),
                        omega=lambda: omega_gap(params))
    raise ValueError(f"unknown model tag {model!r}")


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
