"""Exact expectation values in the quasi-free equilibrium states.

The two condensed states (mean-field and superfluid) are quasi-free:
every polynomial expectation reduces to one-point amplitudes at the zero
mode plus two-point pairings, and exponentials of linear fields have a
closed Gaussian characteristic function. This module evaluates both
routes at finite volume and is the independent oracle against which the
closed-form fluctuation formulas are checked.

Modes are addressed by integer lattice triples ``n``; the physical
momentum is ``k = (2 pi / L) n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .model import (
    ModelParams,
    MomentumGrid,
    bogoliubov_coefficients,
    bogoliubov_spectrum,
    bose_occupation,
    dispersion,
    thermal_kernel,
)

__all__ = [
    "QuasiFreeState",
    "OperatorWord",
    "two_point",
    "wick_expectation",
    "characteristic_function",
    "finite_volume_variance",
]

MAX_WORD_LENGTH = 12

Mode = Tuple[int, int, int]
ZERO: Mode = (0, 0, 0)


@dataclass(frozen=True)
class OperatorWord:
    """Ordered product of creation/annihilation tokens.

    ``tokens`` is a sequence of ``(mode, dagger)`` pairs, mode being an
    integer lattice triple. The empty word is the identity.
    """

    tokens: Tuple[Tuple[Mode, bool], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "tokens",
            tuple((tuple(int(x) for x in m), bool(d)) for m, d in self.tokens),
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def reversed_dagger(self) -> "OperatorWord":
        """Adjoint word: reverse order and flip every dagger flag."""
        return OperatorWord(tuple((m, not d) for m, d in reversed(self.tokens)))


class QuasiFreeState:
    """Finite-volume quasi-free state of one of the two condensed gases.

    Parameters
    ----------
    model : {"imperfect", "wibg"}
        Which equilibrium state to represent. ``imperfect`` carries a
        coherent zero mode of amplitude ``sqrt(rho0 V)`` and a diagonal
        thermal kernel in the particle basis; ``wibg`` carries amplitude
        ``c sqrt(V)`` and a diagonal kernel in the rotated
        quasi-particle (``b``) basis.
    params : ModelParams
    grid : MomentumGrid

    Every expectation is built from ``one_point_amplitude`` and the
    ordered two-point ``contraction`` of particle tokens.
    """

    def __init__(self, model: str, params: ModelParams, grid: MomentumGrid):
        if model not in ("imperfect", "wibg"):
            raise ValueError(f"unknown model tag {model!r}")
        if model == "wibg" and params.condensate_amplitude == 0.0:
            raise ValueError("wibg state needs a nonzero condensate amplitude")
        self.model = model
        self.params = params
        self.grid = grid

    # -- basic data ----------------------------------------------------

    @property
    def volume(self) -> float:
        return self.grid.volume

    @property
    def one_point_amplitude(self) -> float:
        """Coherent amplitude of the zero mode, ``sqrt(rho0 V)`` or ``c sqrt(V)``."""
        if self.model == "imperfect":
            return math.sqrt(self.params.condensate_density * self.volume)
        return self.params.condensate_amplitude * math.sqrt(self.volume)

    def k_phys(self, mode: Sequence[int]) -> np.ndarray:
        return np.asarray(mode, dtype=float) * self.grid.spacing

    def mode_energy(self, mode: Sequence[int]) -> float:
        """Energy entering the kernel: ``eps_k`` or the collective ``E_k``."""
        eps = dispersion(self.k_phys(mode), self.params)
        if self.model == "wibg":
            knorm = float(np.linalg.norm(self.k_phys(mode)))
            return bogoliubov_spectrum(eps, self.params.c2v(knorm))
        return eps

    def kernel(self, mode: Sequence[int]) -> float:
        """Symmetric two-point weight ``(1/2) coth(beta e_k / 2)`` at ``k != 0``."""
        m = tuple(int(x) for x in mode)
        if m == ZERO:
            raise ValueError("kernel is defined only away from the zero mode")
        return thermal_kernel(self.mode_energy(m), self.params.beta)

    def occupation(self, mode: Sequence[int]) -> float:
        """Diagonal-basis occupation ``kernel - 1/2`` at ``k != 0``."""
        return self.kernel(mode) - 0.5

    def rotation(self, mode: Mode):
        """(cosh a, sinh a) of the quasi-particle rotation at a mode."""
        if self.model != "wibg":
            return 1.0, 0.0
        k = self.k_phys(mode)
        co = bogoliubov_coefficients(dispersion(k, self.params),
                                     self.params.c2v(float(np.linalg.norm(k))))
        return co.cosh_a, co.sinh_a

    def contraction(self, left: Tuple[Mode, bool], right: Tuple[Mode, bool]) -> float:
        """Centred ordered contraction ``<left right>`` of two particle tokens.

        Tokens are ``(mode, dagger)`` pairs. The displaced zero mode of a
        condensed state is in its vacuum, so only ``<d d*> = 1``. Away
        from it, ``<a*_k a_k> = ch^2 n + sh^2 (n + 1)`` (plus 1 when the
        annihilator stands first) and ``<a_k a_-k> = <a*_k a*_-k> =
        ch sh (2n + 1)``, with ``n`` the quasi-particle occupation; every
        other contraction vanishes.
        """
        (m1, d1), (m2, d2) = left, right
        if ZERO in (m1, m2):
            return 1.0 if m1 == m2 and d2 and not d1 else 0.0
        if d1 != d2:
            if m1 != m2:
                return 0.0
            ch, sh = self.rotation(m1)
            n = self.occupation(m1)
            return ch**2 * n + sh**2 * (n + 1.0) + (0.0 if d1 else 1.0)
        if self.model != "wibg" or m1 != tuple(-x for x in m2):
            return 0.0
        ch, sh = self.rotation(m1)
        return ch * sh * (2.0 * self.occupation(m1) + 1.0)


def two_point(state: QuasiFreeState, mode: Sequence[int], normal_ordered: bool = True) -> float:
    """Diagonal particle-basis two-point function at a nonzero mode.

    ``normal_ordered`` selects ``<a*_k a_k>``; otherwise ``<a_k a*_k>``
    (which exceeds it by exactly 1).
    """
    m = tuple(int(x) for x in mode)
    if m == ZERO:
        raise ValueError("zero mode is handled by the one-point amplitude")
    return state.contraction((m, normal_ordered), (m, not normal_ordered))


def wick_expectation(state: QuasiFreeState, word: OperatorWord) -> complex:
    """Exact expectation of an operator word by the pairing recursion.

    The first open token either takes its one-point amplitude (the
    condensed zero mode) or is contracted with a later open token by
    ``QuasiFreeState.contraction``. Values are memoized on the bitmask of
    open tokens, so the cost grows as ``2^n`` in the word length ``n``.
    Words longer than ``MAX_WORD_LENGTH`` are refused.
    """
    if len(word) > MAX_WORD_LENGTH:
        raise ValueError(f"word length {len(word)} exceeds cap {MAX_WORD_LENGTH}")
    tokens = word.tokens
    amplitude = state.one_point_amplitude
    amps = [amplitude if m == ZERO else 0.0 for m, _ in tokens]
    partners = [[(j, c) for j in range(i + 1, len(tokens))
                 if (c := state.contraction(tokens[i], tokens[j])) != 0.0]
                for i in range(len(tokens))]

    @functools.cache
    def open_sum(mask: int) -> float:
        if not mask:
            return 1.0
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        total = amps[i] * open_sum(rest) if amps[i] else 0.0
        for j, c in partners[i]:
            if rest >> j & 1:
                total += c * open_sum(rest ^ (1 << j))
        return total

    return complex(open_sum((1 << len(tokens)) - 1))


def characteristic_function(state: QuasiFreeState, f: Mapping[Sequence[int], complex]) -> complex:
    """Gaussian characteristic function of the linear field smeared by ``f``.

    ``f`` maps grid modes (lattice triples) to complex values. Nonzero
    modes contribute the kernel quadratic form ``sum kernel(k) |f(k)|^2``;
    the zero mode contributes the condensate phase ``2 i amp |f(0)|``
    (``amp = sqrt(rho0)`` resp. ``c``) plus a finite-volume Gaussian
    width ``|f(0)|^2 / V`` that disappears in the thermodynamic limit.
    For the superfluid model ``f`` smears the quasi-particle basis.
    """
    quad = 0.0
    f0 = 0.0 + 0.0j
    for mode, value in f.items():
        m = tuple(int(x) for x in mode)
        if m == ZERO:
            f0 = complex(value)
        else:
            quad += state.kernel(m) * abs(value) ** 2
    amp = state.one_point_amplitude / math.sqrt(state.volume)
    phase = 2.0 * amp * abs(f0)
    quad += abs(f0) ** 2 / state.volume
    return complex(np.exp(-0.5 * quad + 1j * phase))


# -- finite-volume fluctuation variances (oracle route) -----------------


def _pm_word(sign_pattern, q: Mode):
    """Tokens ``a^#_{+-q}`` used by the quadrature-type operators."""
    minus_q = tuple(-x for x in q)
    return [(q if s > 0 else minus_q, d) for s, d in sign_pattern]


def _op_expectation(state: QuasiFreeState, terms) -> complex:
    """Expectation of ``sum coef * word`` given as ``[(coef, tokens), ...]``."""
    total = 0.0 + 0.0j
    for coef, tokens in terms:
        total += coef * wick_expectation(state, OperatorWord(tuple(tokens)))
    return total


def _product_terms(op1, op2):
    return [(c1 * c2, tuple(t1) + tuple(t2)) for c1, t1 in op1 for c2, t2 in op2]


def order_param_fluct_terms(q: Mode):
    """Self-adjoint order-parameter fluctuation ``(i/2)(a*_q + a*_{-q} - a_q - a_{-q})``."""
    return [
        (0.5j, _pm_word([(+1, True)], q)),
        (0.5j, _pm_word([(-1, True)], q)),
        (-0.5j, _pm_word([(+1, False)], q)),
        (-0.5j, _pm_word([(-1, False)], q)),
    ]


def condensate_density_fluct_terms(state: QuasiFreeState, q: Mode):
    """Zero-mode density fluctuation ``(1/(2 c sqrt(V)))[(a*_q + a*_{-q}) a_0 + h.c.]``."""
    c = state.params.condensate_amplitude
    if c == 0.0:
        raise ValueError("condensate density fluctuation needs c != 0")
    norm = 1.0 / (2.0 * c * math.sqrt(state.volume))
    zero = ZERO
    minus_q = tuple(-x for x in q)
    return [
        (norm, ((q, True), (zero, False))),
        (norm, ((minus_q, True), (zero, False))),
        (norm, ((zero, True), (q, False))),
        (norm, ((zero, True), (minus_q, False))),
    ]


def finite_volume_variance(state: QuasiFreeState, kind: str, q: Sequence[int]) -> float:
    """Finite-L variance of a fluctuation operator, by the Wick route.

    Parameters
    ----------
    kind : {"rho", "A", "rho0"}
        Density, order-parameter or condensate-density fluctuation
        (bare normalization, no extra power of ``|q|``).
    q : lattice triple, nonzero.

    The density case is not the Wick route but the vectorized lattice
    sum ``(1 / 2 rho0 V) sum_k n_{k+q} (n_k + 1)`` over grid modes ``k``,
    with the coherent zero mode carrying ``<a*_0 a_0> = rho0 V``. It also
    counts shifted modes ``k + q`` outside the cutoff sphere, which the
    Wick sum over grid transfer terms ``a*_{k+-q} a_k`` leaves out; the
    two agree once that shell is negligible. The other kinds go through
    ``wick_expectation`` directly.
    """
    qt = tuple(int(x) for x in q)
    if qt == ZERO:
        raise ValueError("q must be nonzero")
    if kind == "rho":
        if state.model != "imperfect":
            raise ValueError("kind 'rho' applies to the mean-field gas")
        return _density_variance_lattice(state, qt)
    if kind == "A":
        op = order_param_fluct_terms(qt)
    elif kind == "rho0":
        op = condensate_density_fluct_terms(state, qt)
    else:
        raise ValueError(f"unknown variance kind {kind!r}")
    value = _op_expectation(state, _product_terms(op, op))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise AssertionError("variance came out non-real")
    return value.real


def _density_variance_lattice(state: QuasiFreeState, q: Mode) -> float:
    params = state.params
    grid = state.grid
    rho0 = params.condensate_density
    modes = grid.modes
    lat = grid.lattice_points
    qvec = np.asarray(q, dtype=float) * grid.spacing

    nonzero = np.any(lat != 0, axis=1)
    occ = np.zeros(len(modes))
    occ[nonzero] = bose_occupation(dispersion(modes[nonzero], params), params.beta)
    occ[~nonzero] = rho0 * grid.volume

    shifted = modes + qvec
    shifted_zero = np.all(np.abs(shifted) < 0.5 * grid.spacing, axis=1)
    occ_shift = np.zeros(len(modes))
    occ_shift[~shifted_zero] = bose_occupation(dispersion(shifted[~shifted_zero], params),
                                               params.beta)
    occ_shift[shifted_zero] = rho0 * grid.volume

    plus_one = occ + 1.0
    return float(np.sum(occ_shift * plus_one) / (2.0 * rho0 * grid.volume))
