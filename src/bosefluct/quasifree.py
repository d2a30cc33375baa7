"""Exact expectation values in the quasi-free equilibrium states.

The two condensed states (mean-field and superfluid) are quasi-free:
every polynomial expectation reduces to one-point amplitudes at the zero
mode plus two-point pairings. This module evaluates that Wick route at
finite volume and is the independent oracle against which the
closed-form fluctuation formulas are checked.

Modes are addressed by integer lattice triples ``n``; the physical
momentum is ``k = (2 pi / L) n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .model import (ModelParams, MomentumGrid, bose_occupation, dispersion, fluct_weights,
                    gas_table, pair_averages)

__all__ = [
    "QuasiFreeState",
    "OperatorWord",
    "wick_expectation",
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

    Every expectation is built from ``one_point_amplitude``, the table's
    ``z(V)``, and the ordered two-point ``contraction`` of particle tokens.
    """

    def __init__(self, model: str, params: ModelParams, grid: MomentumGrid):
        self.model = model
        self.params = params
        self.grid = grid
        self.table = gas_table(model, params)
        self.one_point_amplitude = self.table.amplitude(grid.volume)
        self._averages: Dict[Mode, Tuple[float, float]] = {}  # mode -> pair_averages

    # -- basic data ----------------------------------------------------

    @property
    def volume(self) -> float:
        return self.grid.volume

    def k_phys(self, mode: Sequence[int]) -> np.ndarray:
        return np.asarray(mode, dtype=float) * self.grid.spacing

    def contraction(self, left: Tuple[Mode, bool], right: Tuple[Mode, bool]) -> float:
        """Centred ordered contraction ``<left right>`` of two particle tokens.

        Tokens are ``(mode, dagger)`` pairs. The displaced zero mode of a
        condensed state is in its vacuum, so only ``<d d*> = 1``. Away
        from it, ``<a*_k a_k> = N_k`` (plus 1 when the annihilator stands
        first) and ``<a_k a_-k> = <a*_k a*_-k> = M_k``, the averages of
        ``model.pair_averages`` with the table's pairing ``g(|k|)``: the
        anomalous pair only in the superfluid gas; every other contraction
        vanishes. The averages are computed once per mode of the state.
        """
        (m1, d1), (m2, d2) = left, right
        if ZERO in (m1, m2):
            return 1.0 if m1 == m2 and d2 and not d1 else 0.0
        if d1 != d2:
            if m1 != m2:
                return 0.0
        elif self.model != "wibg" or m1 != tuple(-x for x in m2):
            return 0.0
        averages = self._averages.get(m1)
        if averages is None:
            k = self.k_phys(m1)
            g = self.table.g(math.sqrt(k @ k))  # |k|, bit for bit np.linalg.norm
            averages = pair_averages(dispersion(k, self.params), g, self.params.beta)
            self._averages[m1] = averages
        normal, anomalous = averages
        if d1 == d2:
            return anomalous
        return normal + (0.0 if d1 else 1.0)


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


# -- finite-volume fluctuation variances (oracle route) -----------------


def _op_expectation(state: QuasiFreeState, terms) -> complex:
    """Expectation of ``sum coef * word`` given as ``[(coef, tokens), ...]``."""
    total = 0.0 + 0.0j
    for coef, tokens in terms:
        total += coef * wick_expectation(state, OperatorWord(tuple(tokens)))
    return total


def _product_terms(op1, op2):
    return [(c1 * c2, tuple(t1) + tuple(t2)) for c1, t1 in op1 for c2, t2 in op2]


def _fluct_terms(state: QuasiFreeState, q: Mode, f: complex, g: complex):
    """Terms of ``F(f, g)`` at lattice mode ``q`` with the state's one-point amplitude ``z``.

    Each part ``B* a_0``, ``a*_0 B``, ``B*``, ``B`` of ``F`` (``B* = a*_q + a*_{-q}``) gives
    its term at ``q`` and then at ``-q``, weighted by ``model.fluct_weights``; a part of
    weight zero is left out, and ``F(0, 0)`` is refused.
    """
    words = [(((k, True), (ZERO, False)), ((ZERO, True), (k, False)), ((k, True),), ((k, False),))
             for k in (q, tuple(-x for x in q))]  # the four parts at q, then at -q
    weights = fluct_weights(state.one_point_amplitude, f, g)
    return [(w, at_k[i]) for i, w in enumerate(weights) if w != 0.0 for at_k in words]


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
    two agree once that shell is negligible. The other kinds are
    ``F(0, 1)`` and ``F(1, 0)`` of :func:`_fluct_terms` and go through
    ``wick_expectation`` directly; ``rho0`` is the superfluid gas's.
    """
    qt = tuple(int(x) for x in q)
    if qt == ZERO:
        raise ValueError("q must be nonzero")
    if kind == "rho":
        if state.model != "imperfect":
            raise ValueError("kind 'rho' applies to the mean-field gas")
        return _density_variance_lattice(state, qt)
    smearing = {"A": (0.0, 1.0), "rho0": (1.0, 0.0)}.get(kind)
    if smearing is None:
        raise ValueError(f"unknown variance kind {kind!r}")
    if kind == "rho0" and state.model != "wibg":
        raise ValueError("kind 'rho0' applies to the superfluid gas")
    op = _fluct_terms(state, qt, *smearing)
    value = _op_expectation(state, _product_terms(op, op))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise AssertionError("variance came out non-real")
    return value.real


def _density_variance_lattice(state: QuasiFreeState, q: Mode) -> float:
    params, grid = state.params, state.grid
    rho0 = params.condensate_density

    def occupation(momenta: np.ndarray) -> np.ndarray:
        """The Bose factor of each momentum, ``rho0 V`` on the zero mode."""
        zero = np.all(np.abs(momenta) < 0.5 * grid.spacing, axis=1)
        occ = np.full(len(momenta), rho0 * grid.volume)
        occ[~zero] = bose_occupation(dispersion(momenta[~zero], params), params.beta)
        return occ

    shifted = grid.modes + np.asarray(q, dtype=float) * grid.spacing
    return float(np.sum(occupation(shifted) * (occupation(grid.modes) + 1.0))
                 / (2.0 * rho0 * grid.volume))
