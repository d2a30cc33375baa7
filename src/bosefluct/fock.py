"""Truncated Fock-space simulator: matrix-level ground truth.

Builds small multi-mode bosonic workspaces, each mode on an occupation window
``lo .. hi`` (a coherent zero mode on :func:`coherent_window` of its amplitude).
A ladder operator is one diagonal at its mode's stride in the basis index, so
every operator here, a sum of ladder words, is held as stride diagonals
(:class:`Diagonals`), and no check multiplies two sparse matrices. CSR is made
only for :func:`expm_multiply` (a Chebyshev propagator), scipy's ``eigsh``,
sector slices and the ``annihilator``/``creator`` views. The Lanczos of
:func:`clt_char_function` is the plain three-term recurrence on fixed-width
rows (:class:`LayeredOperator`), with no reorthogonalization (Druskin,
Greenbaum and Knizhnerman 1998). Both Hamiltonians are sums of ``+-k`` pair
blocks with the couplings ``(g, mu, u)`` of the gas. The checks: Goldstone
commutator identities, BCH defects, central-limit characteristic functions,
the commutation of the two-body interaction with the density fluctuation and
the truncation rederivation. On the workspace ``[0, q, -q]`` one builder
writes the smeared fluctuation ``F(f, g)`` of both gases;
:func:`condensate_fluct_family` gives it for many smearings.

Modes are integer lattice triples; for the interaction checks their labels
add modulo a small torus, so momentum is conserved exactly on the mode set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .model import ModelParams, dispersion, fluct_weights, gas_table

__all__ = [
    "Diagonals",
    "FockWorkspace",
    "FiniteState",
    "LayeredOperator",
    "pair_block",
    "pair_sectors",
    "build_hamiltonian",
    "u_density_commutator_check",
    "bch_defect",
    "appendix_bound",
    "clt_char_function",
    "goldstone_closure_check",
    "truncation_rederivation_check",
    "coherent_window",
]

Mode = Tuple[int, int, int]
ZERO: Mode = (0, 0, 0)

DIMENSION_CAP = 200_000
LEAK_TOL = 1e-6  # edge-level population that counts as truncation leakage
LANCZOS_TOL = 1e-12  # change of the characteristic function that stops the Krylov growth
LANCZOS_BREAKDOWN = 1e-14  # residual norm of an exact invariant subspace
LANCZOS_MAX_STEPS = 100
UNIT_ROUNDOFF = 2.0**-53  # the Chebyshev tail left out of expm_multiply, relative to ||v||
INTERACTION_BOX_SIDE = 2.0  # box side of the truncation rederivation: momenta are multiples of pi


def _plus_minus(q_lat) -> Tuple[Mode, Mode]:
    """The lattice triple ``q`` and its mirror ``-q``."""
    q = tuple(int(x) for x in q_lat)
    return q, tuple(-x for x in q)


def coherent_window(amplitude: float) -> Tuple[int, int]:
    """Occupation window ``(lo, hi)`` that holds a coherent state of amplitude ``z``.

    A Poisson distribution with mean ``z^2`` has essentially all its
    mass within ``8 z`` of the mean for the amplitudes used here; the
    top edge keeps ten more levels. The weight below ``lo`` is under
    1e-17 at ``z^2 = 500``.
    """
    mean = amplitude**2
    width = 8.0 * math.sqrt(max(mean, 1.0))
    return max(0, int(math.floor(mean - width))), int(math.ceil(mean + width + 10.0))


def _window(levels) -> Tuple[int, int]:
    """``(lo, hi)`` from a window or a top cutoff ``n``, which means ``(0, n)``."""
    lo, hi = (0, levels) if np.ndim(levels) == 0 else levels
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi:
        raise ValueError(f"occupation window ({lo}, {hi}) needs 0 <= lo <= hi")
    return lo, hi


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """``Re <a, b> = Re sum conj(a_i) b_i``, summed by numpy's own loop in index order.

    A complex vector is read as the real vector of its parts. So
    ``||a|| = sqrt(_inner(a, a))`` and ``Im <a, b> = _inner(1j * a, b)``.
    BLAS (``np.vdot``, ``np.linalg.norm``) would split a long sum by thread,
    which moves its last digit with the thread count, and a threaded call
    leaves OpenBLAS's worker spinning on a second core.
    """
    a, b = np.asarray(a), np.asarray(b)
    kind = np.result_type(a, b, np.float64)
    x, y = (np.ascontiguousarray(v, dtype=kind).view(np.float64) for v in (a, b))
    return float(np.einsum("i,i->", x, y))


def _norm(a: np.ndarray) -> float:
    """``||a||`` through :func:`_inner`."""
    return math.sqrt(_inner(a, a))


class Diagonals:
    """An ``n x n`` operator as its diagonals: offset ``o`` -> vector ``d``, ``M[r, r + o] = d[r]``.

    A ladder word is one diagonal (:meth:`FockWorkspace._ladder`), so sums of words add the
    vectors of each offset and a product ``M1 M2`` has ``d1[r] d2[r + o1]`` at ``o1 + o2``.
    Entries whose column lies outside the matrix are zero: what ``np.roll`` wraps meets one.
    """

    def __init__(self, n: int, diagonals: Dict[int, np.ndarray]):
        self.n, self.diagonals = n, diagonals

    @classmethod
    def diag(cls, values: np.ndarray) -> "Diagonals":
        """The diagonal operator with the entries ``values``."""
        return cls(len(values), {0: np.asarray(values)})

    def __add__(self, other: "Diagonals", op=np.add, alone=np.asarray) -> "Diagonals":
        out = dict(self.diagonals)
        for o, d in other.diagonals.items():
            out[o] = op(out[o], d) if o in out else alone(d)
        return Diagonals(self.n, out)

    def __radd__(self, other) -> "Diagonals":  # 0 + M, the start of ``sum``
        return self if other == 0 else NotImplemented

    def __sub__(self, other: "Diagonals") -> "Diagonals":
        return self.__add__(other, np.subtract, np.negative)

    def __mul__(self, scalar: complex) -> "Diagonals":
        scalar = scalar if np.imag(scalar) else np.real(scalar)  # a real operator stays real
        return Diagonals(self.n, {o: scalar * d for o, d in self.diagonals.items()})

    __rmul__ = __mul__

    def _meeting(self, o: int) -> Tuple[slice, slice]:
        """The rows ``r`` whose column ``r + o`` lies in the matrix, and those columns."""
        rows = slice(max(0, -o), self.n - max(0, o))
        return rows, slice(rows.start + o, rows.stop + o)

    def __matmul__(self, other):
        """The product with another operator, or the image of a vector."""
        if not isinstance(other, Diagonals):  # summed in column order, as a CSR row
            image = np.zeros(self.n, dtype=np.result_type(other, *self.diagonals.values()))
            for o, d in sorted(self.diagonals.items()):
                rows, cols = self._meeting(o)
                image[rows] += d[rows] * other[cols]
            return image
        kind = np.result_type(np.float64, *self.diagonals.values(), *other.diagonals.values())
        out: Dict[int, np.ndarray] = {}
        for o1, d1 in self.diagonals.items():
            rows, cols = self._meeting(o1)
            for o2, d2 in other.diagonals.items():
                if abs(o1 + o2) >= self.n:  # a diagonal past the edge holds no entry
                    continue
                if o1 + o2 in out:
                    out[o1 + o2][rows] += d1[rows] * d2[cols]
                else:
                    out[o1 + o2] = np.zeros(self.n, dtype=kind)
                    np.multiply(d1[rows], d2[cols], out=out[o1 + o2][rows])
        return Diagonals(self.n, out)

    def adjoint(self) -> "Diagonals":
        return Diagonals(self.n, {-o: np.roll(d, o).conj() for o, d in self.diagonals.items()})

    def projected_norm(self, kept: np.ndarray) -> float:
        """Frobenius norm of ``P M P``, ``P`` the projector onto the basis states ``kept``."""
        clipped = [d[kept & np.roll(kept, -o)] for o, d in self.diagonals.items()]
        return math.sqrt(sum(_inner(c, c) for c in clipped))

    def tocsr(self) -> sp.csr_matrix:
        """The operator as CSR, for the scipy routines that take one."""
        if not self.diagonals:  # sp.diags needs at least one diagonal
            return sp.csr_matrix((self.n, self.n))
        return sp.diags([d[max(0, -o):self.n - max(0, o)] for o, d in self.diagonals.items()],
                        list(self.diagonals), shape=(self.n, self.n), format="csr")


class FockWorkspace:
    """Tensor product of truncated single-mode Fock spaces.

    Each mode keeps the occupations of a window ``lo .. hi``; a bare cutoff
    ``n`` is the window ``(0, n)``. A window with ``lo > 0`` holds a
    coherent zero mode (:func:`coherent_window`) without the levels a
    Poisson distribution leaves empty. The occupation table holds the
    actual occupations, so ladder and number operators, projectors and
    states read ``n`` from it directly.

    Parameters
    ----------
    box_side : float
        Physical box side L (sets the mode momenta and the volume).
    modes : sequence of integer lattice triples
        Mode labels; momentum is ``(2 pi / L) * label``.
    levels : int, ``(lo, hi)``, or mapping mode -> int or ``(lo, hi)``
        Per-mode occupation window. The product of the local dimensions
        ``hi - lo + 1`` may not exceed ``DIMENSION_CAP``.
    """

    def __init__(self, box_side: float, modes: Sequence[Sequence[int]], levels):
        self.box_side = float(box_side)
        self.spacing = 2.0 * math.pi / self.box_side
        self.modes: List[Mode] = [tuple(int(x) for x in m) for m in modes]
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        if isinstance(levels, Mapping):
            given = {tuple(int(x) for x in k): _window(v) for k, v in levels.items()}
            self.windows = {m: given[m] for m in self.modes}
        else:
            self.windows = dict.fromkeys(self.modes, _window(levels))
        lows = np.array([self.windows[m][0] for m in self.modes])
        dims = [hi - lo + 1 for lo, hi in self.windows.values()]
        self.dimension = int(np.prod(dims))
        if self.dimension > DIMENSION_CAP:
            raise ValueError(f"dimension {self.dimension} exceeds cap {DIMENSION_CAP}")
        self._dims = dims
        self._ladders: Dict[Mode, Diagonals] = {}
        # occupation table: occupations[i, j] = occupation of mode j in basis state i
        grids = np.indices(dims).reshape(len(dims), -1)
        self.occupations = grids.T + lows

    @property
    def volume(self) -> float:
        return self.box_side**3

    def index(self, mode) -> int:
        return self.modes.index(tuple(int(x) for x in mode))

    def k_phys(self, mode) -> np.ndarray:
        return np.asarray(mode, dtype=float) * self.spacing

    def k_norm(self, mode) -> float:
        """``|k|`` of a mode."""
        return _norm(self.k_phys(mode))

    def _ladder(self, mode) -> Diagonals:
        """``a_k`` as one diagonal at the mode's stride in the basis index, cached per workspace.

        Basis state ``i`` holds ``n_k`` bosons in mode ``k``; ``a_k`` maps it to
        ``i - stride`` with weight ``sqrt(n_k)``. At the bottom of the window,
        ``n_k = lo`` (``0`` without a window), that index belongs to other
        occupations of the slower modes; the zero weight drops the entry.
        """
        m = tuple(int(x) for x in mode)
        if m not in self._ladders:  # n_k = lo on the first ``stride`` rows, which the shift wraps
            j = self.index(m)
            n, stride = self.occupations[:, j], int(np.prod(self._dims[j + 1:]))
            weights = np.where(n > self.windows[m][0], np.sqrt(n), 0.0)
            self._ladders[m] = Diagonals(self.dimension, {stride: np.roll(weights, -stride)})
        return self._ladders[m]

    def annihilator(self, mode) -> sp.csr_matrix:
        """``a_k`` (:meth:`_ladder`) as CSR."""
        return self._ladder(mode).tocsr()

    def creator(self, mode) -> sp.csr_matrix:
        """``a*_k``, the adjoint of :meth:`annihilator`, as CSR."""
        return self._ladder(mode).adjoint().tocsr()

    def number(self, mode) -> sp.csr_matrix:
        j = self.index(mode)
        return sp.diags(self.occupations[:, j].astype(float), format="csr")

    def totals(self) -> np.ndarray:
        """Total occupation ``N`` of each basis state: the diagonal of :meth:`total_number`."""
        return self.occupations.sum(axis=1).astype(float)

    def total_number(self) -> sp.csr_matrix:
        return sp.diags(self.totals(), format="csr")

    def identity(self) -> sp.csr_matrix:
        return sp.identity(self.dimension, format="csr")

    def interior(self, margin: int = 1) -> np.ndarray:
        """Basis states at least ``margin`` levels inside every truncation edge.

        The top of each window is a truncation edge, and so is its bottom
        when ``lo > 0``; the bottom ``lo = 0`` is the physical vacuum.
        """
        lows, highs = np.array(list(self.windows.values())).T
        floor = np.where(lows > 0, lows + margin, 0)
        return np.all((self.occupations >= floor) & (self.occupations <= highs - margin), axis=1)

    def below_truncation_projector(self, margin: int = 1) -> sp.csr_matrix:
        """Diagonal projector onto states ``margin`` inside every truncation edge."""
        return sp.diags(self.interior(margin).astype(float), format="csr")

    def transfer_operator(self, terms: Iterable[Tuple[complex, Sequence[int], Sequence[int]]]
                          ) -> Diagonals:
        """``sum coef * a*_{k_to} a_{k_from}`` over ``(coef, k_to, k_from)``."""
        return sum((coef * (self._ladder(k_to).adjoint() @ self._ladder(k_from))
                    for coef, k_to, k_from in terms), Diagonals(self.dimension, {}))


@dataclass
class FiniteState:
    """Pure vector or diagonal-ensemble state on a workspace."""

    workspace: FockWorkspace
    vector: np.ndarray | None = None
    probabilities: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.probabilities is None):
            raise ValueError("provide exactly one of vector / probabilities")
        if self.vector is not None:
            nrm = _norm(self.vector)
            if not math.isclose(nrm, 1.0, rel_tol=1e-9):
                self.vector = self.vector / nrm
        else:
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            self.probabilities = self.probabilities / self.probabilities.sum()

    def expect(self, op: sp.spmatrix) -> complex:
        if self.vector is not None:
            x, y = self.vector, op @ self.vector
        else:
            x, y = self.probabilities, op.diagonal()
        return complex(_inner(x, y), _inner(1j * x, y))

    def seminorm(self, op: Diagonals | sp.spmatrix) -> float:
        """State seminorm ``sqrt(omega(X* X))``."""
        if self.vector is None:
            raise ValueError("seminorm implemented for pure states")
        return _norm(op @ self.vector)

    # -- builders --------------------------------------------------------

    @staticmethod
    def _coherent_column(window: Tuple[int, int], amplitude: float) -> np.ndarray:
        """Coherent amplitudes ``z^n / sqrt(n!)`` on the levels ``lo .. hi``, normalized there.

        The logarithms run from ``n = 0`` whatever the window, so a window
        holds the full-range values on its levels.
        """
        lo, hi = window
        n = np.arange(hi + 1, dtype=float)
        log_coeff = n * math.log(max(abs(amplitude), 1e-300)) - 0.5 * (
            np.cumsum(np.log(np.maximum(n, 1.0)))
        )
        coeff = (np.sign(amplitude) ** n * np.exp(log_coeff - log_coeff.max()))[lo:]
        return coeff / _norm(coeff)

    @classmethod
    def coherent_vacuum(cls, ws: FockWorkspace, amplitude: float) -> "FiniteState":
        """Coherent state at the zero mode, vacuum elsewhere."""
        vec = np.array([1.0])
        for m in ws.modes:
            lo, hi = ws.windows[m]
            if m == ZERO:
                col = cls._coherent_column((lo, hi), amplitude)
            elif lo == 0:
                col = np.r_[1.0, np.zeros(hi)]
            else:
                raise ValueError(f"the vacuum of mode {m} lies below its window ({lo}, {hi})")
            vec = np.kron(vec, col)
        return cls(ws, vector=vec.astype(complex))

    @classmethod
    def coherent_thermal(cls, ws: FockWorkspace, amplitude: float,
                         beta: float, params: ModelParams) -> "FiniteState":
        """Diagonal-ensemble product: Poisson weights at 0, Boltzmann at k != 0.

        Only the diagonal (occupation-basis) weights are kept, which is
        exactly what Wick cross-checks of number-conserving words need.
        """
        probs = np.array([1.0])
        for m in ws.modes:
            lo, hi = ws.windows[m]
            if m == ZERO:
                w = cls._coherent_column((lo, hi), amplitude) ** 2
            else:
                w = np.exp(-beta * dispersion(ws.k_phys(m), params) * np.arange(lo, hi + 1.0))
            probs = np.kron(probs, w / w.sum())
        return cls(ws, probabilities=probs)

    @classmethod
    def coherent_b_vacuum(cls, ws: FockWorkspace, params: ModelParams,
                          q_lat, amplitude: float) -> "FiniteState":
        """Coherent zero mode tensored with the quasi-particle vacuum at +-q.

        The +-q factor is the numerically computed ground eigenvector of
        the quadratic pairing block, i.e. the rotated (squeezed) vacuum
        annihilated by the b-operators. Requires the workspace modes to
        be ordered ``[0, q, -q]``.
        """
        q, minus_q = _plus_minus(q_lat)
        if ws.modes != [ZERO, q, minus_q]:
            raise ValueError("workspace modes must be ordered [0, q, -q]")
        if ws.windows[q] != ws.windows[minus_q]:
            raise ValueError("the +-q windows must match")
        pair_ws = FockWorkspace(ws.box_side, [q, minus_q], ws.windows[q])
        q_norm = pair_ws.k_norm(q)
        g = gas_table("wibg", params).g(q_norm)
        h_pair = pair_block(pair_ws, q, dispersion(q_norm, params), g)
        # a fixed start vector keeps ARPACK, and so the tables, reproducible
        start = np.full(pair_ws.dimension, pair_ws.dimension**-0.5)
        _, vecs = eigsh(h_pair.tocsr(), k=1, which="SA", v0=start)
        ground = vecs[:, 0]
        ground = ground * np.sign(ground[np.argmax(np.abs(ground))])
        zero_col = cls._coherent_column(ws.windows[ZERO], amplitude)
        return cls(ws, vector=np.kron(zero_col, ground).astype(complex))


# -- Hamiltonians --------------------------------------------------------


def pair_block(ws: FockWorkspace, q_lat, eps: float, g: float) -> Diagonals:
    """Quadratic +-q block ``(eps + g)(n_q + n_{-q}) + g (a*_q a*_{-q} + h.c.)``.

    Kinetic energy ``eps``, dressing and pairing ``g``; its gap is the
    collective energy ``sqrt(eps (eps + 2 g))``.
    """
    q, minus_q = _plus_minus(q_lat)
    n_ops = Diagonals.diag(np.add(*_pair_occupations(ws, q_lat), dtype=float))
    if g == 0.0:  # no pairing: the block is diagonal
        return eps * n_ops
    pair = ws._ladder(q).adjoint() @ ws._ladder(minus_q).adjoint()
    return (eps + g) * n_ops + g * (pair + pair.adjoint())


def _pair_occupations(ws: FockWorkspace, q_lat) -> Tuple[np.ndarray, np.ndarray]:
    """``n_q`` and ``n_{-q}`` of every basis state, read from the occupation table."""
    q, minus_q = _plus_minus(q_lat)
    return ws.occupations[:, ws.index(q)], ws.occupations[:, ws.index(minus_q)]


def pair_sectors(ws: FockWorkspace, q_lat) -> Dict[int, np.ndarray]:
    """Basis indices of each sector of ``n_q - n_{-q}``, which :func:`pair_block` conserves."""
    diff = np.subtract(*_pair_occupations(ws, q_lat))
    return {int(d): np.flatnonzero(diff == d) for d in np.unique(diff)}


def build_hamiltonian(model: str, ws: FockWorkspace, params: ModelParams) -> Diagonals:
    """Assemble ``sum_{+-k} pair_block(k, eps_k, g(k)) + (u/2V) N^2 - mu N``.

    One :func:`pair_block` per nonzero ``+-k`` mode pair, with the
    couplings ``(g, mu, u)`` read from the gas's :func:`~bosefluct.model.gas_table`.
    The mean-field gas has no pairing, ``T - mu N + (lambda / 2V) N^2``; the
    superfluid one has no chemical potential, which leaves each block's gap
    exactly at the collective spectrum.
    """
    table = gas_table(model, params)
    if ZERO not in ws.modes:
        raise ValueError("workspace must contain the zero mode")
    blocks = []
    for m in ws.modes:
        q, minus_q = _plus_minus(m)
        if minus_q not in ws.modes:
            raise ValueError("pair blocks need +-k mode pairs")
        if q > minus_q:  # one block per pair; the zero mode is its own mirror
            k_norm = ws.k_norm(q)
            blocks.append(pair_block(ws, q, dispersion(k_norm, params), table.g(k_norm)))
    totals = ws.totals()
    interaction = Diagonals.diag((table.u / (2.0 * ws.volume)) * totals**2)
    return sum(blocks, interaction) - Diagonals.diag(table.mu * totals)


# -- fluctuation operators on a workspace ---------------------------------


class LayeredOperator:
    """A Hermitian operator on the workspace indices ``order``, in two blocks sorted by a grade.

    Block ``b``, the parity ``b`` of a grade ``G`` that every entry moves by one, holds the
    positions ``starts[b] .. starts[b + 1]`` in ascending ``grades``, and position ``p`` the
    entries ``values[j, p]`` in the columns ``columns[j, p]``, one per diagonal of
    :meth:`lay_out`: fixed-width rows. So the Krylov row ``k`` grown from a vector on ``G = 0``
    is zero off :meth:`span` ``(k)``.
    """

    def __init__(self, order: np.ndarray, grades: np.ndarray, starts: np.ndarray,
                 columns: np.ndarray, values: np.ndarray):
        self.order, self.grades, self.starts = order, grades, starts
        self.columns, self.values = columns, values

    @classmethod
    def lay_out(cls, diagonals: Sequence[Tuple[int, np.ndarray]], grade: np.ndarray
                ) -> "LayeredOperator":
        """The diagonals ``(o, d)``, ``M[r, r + o] = d[r]``, on the basis ordered by the parity of
        ``grade``, then ``grade``. A column ``r + o`` outside the matrix wraps, which is exact:
        its entry is zero (:class:`Diagonals`). Refuses an entry that does not move ``grade``
        by exactly one."""
        if not all(np.all(np.abs(grade - np.roll(grade, -o))[d != 0] == 1) for o, d in diagonals):
            raise ValueError("every entry of the operator must move the grade by exactly one")
        order = np.lexsort((grade, grade % 2))
        position, n = np.argsort(order), len(order)
        return cls(order, grade[order], np.r_[0, np.cumsum(np.bincount(grade % 2, minlength=2))],
                   np.array([position[(order + o) % n] for o, _ in diagonals]),
                   np.array([d[order] for _, d in diagonals]))

    def span(self, k: int) -> Tuple[int, int]:
        """Positions ``lo .. hi`` with ``G <= k`` of block ``k % 2``."""
        lo, end = self.starts[k % 2:][:2]
        return int(lo), int(lo + np.searchsorted(self.grades[lo:end], k, side="right"))

    def image(self, vector: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The rows ``lo .. hi`` times ``vector``: a gather and an axpy per stored diagonal."""
        out, gathered = np.zeros(hi - lo, dtype=complex), np.empty(hi - lo, dtype=complex)
        for columns, values in zip(self.columns[:, lo:hi], self.values[:, lo:hi]):
            np.take(vector, columns, out=gathered, mode="clip")  # "clip" does not buffer ``out``
            out += np.multiply(gathered, values, out=gathered)
        return out


def _ladder_sums(ws: FockWorkspace, q_lat) -> Tuple[Diagonals, Diagonals]:
    """``B* = a*_q + a*_{-q}`` and ``B = a_q + a_{-q}``."""
    q, minus_q = _plus_minus(q_lat)
    b = ws._ladder(q) + ws._ladder(minus_q)
    return b.adjoint(), b


def _fluct_parts(ws: FockWorkspace, q_lat, weights: Sequence[complex]
                 ) -> List[Tuple[complex, Diagonals]]:
    """``(w, P)`` for each part ``P`` of ``F(f, g)`` (``B* a_0``, ``a*_0 B``, ``B*``,
    ``B``) whose weight ``w`` is nonzero; a part of weight zero is not built."""
    b_dag, b = _ladder_sums(ws, q_lat)
    a_0 = ws._ladder(ZERO)
    builders = (lambda: b_dag @ a_0, lambda: a_0.adjoint() @ b, lambda: b_dag, lambda: b)
    return [(w, build()) for w, build in zip(weights, builders) if w != 0.0]


def condensate_fluct_matrix(ws: FockWorkspace, q_lat, amplitude: float,
                            f_q0: complex = 0.0, g_q0: complex = 0.0) -> Diagonals:
    """Smeared fluctuation ``F(f, g)`` with the weights of ``model.fluct_weights``.

    ``amplitude`` is the zero-mode amplitude ``z`` the state is built with
    (``sqrt(rho0 V)`` or ``c sqrt(V)``). On the ``[0, q, -q]``
    workspace the ``f`` part is the whole mean-field density fluctuation,
    so this one builder serves both gases; ``f = i eps_q`` gives the
    density weighted by ``i (eps_k - eps_k')``. Each part is built only
    when its smearing is nonzero; ``F(0, 0)`` is refused.
    """
    return sum(w * part for w, part in
               _fluct_parts(ws, q_lat, fluct_weights(amplitude, f_q0, g_q0)))


def condensate_fluct_family(ws: FockWorkspace, q_lat, amplitude: float
                            ) -> Callable[..., LayeredOperator]:
    """``(f_q0, g_q0) -> F(f, g)`` for many smearings on one workspace.

    ``F`` is linear in ``(f, conj f, g, conj g)``. The four parts of
    :func:`condensate_fluct_matrix` are built once and their diagonals laid
    out as the fixed-width rows of a :class:`LayeredOperator`, each row
    belonging to one part. A call only scales each value row by its part's
    weight, so it equals :func:`condensate_fluct_matrix` entry for entry;
    where a smearing vanishes its parts stay as explicit zeros, and an
    entry that two parts share is stored once for each. ``F(0, 0)`` is
    refused.

    Each part moves the pair grade ``G = n_q + n_{-q}`` by one, so a call
    returns a :class:`LayeredOperator` on the basis laid out once by the
    parity of ``G``, then ``G``. At ``q = 0``, where the parts keep ``n_0`` or
    move it by one and so ``G = 2 n_0`` by 0 or 2, :meth:`LayeredOperator.lay_out`
    refuses the family with ``ValueError``.
    """
    parts = [sorted(part.diagonals.items()) for _, part in _fluct_parts(ws, q_lat, (1.0,) * 4)]
    owner = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    diagonals = [diagonal for part in parts for diagonal in part]
    unit = LayeredOperator.lay_out(diagonals, np.add(*_pair_occupations(ws, q_lat)))

    def matrix(f_q0: complex = 0.0, g_q0: complex = 0.0) -> LayeredOperator:
        weights = np.array(fluct_weights(amplitude, f_q0, g_q0))
        return LayeredOperator(unit.order, unit.grades, unit.starts, unit.columns,
                               weights[owner][:, None] * unit.values)

    return matrix


# -- BCH and CLT -----------------------------------------------------------


def _bessel_series(x: float) -> np.ndarray:
    """``J_k(x)``, ``x > 0``, below the first ``K`` with ``2 sum_{k>=K} |J_k(x)| < UNIT_ROUNDOFF``:
    Miller's recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}`` run down from 20 orders past
    ``max(e x, 60)``, where ``|J_k(x)| <= (x/2)^k / k! < (e x / 2k)^k`` is below ``2^-60``, and
    normalized by ``J_0 + 2 sum J_{2k} = 1``."""
    values = [0.0, 1.0]  # J_{N+1} and J_N, N even, up to a common factor
    for k in range(2 * math.ceil(max(math.e * x, 60.0) / 2.0) + 20, 0, -1):
        values.append((2.0 * k / x) * values[-1] - values[-2])
        if abs(values[-1]) > 1e200:  # rescaled before it can overflow
            values = [value * 1e-200 for value in values]
    values = np.array(values[:0:-1])
    bessel = values / (values[0] + 2.0 * values[2::2].sum())
    tails = np.cumsum(np.abs(bessel[::-1]))[::-1]  # sum_{j >= k} |J_j(x)|
    return bessel[:np.count_nonzero(2.0 * tails >= UNIT_ROUNDOFF)]


def expm_multiply(A: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """``e^A v`` for a skew-Hermitian CSR ``A`` (scipy's name and argument order, one vector).

    On the Gershgorin interval ``[c - r, c + r]`` of ``H = -iA``, ``e^A = e^{ic} sum_k
    (2 - delta_k0) i^k J_k(r) T_k(X)``, ``X = (H - c) / r``, where ``||T_k(X)|| <= 1`` bounds the
    terms left out by :func:`_bessel_series` (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
    (1984)). ``2X`` is made once per call, and ``T_{k+1} = 2X T_k - T_{k-1}`` needs no
    eigensolve and no BLAS call.
    """
    diagonal = A.diagonal()
    radii = abs(A) @ np.ones(A.shape[0]) - np.abs(diagonal)
    lo, hi = np.min(diagonal.imag - radii), np.max(diagonal.imag + radii)  # H_rr = Im A_rr
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    phase = complex(math.cos(c), math.sin(c))
    if r == 0.0:  # H = c
        return phase * v
    double = A * (-2j / r)
    if c:
        double = double - sp.identity(A.shape[0], format="csr") * (2.0 * c / r)
    bessel = _bessel_series(r)
    k = np.arange(len(bessel))
    coefs = np.where(k, 2.0, 1.0) * np.array([1, 1j, -1, -1j])[k % 4] * bessel
    out, older, prior = coefs[0] * v, None, v
    for coef in coefs[1:]:
        image = double @ prior
        older, prior = prior, (0.5 * image if older is None  # T_1 = X T_0
                               else np.subtract(image, older, out=image))
        out += coef * prior
    return phase * out


def bch_defect(f1: Diagonals, f2: Diagonals, state: FiniteState) -> float:
    """Seminorm of ``e^{iF1} e^{iF2} - e^{i(F1+F2)} e^{-[F1,F2]/2}`` on the state.

    Each exponent goes to :func:`expm_multiply`, the Chebyshev propagator, as CSR.
    """
    if state.vector is None:
        raise ValueError("bch_defect needs a pure state")
    v = state.vector
    comm = f1 @ f2 - f2 @ f1
    left = expm_multiply((1j * f1).tocsr(), expm_multiply((1j * f2).tocsr(), v))
    right = expm_multiply((1j * (f1 + f2)).tocsr(), expm_multiply((-0.5 * comm).tocsr(), v))
    return _norm(left - right)


def appendix_bound(f1: Diagonals, f2: Diagonals, state: FiniteState) -> float:
    """Defect bound ``sqrt((4/3) max_t || [[F2,F1], t F1 + F2] ||_omega)``.

    Both error terms of the Dyson-expansion estimate are controlled by
    the double-commutator seminorm; the square root converts the bound
    on ``2 Re(1 - omega(...))`` into a bound on the defect itself.
    The double commutator applied to the state vector is affine in t,
    ``t S + O`` with ``S = C F1 v - F1 C v``, ``O = C F2 v - F2 C v`` and
    ``C = [F2, F1]``, so it needs images of vectors alone, no operator product.
    Its norm is convex in t, so the maximum over ``[0, 1]`` lies at an end:
    ``t = 0`` or ``t = 1`` are the two points evaluated.
    """
    if state.vector is None:
        raise ValueError("appendix_bound needs a pure state")

    def comm(x):  # [F2, F1] x
        return f2 @ (f1 @ x) - f1 @ (f2 @ x)

    v = state.vector
    comm_v = comm(v)
    slope = comm(f1 @ v) - f1 @ comm_v
    offset = comm(f2 @ v) - f2 @ comm_v
    worst = max(_norm(t * slope + offset) for t in (0.0, 1.0))
    return math.sqrt(4.0 * worst / 3.0)


def clt_char_function(f_op: LayeredOperator, t_grid: Sequence[float],
                      state: FiniteState) -> np.ndarray:
    """``omega(e^{i t F})`` on a grid of t values.

    One Lanczos run on the Hermitian ``F`` from the state vector gives
    ``<v|e^{itF}|v> = sum_j |U_0j|^2 e^{i t lambda_j}`` from the eigenpairs of
    the tridiagonal matrix for every t at once (Gauss quadrature of the
    spectral measure). The run is the plain three-term recurrence: the Krylov
    approximation of ``e^{itF} v`` stays accurate without reorthogonalization
    (Druskin, Greenbaum and Knizhnerman, SIAM J. Sci. Comput. 19, 38 (1998)).
    It grows until the values on the whole grid change by less than
    ``LANCZOS_TOL`` between two steps, or until an invariant subspace is
    reached; past ``LANCZOS_MAX_STEPS`` steps it raises ``RuntimeError``.

    From a state on ``G = 0`` the Krylov row ``k`` is zero off ``F.span(k)``,
    in block ``k % 2``, so step ``k`` multiplies by the rows ``F.span(k + 1)``
    alone. Every entry of ``F`` joins the two blocks, so the tridiagonal has a
    zero diagonal, and two rows hold the recurrence: row ``k + 1`` overwrites
    row ``k - 1``, whose span lies in its own. Every sum runs in numpy's own
    loops, none in BLAS, so the values do not depend on the BLAS thread count.

    Warns when the evolved vector, rebuilt from each row's entries on the edge
    levels of its span, populates them beyond ``LEAK_TOL`` (truncation
    leakage): every top level, and the bottom level of a window with ``lo > 0``.
    """
    if state.vector is None:
        raise ValueError("clt_char_function needs a pure state")
    edges = np.flatnonzero(~state.workspace.interior()[f_op.order])  # positions on an edge level
    edges = np.split(edges, np.searchsorted(edges, f_op.starts[1:2]))  # by block
    times = np.asarray(t_grid, dtype=float)
    norm = _norm(state.vector)  # FiniteState keeps it within 1e-9 of 1
    rows = np.zeros((2, len(state.vector)), dtype=complex)  # Krylov row k is rows[k % 2]
    rows[0] = state.vector[f_op.order] / norm
    if np.any(rows[0, f_op.span(0)[1]:]):
        raise ValueError("the state must lie on the lowest layer of the operator")
    betas: List[float] = []
    on_edges = []  # each Krylov row's entries on the edge levels of its span
    previous = None
    while True:
        k = len(betas)  # the newest Krylov row
        block = edges[k % 2]
        on_edges.append(rows[k % 2, block[:np.searchsorted(block, f_op.span(k)[1])]])
        lo, hi = f_op.span(k + 1)  # where F row_k lies
        w = f_op.image(rows[k % 2], lo, hi)
        if betas:
            w -= betas[-1] * rows[(k + 1) % 2, lo:hi]
        beta = _norm(w)
        lam, vecs = np.linalg.eigh(np.diag(betas, -1))
        # Krylov coefficients of e^{itF} v: c_j(t) = sum_k U_jk U_0k e^{i t lam_k}
        coeffs = vecs @ (vecs[0][:, None] * np.exp(1j * np.outer(lam, times)))
        values = coeffs[0]
        if beta < LANCZOS_BREAKDOWN or (
                previous is not None
                and np.max(np.abs(values - previous), initial=0.0) < LANCZOS_TOL):
            break
        if k + 1 == LANCZOS_MAX_STEPS:
            raise RuntimeError(f"Lanczos characteristic function not converged "
                               f"after {LANCZOS_MAX_STEPS} steps")
        previous = values
        betas.append(beta)
        rows[(k + 1) % 2, lo:hi] = w / beta
    # the evolved state on the edges of each block: row k adds its coefficients times its entries
    evolved = [np.zeros((len(times), len(block)), dtype=complex) for block in edges]
    for k, entries in enumerate(on_edges):
        evolved[k % 2][:, :len(entries)] += np.multiply.outer(coeffs[k], entries)
    edge_weights = norm**2 * sum(np.einsum("ti,ti->t", x.view(np.float64), x.view(np.float64))
                                 for x in evolved)
    worst_leak = float(np.max(edge_weights, initial=0.0))
    if worst_leak > LEAK_TOL:
        warnings.warn(f"truncation leakage {worst_leak:.2e} exceeds {LEAK_TOL:.0e}",
                      RuntimeWarning)
    return norm**2 * values


# -- interaction commutation on a momentum torus ---------------------------


def _torus_interaction(ws: FockWorkspace, n: int, v_q: Sequence[float]) -> Diagonals:
    """Full two-body interaction on the 1-D momentum torus.

    ``(1/2V) sum_{q,k,k'} v(q) a*_{k+q} a*_{k'-q} a_{k'} a_k`` with all
    mode sums and additions taken mod n, so momentum conservation is
    exact on the finite set and the density-commutation identity holds
    as a matrix identity. ``v_q[j]`` is ``v`` at torus label ``j``.
    """
    pref = 1.0 / (2.0 * ws.volume)
    a = [ws._ladder((0, 0, j)) for j in range(n)]
    return sum((pref * v_q[qj]) * (a[(kj + qj) % n].adjoint() @ a[(kpj - qj) % n].adjoint()
                                   @ a[kpj] @ a[kj])
               for qj in range(n) if v_q[qj] != 0.0
               for kj in range(n) for kpj in range(n))


def u_density_commutator_check(params: ModelParams,
                               box_side: float) -> Tuple[float, float, float]:
    """Check ``[U, F_q(N)] = 0`` and the quadratic rewrite of U on a torus.

    Builds the full two-body interaction on a 1-D momentum torus of 4
    modes (box side ``box_side``, at most 3 bosons each), where label
    ``j`` stands for the momentum ``min(j, 4 - j) 2 pi / L``, and the
    plain density fluctuations ``F_q = V^{-1/2} sum_k a*_{k+q} a_k``.
    Returns the below-truncation norms of (i) the commutator of U with
    ``F_q`` at ``q = 2 pi / L``, (ii) U minus ``(1/2) sum_{q != 0} v(q)
    F_q F_{-q} + (v(0)/2V) N^2 - (phi(0)/2) N`` with ``phi(0) = (1/V)
    sum_q v(q)``, and (iii) the commutator of the superfluid-truncated
    interaction (pairing and dressing at the amplitude ``c``) with
    ``F_q``, which must not vanish. Refuses ``c = 0``, where that
    interaction is zero.
    """
    c = params.condensate_amplitude
    if c == 0.0:
        raise ValueError("the truncated interaction needs a nonzero condensate amplitude")
    n = 4
    ws = FockWorkspace(box_side, [(0, 0, j) for j in range(n)], 3)
    kept = ws.interior()
    v_q = [params.v(min(j, n - j) * ws.spacing) for j in range(n)]
    u_full = _torus_interaction(ws, n, v_q)
    density = {qj: ws.transfer_operator([(1.0 / math.sqrt(ws.volume), (0, 0, (kj + qj) % n),
                                          (0, 0, kj)) for kj in range(n)])
               for qj in range(1, n)}
    f_q = density[1]

    commutator_defect = (u_full @ f_q - f_q @ u_full).projected_norm(kept)

    rewrite = sum(0.5 * v_q[qj] * (density[qj] @ density[n - qj]) for qj in range(1, n))
    totals = ws.totals()
    phi0 = sum(v_q) / ws.volume
    rewrite = (rewrite + Diagonals.diag((params.v(0.0) / (2.0 * ws.volume)) * totals**2)
               - Diagonals.diag(0.5 * phi0 * totals))
    rewrite_defect = (u_full - rewrite).projected_norm(kept)

    terms = []
    for kj in range(1, n):
        pair = ws._ladder((0, 0, kj)).adjoint() @ ws._ladder((0, 0, n - kj)).adjoint()
        terms.append(0.5 * v_q[kj] * c**2 * (pair + pair.adjoint())
                     + v_q[kj] * c**2 * Diagonals.diag(ws.occupations[:, kj].astype(float)))
    u_trunc = sum(terms)
    wibg_norm = (u_trunc @ f_q - f_q @ u_trunc).projected_norm(kept)
    return commutator_defect, rewrite_defect, wibg_norm


# -- truncation rederivation ------------------------------------------------


def truncation_rederivation_check(params: ModelParams) -> Tuple[float, float]:
    """Two-step check that truncating to zero-mode density fluctuations
    and substituting the condensate amplitude reproduces the superfluid
    interaction.

    Step 1 (matrix identity): on modes ``{0, +-q}`` with ``q = 2 pi / L``
    (at most 6 zero-mode and 4 ``+-q`` bosons, box side ``INTERACTION_BOX_SIDE``),
    ``(1/2) sum_{k = +-q} v(k) F_k(N0) F_{-k}(N0)`` equals the
    normal-ordered form with explicit zero-mode operators plus the
    ``(phi0'/2) N_0`` reordering term. Step 2 (exact algebra): the
    c-substitution of the zero-mode operators yields the pairing and
    dressing terms of the assembled Hamiltonian plus the constant
    ``(phi0'/2) c^2 V``. Returns the two defect norms.
    """
    q, minus_q = _plus_minus((0, 0, 1))
    ws = FockWorkspace(INTERACTION_BOX_SIDE, [ZERO, q, minus_q], {ZERO: 6, q: 4, minus_q: 4})
    q_norm = ws.k_norm(q)
    v_q = params.v(q_norm)
    vol = ws.volume

    def f_n0(mode_to, mode_from):
        # F_{L,k}(N0) = V^{-1/2} (a*_k a_0 + a*_0 a_{-k})
        return (1.0 / math.sqrt(vol)) * ws.transfer_operator([(1.0, mode_to, ZERO),
                                                              (1.0, ZERO, mode_from)])

    lhs = 0.5 * v_q * (f_n0(q, minus_q) @ f_n0(minus_q, q)
                       + f_n0(minus_q, q) @ f_n0(q, minus_q))

    a0 = ws._ladder(ZERO)
    a0d = a0.adjoint()
    phi0p = 2.0 * v_q / vol  # (1/V) sum over the two nonzero modes
    plus_minus = ((q, minus_q), (minus_q, q))  # k = +q, -q
    numbers = {mode: Diagonals.diag(ws.occupations[:, ws.index(mode)].astype(float))
               for mode, _ in plus_minus}
    pairs_up = {mode: ws._ladder(mode).adjoint() @ ws._ladder(minus).adjoint()
                for mode, minus in plus_minus}
    written_out = sum(
        (0.5 * v_q / vol) * ((a0 @ a0d + a0d @ a0) @ numbers[mode] + (a0 @ a0) @ up
                             + (a0d @ a0d) @ up.adjoint())
        for mode, up in pairs_up.items())
    written_out = written_out + 0.5 * phi0p * (a0d @ a0)
    step1 = (lhs - written_out).projected_norm(ws.interior(margin=2))

    # c-substitution: a0 / sqrt(V) -> c on the written-out form
    c = params.condensate_amplitude
    constant = Diagonals.diag(np.full(ws.dimension, 0.5 * phi0p * c**2 * vol))
    substituted = sum((0.5 * v_q) * (2.0 * c**2 * numbers[mode] + c**2 * up + c**2 * up.adjoint())
                      for mode, up in pairs_up.items())
    substituted = substituted + constant

    h = build_hamiltonian("wibg", ws, params)
    kinetic = pair_block(ws, q, dispersion(q_norm, params), 0.0)
    target = (h - kinetic - Diagonals.diag((params.v(0.0) / (2.0 * vol)) * ws.totals()**2)
              + constant)
    step2 = (substituted - target).projected_norm(ws.interior(margin=0))
    return step1, step2


# -- Goldstone closure -------------------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the Goldstone-pair closure check for one model.

    ``identity_defect`` is the worst below-truncation defect of the
    exact density-side commutator identity; ``secondary_defect`` the
    same for the order-parameter side (its exact remainder included).
    The ``*_relative`` fields divide each box's defect by the norm of the
    product ``P H X P`` it rounds, the scale of its rounding error, before
    taking the worst. ``remainder_norms`` holds the state seminorm of the
    remainder at each of ``volumes``.
    """

    identity_defect: float
    secondary_defect: float
    identity_relative: float
    secondary_relative: float
    remainder_norms: Tuple[float, ...]
    volumes: Tuple[float, ...]


def goldstone_closure_check(model: str, params: ModelParams) -> ClosureReport:
    """Matrix-level closure of the Goldstone pair dynamics.

    With the couplings ``(g, mu, u)`` of the gas's table and ``X = B* + B``,
    both gases obey ``i[H, A] = r_A [-((eps + 2g)/2) X + M]``, where
    ``M = (mu/2) X - (u/4V)(N X + X N)``, and ``i[H, rho] = rho(i eps) + P``,
    where ``P = (i g r_rho / 2z)[B*(a_0 - a*_0) + (a_0 - a*_0) B]``; ``r_rho =
    |q|^-r`` and ``r_A = |q|^r`` rescale the pair. For each volume it records
    the worst below-truncation defect of both identities and the state
    seminorm of the remainder, ``M`` in the coherent vacuum for the mean-field
    gas and ``P`` in the quasi-particle vacuum for the superfluid one, later
    fitted against volume (expected rate ``V^{-1/2}``); a remainder whose
    coupling vanishes (``mu = u = 0``, ``g(q) = 0``) is refused. The physical
    wavevector ``q = pi`` is held fixed across the box sides 2, 4, 6 and 8,
    on each of whose lattices it sits, so the remainder decay isolates the
    volume scaling.
    """
    table = gas_table(model, params)
    q_phys = math.pi
    mean_field = model == "imperfect"  # which remainder, in which state
    if not any((table.mu, table.u) if mean_field else (table.g(q_phys),)):
        raise ValueError("the Goldstone remainder needs a nonzero coupling, mu or u / c^2 v(q)")
    r_rho, r_a = q_phys**-table.exponent, q_phys**table.exponent

    def at_box(box):  # one volume; its operators are freed before the next is built
        q, minus_q = _plus_minus((0, 0, round(box / 2.0)))
        amp = table.amplitude(box**3)
        ws = FockWorkspace(box, [ZERO, q, minus_q],
                           {ZERO: coherent_window(amp), q: 8, minus_q: 8})
        h = build_hamiltonian(model, ws, params)
        k_norm = ws.k_norm(q)  # q_phys up to rounding
        eps_q, g = dispersion(k_norm, params), table.g(k_norm)
        b_dag, b = _ladder_sums(ws, q)
        x_op = b_dag + b
        n_tot = Diagonals.diag(ws.totals())
        kept = ws.interior(margin=2)

        number_part = ((table.mu / 2.0) * x_op
                       - (table.u / (4.0 * ws.volume)) * (n_tot @ x_op + x_op @ n_tot))
        a_rhs = r_a * ((-0.5 * (eps_q + 2.0 * g)) * x_op + number_part)
        rho_rhs = r_rho * condensate_fluct_matrix(ws, q, amp, f_q0=1j * eps_q)
        if g != 0.0:
            diff = ws._ladder(ZERO) - ws._ladder(ZERO).adjoint()
            pairing_part = (r_rho * 1j * g / (2.0 * amp)) * (b_dag @ diff + diff @ b)
            rho_rhs = rho_rhs + pairing_part
        rho = r_rho * condensate_fluct_matrix(ws, q, amp, f_q0=1.0)
        a_op = r_a * condensate_fluct_matrix(ws, q, amp, g_q0=1.0)

        def defect(x_op, rhs):  # |P (i[H, X] - rhs) P|, absolute and over |P H X P|
            commutator = h @ x_op
            scale = commutator.projected_norm(kept)
            commutator = commutator - x_op @ h  # the rebinding frees H X
            # times -i, which is exact: the norm of [H, X] + i rhs, without a copy of i[H, X]
            absolute = (commutator + 1j * rhs).projected_norm(kept)
            return absolute, absolute / scale

        if mean_field:
            state, remainder = FiniteState.coherent_vacuum(ws, amp), number_part
        else:
            state, remainder = FiniteState.coherent_b_vacuum(ws, params, q, amp), pairing_part
        return (*defect(rho, rho_rhs), *defect(a_op, a_rhs), state.seminorm(remainder))

    boxes = (2.0, 4.0, 6.0, 8.0)
    identities, identity_rels, secondaries, secondary_rels, norms = zip(
        *(at_box(box) for box in boxes))
    return ClosureReport(
        identity_defect=max(identities),
        secondary_defect=max(secondaries),
        identity_relative=max(identity_rels),
        secondary_relative=max(secondary_rels),
        remainder_norms=norms,
        volumes=tuple(box**3 for box in boxes),
    )
