"""Truncated Fock-space simulator: matrix-level ground truth.

Builds small multi-mode bosonic workspaces whose ladder operators are
read off the occupation table (one diagonal per mode), assembles the
mean-field and superfluid Hamiltonians, and provides the matrix-level
checks: exact commutator identities of the Goldstone pair, BCH defects
in the state seminorm, characteristic functions for the central-limit
check, the vanishing commutator of the two-body interaction with the
density fluctuation, and the truncation rederivation of the superfluid
Hamiltonian. Every check that uses a
density operator runs on the workspace ``[0, q, -q]``, where one
zero-mode builder, :func:`condensate_fluct_matrix`, writes the density
fluctuation of both gases.

Modes are labeled by integer lattice triples. For the interaction
checks the mode label arithmetic is taken modulo a small torus so that
momentum conservation is exact on the finite mode set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh, expm_multiply

from .asymptotics import fit_power_law, PowerLawFit
from .model import ModelParams, dispersion

__all__ = [
    "FockWorkspace",
    "FiniteState",
    "pair_block",
    "build_hamiltonian",
    "u_density_commutator_check",
    "bch_defect",
    "appendix_bound",
    "clt_char_function",
    "dynamics_commutator",
    "goldstone_closure_check",
    "truncation_rederivation_check",
    "coherent_cutoff",
]

Mode = Tuple[int, int, int]
ZERO: Mode = (0, 0, 0)

DIMENSION_CAP = 200_000
LEAK_TOL = 1e-6  # top-level population that counts as truncation leakage
LANCZOS_TOL = 1e-12  # change of the characteristic function that stops the Krylov growth
LANCZOS_BREAKDOWN = 1e-14  # residual norm of an exact invariant subspace
LANCZOS_MAX_STEPS = 100
LANCZOS_DGKS_RATIO = 2.0**-0.5  # a Gram-Schmidt pass that shrinks ||w|| below this is repeated
INTERACTION_BOX_SIDE = 2.0  # box side of both interaction checks: momenta are multiples of pi


def _plus_minus(q_lat) -> Tuple[Mode, Mode]:
    """The lattice triple ``q`` and its mirror ``-q``."""
    q = tuple(int(x) for x in q_lat)
    return q, tuple(-x for x in q)


def coherent_cutoff(amplitude: float) -> int:
    """Occupation cutoff that holds a coherent state of amplitude ``z``.

    A Poisson distribution with mean ``z^2`` has essentially all its
    mass below ``z^2 + 8 z`` for the amplitudes used here.
    """
    mean = amplitude**2
    return int(math.ceil(mean + 8.0 * math.sqrt(max(mean, 1.0)) + 10.0))


class FockWorkspace:
    """Tensor product of truncated single-mode Fock spaces.

    Parameters
    ----------
    box_side : float
        Physical box side L (sets the mode momenta and the volume).
    modes : sequence of integer lattice triples
        Mode labels; momentum is ``(2 pi / L) * label`` unless a torus
        override maps labels to representatives first.
    n_max : int or mapping mode -> int
        Per-mode occupation cutoff. The product of the local dimensions
        may not exceed ``DIMENSION_CAP``.
    """

    def __init__(self, box_side: float, modes: Sequence[Sequence[int]], n_max):
        self.box_side = float(box_side)
        self.spacing = 2.0 * math.pi / self.box_side
        self.modes: List[Mode] = [tuple(int(x) for x in m) for m in modes]
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        if isinstance(n_max, Mapping):
            self.n_max = {tuple(int(x) for x in k): int(v) for k, v in n_max.items()}
        else:
            self.n_max = {m: int(n_max) for m in self.modes}
        dims = [self.n_max[m] + 1 for m in self.modes]
        self.dimension = int(np.prod(dims))
        if self.dimension > DIMENSION_CAP:
            raise ValueError(f"dimension {self.dimension} exceeds cap {DIMENSION_CAP}")
        self._dims = dims
        self._ladder_cache: Dict[Mode, sp.csr_matrix] = {}
        # occupation table: occupations[i, j] = occupation of mode j in basis state i
        grids = np.indices(dims).reshape(len(dims), -1)
        self.occupations = grids.T.copy()

    @property
    def volume(self) -> float:
        return self.box_side**3

    def index(self, mode) -> int:
        return self.modes.index(tuple(int(x) for x in mode))

    def k_phys(self, mode) -> np.ndarray:
        return np.asarray(mode, dtype=float) * self.spacing

    def annihilator(self, mode) -> sp.csr_matrix:
        """``a_k`` as one diagonal at the mode's stride in the basis index.

        Basis state ``i`` holds ``n_k`` bosons in mode ``k``; ``a_k`` maps it to
        ``i - stride`` with weight ``sqrt(n_k)``. For ``n_k = 0`` that index
        belongs to other occupations of the slower modes; the zero weight
        drops the entry.
        """
        m = tuple(int(x) for x in mode)
        hit = self._ladder_cache.get(m)
        if hit is not None:
            return hit
        j = self.index(m)
        stride = int(np.prod(self._dims[j + 1:]))
        op = sp.diags(np.sqrt(self.occupations[stride:, j]), stride,
                      shape=(self.dimension, self.dimension), format="csr")
        self._ladder_cache[m] = op
        return op

    def creator(self, mode) -> sp.csr_matrix:
        return self.annihilator(mode).conjugate().T.tocsr()

    def number(self, mode) -> sp.csr_matrix:
        j = self.index(mode)
        return sp.diags(self.occupations[:, j].astype(float), format="csr")

    def total_number(self) -> sp.csr_matrix:
        return sp.diags(self.occupations.sum(axis=1).astype(float), format="csr")

    def identity(self) -> sp.csr_matrix:
        return sp.identity(self.dimension, format="csr")

    def below_truncation_projector(self, margin: int = 1) -> sp.csr_matrix:
        """Diagonal projector onto states ``margin`` below every cutoff."""
        tops = np.array(self._dims) - 1
        keep = np.all(self.occupations <= tops - margin, axis=1)
        return sp.diags(keep.astype(float), format="csr")

    def transfer_operator(self, terms: Iterable[Tuple[complex, Sequence[int], Sequence[int]]]
                          ) -> sp.csr_matrix:
        """``sum coef * a*_{k_to} a_{k_from}`` over ``(coef, k_to, k_from)``."""
        return sum((coef * (self.creator(k_to) @ self.annihilator(k_from))
                    for coef, k_to, k_from in terms),
                   sp.csr_matrix((self.dimension, self.dimension))).tocsr()


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
            nrm = np.linalg.norm(self.vector)
            if not math.isclose(nrm, 1.0, rel_tol=1e-9):
                self.vector = self.vector / nrm
        else:
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            self.probabilities = self.probabilities / self.probabilities.sum()

    def expect(self, op: sp.spmatrix) -> complex:
        if self.vector is not None:
            return complex(np.vdot(self.vector, op @ self.vector))
        return complex(np.dot(self.probabilities, op.diagonal()))

    def seminorm(self, op: sp.spmatrix) -> float:
        """State seminorm ``sqrt(omega(X* X))``."""
        if self.vector is None:
            raise ValueError("seminorm implemented for pure states")
        return float(np.linalg.norm(op @ self.vector))

    # -- builders --------------------------------------------------------

    @staticmethod
    def _coherent_column(n_levels: int, amplitude: float) -> np.ndarray:
        n = np.arange(n_levels, dtype=float)
        log_coeff = n * math.log(max(abs(amplitude), 1e-300)) - 0.5 * (
            np.cumsum(np.log(np.maximum(n, 1.0)))
        )
        coeff = np.sign(amplitude) ** n * np.exp(log_coeff - log_coeff.max())
        return coeff / np.linalg.norm(coeff)

    @classmethod
    def coherent_vacuum(cls, ws: FockWorkspace, amplitude: float) -> "FiniteState":
        """Coherent state at the zero mode, vacuum elsewhere."""
        vec = np.array([1.0])
        for m in ws.modes:
            dim = ws.n_max[m] + 1
            if m == ZERO:
                col = cls._coherent_column(dim, amplitude)
            else:
                col = np.zeros(dim)
                col[0] = 1.0
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
            dim = ws.n_max[m] + 1
            n = np.arange(dim, dtype=float)
            if m == ZERO:
                with np.errstate(divide="ignore"):
                    logw = n * 2.0 * math.log(max(abs(amplitude), 1e-300)) - np.cumsum(
                        np.log(np.maximum(n, 1.0)))
                w = np.exp(logw - logw.max())
            else:
                w = np.exp(-beta * dispersion(ws.k_phys(m), params) * n)
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
        n_pair = ws.n_max[q]
        if ws.n_max[minus_q] != n_pair:
            raise ValueError("the +-q cutoffs must match")
        pair_ws = FockWorkspace(ws.box_side, [q, minus_q], n_pair)
        q_norm = float(np.linalg.norm(pair_ws.k_phys(q)))
        h_pair = pair_block(pair_ws, q, dispersion(q_norm, params), params.c2v(q_norm))
        # a fixed start vector keeps ARPACK, and so the tables, reproducible
        start = np.full(pair_ws.dimension, pair_ws.dimension**-0.5)
        _, vecs = eigsh(h_pair.tocsc(), k=1, which="SA", v0=start)
        ground = vecs[:, 0]
        ground = ground * np.sign(ground[np.argmax(np.abs(ground))])
        zero_col = cls._coherent_column(ws.n_max[ZERO] + 1, amplitude)
        return cls(ws, vector=np.kron(zero_col, ground).astype(complex))


# -- Hamiltonians --------------------------------------------------------


def _kinetic(ws: FockWorkspace, params: ModelParams) -> sp.csr_matrix:
    eps = dispersion(np.array([ws.k_phys(m) for m in ws.modes]), params)
    return sp.diags(ws.occupations @ eps, format="csr")


def pair_block(ws: FockWorkspace, q_lat, eps: float, g: float) -> sp.csr_matrix:
    """Quadratic +-q block ``(eps + g)(n_q + n_{-q}) + g (a*_q a*_{-q} + h.c.)``.

    Kinetic energy ``eps``, dressing and pairing ``g``; its gap is the
    collective energy ``sqrt(eps (eps + 2 g))``.
    """
    q, minus_q = _plus_minus(q_lat)
    n_ops = ws.number(q) + ws.number(minus_q)
    pair = ws.creator(q) @ ws.creator(minus_q)
    return ((eps + g) * n_ops + g * (pair + pair.conjugate().T)).tocsr()


def build_hamiltonian(model: str, ws: FockWorkspace, params: ModelParams) -> sp.csr_matrix:
    """Assemble the model Hamiltonian on the workspace.

    ``imperfect``: ``T - mu N + (lambda / 2V) N^2`` with ``mu = lambda rho``.
    ``wibg``: one :func:`pair_block` per nonzero ``+-k`` mode pair plus
    ``(v(0)/2V) N^2``; the number term is omitted (chemical potential
    absorbed), which leaves each block's gap exactly at the collective spectrum.
    """
    if ZERO not in ws.modes:
        raise ValueError("workspace must contain the zero mode")
    n_tot = ws.total_number()
    n_sq = n_tot @ n_tot
    if model == "imperfect":
        mu = params.chemical_potential
        h = _kinetic(ws, params) - mu * n_tot + (params.coupling / (2.0 * ws.volume)) * n_sq
        return h.tocsr()
    if model != "wibg":
        raise ValueError(f"unknown model tag {model!r}")
    blocks = []
    for m in ws.modes:
        q, minus_q = _plus_minus(m)
        if minus_q not in ws.modes:
            raise ValueError("wibg pairing needs +-k mode pairs")
        if q > minus_q:  # one block per pair; the zero mode is its own mirror
            k_norm = float(np.linalg.norm(ws.k_phys(q)))
            blocks.append(pair_block(ws, q, dispersion(k_norm, params), params.c2v(k_norm)))
    return (sum(blocks) + (params.v(0.0) / (2.0 * ws.volume)) * n_sq).tocsr()


# -- fluctuation operators on a workspace ---------------------------------


def _ladder_sums(ws: FockWorkspace, q_lat) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """``B* = a*_q + a*_{-q}`` and ``B = a_q + a_{-q}``."""
    q, minus_q = _plus_minus(q_lat)
    return (ws.creator(q) + ws.creator(minus_q),
            ws.annihilator(q) + ws.annihilator(minus_q))


def order_param_fluct_matrix(ws: FockWorkspace, q_lat, g_q0: complex = 1.0,
                             renorm: float = 1.0) -> sp.csr_matrix:
    """Cos-convention order-parameter fluctuation ``(i/2)[g B* - conj(g) B]``.

    ``B* = a*_q + a*_{-q}``; ``renorm`` multiplies the whole operator
    (e.g. ``|q|^{1/2}`` for the superfluid pair).
    """
    g = complex(g_q0)
    b_dag, b = _ladder_sums(ws, q_lat)
    return (renorm * 0.5j * (g * b_dag - np.conj(g) * b)).tocsr()


def condensate_fluct_matrix(ws: FockWorkspace, q_lat, amplitude: float,
                            f_q0: complex = 1.0, renorm: float = 1.0) -> sp.csr_matrix:
    """Zero-mode density fluctuation ``(renorm / 2z) [f B* a_0 + conj(f) a*_0 B]``.

    ``B* = a*_q + a*_{-q}`` and ``z`` is the zero-mode amplitude the state
    is built with (``sqrt(rho0 V)`` or ``c sqrt(V)``). On the ``[0, q, -q]``
    workspace the mean-field density fluctuation keeps only these four
    transfers, so this one builder serves both gases; ``f = i eps_q`` gives
    the density weighted by ``i (eps_k - eps_k')``.
    """
    if amplitude == 0.0:
        raise ValueError("needs a nonzero zero-mode amplitude")
    norm = renorm / (2.0 * amplitude)
    f = complex(f_q0)
    b_dag, b = _ladder_sums(ws, q_lat)
    up = b_dag @ ws.annihilator(ZERO)
    down = ws.creator(ZERO) @ b
    return (norm * (f * up + np.conj(f) * down)).tocsr()


def dynamics_commutator(h: sp.spmatrix, x: sp.spmatrix) -> sp.csr_matrix:
    """Heisenberg derivative ``i [H, X]``."""
    return (1j * (h @ x - x @ h)).tocsr()


# -- BCH and CLT -----------------------------------------------------------


def _expm_apply(op: sp.spmatrix, vec: np.ndarray) -> np.ndarray:
    return expm_multiply(op.tocsc(), vec)


def bch_defect(f1: sp.spmatrix, f2: sp.spmatrix, state: FiniteState) -> float:
    """Seminorm of ``e^{iF1} e^{iF2} - e^{i(F1+F2)} e^{-[F1,F2]/2}`` on the state."""
    if state.vector is None:
        raise ValueError("bch_defect needs a pure state")
    v = state.vector
    comm = (f1 @ f2 - f2 @ f1).tocsc()
    left = _expm_apply(1j * f1, _expm_apply(1j * f2, v))
    right = _expm_apply(1j * (f1 + f2), _expm_apply(-0.5 * comm, v))
    return float(np.linalg.norm(left - right))


def appendix_bound(f1: sp.spmatrix, f2: sp.spmatrix, state: FiniteState) -> float:
    """Defect bound ``sqrt((4/3) max_t || [[F2,F1], t F1 + F2] ||_omega)``.

    Both error terms of the Dyson-expansion estimate are controlled by
    the double-commutator seminorm; the square root converts the bound
    on ``2 Re(1 - omega(...))`` into a bound on the defect itself.
    The double commutator applied to the state vector is affine in t,
    ``t S + O`` with ``S = C F1 v - F1 C v``, ``O = C F2 v - F2 C v`` and
    ``C = [F2, F1]``, so it is built from matrix-vector products alone.
    """
    if state.vector is None:
        raise ValueError("appendix_bound needs a pure state")

    def comm(x):  # [F2, F1] x
        return f2 @ (f1 @ x) - f1 @ (f2 @ x)

    v = state.vector
    comm_v = comm(v)
    slope = comm(f1 @ v) - f1 @ comm_v
    offset = comm(f2 @ v) - f2 @ comm_v
    worst = max(float(np.linalg.norm(t * slope + offset)) for t in np.linspace(0.0, 1.0, 5))
    return math.sqrt(4.0 * worst / 3.0)


def clt_char_function(f_op: sp.spmatrix, t_grid: Sequence[float],
                      state: FiniteState) -> np.ndarray:
    """``omega(e^{i t F})`` on a grid of t values.

    One Lanczos run on the Hermitian ``F`` from the state vector, with
    full reorthogonalization, gives ``<v|e^{itF}|v> = sum_j |U_0j|^2
    e^{i t lambda_j}`` from the eigenpairs of the tridiagonal matrix for
    every t at once (Gauss quadrature of the spectral measure). Each step
    removes the three-term part and then runs one classical Gram-Schmidt
    pass against the whole basis as two matrix-vector products, repeated
    once when it shrinks the residual below ``LANCZOS_DGKS_RATIO`` of its
    norm (the DGKS criterion). The Krylov space grows until the values on the
    whole grid change by less than ``LANCZOS_TOL`` between two steps, or
    until an invariant subspace is reached; past ``LANCZOS_MAX_STEPS``
    steps it raises ``RuntimeError``.

    Emits a warning when the evolved vector, rebuilt from the Krylov
    basis, populates the top occupation level beyond ``LEAK_TOL``
    (truncation leakage).
    """
    if state.vector is None:
        raise ValueError("clt_char_function needs a pure state")
    ws = state.workspace
    top_mask = np.any(ws.occupations == (np.array(ws._dims) - 1), axis=1)
    op = f_op.tocsr()
    times = np.asarray(t_grid, dtype=float)
    norm = np.linalg.norm(state.vector)  # FiniteState keeps it within 1e-9 of 1
    # rows past the last step are never written, so they take no resident memory
    basis = np.empty((LANCZOS_MAX_STEPS, len(state.vector)), dtype=complex)
    basis[0] = state.vector / norm
    alphas: List[float] = []
    betas: List[float] = []
    previous = None
    steps = 1
    while True:
        q = basis[steps - 1]
        w = op @ q
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q
        if betas:
            w -= betas[-1] * basis[steps - 2]
        beta = float(np.linalg.norm(w))
        for _ in range(2):  # classical Gram-Schmidt; twice is enough
            prior = basis[:steps]
            w -= (prior @ w.conj()).conj() @ prior
            before, beta = beta, float(np.linalg.norm(w))
            if beta >= LANCZOS_DGKS_RATIO * before:
                break
        lam, vecs = eigh_tridiagonal(np.array(alphas), np.array(betas))
        # Krylov coefficients of e^{itF} v: c_j(t) = sum_k U_jk U_0k e^{i t lam_k}
        coeffs = vecs @ (vecs[0][:, None] * np.exp(1j * np.outer(lam, times)))
        values = coeffs[0]
        if beta < LANCZOS_BREAKDOWN or (
                previous is not None
                and np.max(np.abs(values - previous), initial=0.0) < LANCZOS_TOL):
            break
        if steps == LANCZOS_MAX_STEPS:
            raise RuntimeError(f"Lanczos characteristic function not converged "
                               f"after {LANCZOS_MAX_STEPS} steps")
        previous = values
        betas.append(beta)
        basis[steps] = w / beta
        steps += 1
    top_rows = basis[:steps, top_mask].T
    top_weights = norm**2 * np.sum(np.abs(top_rows @ coeffs) ** 2, axis=0)
    worst_leak = float(np.max(top_weights, initial=0.0))
    if worst_leak > LEAK_TOL:
        warnings.warn(f"truncation leakage {worst_leak:.2e} exceeds {LEAK_TOL:.0e}",
                      RuntimeWarning)
    return norm**2 * values


# -- interaction commutation on a momentum torus ---------------------------


def _torus_modes(n: int) -> List[Mode]:
    return [(0, 0, j) for j in range(n)]


def _torus_rep(j: int, n: int) -> int:
    """Representative of j mod n in (-n/2, n/2]."""
    j = j % n
    return j - n if j > n // 2 else j


def _torus_interaction(ws: FockWorkspace, n: int, v) -> sp.csr_matrix:
    """Full two-body interaction on the 1-D momentum torus.

    ``(1/2V) sum_{q,k,k'} v(q) a*_{k+q} a*_{k'-q} a_{k'} a_k`` with all
    mode sums and additions taken mod n, so momentum conservation is
    exact on the finite set and the density-commutation identity holds
    as a matrix identity.
    """
    pref = 1.0 / (2.0 * ws.volume)
    v_q = [v(abs(_torus_rep(qj, n)) * ws.spacing) for qj in range(n)]
    return sum((pref * v_q[qj]) * (ws.creator((0, 0, (kj + qj) % n))
                                   @ ws.creator((0, 0, (kpj - qj) % n))
                                   @ ws.annihilator((0, 0, kpj))
                                   @ ws.annihilator((0, 0, kj)))
               for qj in range(n) if v_q[qj] != 0.0
               for kj in range(n) for kpj in range(n)).tocsr()


def _torus_density_fluct(ws: FockWorkspace, n: int, qj: int) -> sp.csr_matrix:
    """Plain (sqrt2-convention) density fluctuation ``V^{-1/2} sum_k a*_{k+q} a_k``."""
    terms = [(1.0 / math.sqrt(ws.volume), (0, 0, (kj + qj) % n), (0, 0, kj))
             for kj in range(n)]
    return ws.transfer_operator(terms)


@dataclass(frozen=True)
class UCommutationReport:
    commutator_defect: float
    rewrite_defect: float
    wibg_commutator_norm: float


def u_density_commutator_check(params: ModelParams) -> UCommutationReport:
    """Check ``[U, F_q(N)] = 0`` and the quadratic rewrite of U on a torus.

    Builds the full two-body interaction on a 1-D momentum torus of 4
    modes (box side ``INTERACTION_BOX_SIDE``, at most 3 bosons each),
    verifies (i) that it commutes with the density fluctuation at
    ``q = 2 pi / L`` as a matrix identity below truncation, (ii) that it
    equals ``(1/2) sum_{q != 0} v(q) F_q F_{-q} + (v(0)/2V) N^2
    - (phi(0)/2) N`` with ``phi(0) = (1/V) sum_q v(q)``, and (iii) that
    the superfluid-truncated interaction does *not* commute with the
    density fluctuation.
    """
    n = 4
    ws = FockWorkspace(INTERACTION_BOX_SIDE, _torus_modes(n), 3)
    proj = ws.below_truncation_projector()
    u_full = _torus_interaction(ws, n, params.v)
    f_q = _torus_density_fluct(ws, n, 1)

    comm = u_full @ f_q - f_q @ u_full
    commutator_defect = _projected_norm(comm, proj)

    v_q = [params.v(abs(_torus_rep(qj, n)) * ws.spacing) for qj in range(n)]
    rewrite = sum(0.5 * v_q[qj] * (_torus_density_fluct(ws, n, qj)
                                   @ _torus_density_fluct(ws, n, (-qj) % n))
                  for qj in range(1, n))
    n_tot = ws.total_number()
    n_sq = n_tot @ n_tot
    phi0 = sum(v_q) / ws.volume
    rewrite = rewrite + (params.v(0.0) / (2.0 * ws.volume)) * n_sq - 0.5 * phi0 * n_tot
    rewrite_defect = _projected_norm(u_full - rewrite, proj)

    u_trunc = _torus_truncated_interaction(ws, n, params)
    comm_w = u_trunc @ f_q - f_q @ u_trunc
    wibg_norm = _projected_norm(comm_w, proj)
    return UCommutationReport(commutator_defect, rewrite_defect, wibg_norm)


def _torus_truncated_interaction(ws: FockWorkspace, n: int,
                                 params: ModelParams) -> sp.csr_matrix:
    """Superfluid-type truncated interaction (pairing + dressing) on the torus."""
    c = params.condensate_amplitude if params.condensate_amplitude != 0.0 else 1.0
    terms = []
    for kj in range(1, n):
        vk = params.v(abs(_torus_rep(kj, n)) * ws.spacing)
        pair = ws.creator((0, 0, kj)) @ ws.creator((0, 0, (-kj) % n))
        terms.append(0.5 * vk * c**2 * (pair + pair.conjugate().T)
                     + vk * c**2 * ws.number((0, 0, kj)))
    return sum(terms).tocsr()


def _projected_norm(op: sp.spmatrix, proj: sp.spmatrix) -> float:
    clipped = proj @ op @ proj
    if clipped.nnz == 0:
        return 0.0
    return float(math.sqrt(np.sum(np.abs(clipped.tocoo().data) ** 2)))


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
    proj = ws.below_truncation_projector(margin=2)
    v_q = params.v(float(np.linalg.norm(ws.k_phys(q))))
    vol = ws.volume

    def f_n0(mode_to, mode_from_sign):
        # F_{L,k}(N0) = V^{-1/2} (a*_k a_0 + a*_0 a_{-k})
        return (ws.creator(mode_to) @ ws.annihilator(ZERO)
                + ws.creator(ZERO) @ ws.annihilator(mode_from_sign)) / math.sqrt(vol)

    lhs = 0.5 * v_q * (f_n0(q, minus_q) @ f_n0(minus_q, q)
                       + f_n0(minus_q, q) @ f_n0(q, minus_q))

    a0, a0d = ws.annihilator(ZERO), ws.creator(ZERO)
    phi0p = 2.0 * v_q / vol  # (1/V) sum over the two nonzero modes
    plus_minus = ((q, minus_q), (minus_q, q))  # k = +q, -q
    written_out = sum(
        (0.5 * v_q / vol) * ((a0 @ a0d + a0d @ a0) @ ws.number(mode)
                             + (a0 @ a0) @ (ws.creator(mode) @ ws.creator(minus))
                             + (a0d @ a0d) @ (ws.annihilator(minus) @ ws.annihilator(mode)))
        for mode, minus in plus_minus)
    written_out = written_out + 0.5 * phi0p * (a0d @ a0)
    step1 = _projected_norm(lhs - written_out, proj)

    # c-substitution: a0 / sqrt(V) -> c on the written-out form
    c = params.condensate_amplitude
    pairs_up = {mode: ws.creator(mode) @ ws.creator(minus) for mode, minus in plus_minus}
    substituted = sum((0.5 * v_q) * (2.0 * c**2 * ws.number(mode)
                                     + c**2 * up + c**2 * up.conjugate().T)
                      for mode, up in pairs_up.items())
    substituted = substituted + 0.5 * phi0p * c**2 * vol * ws.identity()

    h = build_hamiltonian("wibg", ws, params)
    n_tot = ws.total_number()
    n_sq = n_tot @ n_tot
    target = (h - _kinetic(ws, params) - (params.v(0.0) / (2.0 * vol)) * n_sq
              + 0.5 * phi0p * c**2 * vol * ws.identity())
    step2 = _projected_norm(substituted - target, ws.identity())
    return step1, step2


# -- Goldstone closure -------------------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the Goldstone-pair closure check for one model.

    ``identity_defect`` is the worst below-truncation defect of the
    exact density-side commutator identity; ``secondary_defect`` the
    same for the order-parameter side (its exact remainder included).
    """

    model: str
    identity_defect: float
    secondary_defect: float
    remainder_norms: Tuple[float, ...]
    volumes: Tuple[float, ...]
    remainder_rate: PowerLawFit


def _imperfect_remainder(ws: FockWorkspace, params: ModelParams, q: Mode) -> sp.csr_matrix:
    """Exact non-oscillator part of ``i[H, A_q]`` for the mean-field gas.

    Direct commutation of ``-mu N + (lambda/2V) N^2`` with
    ``A = (i/2)(B* - B)``, ``B* = a*_q + a*_{-q}``, gives
    ``(mu/2) X - (lambda/4V)(N X + X N)`` with ``X = B* + B``, i.e.
    ``-(lambda/4V)[(N - rho V) X + X (N - rho V)]`` at ``mu = lambda rho``
    — a density-fluctuation term whose seminorm decays as ``V^{-1/2}``.
    """
    x_op = sum(_ladder_sums(ws, q))  # X = B* + B
    lam, mu, vol = params.coupling, params.chemical_potential, ws.volume
    n_tot = ws.total_number()
    return ((mu / 2.0) * x_op
            - (lam / (4.0 * vol)) * (n_tot @ x_op + x_op @ n_tot)).tocsr()


def _wibg_remainder(ws: FockWorkspace, params: ModelParams, q: Mode,
                    renorm: float) -> sp.csr_matrix:
    """Exact non-oscillator part of ``i[H(c), rho0_q]``.

    ``(i c^2 v(q) / (2 c sqrt(V))) [B*(a_0 - a*_0) + (a_0 - a*_0) B] * renorm``.
    This is the whole remainder: the ``(v(0)/2V) N^2`` term of H
    commutes with ``rho0_q``, which conserves the total particle number.
    """
    c = params.condensate_amplitude
    q_norm = float(np.linalg.norm(ws.k_phys(q)))
    g = params.c2v(q_norm)
    b_dag, b = _ladder_sums(ws, q)
    a0, a0d = ws.annihilator(ZERO), ws.creator(ZERO)
    diff = a0 - a0d
    pref = renorm * 1j * g / (2.0 * c * math.sqrt(ws.volume))
    return (pref * (b_dag @ diff + diff @ b)).tocsr()


def goldstone_closure_check(model: str, params: ModelParams) -> ClosureReport:
    """Matrix-level closure of the Goldstone pair dynamics.

    For each volume: (a) verifies two exact commutator identities (defects
    below truncation ~ 0), ``i[H, rho] = rho(eps-tilde) + R`` on the density
    side, where ``R = 0`` for the mean-field gas, and ``i[H, A]`` in closed
    form on the order-parameter side, which is ``-(eps_q/2) X + R`` for the
    mean-field gas; (b) records the state seminorm of the gas's remainder
    R, later fitted against volume (expected rate ``V^{-1/2}``). The physical wavevector ``q = pi`` is held fixed
    across the box sides 2, 4, 6 and 8, on each of whose lattices it sits,
    so the remainder decay isolates the volume scaling.
    """
    if model not in ("imperfect", "wibg"):
        raise ValueError(f"unknown model tag {model!r}")
    q_phys = math.pi
    eps_q = dispersion(q_phys, params)
    # the superfluid pair is rescaled: rho0 by |q|^{-1/2}, A by |q|^{1/2}
    renorm = 1.0 if model == "imperfect" else q_phys**-0.5
    identity_defect = 0.0
    secondary_defect = 0.0
    norms, volumes = [], []
    for box in (2.0, 4.0, 6.0, 8.0):
        q, minus_q = _plus_minus((0, 0, round(box / 2.0)))
        if model == "imperfect":
            amp = math.sqrt(params.condensate_density * box**3)
        else:
            amp = params.condensate_amplitude * math.sqrt(box**3)
        ws = FockWorkspace(box, [ZERO, q, minus_q],
                           {ZERO: coherent_cutoff(amp), q: 8, minus_q: 8})
        h = build_hamiltonian(model, ws, params)
        x_op = sum(_ladder_sums(ws, q))  # X = B* + B
        proj = ws.below_truncation_projector(margin=2)
        rho = condensate_fluct_matrix(ws, q, amp, renorm=renorm)
        # i[H, rho] = rho(eps~) + R; R = 0 for the mean-field gas, whose N-terms commute
        rho_rhs = condensate_fluct_matrix(ws, q, amp, f_q0=1j * eps_q, renorm=renorm)

        if model == "imperfect":
            state = FiniteState.coherent_vacuum(ws, amp)
            a_op = order_param_fluct_matrix(ws, q)
            remainder = _imperfect_remainder(ws, params, q)
            a_rhs = (-0.5 * eps_q) * x_op + remainder
        else:
            state = FiniteState.coherent_b_vacuum(ws, params, q, amp)
            # i[H, A] = -((eps + 2 c^2 v)/2) r X - (v(0) r / 4V)(N X + X N)
            r_a = math.sqrt(q_phys)
            a_op = order_param_fluct_matrix(ws, q, renorm=r_a)
            remainder = _wibg_remainder(ws, params, q, renorm)
            rho_rhs = rho_rhs + remainder
            n_tot = ws.total_number()
            a_rhs = (-(0.5 * (eps_q + 2.0 * params.c2v(q_phys)) * r_a) * x_op
                     - (params.v(0.0) * r_a / (4.0 * ws.volume))
                     * (n_tot @ x_op + x_op @ n_tot))
        identity_defect = max(identity_defect, _projected_norm(
            dynamics_commutator(h, rho) - rho_rhs, proj))
        secondary_defect = max(secondary_defect, _projected_norm(
            dynamics_commutator(h, a_op) - a_rhs, proj))
        norms.append(state.seminorm(remainder))
        volumes.append(box**3)

    return ClosureReport(
        model=model,
        identity_defect=identity_defect,
        secondary_defect=secondary_defect,
        remainder_norms=tuple(norms),
        volumes=tuple(volumes),
        remainder_rate=fit_power_law(list(zip(volumes, norms))),
    )
