"""Unit tests for the finite Fock-space workspace and matrix checks."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special
from scipy.sparse.linalg import expm_multiply, norm as sparse_norm

from bogoliubov_reference import half_angles
from bosefluct import fock
from bosefluct.asymptotics import fit_power_law
from bosefluct.checks import CheckContext, _bch_operators, run_check
from bosefluct.fock import (
    FiniteState,
    FockWorkspace,
    ZERO,
    Diagonals,
    LayeredOperator,
    _ladder_sums,
    appendix_bound,
    bch_defect,
    build_hamiltonian,
    clt_char_function,
    coherent_window,
    condensate_fluct_family,
    condensate_fluct_matrix,
    goldstone_closure_check,
    pair_block,
    pair_sectors,
    truncation_rederivation_check,
    u_density_commutator_check,
)
from bosefluct.model import ModelParams, bogoliubov_spectrum, dispersion, gas_table

Q = (0, 0, 1)
MQ = (0, 0, -1)


def imperfect_params(**kw):
    base = dict(mass=1.0, beta=math.inf, total_density=1.0,
                condensate_density=1.0, coupling=1.0)
    base.update(kw)
    return ModelParams(**base)


def wibg_params(c=1.0, v0=1.0):
    return ModelParams(mass=1.0, beta=math.inf, total_density=1.0,
                       condensate_density=c**2, condensate_amplitude=c,
                       v0=v0, kappa=2.0)


def kinetic(ws, params):
    """Diagonal kinetic energy ``sum_k eps_k n_k`` read from the occupation table."""
    eps = dispersion(np.array([ws.k_phys(m) for m in ws.modes]), params)
    return sp.diags(ws.occupations @ eps, format="csr")


def projected_norm(op, proj):
    """Frobenius norm of ``P op P`` from the two sparse products."""
    return sparse_norm(proj @ op @ proj)


class TestWorkspace:
    def test_dimension(self):
        ws = FockWorkspace(1.0, [ZERO, Q, MQ], 4)
        assert ws.dimension == 125

    def test_single_mode_ladder(self):
        ws = FockWorkspace(1.0, [Q], 1)
        a = ws.annihilator(Q).toarray()
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(ws.creator(Q).toarray(), a.T)

    def test_number_operator(self):
        ws = FockWorkspace(1.0, [Q], 5)
        n = ws.number(Q).toarray()
        assert np.allclose(n, np.diag(np.arange(6.0)))

    def test_ccr_below_truncation(self):
        ws = FockWorkspace(1.0, [ZERO, Q], 3)
        proj = ws.below_truncation_projector()
        for m1 in ws.modes:
            for m2 in ws.modes:
                a = ws.annihilator(m1)
                adag = ws.creator(m2)
                delta = 1.0 if m1 == m2 else 0.0
                comm = a @ adag - adag @ a - delta * ws.identity()
                assert projected_norm(comm, proj) == pytest.approx(0.0, abs=1e-13)

    def test_mixed_cutoffs(self):
        ws = FockWorkspace(2.0, [ZERO, Q], {ZERO: 5, Q: 2})
        assert ws.dimension == 18

    def test_ladders_match_kron_products(self):
        # a_k as I (x) a_local (x) I over the mode order: the assembly the diagonal replaces
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: 5, Q: 3, MQ: 2})
        dims = [6, 4, 3]
        for j, mode in enumerate(ws.modes):
            factors = [np.eye(d) for d in dims]
            factors[j] = np.diag(np.sqrt(np.arange(1.0, dims[j])), 1)
            expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
            assert np.array_equal(ws.annihilator(mode).toarray(), expected)
            assert np.array_equal(ws.creator(mode).toarray(), expected.T)

    def test_ladders_are_cached_per_workspace(self):
        window = {ZERO: (5, 12), Q: 3, MQ: 3}
        ws, other = FockWorkspace(1.0, [ZERO, Q, MQ], window), FockWorkspace(1.0, [ZERO, Q, MQ], 4)
        for m in ws.modes:
            assert ws._ladder(m) is ws._ladder(m)
            assert other._ladder(m) is not ws._ladder(m)
            assert abs(ws.creator(m) - ws.annihilator(m).conj().T).max() == 0.0
            assert abs(other.creator(m) - other.annihilator(m).conj().T).max() == 0.0
        assert ws._ladder(ZERO).n != other._ladder(ZERO).n

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            FockWorkspace(1.0, [ZERO, Q, MQ], 99)

    def test_coherent_window_grows(self):
        windows = [coherent_window(a) for a in (1.0, 3.0, 10.0)]
        assert windows == sorted(windows)
        assert all(lo < a * a < hi for (lo, hi), a in zip(windows, (1.0, 3.0, 10.0)))


class TestOccupationWindow:
    """A mode on the levels ``lo .. hi``: the coherent zero mode without its empty bottom."""

    WINDOW = (5, 12)

    def test_occupations_are_actual(self):
        ws = FockWorkspace(1.0, [Q, ZERO], {Q: 2, ZERO: self.WINDOW})
        assert ws.dimension == 3 * 8
        assert ws.windows == {Q: (0, 2), ZERO: self.WINDOW}
        assert np.array_equal(np.unique(ws.occupations[:, 1]), np.arange(5, 13))
        assert np.array_equal(ws.number(ZERO).diagonal(), ws.occupations[:, 1])

    def test_window_ladder_matches_kron_product(self):
        # the zero mode is the fast one: a_0 at n = lo would land in the block
        # of the next n_q; the zero weight keeps it inside the window
        ws = FockWorkspace(1.0, [Q, ZERO], {Q: 2, ZERO: self.WINDOW})
        lo, hi = self.WINDOW
        local = np.diag(np.sqrt(np.arange(lo + 1.0, hi + 1.0)), 1)
        assert np.array_equal(ws.annihilator(ZERO).toarray(), np.kron(np.eye(3), local))

    def test_ccr_away_from_both_edges(self):
        ws = FockWorkspace(1.0, [Q, ZERO], {Q: 3, ZERO: self.WINDOW})
        a0 = ws.annihilator(ZERO)
        comm = a0 @ ws.creator(ZERO) - ws.creator(ZERO) @ a0 - ws.identity()
        assert projected_norm(comm, ws.below_truncation_projector()) < 1e-13
        # the bottom edge is a truncation edge: there a*_0 a_0 misses n = lo
        bottom = sp.diags((ws.occupations[:, 1] == self.WINDOW[0]).astype(float))
        assert projected_norm(comm, bottom) > 1.0

    def test_projector_drops_both_edges(self):
        ws = FockWorkspace(1.0, [ZERO, Q], {ZERO: self.WINDOW, Q: 4})
        kept = ws.below_truncation_projector(margin=2).diagonal().astype(bool)
        n0, nq = ws.occupations.T
        assert np.array_equal(kept, (n0 >= 7) & (n0 <= 10) & (nq <= 2))

    @pytest.mark.parametrize("z_sq", [27.0, 500.0])
    def test_windowed_vacuum_is_the_full_range_one_restricted(self, z_sq):
        amp = -math.sqrt(z_sq)  # the sign alternates the coefficients
        lo, hi = coherent_window(amp)
        full = FiniteState.coherent_vacuum(FockWorkspace(1.0, [ZERO, Q], {ZERO: hi, Q: 2}), amp)
        windowed = FiniteState.coherent_vacuum(
            FockWorkspace(1.0, [ZERO, Q], {ZERO: (lo, hi), Q: 2}), amp)
        assert np.max(np.abs(windowed.vector - full.vector[3 * lo:])) < 1e-15

    @pytest.mark.parametrize("z_sq", [8, 27, 64, 216, 500, 512])
    def test_window_leaves_no_poisson_weight_below(self, z_sq):
        lo, hi = coherent_window(math.sqrt(z_sq))
        n = np.arange(lo)
        log_terms = n * math.log(z_sq) - z_sq - np.array([math.lgamma(k + 1.0) for k in n])
        assert np.logaddexp.reduce(log_terms) < math.log(1e-15)  # -inf when lo = 0
        assert 0 <= lo < z_sq < hi

    def test_vacuum_outside_the_window_refused(self):
        ws = FockWorkspace(1.0, [ZERO, Q], {ZERO: 4, Q: (1, 3)})
        with pytest.raises(ValueError, match="below its window"):
            FiniteState.coherent_vacuum(ws, 1.0)

    @pytest.mark.parametrize("levels", [(3, 2), (-1, 4)])
    def test_bad_window_refused(self, levels):
        with pytest.raises(ValueError, match="window"):
            FockWorkspace(1.0, [ZERO], levels)

    def test_leak_at_the_lower_edge_warns(self):
        # mean 9: on the levels 7 .. 40 the bottom level holds 12% of the state, and the
        # beam splitter a*_q a_0 + h.c. moves zero-mode bosons to q, which keeps 20 levels
        def char_function(levels):
            ws = FockWorkspace(1.0, [ZERO, Q], {ZERO: levels, Q: 20})
            hop = ws._ladder(Q).adjoint() @ ws._ladder(ZERO)
            f_op = laid_out(hop + hop.adjoint(), ws.occupations[:, 1])
            return clt_char_function(f_op, [0.5], FiniteState.coherent_vacuum(ws, 3.0))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            char_function(40)
        with pytest.warns(RuntimeWarning, match="truncation leakage"):
            char_function((7, 40))

class TestFiniteState:
    def test_coherent_occupation(self):
        ws = FockWorkspace(1.0, [ZERO], coherent_window(3.0))
        state = FiniteState.coherent_vacuum(ws, 3.0)
        assert state.expect(ws.number(ZERO)).real == pytest.approx(9.0, abs=1e-8)
        assert state.expect(ws.identity()) == pytest.approx(1.0)

    def test_thermal_cross_checks_wick(self):
        # mode with eps = ln 2 at beta = 1 has n = 1; <(a* a)^2> = 3
        params = ModelParams(mass=1.0 / (2.0 * math.log(2.0)), beta=1.0,
                             total_density=1.0, condensate_density=1.0)
        ws = FockWorkspace(2.0 * math.pi, [ZERO, Q], {ZERO: 12, Q: 45})
        state = FiniteState.coherent_thermal(ws, 1.0, 1.0, params)
        n_q = ws.number(Q)
        assert state.expect(n_q).real == pytest.approx(1.0, abs=1e-10)
        assert state.expect(n_q @ n_q).real == pytest.approx(3.0, abs=1e-9)

    def test_expect_keeps_the_imaginary_part(self):
        ws = FockWorkspace(1.0, [ZERO], coherent_window(3.0))
        state = FiniteState.coherent_vacuum(ws, 3.0)
        assert state.expect(1j * ws.annihilator(ZERO)) == pytest.approx(3j, abs=1e-8)
        flat = FiniteState(ws, probabilities=np.ones(ws.dimension))
        assert flat.expect(1j * ws.number(ZERO)) == pytest.approx(1j * np.mean(ws.occupations))

    def test_inner_matches_vdot(self):
        rng = np.random.default_rng(3)
        real = rng.standard_normal((2, 1000))
        cplx = real + 1j * rng.standard_normal((2, 1000))
        pairs = ((real[0], real[1]), (cplx[0], cplx[1]), (real[0], cplx[1]), (cplx[0], real[1]),
                 (cplx[0, ::2], cplx[1, ::2]))
        for a, b in pairs:
            expected = np.vdot(a, b)
            assert fock._inner(a, b) == pytest.approx(expected.real, rel=1e-12)
            assert fock._inner(1j * a, b) == pytest.approx(expected.imag, rel=1e-12)
        assert fock._norm(cplx[0]) == pytest.approx(np.linalg.norm(cplx[0]), rel=1e-14)
        assert fock._inner([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_state_constructor_validation(self):
        ws = FockWorkspace(1.0, [Q], 2)
        with pytest.raises(ValueError):
            FiniteState(ws)
        with pytest.raises(ValueError):
            FiniteState(ws, vector=np.ones(3), probabilities=np.ones(3))

    def test_seminorm_needs_pure_state(self):
        ws = FockWorkspace(1.0, [Q], 2)
        state = FiniteState(ws, probabilities=np.ones(3))
        with pytest.raises(ValueError):
            state.seminorm(ws.number(Q))

    def test_b_vacuum_annihilated(self):
        params = wibg_params()
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: 8, Q: 14, MQ: 14})
        state = FiniteState.coherent_b_vacuum(ws, params, Q, 1.0)
        k = np.linalg.norm(ws.k_phys(Q))
        cosh_a, sinh_a = half_angles(k * k / 2.0, params.c2v(k))
        b_op = cosh_a * ws.annihilator(Q) - sinh_a * ws.creator(MQ)
        assert state.seminorm(b_op) < 1e-6

    def test_b_vacuum_reproducible(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: 8, Q: 10, MQ: 10})
        first = FiniteState.coherent_b_vacuum(ws, wibg_params(), Q, 1.0)
        second = FiniteState.coherent_b_vacuum(ws, wibg_params(), Q, 1.0)
        assert np.array_equal(first.vector, second.vector)


class TestHamiltonians:
    def test_imperfect_diagonal(self):
        params = imperfect_params()
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        h = build_hamiltonian("imperfect", ws, params).tocsr()
        off_diag = h - sp.diags(h.diagonal())
        assert abs(off_diag).max() == 0.0
        kin = kinetic(ws, params).diagonal()
        n = ws.total_number().diagonal()
        mu, lam, vol = gas_table("imperfect", params).mu, params.coupling, ws.volume
        expected = kin - mu * n + lam / (2.0 * vol) * n**2
        assert np.allclose(h.diagonal(), expected)

    def test_imperfect_hamiltonian_from_pair_blocks(self):
        # the mean-field gas is the pairing-free case of the one formula
        params = imperfect_params()
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, (0, 1, 1), (0, -1, -1)], 2)
        n_tot = ws.total_number()
        expected = (kinetic(ws, params) - gas_table("imperfect", params).mu * n_tot
                    + params.coupling / (2.0 * ws.volume) * (n_tot @ n_tot))
        h = build_hamiltonian("imperfect", ws, params).tocsr()
        assert abs(h - expected).max() < 1e-12

    def test_wibg_self_adjoint(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 4)
        h = build_hamiltonian("wibg", ws, wibg_params()).tocsr()
        assert abs(h - h.conjugate().T).max() < 1e-14

    def test_wibg_conserves_zero_mode(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 4)
        h = build_hamiltonian("wibg", ws, wibg_params()).tocsr()
        n0 = ws.number(ZERO)
        assert abs(h @ n0 - n0 @ h).max() < 1e-13

    def test_wibg_free_limit(self):
        # c = 0 removes pairing and dressing: kinetic plus (v(0)/2V) N^2
        params = wibg_params(c=0.0)
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        h = build_hamiltonian("wibg", ws, params).tocsr()
        n = ws.total_number().diagonal()
        expected = kinetic(ws, params).diagonal() + params.v(0.0) / (2.0 * ws.volume) * n**2
        assert abs(h - sp.diags(expected)).max() < 1e-14

    def test_wibg_two_pairs_against_per_pair_sum(self):
        params = wibg_params()
        q2, mq2 = (0, 1, 1), (0, -1, -1)
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, q2, mq2], 2)
        h = build_hamiltonian("wibg", ws, params).tocsr()
        # reference: kinetic term plus the c^2 v dressing and pairing written out per pair
        n_tot = ws.total_number()
        expected = kinetic(ws, params) + params.v(0.0) / (2.0 * ws.volume) * (n_tot @ n_tot)
        for k, mk in ((Q, MQ), (q2, mq2)):
            g = params.c2v(float(np.linalg.norm(ws.k_phys(k))))
            pair = ws.creator(k) @ ws.creator(mk)
            expected = expected + g * (ws.number(k) + ws.number(mk) + pair + pair.conjugate().T)
        assert abs(h - expected).max() < 1e-12

    def test_wibg_needs_mode_pairs(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, (0, 1, 1)], 2)
        with pytest.raises(ValueError, match="mode pairs"):
            build_hamiltonian("wibg", ws, wibg_params())

    def test_imperfect_needs_mode_pairs(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, (0, 1, 1)], 2)
        with pytest.raises(ValueError, match="mode pairs"):
            build_hamiltonian("imperfect", ws, imperfect_params())

    def test_pair_block_gap_matches_spectrum(self):
        params = wibg_params()
        ws = FockWorkspace(2.0, [Q, MQ], 24)
        k = np.linalg.norm(ws.k_phys(Q))
        block = pair_block(ws, Q, k * k / 2.0, params.c2v(k)).tocsr().toarray()
        vals = np.linalg.eigvalsh(block)
        expected = bogoliubov_spectrum(k * k / 2.0, params.c2v(k))
        assert vals[1] - vals[0] == pytest.approx(expected, abs=1e-8)

    def test_pair_block_is_linear(self):
        ws = FockWorkspace(2.0 * math.pi, [Q, MQ], 20)
        eps, g = 1.37, 0.58
        block = pair_block(ws, Q, eps, g).tocsr()
        combined = (eps * pair_block(ws, Q, 1.0, 0.0).tocsr()
                    + g * pair_block(ws, Q, 0.0, 1.0).tocsr())
        assert abs(block - combined).max() <= 1e-14 * abs(block).max()

    def test_unknown_model(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 2)
        with pytest.raises(ValueError):
            build_hamiltonian("ideal", ws, imperfect_params())


class TestFluctuationMatrices:
    def test_self_adjointness(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        for f, g in ((0.0, 1.0), (1.0, 0.0), (0.4 - 0.9j, 0.0), (0.4 - 0.9j, -0.7 + 0.2j)):
            op = condensate_fluct_matrix(ws, Q, 1.3, f_q0=f, g_q0=g).tocsr()
            assert abs(op - op.conjugate().T).max() < 1e-14

    @pytest.mark.parametrize("box", [2.0, 3.0, 5.0])
    def test_builder_matches_density_k_sum(self, box):
        # the mean-field density fluctuation summed over the (k +- q, k) pairs of the mode set
        params = imperfect_params()
        amp = math.sqrt(params.condensate_density * box**3)
        ws = FockWorkspace(box, [ZERO, Q, MQ], {ZERO: 12, Q: 4, MQ: 4})
        eps = {k: dispersion(ws.k_phys(k), params) for k in ws.modes}
        for f, smear in ((1.0, lambda k_to, k: 1.0),
                         (0.3 - 0.8j, lambda k_to, k: 0.3 - 0.8j if k == ZERO else 0.3 + 0.8j),
                         (1j * eps[Q], lambda k_to, k: 1j * (eps[k_to] - eps[k]))):
            expected = density_k_sum(ws, amp, smear).tocsr()
            builder = condensate_fluct_matrix(ws, Q, amp, f_q0=f).tocsr()
            assert abs(builder - expected).max() <= 1e-15 * abs(expected).max()

    def test_builder_needs_amplitude(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 2)
        with pytest.raises(ValueError, match="amplitude"):
            condensate_fluct_matrix(ws, Q, 0.0, f_q0=1.0)

    def test_builder_refuses_zero_smearing(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 2)
        with pytest.raises(ValueError, match="smearing"):
            condensate_fluct_matrix(ws, Q, 1.3)

    def test_order_parameter_half_written_out(self):
        # (i/2)[g B* - conj(g) B]: no zero-mode operator, so no amplitude enters
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        g = 0.6 + 0.3j
        expected = 0.5j * (g * (ws.creator(Q) + ws.creator(MQ))
                           - np.conj(g) * (ws.annihilator(Q) + ws.annihilator(MQ)))
        for amp in (1.3, 7.0):
            assert abs(condensate_fluct_matrix(ws, Q, amp, g_q0=g).tocsr() - expected).max() < 1e-15

    def test_both_smearings_add_the_two_halves(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        f, g = 0.4 - 0.9j, -0.7 + 0.2j
        both = condensate_fluct_matrix(ws, Q, 1.3, f_q0=f, g_q0=g).tocsr()
        halves = (condensate_fluct_matrix(ws, Q, 1.3, f_q0=f).tocsr()
                  + condensate_fluct_matrix(ws, Q, 1.3, g_q0=g).tocsr())
        assert abs(both - halves).max() == 0.0

    def test_family_matches_builder(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: (3, 14), Q: 4, MQ: 4})
        amp = 3.0
        family = condensate_fluct_family(ws, Q, amp)
        rng = np.random.default_rng(3)
        draws = [complex(*rng.uniform(-1, 1, 2)) for _ in range(8)]
        smearings = list(zip(draws[::2], draws[1::2])) + [(draws[0], 0.0), (0.0, draws[1])]
        for f, g in smearings:
            built = condensate_fluct_matrix(ws, Q, amp, f_q0=f, g_q0=g).tocsr()
            assert abs(workspace_matrix(family(f, g)) - built).max() <= 1e-15
        with pytest.raises(ValueError, match="smearing"):
            family(0.0, 0.0)

    def test_family_refuses_the_zero_mode(self):
        # at q = 0 the parts keep n_0 or move it by one: G = 2 n_0 moves by 0 or 2
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: (3, 14), Q: 4, MQ: 4})
        with pytest.raises(ValueError, match="grade by exactly one"):
            condensate_fluct_family(ws, ZERO, 3.0)

    def test_family_needs_amplitude(self):
        family = condensate_fluct_family(FockWorkspace(2.0, [ZERO, Q, MQ], 2), Q, 0.0)
        with pytest.raises(ValueError, match="amplitude"):
            family(1.0, 0.0)

    def test_free_mode_commutator(self):
        # i[eps a* a, i(a* - a)] = -eps (a* + a)
        eps = 0.7
        ws = FockWorkspace(1.0, [Q], 10)
        h = eps * ws.number(Q)
        a_op = 1j * (ws.creator(Q) - ws.annihilator(Q))
        expected = -eps * (ws.creator(Q) + ws.annihilator(Q))
        defect = 1j * (h @ a_op - a_op @ h) - expected
        proj = ws.below_truncation_projector()
        assert projected_norm(defect, proj) == pytest.approx(0.0, abs=1e-12)


class TestBchAndClt:
    def test_scalar_commutator_exact(self):
        # quadrature pair: [F1, F2] is a scalar, BCH closes with no defect
        ws = FockWorkspace(1.0, [Q], 60)
        x = (ws.creator(Q) + ws.annihilator(Q)) / math.sqrt(2.0)
        p = 1j * (ws.creator(Q) - ws.annihilator(Q)) / math.sqrt(2.0)
        state = FiniteState.coherent_vacuum(ws, 0.0)
        assert bch_defect(x, p, state) < 1e-10

    def test_bound_dominates_defect(self):
        ws = FockWorkspace(1.0, [Q], 40)
        x = ws.creator(Q) + ws.annihilator(Q)
        p = 1j * (ws.creator(Q) - ws.annihilator(Q))
        f1 = 0.3 * (x @ x)
        f2 = 0.3 * p
        state = FiniteState.coherent_vacuum(ws, 0.0)
        defect = bch_defect(f1, f2, state)
        assert defect > 1e-6  # genuinely non-closing pair
        assert defect <= appendix_bound(f1, f2, state)

    @pytest.mark.parametrize("box", [2.0, 3.0])
    def test_bound_matches_operator_products(self, box):
        state, rho, a_op = _bch_operators(CheckContext().imperfect_ground, box)
        assert appendix_bound(rho, a_op, state) == pytest.approx(
            operator_product_bound(rho.tocsr(), a_op.tocsr(), state), rel=1e-12, abs=0.0)

    def test_bound_is_the_maximum_over_a_fine_grid(self):
        # || t S + O || is convex in t: its ends hold the maximum of 101 points on [0, 1]
        state, rho, a_op = _bch_operators(CheckContext().imperfect_ground, 2.0)
        fine = operator_product_bound(rho.tocsr(), a_op.tocsr(), state, np.linspace(0.0, 1.0, 101))
        assert appendix_bound(rho, a_op, state) == pytest.approx(fine, rel=1e-12, abs=0.0)

    def test_bound_needs_pure_state(self):
        ws = FockWorkspace(1.0, [Q], 3)
        state = FiniteState(ws, probabilities=np.ones(4))
        with pytest.raises(ValueError, match="pure state"):
            appendix_bound(ws.number(Q), ws.creator(Q) + ws.annihilator(Q), state)

    def test_single_quadrature_gaussian(self):
        ws = FockWorkspace(1.0, [Q], 50)
        f_op = laid_out(quadrature(ws, Q) * 2.0**-0.5, ws.occupations[:, 0])
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = np.linspace(0.0, 2.0, 9)
        values = clt_char_function(f_op, t_grid, state)
        assert np.allclose(values, np.exp(-t_grid**2 / 4.0), atol=1e-12)

    def test_leakage_warning(self):
        ws = FockWorkspace(1.0, [Q], 3)
        f_op = laid_out(quadrature(ws, Q), ws.occupations[:, 0])
        state = FiniteState.coherent_vacuum(ws, 0.0)
        with pytest.warns(RuntimeWarning):
            clt_char_function(f_op, [3.0], state)


class TestChebyshevPropagator:
    """``fock.expm_multiply``: the Chebyshev series of ``e^{iH}`` that ``bch_defect`` uses."""

    @pytest.mark.parametrize("box", [2.0, 3.0, 4.0])
    def test_matches_scipy_on_the_bch_operands(self, box):
        state, rho, a_op = _bch_operators(CheckContext().imperfect_ground, box)
        comm = rho @ a_op - a_op @ rho
        for exponent in (1j * rho, 1j * a_op, 1j * (rho + a_op), -0.5 * comm):
            generator = exponent.tocsr()
            expected = expm_multiply(generator, state.vector)
            got = fock.expm_multiply(generator, state.vector)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_expm_on_random_skew_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) * (3.0 * seed + 0.5) / n + np.diag(rng.uniform(-5.0, 5.0, n))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = scipy.linalg.expm(1j * h) @ v
        got = fock.expm_multiply(sp.csr_matrix(1j * h), v)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 13.9, 20.0])
    def test_miller_bessel_values_and_truncation(self, x):
        bessel = fock._bessel_series(x)
        reference = scipy.special.jv(np.arange(len(bessel) + 60), x)
        assert np.max(np.abs(bessel - reference[:len(bessel)])) < 1e-15
        assert 2.0 * np.sum(np.abs(reference[len(bessel):])) < 2.0**-53
        assert 2.0 * np.sum(np.abs(reference[len(bessel) - 1:])) >= 2.0**-53  # the first such order

    def test_zero_generator_returns_the_vector(self):
        v = np.random.default_rng(1).standard_normal(6) + 1j
        assert np.array_equal(fock.expm_multiply(sp.csr_matrix((6, 6), dtype=complex), v), v)

    def test_diagonal_shift_is_a_phase(self):
        v = np.random.default_rng(2).standard_normal(6) + 1j
        got = fock.expm_multiply(sp.identity(6, format="csr") * 0.7j, v)
        assert np.array_equal(got, complex(math.cos(0.7), math.sin(0.7)) * v)


def density_k_sum(ws, amp, smear):
    """``(1/2z) sum_k [f(k+q, k) a*_{k+q} a_k + f(k-q, k) a*_{k-q} a_k]`` over the mode set."""
    modes = set(ws.modes)
    terms = []
    for k in ws.modes:
        for shift in (Q, MQ):
            k_to = tuple(a + b for a, b in zip(k, shift))
            if k_to in modes:
                terms.append((smear(k_to, k) / (2.0 * amp), k_to, k))
    return ws.transfer_operator(terms)


def operator_product_bound(f1, f2, state, times=np.linspace(0.0, 1.0, 5)):
    """The double commutators as sparse operator products, the route appendix_bound
    replaces, at the given t values."""
    comm = (f2 @ f1 - f1 @ f2).tocsr()
    worst = 0.0
    for t in times:
        inner = (t * f1 + f2).tocsr()
        double = comm @ inner - inner @ comm
        worst = max(worst, state.seminorm(double))
    return math.sqrt(4.0 * worst / 3.0)


def reference_char_function(f_op, t_grid, state):
    """One ``expm_multiply`` per t: the route the Lanczos quadrature replaces."""
    gen = (1j * f_op).tocsr()
    return np.array([np.vdot(state.vector, expm_multiply(t * gen, state.vector))
                     for t in t_grid])


def quadrature(ws, mode):
    """``a_k + a*_k`` as :class:`Diagonals`."""
    a = ws._ladder(mode)
    return a + a.adjoint()


def laid_out(op, grade):
    """:class:`Diagonals` that move ``grade`` by one as a :class:`LayeredOperator`."""
    return LayeredOperator.lay_out(sorted(op.diagonals.items()), grade)


def layered_matrix(op):
    """A :class:`LayeredOperator` as a CSR matrix on its positions."""
    n = len(op.order)
    rows = np.broadcast_to(np.arange(n), op.columns.shape)
    return sp.csr_matrix((op.values.ravel(), (rows.ravel(), op.columns.ravel())), shape=(n, n))


def workspace_matrix(op):
    """A :class:`LayeredOperator` as a sparse matrix in the workspace basis."""
    position = np.argsort(op.order)
    return layered_matrix(op)[position][:, position]


def reduced_clt_case(seed):
    """The clt check's operator, from :func:`condensate_fluct_family` as in the check, its
    state and its t-grid on a smaller workspace."""
    rho0, box = 4.0, 3.0
    amp = math.sqrt(rho0 * box**3)
    ws = FockWorkspace(box, [ZERO, Q, MQ],
                       {ZERO: coherent_window(amp), Q: 6, MQ: 6})
    state = FiniteState.coherent_vacuum(ws, amp)
    rng = np.random.default_rng(seed)
    f, g = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
    f_op = condensate_fluct_family(ws, Q, amp)(f, g)
    t_grid = np.linspace(0.0, 1.5 / math.sqrt(0.5 * abs(f + 1j * g) ** 2), 7)[1:]
    return f_op, t_grid, state


class TestPairGrades:
    """The pair occupations ``n_q``, ``n_{-q}``: the sectors of their difference, which
    ``pair_block`` conserves, and the grade layers of their sum, which ``F(f, g)`` moves by one."""

    def test_pair_sectors_hold_the_dense_spectrum(self):
        ws = FockWorkspace(2.0 * math.pi, [Q, MQ], 20)
        sectors = pair_sectors(ws, Q)
        assert sorted(sectors) == list(range(-20, 21))
        assert np.array_equal(np.sort(np.concatenate(list(sectors.values()))),
                              np.arange(ws.dimension))
        for eps, g, *_ in run_check("spectrum").rows[:5]:
            block = pair_block(ws, Q, eps, g).tocsr()
            dense = np.linalg.eigvalsh(block.toarray())
            pieces = np.sort(np.concatenate([np.linalg.eigvalsh(block[idx][:, idx].toarray())
                                             for idx in sectors.values()]))
            assert np.max(np.abs(pieces - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_layout_has_the_two_parities_of_the_pair_grade(self):
        f_op, _, state = reduced_clt_case(0)
        ws = state.workspace
        grade = ws.occupations[:, 1] + ws.occupations[:, 2]
        n_even = np.count_nonzero(grade % 2 == 0)
        assert np.array_equal(f_op.starts, [0, n_even, ws.dimension])
        assert np.array_equal(np.sort(f_op.order), np.arange(ws.dimension))
        assert np.array_equal(grade[f_op.order], f_op.grades)
        for block in np.split(f_op.grades, [n_even]):
            assert np.all(np.diff(block) >= 0) and len(set(block % 2)) == 1
        assert f_op.span(0) == (0, np.count_nonzero(grade == 0))
        assert f_op.span(3) == (n_even, n_even + np.count_nonzero((grade % 2 == 1) & (grade <= 3)))
        # every entry joins the two parities
        rows, cols = layered_matrix(f_op).nonzero()
        assert np.all((rows < n_even) != (cols < n_even))

    def test_rows_of_a_span_are_rows_of_the_matrix(self):
        f_op, _, _ = reduced_clt_case(0)
        whole = layered_matrix(f_op)
        rng = np.random.default_rng(4)
        vector = rng.standard_normal(whole.shape[0]) + 1j * rng.standard_normal(whole.shape[0])
        for k in range(8):
            lo, hi = f_op.span(k)
            assert np.max(np.abs(f_op.image(vector, lo, hi) - whole[lo:hi] @ vector),
                          initial=0.0) < 1e-14


class TestLayeredLanczos:
    """The family's operator, laid out by the pair grade ``G = n_q + n_{-q}``: each Lanczos
    step works on the rows of one parity of ``G`` that its Krylov row can reach."""

    @staticmethod
    def char_function(f_op, t_grid, state):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # pair cutoff 6 leaks
            return clt_char_function(f_op, t_grid, state)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_expm(self, seed):
        f_op, t_grid, state = reduced_clt_case(seed)
        reference = reference_char_function(workspace_matrix(f_op), t_grid, state)
        assert np.max(np.abs(self.char_function(f_op, t_grid, state) - reference)) < 1e-12

    def test_matches_expm_at_eight_times_the_t_grid(self):
        # about 49 steps with no reorthogonalization
        f_op, t_grid, state = reduced_clt_case(0)
        reference = reference_char_function(workspace_matrix(f_op), 8.0 * t_grid, state)
        assert np.max(np.abs(self.char_function(f_op, 8.0 * t_grid, state) - reference)) < 1e-12

    def test_lay_out_refuses_the_zero_mode(self):
        # a_0 moves G = 2 n_0 by two and a*_0 a_0 keeps it
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: (3, 14), Q: 4, MQ: 4})
        a_0 = ws._ladder(ZERO)
        for part in (a_0, a_0.adjoint() @ a_0):
            with pytest.raises(ValueError, match="grade by exactly one"):
                laid_out(part, 2 * ws.occupations[:, 0])

    def test_repeated_calls_are_bit_identical(self):
        f_op, t_grid, state = reduced_clt_case(1)
        first = self.char_function(f_op, t_grid, state)
        assert np.array_equal(first, self.char_function(f_op, t_grid, state))

    def test_matches_expm_on_random_grade_moving_weights(self):
        # random weights on the entries of a_q, a*_0 a_q and a_0 a_q, plus the adjoint
        ws = FockWorkspace(2.0, [ZERO, Q], 20)
        rng = np.random.default_rng(5)
        a_0, a_q = ws._ladder(ZERO), ws._ladder(Q)
        lowering = sum(Diagonals(ws.dimension, {o: d * (rng.normal(size=ws.dimension)
                                                        + 1j * rng.normal(size=ws.dimension))
                                                for o, d in part.diagonals.items()})
                       for part in (a_q, a_0.adjoint() @ a_q, a_0 @ a_q))
        f_op = laid_out(lowering + lowering.adjoint(), ws.occupations[:, 1])
        vec = np.where(ws.occupations[:, 1] == 0, rng.normal(size=ws.dimension)
                       + 1j * rng.normal(size=ws.dimension), 0.0)
        state = FiniteState(ws, vector=vec)
        t_grid = np.linspace(0.0, 1.0, 6)
        reference = reference_char_function(workspace_matrix(f_op), t_grid, state)
        assert np.max(np.abs(self.char_function(f_op, t_grid, state) - reference)) < 1e-12

    def test_two_level_breakdown_is_exact(self, monkeypatch):
        # F = a + a* on levels {0, 1}: the Krylov space closes at step 2
        monkeypatch.setattr(fock, "LANCZOS_MAX_STEPS", 2)
        ws = FockWorkspace(1.0, [Q], 1)
        f_op = laid_out(quadrature(ws, Q), ws.occupations[:, 0])
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = np.linspace(0.0, 3.0, 7)
        with pytest.warns(RuntimeWarning):  # the top level is level 1
            values = clt_char_function(f_op, t_grid, state)
        assert np.max(np.abs(values - np.cos(t_grid))) < 1e-15

    def test_one_level_has_an_empty_odd_block(self):
        # a + a* vanishes on the vacuum alone: omega(e^{itF}) = 1
        ws = FockWorkspace(1.0, [Q], 0)
        f_op = laid_out(quadrature(ws, Q), ws.occupations[:, 0])
        assert np.array_equal(f_op.starts, [0, 1, 1])
        values = self.char_function(f_op, [0.5, 2.0], FiniteState.coherent_vacuum(ws, 0.0))
        assert np.array_equal(values, [1.0, 1.0])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fock, "LANCZOS_MAX_STEPS", 3)
        f_op, t_grid, state = reduced_clt_case(0)
        with pytest.raises(RuntimeError, match="not converged"):
            self.char_function(f_op, t_grid, state)

    def test_step_cap_raises_on_a_quadrature(self, monkeypatch):
        monkeypatch.setattr(fock, "LANCZOS_MAX_STEPS", 3)
        ws = FockWorkspace(1.0, [Q], 50)
        f_op = laid_out(quadrature(ws, Q) * 2.0**-0.5, ws.occupations[:, 0])
        state = FiniteState.coherent_vacuum(ws, 0.0)
        with pytest.raises(RuntimeError, match="not converged"):
            clt_char_function(f_op, [2.0], state)

    def test_leak_warns(self):
        f_op, t_grid, state = reduced_clt_case(0)
        with pytest.warns(RuntimeWarning, match="truncation leakage"):
            clt_char_function(f_op, t_grid, state)

    def test_leak_only_at_largest_time_warns(self):
        ws = FockWorkspace(2.0, [ZERO, Q], 8)
        f_op = laid_out(quadrature(ws, Q) + 0.3 * quadrature(ws, ZERO), ws.totals().astype(int))
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = [0.25, 0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clt_char_function(f_op, t_grid[:-1], state)
        with pytest.warns(RuntimeWarning, match="truncation leakage"):
            clt_char_function(f_op, t_grid, state)

    def test_leak_is_the_edge_weight_of_the_evolved_state(self, monkeypatch):
        f_op, t_grid, state = reduced_clt_case(0)
        gen = (1j * workspace_matrix(f_op)).tocsr()
        edge = ~state.workspace.interior()
        worst = max(np.sum(np.abs(expm_multiply(t * gen, state.vector)[edge]) ** 2)
                    for t in t_grid)
        for factor, warns in ((0.999, True), (1.001, False)):
            monkeypatch.setattr(fock, "LEAK_TOL", factor * worst)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                clt_char_function(f_op, t_grid, state)
            assert any("truncation leakage" in str(w.message) for w in caught) == warns

    def test_state_off_the_lowest_layer_refused(self):
        f_op, t_grid, state = reduced_clt_case(0)
        ws = state.workspace
        shifted = FiniteState(ws, vector=(ws.creator(Q) @ state.vector))
        with pytest.raises(ValueError, match="lowest layer"):
            clt_char_function(f_op, t_grid, shifted)


def goldstone_box_2(model):
    """The ``[0, q, -q]`` workspace, couplings and amplitude of a gas's Goldstone check at box 2."""
    params = CheckContext().ground(model)
    amp = gas_table(model, params).amplitude(8.0)
    ws = FockWorkspace(2.0, [ZERO, Q, MQ], {ZERO: coherent_window(amp), Q: 8, MQ: 8})
    return ws, params, amp


STRIDE_WORKSPACES = {
    "window": lambda: (FockWorkspace(1.0, [ZERO, Q, MQ], {ZERO: (2, 9), Q: 3, MQ: 3}), None, 1.3),
    "imperfect": lambda: goldstone_box_2("imperfect"),
    "wibg": lambda: goldstone_box_2("wibg"),
}


@pytest.mark.parametrize("case", sorted(STRIDE_WORKSPACES))
class TestStrideDiagonals:
    """Operators as stride diagonals equal the CSR products of the same ladder operators,
    on a zero-mode window with ``lo > 0`` and on the Goldstone layout of both gases."""

    @staticmethod
    def operators(ws):
        """Sums of ladder words as diagonals and as CSR: ``B*``, ``B``, ``a_0 - a*_0``,
        ``N`` and a complex combination of words of length one to three."""
        b_dag, b = _ladder_sums(ws, Q)
        diff = ws._ladder(ZERO) - ws._ladder(ZERO).adjoint()
        n_tot = Diagonals.diag(ws.totals())
        mixed = (0.3 - 1.1j) * b_dag @ ws._ladder(ZERO) + 0.7 * diff @ b @ b - 2.0j * n_tot
        csr_b_dag = ws.creator(Q) + ws.creator(MQ)
        csr_b = ws.annihilator(Q) + ws.annihilator(MQ)
        csr_diff = ws.annihilator(ZERO) - ws.creator(ZERO)
        csr_mixed = ((0.3 - 1.1j) * csr_b_dag @ ws.annihilator(ZERO)
                     + 0.7 * csr_diff @ csr_b @ csr_b - 2.0j * ws.total_number())
        return ([b_dag, b, diff, n_tot, mixed],
                [csr_b_dag, csr_b, csr_diff, ws.total_number(), csr_mixed])

    def test_ladder_is_the_annihilator(self, case):
        ws, *_ = STRIDE_WORKSPACES[case]()
        for m in ws.modes:
            assert abs(ws._ladder(m).tocsr() - ws.annihilator(m)).max() == 0.0
            assert abs(ws._ladder(m).adjoint().tocsr() - ws.creator(m)).max() == 0.0

    def test_products_sums_and_adjoints(self, case):
        ws, *_ = STRIDE_WORKSPACES[case]()
        ops, csrs = self.operators(ws)
        for (x, y), (cx, cy) in zip(itertools.product(ops, repeat=2),
                                    itertools.product(csrs, repeat=2)):
            scale = abs(cx @ cy).max()
            assert abs((x @ y).tocsr() - cx @ cy).max() <= 1e-15 * scale
            assert abs((x + y).tocsr() - (cx + cy)).max() == 0.0
            assert abs((x - 0.5j * y).tocsr() - (cx - 0.5j * cy)).max() == 0.0
        for x, cx in zip(ops, csrs):
            assert abs(x.adjoint().tocsr() - cx.conj().T).max() == 0.0

    def test_the_number_anticommutator(self, case):
        ws, *_ = STRIDE_WORKSPACES[case]()
        b_dag, b = _ladder_sums(ws, Q)
        x_op, n_tot = b_dag + b, Diagonals.diag(ws.totals())
        csr_x = ws.creator(Q) + ws.creator(MQ) + ws.annihilator(Q) + ws.annihilator(MQ)
        csr_n = ws.total_number()
        expected = csr_n @ csr_x + csr_x @ csr_n
        assert abs((n_tot @ x_op + x_op @ n_tot).tocsr() - expected).max() == 0.0

    def test_image_and_projected_norm(self, case):
        ws, *_ = STRIDE_WORKSPACES[case]()
        rng = np.random.default_rng(3)
        vec = rng.normal(size=ws.dimension) + 1j * rng.normal(size=ws.dimension)
        for x, cx in zip(*self.operators(ws)):
            # the CSR row sum runs in the order of its stored columns, which a product leaves
            # unsorted: equal up to the rounding of the largest row of |x| |vec|
            assert np.max(np.abs(x @ vec - cx @ vec)) <= 1e-15 * np.max(abs(cx) @ abs(vec))
            # the same sums as the whole rolled vector times each diagonal, in offset order
            rolled = sum(d * np.roll(vec, -o) for o, d in sorted(x.diagonals.items()))
            assert np.array_equal(x @ vec, rolled)
            for margin in (0, 1, 2):
                expected = projected_norm(cx, ws.below_truncation_projector(margin))
                assert x.projected_norm(ws.interior(margin)) == pytest.approx(expected, rel=1e-14)

    def test_powers_past_the_edge_hold_no_diagonal(self, case):
        # ZERO is the slowest mode, so a_0^d, d the size of its window, has offset n: a
        # product keeps no diagonal there, and an operator without one still maps and converts
        ws, *_ = STRIDE_WORKSPACES[case]()
        lo, hi = ws.windows[ZERO]
        d, a, csr_a = hi - lo + 1, ws._ladder(ZERO), ws.annihilator(ZERO)
        powers, csr_power = [a], csr_a  # powers[k] is a_0^(k + 1)
        while len(powers) < 2 * d:
            powers.append(powers[-1] @ a)
        for _ in range(d - 2):
            csr_power = csr_power @ csr_a
        assert abs(powers[d - 2].tocsr() - csr_power).max() == 0.0 < csr_power.max()
        assert [p.diagonals for p in powers[d - 1:]] == [{}] * (d + 1)
        past = powers[-1] @ powers[-1]
        assert past.diagonals == {} and past.tocsr().nnz == 0
        vec = np.arange(ws.dimension) + 1.0j
        assert np.array_equal(powers[-1] @ vec, np.zeros(ws.dimension, dtype=complex))

    def test_builders_give_the_csr_of_the_ladder_products(self, case):
        ws, params, amp = STRIDE_WORKSPACES[case]()
        for model in (("imperfect", "wibg") if params is None else (case,)):
            params_m = params or CheckContext().ground(model)
            table = gas_table(model, params_m)
            k = ws.k_norm(Q)
            g, n_q = table.g(k), ws.number(Q) + ws.number(MQ)
            pair = ws.creator(Q) @ ws.creator(MQ)
            n_sq = sp.diags(ws.totals() ** 2, format="csr")
            expected = ((dispersion(k, params_m) + g) * n_q + g * (pair + pair.conjugate().T)
                        + (table.u / (2.0 * ws.volume)) * n_sq - table.mu * ws.total_number())
            assert abs(build_hamiltonian(model, ws, params_m).tocsr() - expected).max() == 0.0
        b_dag, b = ws.creator(Q) + ws.creator(MQ), ws.annihilator(Q) + ws.annihilator(MQ)
        f, g = 0.4 - 0.9j, -0.7 + 0.2j
        norm = 1.0 / (2.0 * amp)
        expected = ((norm * f) * (b_dag @ ws.annihilator(ZERO))
                    + (norm * f.conjugate()) * (ws.creator(ZERO) @ b)
                    + (0.5j * g) * b_dag + (-0.5j * g.conjugate()) * b)
        assert abs(condensate_fluct_matrix(ws, Q, amp, f_q0=f, g_q0=g).tocsr()
                   - expected).max() == 0.0


class TestInteractionStructure:
    def test_full_interaction_commutes(self):
        commutator, rewrite, wibg_norm = u_density_commutator_check(wibg_params(), 2.0)
        assert commutator < 1e-10
        assert rewrite < 1e-10
        assert wibg_norm > 1e-3

    def test_commutation_refuses_zero_condensate(self):
        # c = 0 used to pass silently with the truncated interaction at c = 1
        with pytest.raises(ValueError, match="nonzero condensate amplitude"):
            u_density_commutator_check(wibg_params(c=0.0), 2.0)

    def test_truncation_rederivation(self):
        step1, step2 = truncation_rederivation_check(wibg_params())
        assert step1 < 1e-10
        assert step2 < 1e-10

    def test_truncation_zero_condensate(self):
        step1, step2 = truncation_rederivation_check(wibg_params(c=0.0))
        assert step1 < 1e-10
        assert step2 < 1e-10


class TestGoldstoneClosure:
    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("wibg", wibg_params()),
    ])
    def test_closure(self, model, params):
        self.assert_closes(goldstone_closure_check(model, params))

    @staticmethod
    def assert_closes(report):
        assert report.identity_defect < 1e-10
        assert report.secondary_defect < 1e-8
        assert max(report.identity_relative, report.secondary_relative) < 2e-15
        assert report.remainder_norms[0] > report.remainder_norms[-1]
        rate = fit_power_law(list(zip(report.volumes, report.remainder_norms)))
        assert rate == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("wibg", wibg_params()),
    ])
    def test_closure_makes_no_sparse_product(self, model, params, monkeypatch):
        # every operator of the check is a sum of stride diagonals: no CSR x CSR product
        def refuse(*args, **kwargs):
            raise AssertionError("sparse x sparse product")
        monkeypatch.setattr(sp._compressed._cs_matrix, "_matmul_sparse", refuse)
        ws = FockWorkspace(1.0, [Q], 2)
        with pytest.raises(AssertionError, match="sparse x sparse"):  # the patch holds
            ws.creator(Q) @ ws.creator(Q)
        self.assert_closes(goldstone_closure_check(model, params))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            goldstone_closure_check("ideal", imperfect_params())

    def test_runs_past_the_full_range_dimension_cap(self):
        # c = 2.05: 205,254 rows from level 0, 61,074 on the coherent window
        report = goldstone_closure_check("wibg", CheckContext(condensate_amplitude=2.05).wibg)
        assert len(report.remainder_norms) == 4

    def test_vanishing_superfluid_remainder_refused(self):
        # v(pi) = v0 exp(-pi^2 / kappa^2) underflows to 0 at kappa = 0.1
        params = CheckContext(kappa=0.1).wibg
        with pytest.raises(ValueError, match="remainder needs"):
            goldstone_closure_check("wibg", params)

    def test_vanishing_mean_field_remainder_refused(self):
        # lambda = 0 makes mu = lambda rho and u = lambda vanish together
        with pytest.raises(ValueError, match="remainder needs"):
            goldstone_closure_check("imperfect", imperfect_params(coupling=0.0))

    @pytest.mark.parametrize("model,params", [
        ("imperfect", imperfect_params()),
        ("wibg", wibg_params()),
    ])
    def test_general_couplings(self, model, params, monkeypatch):
        # pairing, chemical potential and number coupling all at once: the
        # identities are linear in H, so they hold for any (g, mu, u)
        table = fock.gas_table
        monkeypatch.setattr(fock, "gas_table", lambda model, params: replace(
            table(model, params), g=lambda k: 0.4 * math.exp(-k), mu=0.7, u=1.3))
        report = goldstone_closure_check(model, params)
        assert report.identity_defect < 1e-10
        assert report.secondary_defect < 1e-8
