"""Unit tests for the finite Fock-space workspace and matrix checks."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from bosefluct import fock
from bosefluct.checks import CheckContext, _bch_operators, _clt_operator
from bosefluct.fock import (
    FiniteState,
    FockWorkspace,
    ZERO,
    _kinetic,
    _projected_norm,
    appendix_bound,
    bch_defect,
    build_hamiltonian,
    clt_char_function,
    coherent_cutoff,
    condensate_fluct_matrix,
    dynamics_commutator,
    goldstone_closure_check,
    order_param_fluct_matrix,
    pair_block,
    truncation_rederivation_check,
    u_density_commutator_check,
)
from bosefluct.model import ModelParams, bogoliubov_spectrum, dispersion, gaussian_potential

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
                       potential=gaussian_potential(v0, 2.0))


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
                assert _projected_norm(comm, proj) == pytest.approx(0.0, abs=1e-13)

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

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            FockWorkspace(1.0, [ZERO, Q, MQ], 99)

    def test_coherent_cutoff_grows(self):
        cuts = [coherent_cutoff(a) for a in (1.0, 3.0, 10.0)]
        assert cuts == sorted(cuts)
        assert all(c > a * a for c, a in zip(cuts, (1.0, 3.0, 10.0)))


class TestFiniteState:
    def test_coherent_occupation(self):
        ws = FockWorkspace(1.0, [ZERO], coherent_cutoff(3.0))
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
        from bosefluct.model import bogoliubov_coefficients, dispersion

        k = np.linalg.norm(ws.k_phys(Q))
        co = bogoliubov_coefficients(k * k / 2.0, params.c2v(k))
        b_op = co.cosh_a * ws.annihilator(Q) - co.sinh_a * ws.creator(MQ)
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
        h = build_hamiltonian("imperfect", ws, params)
        off_diag = h - sp.diags(h.diagonal())
        assert abs(off_diag).max() == 0.0
        kin = _kinetic(ws, params).diagonal()
        n = ws.total_number().diagonal()
        mu, lam, vol = params.chemical_potential, params.coupling, ws.volume
        expected = kin - mu * n + lam / (2.0 * vol) * n**2
        assert np.allclose(h.diagonal(), expected)

    def test_wibg_self_adjoint(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 4)
        h = build_hamiltonian("wibg", ws, wibg_params())
        assert abs(h - h.conjugate().T).max() < 1e-14

    def test_wibg_conserves_zero_mode(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 4)
        h = build_hamiltonian("wibg", ws, wibg_params())
        n0 = ws.number(ZERO)
        assert abs(h @ n0 - n0 @ h).max() < 1e-13

    def test_wibg_free_limit(self):
        # c = 0 removes pairing and dressing: kinetic plus (v(0)/2V) N^2
        params = wibg_params(c=0.0)
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        h = build_hamiltonian("wibg", ws, params)
        n = ws.total_number().diagonal()
        expected = _kinetic(ws, params).diagonal() + params.v(0.0) / (2.0 * ws.volume) * n**2
        assert abs(h - sp.diags(expected)).max() < 1e-14

    def test_wibg_two_pairs_against_per_pair_sum(self):
        params = wibg_params()
        q2, mq2 = (0, 1, 1), (0, -1, -1)
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, q2, mq2], 2)
        h = build_hamiltonian("wibg", ws, params)
        # reference: kinetic term plus the c^2 v dressing and pairing written out per pair
        n_tot = ws.total_number()
        expected = _kinetic(ws, params) + params.v(0.0) / (2.0 * ws.volume) * (n_tot @ n_tot)
        for k, mk in ((Q, MQ), (q2, mq2)):
            g = params.c2v(float(np.linalg.norm(ws.k_phys(k))))
            pair = ws.creator(k) @ ws.creator(mk)
            expected = expected + g * (ws.number(k) + ws.number(mk) + pair + pair.conjugate().T)
        assert abs(h - expected).max() < 1e-12

    def test_wibg_needs_mode_pairs(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ, (0, 1, 1)], 2)
        with pytest.raises(ValueError, match="mode pairs"):
            build_hamiltonian("wibg", ws, wibg_params())

    def test_pair_block_gap_matches_spectrum(self):
        params = wibg_params()
        ws = FockWorkspace(2.0, [Q, MQ], 24)
        k = np.linalg.norm(ws.k_phys(Q))
        block = pair_block(ws, Q, k * k / 2.0, params.c2v(k)).toarray()
        vals = np.linalg.eigvalsh(block)
        expected = bogoliubov_spectrum(k * k / 2.0, params.c2v(k))
        assert vals[1] - vals[0] == pytest.approx(expected, abs=1e-8)

    def test_pair_block_is_linear(self):
        ws = FockWorkspace(2.0 * math.pi, [Q, MQ], 20)
        eps, g = 1.37, 0.58
        block = pair_block(ws, Q, eps, g)
        combined = eps * pair_block(ws, Q, 1.0, 0.0) + g * pair_block(ws, Q, 0.0, 1.0)
        assert abs(block - combined).max() <= 1e-14 * abs(block).max()

    def test_unknown_model(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 2)
        with pytest.raises(ValueError):
            build_hamiltonian("ideal", ws, imperfect_params())


class TestFluctuationMatrices:
    def test_self_adjointness(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 3)
        for op in (order_param_fluct_matrix(ws, Q),
                   condensate_fluct_matrix(ws, Q, 1.3),
                   condensate_fluct_matrix(ws, Q, 1.3, f_q0=0.4 - 0.9j)):
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
            expected = density_k_sum(ws, amp, smear)
            builder = condensate_fluct_matrix(ws, Q, amp, f_q0=f)
            assert abs(builder - expected).max() <= 1e-15 * abs(expected).max()

    def test_builder_needs_amplitude(self):
        ws = FockWorkspace(2.0, [ZERO, Q, MQ], 2)
        with pytest.raises(ValueError):
            condensate_fluct_matrix(ws, Q, 0.0)

    def test_free_mode_commutator(self):
        # i[eps a* a, i(a* - a)] = -eps (a* + a)
        eps = 0.7
        ws = FockWorkspace(1.0, [Q], 10)
        h = eps * ws.number(Q)
        a_op = 1j * (ws.creator(Q) - ws.annihilator(Q))
        expected = -eps * (ws.creator(Q) + ws.annihilator(Q))
        defect = dynamics_commutator(h, a_op) - expected
        proj = ws.below_truncation_projector()
        assert _projected_norm(defect, proj) == pytest.approx(0.0, abs=1e-12)


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
        _, state, rho, a_op = _bch_operators(CheckContext().imperfect_ground, box)
        assert appendix_bound(rho, a_op, state) == pytest.approx(
            operator_product_bound(rho, a_op, state), rel=1e-12, abs=0.0)

    def test_bound_needs_pure_state(self):
        ws = FockWorkspace(1.0, [Q], 3)
        state = FiniteState(ws, probabilities=np.ones(4))
        with pytest.raises(ValueError, match="pure state"):
            appendix_bound(ws.number(Q), ws.creator(Q) + ws.annihilator(Q), state)

    def test_single_quadrature_gaussian(self):
        ws = FockWorkspace(1.0, [Q], 50)
        f_op = (ws.creator(Q) + ws.annihilator(Q)) / math.sqrt(2.0)
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = np.linspace(0.0, 2.0, 9)
        values = clt_char_function(f_op, t_grid, state)
        assert np.allclose(values, np.exp(-t_grid**2 / 4.0), atol=1e-12)

    def test_leakage_warning(self):
        ws = FockWorkspace(1.0, [Q], 3)
        f_op = ws.creator(Q) + ws.annihilator(Q)
        state = FiniteState.coherent_vacuum(ws, 0.0)
        with pytest.warns(RuntimeWarning):
            clt_char_function(f_op, [3.0], state)


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


def operator_product_bound(f1, f2, state):
    """The double commutators as sparse operator products: the route appendix_bound replaces."""
    comm = (f2 @ f1 - f1 @ f2).tocsr()
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 5):
        inner = (t * f1 + f2).tocsr()
        double = comm @ inner - inner @ comm
        worst = max(worst, state.seminorm(double))
    return math.sqrt(4.0 * worst / 3.0)


def reference_char_function(f_op, t_grid, state):
    """One ``expm_multiply`` per t: the route the Lanczos quadrature replaces."""
    gen = (1j * f_op).tocsc()
    return np.array([np.vdot(state.vector, expm_multiply(t * gen, state.vector))
                     for t in t_grid])


def reduced_clt_case(seed):
    """The clt check's operator, state and t-grid on a smaller workspace."""
    rho0, box = 4.0, 3.0
    amp = math.sqrt(rho0 * box**3)
    ws = FockWorkspace(box, [ZERO, Q, MQ],
                       {ZERO: coherent_cutoff(amp), Q: 6, MQ: 6})
    state = FiniteState.coherent_vacuum(ws, amp)
    rng = np.random.default_rng(seed)
    f, g = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
    f_op = _clt_operator(ws, amp, f, g)
    t_grid = np.linspace(0.0, 1.5 / math.sqrt(0.5 * abs(f + 1j * g) ** 2), 7)[1:]
    return f_op, t_grid, state


class TestLanczosCharFunction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_expm_on_reduced_clt_workspace(self, seed):
        f_op, t_grid, state = reduced_clt_case(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # pair cutoff 6 leaks
            values = clt_char_function(f_op, t_grid, state)
        assert np.max(np.abs(values - reference_char_function(f_op, t_grid, state))) < 1e-12

    def test_second_gram_schmidt_pass_matches_expm(self, monkeypatch):
        # a pass never lengthens the residual, so a ratio above 1 repeats it on every step
        monkeypatch.setattr(fock, "LANCZOS_DGKS_RATIO", 2.0)
        f_op, t_grid, state = reduced_clt_case(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # pair cutoff 6 leaks
            values = clt_char_function(f_op, t_grid, state)
        assert np.max(np.abs(values - reference_char_function(f_op, t_grid, state))) < 1e-12

    def test_matches_expm_on_random_hermitian(self):
        ws = FockWorkspace(2.0, [ZERO, Q], 20)
        rng = np.random.default_rng(5)
        a = sp.random(ws.dimension, ws.dimension, density=0.02, random_state=rng,
                      format="csr", dtype=float)
        a = a + 1j * sp.random(ws.dimension, ws.dimension, density=0.02,
                               random_state=rng, format="csr")
        f_op = (a + a.conjugate().T).tocsr()
        vec = rng.normal(size=ws.dimension) + 1j * rng.normal(size=ws.dimension)
        state = FiniteState(ws, vector=vec)
        t_grid = np.linspace(0.0, 1.0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the random F leaks
            values = clt_char_function(f_op, t_grid, state)
        assert np.max(np.abs(values - reference_char_function(f_op, t_grid, state))) < 1e-12

    def test_two_level_breakdown_is_exact(self, monkeypatch):
        # F = a + a* on levels {0, 1}: the Krylov space closes at step 2
        monkeypatch.setattr(fock, "LANCZOS_MAX_STEPS", 2)
        ws = FockWorkspace(1.0, [Q], 1)
        f_op = ws.creator(Q) + ws.annihilator(Q)
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = np.linspace(0.0, 3.0, 7)
        with pytest.warns(RuntimeWarning):  # the top level is level 1
            values = clt_char_function(f_op, t_grid, state)
        assert np.max(np.abs(values - np.cos(t_grid))) < 1e-15

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fock, "LANCZOS_MAX_STEPS", 3)
        ws = FockWorkspace(1.0, [Q], 50)
        f_op = (ws.creator(Q) + ws.annihilator(Q)) / math.sqrt(2.0)
        state = FiniteState.coherent_vacuum(ws, 0.0)
        with pytest.raises(RuntimeError):
            clt_char_function(f_op, [2.0], state)

    def test_leak_only_at_largest_time_warns(self):
        ws = FockWorkspace(2.0, [ZERO, Q], 8)
        f_op = (ws.creator(Q) + ws.annihilator(Q)
                + 0.3 * (ws.creator(ZERO) + ws.annihilator(ZERO)))
        state = FiniteState.coherent_vacuum(ws, 0.0)
        t_grid = [0.25, 0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clt_char_function(f_op, t_grid[:-1], state)
        with pytest.warns(RuntimeWarning, match="truncation leakage"):
            clt_char_function(f_op, t_grid, state)


class TestInteractionStructure:
    def test_full_interaction_commutes(self):
        report = u_density_commutator_check(wibg_params())
        assert report.commutator_defect < 1e-10
        assert report.rewrite_defect < 1e-10
        assert report.wibg_commutator_norm > 1e-3

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
        report = goldstone_closure_check(model, params)
        assert report.identity_defect < 1e-10
        assert report.secondary_defect < 1e-8
        assert report.remainder_norms[0] > report.remainder_norms[-1]
        assert report.remainder_rate.exponent == pytest.approx(-0.5, abs=0.1)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            goldstone_closure_check("ideal", imperfect_params())
