"""Unit tests for the quasi-free Wick oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogoliubov_reference import half_angles
from bosefluct import fock, quasifree
from bosefluct.checks import CheckContext
from bosefluct.fluctuations import FluctuationSpec, variance_general
from bosefluct.model import (
    ModelParams,
    MomentumGrid,
    bose_occupation,
    dispersion,
    pair_averages,
)
from bosefluct.quasifree import (
    MAX_WORD_LENGTH,
    OperatorWord,
    QuasiFreeState,
    _fluct_terms,
    _op_expectation,
    _product_terms,
    finite_volume_variance,
    wick_expectation,
)

LOG2 = math.log(2.0)


def imperfect_state(beta=math.inf, box=2.0 * math.pi, cutoff=1.5, mass=1.0,
                    rho0=1.0):
    params = ModelParams(mass=mass, beta=beta, total_density=1.0,
                         condensate_density=rho0, coupling=1.0)
    return QuasiFreeState("imperfect", params, MomentumGrid(box, cutoff))


def unit_occupation_state():
    """Mean-field state whose mode (0,0,1) has eps = ln 2, so n = 1 at beta = 1."""
    return imperfect_state(beta=1.0, mass=1.0 / (2.0 * LOG2))


def wibg_state(beta=math.inf, box=2.0 * math.pi, cutoff=1.5):
    params = ModelParams(mass=1.0, beta=beta, total_density=1.0,
                         condensate_density=1.0, condensate_amplitude=1.0,
                         v0=1.0, kappa=2.0)
    return QuasiFreeState("wibg", params, MomentumGrid(box, cutoff))


Q = (0, 0, 1)
MQ = (0, 0, -1)
ZERO = (0, 0, 0)


def diagonal_mode(state, mode):
    """``(cosh a, sinh a, n)`` of a mode: the half angles (``g = 0`` for the
    mean-field gas) and the Bose factor of the diagonal energy."""
    k = state.k_phys(mode)
    eps = dispersion(k, state.params)
    g = state.params.c2v(float(np.linalg.norm(k))) if state.model == "wibg" else 0.0
    beta = state.params.beta
    n = 0.0 if math.isinf(beta) else 1.0 / math.expm1(beta * math.sqrt(eps * (eps + 2.0 * g)))
    return (*half_angles(eps, g), n)


def branch_expansion(state, word):
    """Reference route: expand every particle token in the diagonal basis.

    A condensed zero mode becomes its one-point amplitude plus a displaced
    vacuum mode ``d``; a superfluid mode becomes ``a_k = ch b_k + sh b*_-k``
    (``a*_k = ch b*_k + sh b_-k``). Every branch word is then summed over
    ordered pairings, each weighted ``n`` or ``n + 1``.
    """
    def branches(mode, dagger):
        if mode == ZERO:
            out = [(1.0, ("d", ZERO), dagger)]
            if state.one_point_amplitude != 0.0:
                out.append((state.one_point_amplitude, None, dagger))
            return out
        if state.model == "wibg":
            ch, sh, _ = diagonal_mode(state, mode)
            minus = tuple(-x for x in mode)
            return [(ch, ("b", mode), dagger), (sh, ("b", minus), not dagger)]
        return [(1.0, ("a", mode), dagger)]

    def pair_sum(elems):
        if not elems:
            return 1.0
        (key0, dag0), total = elems[0], 0.0
        for j in range(1, len(elems)):
            keyj, dagj = elems[j]
            if keyj != key0 or dagj == dag0:
                continue
            n = 0.0 if key0[0] == "d" else diagonal_mode(state, key0[1])[2]
            c = n if dag0 else n + 1.0
            if c != 0.0:
                total += c * pair_sum(elems[1:j] + elems[j + 1:])
        return total

    def expand(i, coef, elems):
        if i == len(word.tokens):
            return coef * pair_sum(elems)
        return sum(expand(i + 1, coef * c, elems if key is None else elems + ((key, dag),))
                   for c, key, dag in branches(*word.tokens[i]))

    return expand(0, 1.0, ())


PROPERTY_MODES = [ZERO, Q, MQ, (0, 1, 0), (0, -1, 0)]
PROPERTY_STATES = [make(beta=beta) for beta in (math.inf, 2.0)
                   for make in (imperfect_state, wibg_state)]


class TestTwoPoint:
    def test_ground_state_vanishes(self):
        assert imperfect_state().contraction((Q, True), (Q, False)) == 0.0
        assert imperfect_state().contraction((Q, False), (Q, True)) == 1.0

    def test_unit_occupation(self):
        assert unit_occupation_state().contraction((Q, True), (Q, False)) == pytest.approx(1.0)

    def test_wibg_ground_is_sinh_sq(self):
        state = wibg_state()
        kq = state.k_phys(Q)
        _, sh = half_angles(float(kq @ kq) / 2.0, state.params.c2v(float(np.linalg.norm(kq))))
        assert state.contraction((Q, True), (Q, False)) == pytest.approx(sh**2)

    def test_zero_mode_rejected(self):
        # the condensed zero mode is a displaced vacuum: its contractions never
        # reach the Bose factor, which is refused there
        state = imperfect_state(beta=1.0)
        with pytest.raises(ValueError):
            bose_occupation(dispersion(state.k_phys(ZERO), state.params), state.params.beta)
        assert state.contraction((ZERO, False), (ZERO, True)) == 1.0
        assert state.contraction((ZERO, True), (ZERO, False)) == 0.0

    def test_one_pair_averages_call_per_mode(self, monkeypatch):
        # the word pairs Q and -Q tokens many times, normal and anomalous, in both orders
        calls = []

        def counting(*args):
            calls.append(args)
            return pair_averages(*args)

        monkeypatch.setattr(quasifree, "pair_averages", counting)
        state = wibg_state(beta=2.0)
        word = OperatorWord(((Q, True), (MQ, True), (Q, False), (MQ, False),
                             (Q, False), (Q, True), (MQ, False), (MQ, True)))
        assert wick_expectation(state, word) != 0.0
        assert len(calls) == 2  # one per distinct mode, Q and -Q


class TestWickExpectation:
    def test_ground_number_vanishes(self):
        word = OperatorWord(((Q, True), (Q, False)))
        assert wick_expectation(imperfect_state(), word) == 0.0

    def test_fourth_moment_unit_occupation(self):
        # <(a* a)^2> = n + 3 n^2 + ... = 3 exactly at n = 1 (geometric weights)
        word = OperatorWord(((Q, True), (Q, False), (Q, True), (Q, False)))
        assert wick_expectation(unit_occupation_state(), word) == pytest.approx(3.0)

    def test_condensate_number(self):
        state = imperfect_state(rho0=0.75)
        word = OperatorWord(((ZERO, True), (ZERO, False)))
        expected = 0.75 * state.volume
        assert wick_expectation(state, word) == pytest.approx(expected)

    def test_gauge_unbalanced_vanishes(self):
        state = unit_occupation_state()
        for tokens in (((Q, True),), ((Q, True), (Q, True), (Q, False))):
            assert wick_expectation(state, OperatorWord(tokens)) == 0.0

    def test_wibg_anomalous_pair(self):
        state = wibg_state()
        word = OperatorWord(((Q, False), (MQ, False)))
        ch, sh, _ = diagonal_mode(state, Q)
        assert wick_expectation(state, word) == pytest.approx(ch * sh)

    def test_adjoint_symmetry(self):
        state = unit_occupation_state()
        rng = np.random.default_rng(17)
        modes = [Q, MQ, ZERO, (0, 1, 0)]
        for _ in range(20):
            n = rng.integers(2, 7)
            tokens = tuple((modes[rng.integers(len(modes))], bool(rng.integers(2)))
                           for _ in range(n))
            word = OperatorWord(tokens)
            lhs = wick_expectation(state, word.reversed_dagger())
            rhs = np.conj(wick_expectation(state, word))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(state=st.sampled_from(PROPERTY_STATES),
           tokens=st.lists(st.tuples(st.sampled_from(PROPERTY_MODES), st.booleans()),
                           max_size=8))
    def test_matches_branch_expansion(self, state, tokens):
        word = OperatorWord(tuple(tokens))
        ref = branch_expansion(state, word)
        assert abs(wick_expectation(state, word) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_word_cap(self):
        word = OperatorWord(tuple((Q, bool(i % 2)) for i in range(MAX_WORD_LENGTH + 1)))
        with pytest.raises(ValueError):
            wick_expectation(imperfect_state(), word)


class TestFiniteVolumeVariance:
    def test_density_ground_state_half(self):
        assert finite_volume_variance(imperfect_state(), "rho", Q) == pytest.approx(0.5)

    def test_order_param_ground_state_half(self):
        assert finite_volume_variance(imperfect_state(), "A", Q) == pytest.approx(0.5)

    def test_wibg_bare_pair(self):
        from bosefluct.fluctuations import variance_A_wibg, variance_rho0_wibg

        state = wibg_state()
        q_phys = np.linalg.norm(state.k_phys(Q))
        # A carries no zero-mode tokens: the finite-volume value is exact.
        assert finite_volume_variance(state, "A", Q) == pytest.approx(
            variance_A_wibg(q_phys, state.params))
        # rho0 picks up O(1/(c^2 V)) condensate-depletion corrections.
        errors = []
        for scale in (1.0, 2.0):
            big = QuasiFreeState("wibg", state.params,
                                 MomentumGrid(scale * 2.0 * math.pi, 1.5 / scale))
            value = finite_volume_variance(big, "rho0", (0, 0, int(scale)))
            exact = variance_rho0_wibg(np.linalg.norm(big.k_phys((0, 0, int(scale)))),
                                       state.params)
            errors.append(abs(value - exact))
            assert value == pytest.approx(exact, rel=3.0 / big.volume)
        assert errors[1] < errors[0]

    def test_density_lattice_sum_is_the_wick_route(self):
        # <T^2> / (4 rho0 V) with T the sum of a*_{k+-q} a_k over grid pairs
        state = imperfect_state(beta=4.0, box=3.0, cutoff=4.5)
        grid_modes = [tuple(int(x) for x in m) for m in state.grid.lattice_points]
        on_grid = set(grid_modes)
        transfers = []
        for k in grid_modes:
            for shift in (Q, MQ):
                kq = tuple(a + b for a, b in zip(k, shift))
                if kq in on_grid:
                    transfers.append((1.0, ((kq, True), (k, False))))
        assert len(transfers) == 40
        second = _op_expectation(state, _product_terms(transfers, transfers))
        wick = second.real / (4.0 * state.params.condensate_density * state.volume)
        assert finite_volume_variance(state, "rho", Q) == pytest.approx(wick, rel=1e-12)

    def test_small_mass_lattice_sum_does_not_overflow(self):
        # beta eps passes 709 on the shifted lattice momenta at m / beta = 1/16
        state = QuasiFreeState("imperfect", CheckContext(mass=1.0 / 16.0).imperfect_thermal,
                               MomentumGrid(4.0, 6.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = finite_volume_variance(state, "rho", (0, 0, 2))
        assert math.isfinite(value) and value > 0.0

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            finite_volume_variance(imperfect_state(), "rho", ZERO)

    def test_rejects_condensate_density_on_the_mean_field_state(self):
        with pytest.raises(ValueError, match="superfluid"):
            finite_volume_variance(imperfect_state(), "rho0", Q)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            finite_volume_variance(imperfect_state(), "phi", Q)


def seeded_smearings(seed, count):
    rng = np.random.default_rng(seed)
    return [(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
            for _ in range(count)]


def wick_second_moment(state, q, f, g):
    """``<F F>`` of the smeared fluctuation ``F(f, g)`` at ``q`` by Wick pairing."""
    terms = _fluct_terms(state, q, f, g)
    return _op_expectation(state, _product_terms(terms, terms))


class TestSmearedFluctuationAcrossRoutes:
    """``F(f, g)`` is written once per route: the Wick terms and the Fock matrix."""

    @pytest.mark.parametrize("box", [2.0, 3.0])
    def test_wick_matches_fock_in_the_mean_field_ground_state(self, box):
        state = imperfect_state(box=box)
        amp = state.one_point_amplitude
        ws = fock.FockWorkspace(box, [ZERO, Q, MQ], {ZERO: fock.coherent_window(amp), Q: 4, MQ: 4})
        vacuum = fock.FiniteState.coherent_vacuum(ws, amp)
        for f, g in seeded_smearings(31, 4):
            f_op = fock.condensate_fluct_matrix(ws, Q, amp, f_q0=f, g_q0=g)
            matrix = vacuum.expect(f_op @ f_op)
            wick = wick_second_moment(state, Q, f, g)
            assert abs(wick - matrix) <= 1e-14 * abs(matrix)

    def test_general_smearing_approaches_the_closed_form_in_the_superfluid_state(self):
        params = wibg_state(beta=1.5).params
        for f, g in seeded_smearings(37, 3):
            errors = []
            for scale in (1.0, 2.0):
                state = QuasiFreeState("wibg", params,
                                       MomentumGrid(scale * 2.0 * math.pi, 1.5 / scale))
                q = (0, 0, int(scale))
                closed = variance_general(
                    FluctuationSpec("wibg", float(np.linalg.norm(state.k_phys(q))),
                                    f_q0=f, g_q0=g), params)
                value = wick_second_moment(state, q, f, g)
                assert abs(value.imag) < 1e-12
                errors.append(abs(value.real - closed))
                assert errors[-1] < 3.0 / state.volume
            assert errors[1] < errors[0]

    def test_zero_smearing_refused(self):
        with pytest.raises(ValueError, match="nonzero smearing"):
            _fluct_terms(imperfect_state(), Q, 0.0, 0.0)
