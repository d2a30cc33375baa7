"""Unit tests for the quasi-free Wick oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosefluct.checks import CheckContext
from bosefluct.model import (
    ModelParams,
    MomentumGrid,
    bogoliubov_coefficients,
    gaussian_potential,
)
from bosefluct.quasifree import (
    MAX_WORD_LENGTH,
    OperatorWord,
    QuasiFreeState,
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
                         potential=gaussian_potential(1.0, 2.0))
    return QuasiFreeState("wibg", params, MomentumGrid(box, cutoff))


Q = (0, 0, 1)
MQ = (0, 0, -1)
ZERO = (0, 0, 0)


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
            ch, sh = state.rotation(mode)
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
            n = 0.0 if key0[0] == "d" else state.occupation(key0[1])
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
        co = bogoliubov_coefficients(float(kq @ kq) / 2.0,
                                     state.params.c2v(float(np.linalg.norm(kq))))
        assert state.contraction((Q, True), (Q, False)) == pytest.approx(co.sinh_a**2)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            imperfect_state().occupation(ZERO)


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
        ch, sh = state.rotation(Q)
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

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            finite_volume_variance(imperfect_state(), "phi", Q)
