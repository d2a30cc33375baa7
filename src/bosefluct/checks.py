"""Named verification checks: the registry behind the CLI runner.

Each check bundles one verifiable statement about the two condensed
gases — a closed-form identity, a convergence rate, or a matrix-level
oracle comparison — into a callable returning a tabular
:class:`CheckResult`. The registry is what ``bosefluct list-checks``
enumerates and ``bosefluct run`` dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Literal, Tuple

import numpy as np

from . import asymptotics, fluctuations, fock, quasifree
from .model import (
    ModelParams,
    MomentumGrid,
    bogoliubov_spectrum,
    dispersion,
    gas_table,
    omega_gap,
)

__all__ = ["CheckContext", "CheckResult", "CheckDef", "Judgement", "REGISTRY",
           "checked_tolerance", "run_check"]

OMEGA_REL_BOUND = 1e-3  # spectrum: relative distance of lim E_q q / eps_q from Omega
DIVERGENCE_BUBBLE_BOUND = 0.05  # divergence-exponents: |fitted bubble power + 1|
BUBBLE_TAIL_FACTOR = 1e-8  # bubble-scaling: tail bound per unit of max(|fine|, 1e-3)
FULL_RATIO_BOUND = 1.05  # structure-factor: spread max/min of the full-density S(q)
WIBG_COMMUTATOR_FLOOR = 1e-3  # u-commutation: truncated interaction must not commute
GOLDSTONE_RATE_WINDOW = 0.1  # goldstone: |fitted remainder rate + 1/2|
GOLDSTONE_VIRIAL_BOUND = 1e-3  # goldstone: |virial ratio - 1|
GOLDSTONE_SECONDARY_BOUND = 2e-15  # goldstone: order-parameter defect over ||P H A P||
CLT_IMAG_BOUND = 1e-6  # clt: worst phase of the characteristic function
BCH_BOUND_SLACK = 1e-9  # bch: relative slack on the appendix bound
LIFETIME_ROUNDING_BOUND = 0.5  # lifetime-exponents: each fitted power rounds to its target
CLT_DENSITY = 4.0  # clt: condensate density of the coherent state
PAIR_MODE_LEVELS = 20  # bch, clt: top level of the symmetric pair mode b_s = B / sqrt(2)
CLT_LEAK_BOUND = fock.LEAK_TOL  # clt: worst edge population, where fock warns of leakage
DELTA_BOX_SIDES = (60.0, 85.0, 120.0, 170.0, 240.0, 340.0)  # delta-exponents: box sides L
# delta-exponents: (phase, chemical-potential shift, target delta). Without a
# condensate the variance is the bubble alone: massless at the critical point,
# gapped by the shift in the normal phase
DELTA_PHASES = (("condensed", 0.0, 1.0 / 3.0), ("critical", 0.0, 1.0 / 6.0),
                ("normal", -0.5, 0.0))
# lifetime-exponents: power of |q| in the time rescaling of the pair dynamics,
# t -> t eps_q (quadratic dispersion) or t -> t E_q (linear collective spectrum)
LIFETIME_TARGETS = {"imperfect": 2, "wibg": 1}


@dataclass(frozen=True)
class CheckContext:
    """Physical scenario shared by all checks; overridable from configs."""

    mass: float = 1.0
    beta_thermal: float = 1.0
    coupling: float = 1.0
    total_density: float = 1.0
    condensate_density: float = 1.0
    condensate_amplitude: float = 1.0
    v0: float = 1.0
    kappa: float = 2.0

    def __post_init__(self):
        for f in fields(self):  # every check reads a finite scenario
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"scenario field {f.name!r} must be finite")
        # the superfluid checks divide by c and the mean-field ones by rho0;
        # ModelParams allows zero because delta-exponents builds such phases
        for name in ("condensate_amplitude", "condensate_density"):
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero: every scenario has a condensate")
        if not self.coupling > 0.0:  # unlike the sign of c, that of lambda is physical
            raise ValueError("coupling must be nonzero and positive: T + (lambda/2V) N^2 has no "
                             "stable condensed ground state for lambda < 0")
        # ModelParams refuses the rest
        self.imperfect_thermal, self.imperfect_ground, self.wibg, self.wibg_thermal

    @property
    def imperfect_thermal(self) -> ModelParams:
        return ModelParams(mass=self.mass, beta=self.beta_thermal,
                           total_density=self.total_density,
                           condensate_density=self.condensate_density,
                           coupling=self.coupling)

    @property
    def imperfect_ground(self) -> ModelParams:
        # the mean-field ground state has every particle in the condensate
        return replace(self.imperfect_thermal, beta=math.inf,
                       condensate_density=self.total_density)

    @property
    def wibg(self) -> ModelParams:
        # the superfluid model reads no total density; c^2 keeps rho0 <= rho
        return ModelParams(mass=self.mass, beta=math.inf,
                           total_density=self.condensate_amplitude**2,
                           condensate_density=self.condensate_amplitude**2,
                           condensate_amplitude=self.condensate_amplitude,
                           v0=self.v0, kappa=self.kappa)

    @property
    def wibg_thermal(self) -> ModelParams:
        return replace(self.wibg, beta=self.beta_thermal)

    def ground(self, model: str) -> ModelParams:
        """The ground-state parameter set of the gas ``model``; KeyError for another tag."""
        return {"imperfect": self.imperfect_ground, "wibg": self.wibg}[model]


@dataclass(frozen=True)
class Judgement:
    """A judged value: it holds when ``value relation bound``, and never for NaN."""

    name: str
    value: float
    bound: float
    relation: Literal["<", "<=", ">"] = "<"

    @property
    def holds(self) -> bool:  # the sign of a float difference is that of the comparison
        return bool(self.margin >= 0.0 if self.relation == "<=" else self.margin > 0.0)

    @property
    def margin(self) -> float:  # positive inside the bound; KeyError for another relation
        return {"<": 1, "<=": 1, ">": -1}[self.relation] * (self.bound - self.value)


@dataclass
class CheckResult:
    """Outcome of one check: its table, the judgements that decide it, unjudged details."""

    columns: Tuple[str, ...]
    rows: List[Tuple]
    judgements: Tuple[Judgement, ...]
    details: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):  # each name keys three lines of the meta
        if not self.judgements or len({j.name for j in self.judgements}) < len(self.judgements):
            raise ValueError("a check result needs judgements, under distinct names")

    @property
    def passed(self) -> bool:
        return all(j.holds for j in self.judgements)


Runner = Callable[[CheckContext, float], CheckResult]


@dataclass(frozen=True)
class CheckDef:
    name: str
    module: str
    anchor: str
    default_tolerance: float
    runner: Runner


# ---------------------------------------------------------------------------


def _check_spectrum(ctx: CheckContext, tol: float) -> CheckResult:
    """Collective gap from the number-difference sectors vs the closed form.

    The ground state of the pair block lies in the sector ``n_q - n_{-q} = 0``
    and its first excitation in ``+-1``, so the gap is the difference of
    the two sector minima. The table keeps the column name ``E_dense_gap``:
    the sector gap equals the gap of the dense block to 1e-12 relative.
    The block is linear in ``(eps, g)``, so the two sectors of its
    ``(1, 0)`` and ``(0, 1)`` parts are sliced once for all draws.
    """
    rng = np.random.default_rng(7)
    rows = []
    q = (0, 0, 1)
    ws = fock.FockWorkspace(2.0 * math.pi, [q, (0, 0, -1)], 20)
    sectors = fock.pair_sectors(ws, q)
    kinetic, pairing = (fock.pair_block(ws, q, 1.0, 0.0).tocsr(),
                        fock.pair_block(ws, q, 0.0, 1.0).tocsr())
    blocks = [(kinetic[idx][:, idx].toarray(), pairing[idx][:, idx].toarray())
              for idx in (sectors[0], sectors[1])]
    for _ in range(50):
        eps = rng.uniform(0.3, 3.0)
        g = rng.uniform(0.0, 1.5)
        ground, excited = (np.linalg.eigvalsh(eps * kin + g * pair)[0] for kin, pair in blocks)
        gap = float(excited - ground)
        closed = bogoliubov_spectrum(eps, g)
        rows.append((eps, g, closed, gap, abs(gap - closed) / closed))
    # E_q q / eps_q is smooth in q^2: extrapolate it to q = 0 along a q-tail
    params = ctx.wibg
    q_tail = [2.0 * math.pi / 120.0 * 0.5**j for j in range(4)]
    ratios = [bogoliubov_spectrum(dispersion(q, params), params.c2v(q)) * q
              / dispersion(q, params) for q in q_tail]
    limit = asymptotics.richardson([q**2 for q in q_tail], ratios, (1, 2, 3))
    gap_rel = abs(limit - omega_gap(params)) / omega_gap(params)
    return CheckResult(("eps", "c2v", "E_closed", "E_dense_gap", "rel_err"), rows,
                       (Judgement("worst_rel", np.max([row[4] for row in rows]), tol),
                        Judgement("omega_rel", gap_rel, OMEGA_REL_BOUND)))


def _check_variance_oracle(ctx: CheckContext, tol: float) -> CheckResult:
    """Closed-form variances vs the finite-volume Wick oracle at ``q = pi``, the lattice
    momentum ``(0, 0, box / 2)`` of each even box side of a case. An extrapolation
    ``(p, powers)`` takes a case's values to ``1 / box^p = 0``; one without it has one side.
    The ground rows' closed forms are 1/2 exactly, so their error is absolute, not relative."""
    ground, thermal, wibg = ctx.imperfect_ground, ctx.imperfect_thermal, ctx.wibg_thermal
    # the Boltzmann tail exp(-beta k^2 / 2m), of width s = sqrt(m / beta), sets
    # the momentum cutoff; the box sides grow with a wide tail (more modes
    # under the cutoff) and, below s = 1/2, with a narrow one (a finer
    # lattice than s)
    s = math.sqrt(thermal.mass / thermal.beta)
    tail_cutoff = 6.5 * max(1.0, s)
    width = max(1.0, s, 0.5 / s)
    boxes = [2.0 * round(side * width / 2.0) for side in (4.0, 6.0, 8.0)]
    # lattice sums over an integrand with excluded 1/k^2 points carry an odd-power error
    # expansion in the spacing, the superfluid values one in powers of 1/V
    cases = (  # label, gas, parameters, kind, closed form, sides, cutoff, extrapolation, relative
        ("rho_ground", "imperfect", ground, "rho", fluctuations.variance_rho_imperfect,
         (4.0,), 6.0, None, False),
        ("A_ground", "imperfect", ground, "A", fluctuations.variance_A_imperfect,
         (4.0,), 6.0, None, False),
        ("rho_thermal", "imperfect", thermal, "rho", fluctuations.variance_rho_imperfect,
         boxes, tail_cutoff, (1, (1, 3)), True),
        ("A_thermal", "imperfect", thermal, "A", fluctuations.variance_A_imperfect,
         boxes[:1], tail_cutoff, None, True),
        ("rho0_wibg", "wibg", wibg, "rho0", fluctuations.variance_rho0_wibg,
         (4.0, 6.0, 8.0), 4.0, (3, (1, 2)), True),
        ("A_wibg", "wibg", wibg, "A", fluctuations.variance_A_wibg,
         (4.0, 6.0, 8.0), 4.0, (3, (1, 2)), True),
    )
    rows = []
    for label, gas, params, kind, closed_form, sides, cutoff, extrapolation, relative in cases:
        values = [quasifree.finite_volume_variance(
            quasifree.QuasiFreeState(gas, params, MomentumGrid(box, cutoff)), kind,
            (0, 0, int(box) // 2)) for box in sides]
        oracle = values[0] if extrapolation is None else asymptotics.richardson(
            [1.0 / box**extrapolation[0] for box in sides], values, extrapolation[1])
        closed = closed_form(math.pi, params)
        error = abs(oracle - closed)
        rows.append((label, closed, oracle, error / abs(closed) if relative else error))
    return CheckResult(("case", "closed_form", "oracle", "error"), rows,
                       (Judgement("worst", np.max([row[3] for row in rows]), tol),))


def _check_divergence(ctx: CheckContext, tol: float) -> CheckResult:
    """Small-q divergence powers of the two variance contributions."""
    params = ctx.imperfect_thermal
    qs = np.geomspace(0.005, 0.05, 10)
    coth = asymptotics.fit_power_law(
        [(q, fluctuations.variance_A_imperfect(q, params)) for q in qs])
    bubble = asymptotics.fit_power_law(
        [(q, asymptotics.bose_bubble_integral(q, params).value) for q in qs])
    err_coth = abs(coth + 2.0)
    err_bubble = abs(bubble + 1.0)
    rows = [("coth", coth, -2.0, err_coth),
            ("bubble", bubble, -1.0, err_bubble)]
    return CheckResult(("term", "fitted", "target", "error"), rows,
                       (Judgement("coth_error", err_coth, tol),
                        Judgement("bubble_error", err_bubble, DIVERGENCE_BUBBLE_BOUND)),
                       {"coth": coth, "bubble": bubble})


def _check_delta(ctx: CheckContext, tol: float) -> CheckResult:
    """Volume-scaling exponent delta across the three phases.

    The density-fluctuation variance at the first box momentum
    ``|q_L| = 2 pi / L`` grows as ``V^(2 delta)`` over ``DELTA_BOX_SIDES``.
    """
    rows, details = [], {}
    thermal = ctx.imperfect_thermal
    uncondensed = replace(thermal, condensate_density=0.0)
    for kind, mu_shift, target in DELTA_PHASES:
        samples = []
        for box in DELTA_BOX_SIDES:
            q = 2.0 * math.pi / box
            if kind == "condensed":
                value = fluctuations.variance_rho_imperfect(q, thermal)
            else:
                value = asymptotics.bose_bubble_integral(
                    q, uncondensed, mu_shift=mu_shift,
                    norm_density=thermal.total_density).value
            samples.append((box**3, value))
        delta = asymptotics.fit_power_law(samples) / 2.0
        rows.append((kind, delta, target, abs(delta - target)))
        details[f"delta_{kind}"] = delta
    return CheckResult(("phase", "fitted_delta", "target", "error"), rows,
                       (Judgement("worst_error", np.max([row[3] for row in rows]), tol),), details)


def _pair_mode_state(params: ModelParams, box: float):
    """Mean-field coherent vacuum, ``q`` and ``z`` on ``[0, q]``: ``F`` leaves ``b_a`` empty."""
    q = (0, 0, 1)
    amp = gas_table("imperfect", params).amplitude(box**3)
    ws = fock.FockWorkspace(box, [fock.ZERO, q],
                            {fock.ZERO: fock.coherent_window(amp), q: PAIR_MODE_LEVELS})
    return fock.FiniteState.coherent_vacuum(ws, amp), q, amp


def _bch_operators(params: ModelParams, box: float):
    state, q, amp = _pair_mode_state(params, box)
    return (state, fock.condensate_fluct_matrix(state.workspace, q, amp, f_q0=1.0),  # rho
            fock.condensate_fluct_matrix(state.workspace, q, amp, g_q0=1.0))  # A


def _check_bch(ctx: CheckContext, tol: float) -> CheckResult:
    """BCH defect decreases with volume and respects the seminorm bound."""
    params = ctx.imperfect_ground
    rows = []
    for box in (2.0, 3.0, 4.0):
        state, rho, a_op = _bch_operators(params, box)
        rows.append((box**3, fock.bch_defect(rho, a_op, state),
                     fock.appendix_bound(rho, a_op, state)))
    _, defects, bounds = np.array(rows).T
    return CheckResult(("volume", "defect", "bound"), rows, (
        Judgement("defect_step", np.max(np.diff(defects)), 0.0),  # strictly decreasing
        Judgement("bound_excess", np.max(defects - bounds * (1.0 + BCH_BOUND_SLACK)), tol, "<=")))


def _check_clt(ctx: CheckContext, tol: float) -> CheckResult:
    """Gaussian character of the smeared fluctuation at the largest volume."""
    params = replace(ctx.imperfect_ground, total_density=CLT_DENSITY,
                     condensate_density=CLT_DENSITY)
    state, q, amp = _pair_mode_state(params, 5.0)
    ws = state.workspace
    family = fock.condensate_fluct_family(ws, q, amp)
    rng = np.random.default_rng(11)
    rows, phases, leaks = [], [], []
    for draw in range(10):
        while True:
            f = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(f + 1j * g) > 0.5:
                break
        s_closed = fluctuations.variance_general(
            fluctuations.FluctuationSpec("imperfect", ws.k_norm(q), f_q0=f, g_q0=g), params)
        t_grid = np.linspace(0.0, 1.5 / math.sqrt(s_closed), 7)[1:]
        values, leak = fock.clt_char_function(family(f, g), t_grid, state)
        phases.append(np.max(np.abs(np.angle(values))))
        leaks.append(leak)
        s_fit = float(np.polyfit(t_grid**2, -2.0 * np.log(np.abs(values)), 2)[1])
        rows.append((draw, f.real, f.imag, g.real, g.imag, s_closed, s_fit,
                     abs(s_fit - s_closed) / s_closed))
    return CheckResult(("draw", "f_re", "f_im", "g_re", "g_im", "s_closed", "s_fit", "rel_err"),
                       rows, (Judgement("worst_rel", np.max([row[7] for row in rows]), tol),
                              Judgement("worst_imag", np.max(phases), CLT_IMAG_BOUND),
                              Judgement("worst_leak", max(leaks), CLT_LEAK_BOUND, "<=")))


def _virial_ratio(model: str, params: ModelParams) -> Tuple[float, float]:
    """Oscillator energy ``Omega`` and the extrapolated ``Omega^2 <rho~^2> / <A~^2>``
    of the pair ``(|q|^-r rho, |q|^r A)``, with ``Omega`` and ``r`` from the gas's table.

    Evaluated on the closed-form variances along the tail ``q = 0.25 min(1, Omega) 2^-j``,
    j = 0..3 (the superfluid spectrum is linear only below ``q ~ Omega``), and
    Richardson-extrapolated in ``q^2`` (the ratio is smooth in ``q^2``).
    """
    table = gas_table(model, params)
    omega, r = table.omega(), table.exponent
    q_tail = [0.25 * min(1.0, omega) * 0.5**j for j in range(4)]
    ratios = [
        omega**2 * (fluctuations.variance_general(
            fluctuations.FluctuationSpec(model, qn, f_q0=1.0), params) / qn**(2.0 * r))
        / (qn**(2.0 * r) * fluctuations.variance_general(
            fluctuations.FluctuationSpec(model, qn, g_q0=1.0), params))
        for qn in q_tail
    ]
    return omega, asymptotics.richardson([qn**2 for qn in q_tail], ratios, (1, 2, 3))


def _check_goldstone(model: str) -> Runner:
    """Closure of the canonical pair of one gas: the exact identities, the ``V^{-1/2}``
    decay of the remainder seminorm and the virial ratio."""

    def run(ctx: CheckContext, tol: float) -> CheckResult:
        params = ctx.ground(model)
        report = fock.goldstone_closure_check(model, params)
        omega, virial = _virial_ratio(model, params)
        rows = list(zip(report.volumes, report.remainder_norms))
        rate = asymptotics.fit_power_law(rows)
        return CheckResult(("volume", "remainder_seminorm"), rows, (
            Judgement("identity_rel", report.identity_relative, tol),
            Judgement("remainder_rate_error", abs(rate + 0.5), GOLDSTONE_RATE_WINDOW),
            Judgement("virial_error", abs(virial - 1.0), GOLDSTONE_VIRIAL_BOUND),
            Judgement("secondary_rel", report.secondary_relative, GOLDSTONE_SECONDARY_BOUND)), {
            "identity_defect": report.identity_defect,
            "secondary_defect": report.secondary_defect,
            "remainder_rate": rate,
            "virial_ratio": virial,
            "oscillator_energy": omega,
        })
    return run


def _check_virial(model: str) -> Runner:
    """Virial identity of the oscillator pair of one gas."""

    def run(ctx: CheckContext, tol: float) -> CheckResult:
        omega, ratio = _virial_ratio(model, ctx.ground(model))
        err = abs(ratio - 1.0)
        return CheckResult(("omega", "virial_ratio", "error"), [(omega, ratio, err)],
                           (Judgement("virial_error", err, tol),), {"virial_ratio": ratio})
    return run


def _check_structure_factor(ctx: CheckContext, tol: float) -> CheckResult:
    """Linear condensate-density law vs nonzero full-density constant."""
    params = ctx.wibg
    # S_full is the pair bubble's plateau, of order c^3 (m v0)^{3/2} by its small-q
    # expansion, plus the condensate part c^2 q / Omega; the part's share grows as
    # q / (m c v0)^2 = 16 c^2 q / Omega^4. The window at the default is measured
    qs = np.geomspace(1e-4, 1e-3, 8) * min(1.0, (params.mass * params.condensate_amplitude
                                                 * params.v(0.0))**2)
    slopes = [fluctuations.structure_factor(q, params) / q for q in qs]
    spread = (max(slopes) - min(slopes)) / float(np.mean(slopes))
    fulls = [fluctuations.structure_factor(q, params, "full") for q in qs]
    rows = [(q, s, f) for q, s, f in zip(qs, slopes, fulls)]
    return CheckResult(("q", "S_condensate_over_q", "S_full"), rows, (
        Judgement("slope_spread", spread, tol),
        Judgement("full_ratio", max(fulls) / min(fulls), FULL_RATIO_BOUND),
        Judgement("min_full", np.min(fulls), 0.0, ">")))


def _check_u_commutation(ctx: CheckContext, tol: float) -> CheckResult:
    # a narrow potential (kappa < 2) vanishes at the torus momenta of the
    # side-2 box; the side 4 / kappa puts the first one at pi kappa / 2, where
    # v = v0 e^{-pi^2/4}. A smaller box would only inflate the rounding of U
    box_side = max(fock.INTERACTION_BOX_SIDE, 4.0 / ctx.kappa)
    commutator, rewrite, wibg_norm = fock.u_density_commutator_check(ctx.wibg, box_side)
    rows = [("full_interaction_commutator", commutator),
            ("quadratic_rewrite", rewrite),
            ("truncated_interaction_commutator", wibg_norm)]
    return CheckResult(("quantity", "norm"), rows, (
        Judgement("commutator_defect", commutator, tol),
        Judgement("rewrite_defect", rewrite, tol),
        Judgement("wibg_commutator_norm", wibg_norm, WIBG_COMMUTATOR_FLOOR, ">")))


def _check_truncation(ctx: CheckContext, tol: float) -> CheckResult:
    step1, step2 = fock.truncation_rederivation_check(ctx.wibg)
    rows = [("zero_mode_reordering_identity", step1),
            ("c_substitution_vs_hamiltonian", step2)]
    return CheckResult(("step", "defect"), rows, (Judgement("reordering_defect", step1, tol),
                                                  Judgement("substitution_defect", step2, tol)))


def _check_equivalence(ctx: CheckContext, tol: float) -> CheckResult:
    """(f, 0) and (0, Jf) are the same limiting field, both models."""
    rng = np.random.default_rng(23)
    rows = []
    for model, params in (("imperfect", ctx.imperfect_ground), ("wibg", ctx.wibg)):
        for _ in range(10):
            f = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            s1 = fluctuations.FluctuationSpec(model, 0.5, f_q0=f)
            s2 = fluctuations.FluctuationSpec(model, 0.5, g_q0=fluctuations.j_map(f))
            rows.append((model, f.real, f.imag, fluctuations.equivalence_distance(s1, s2, params)))
    return CheckResult(("model", "f_re", "f_im", "distance"), rows,
                       (Judgement("worst", np.max([row[3] for row in rows]), tol),))


def _check_bubble_scaling(ctx: CheckContext, tol: float) -> CheckResult:
    """Quadrature self-consistency of the bubble integrals."""
    params = ctx.imperfect_thermal
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(5):
        q = float(rng.uniform(0.05, 2.0))
        coarse = asymptotics.bose_bubble_integral(q, params, rtol=1e-6)
        fine = asymptotics.bose_bubble_integral(q, params, rtol=1e-10)
        rel = abs(coarse.value - fine.value) / abs(fine.value)
        rows.append((q, coarse.value, fine.value, rel, fine.tail_bound))
    return CheckResult(("q", "coarse", "fine", "rel_diff", "tail_bound"), rows, (
        Judgement("worst_rel", np.max([r[3] for r in rows]), tol),
        Judgement("worst_tail", np.max([r[4] / max(abs(r[2]), 1e-3) for r in rows]),
                  BUBBLE_TAIL_FACTOR)))


def _check_lifetime(ctx: CheckContext, tol: float) -> CheckResult:
    """Dynamical energy-scale exponents: 2 (mean-field) vs 1 (superfluid)."""
    qs = np.geomspace(1e-3, 1e-2, 6)
    rows, details = [], {}
    for model, params in (("imperfect", ctx.imperfect_ground), ("wibg", ctx.wibg)):
        pairing = gas_table(model, params).g
        energies = [bogoliubov_spectrum(dispersion(q, params), pairing(q)) for q in qs]
        exponent = asymptotics.fit_power_law(list(zip(qs, energies)))
        target = LIFETIME_TARGETS[model]
        rows.append((model, exponent, target, abs(exponent - target)))
        details[f"exponent_{model}"] = exponent
    worst = np.max([row[3] for row in rows])
    return CheckResult(("model", "fitted", "target", "error"), rows, (
        Judgement("worst_error", worst, tol),
        Judgement("target_distance", worst, LIFETIME_ROUNDING_BOUND)), details)


# ---------------------------------------------------------------------------

REGISTRY: Dict[str, CheckDef] = {
    c.name: c for c in [
        CheckDef("spectrum", "model", "collective spectrum from the quadratic block",
                 1e-8, _check_spectrum),
        CheckDef("variance-oracle", "quasifree",
                 "closed-form variances vs Wick pairing oracle", 1e-3,
                 _check_variance_oracle),
        CheckDef("divergence-exponents", "asymptotics",
                 "small-q divergence of the variance terms", 0.02,
                 _check_divergence),
        CheckDef("delta-exponents", "asymptotics",
                 "abnormal-fluctuation volume exponent by phase", 0.03,
                 _check_delta),
        CheckDef("bch", "fock_oracle",
                 "Weyl composition defect in the state seminorm", 1e-9,
                 _check_bch),
        CheckDef("clt", "fock_oracle",
                 "Gaussian characteristic function of smeared fluctuations", 0.01,
                 _check_clt),
        CheckDef("goldstone-imperfect", "fock_oracle",
                 "closure of the canonical pair dynamics, mean-field gas", 2e-15,
                 _check_goldstone("imperfect")),
        CheckDef("goldstone-wibg", "fock_oracle",
                 "closure of the canonical pair dynamics, superfluid gas", 2e-15,
                 _check_goldstone("wibg")),
        CheckDef("virial-imperfect", "fluctuations",
                 "virial identity of the oscillator pair, mean-field gas", 1e-3,
                 _check_virial("imperfect")),
        CheckDef("virial-wibg", "fluctuations",
                 "virial identity of the oscillator pair, superfluid gas", 1e-3,
                 _check_virial("wibg")),
        CheckDef("structure-factor", "fluctuations",
                 "static structure function: linear law vs nonzero constant", 0.01,
                 _check_structure_factor),
        CheckDef("u-commutation", "fock_oracle",
                 "two-body interaction commutes with density fluctuations", 1e-10,
                 _check_u_commutation),
        CheckDef("truncation-rederivation", "fock_oracle",
                 "condensate substitution reproduces the superfluid interaction",
                 1e-10, _check_truncation),
        CheckDef("equivalence", "fluctuations",
                 "density and order-parameter smearings give one field", 1e-10,
                 _check_equivalence),
        CheckDef("bubble-scaling", "asymptotics",
                 "adaptive quadrature self-consistency and tail bounds", 1e-5,
                 _check_bubble_scaling),
        CheckDef("lifetime-exponents", "asymptotics",
                 "time-rescaling powers of the pair dynamics", 0.05,
                 _check_lifetime),
    ]
}


def checked_tolerance(name: str, tolerance: float | None = None) -> float:
    """The tolerance check ``name`` is judged against: ``tolerance``, or the
    registered default when it is None. Refuses an unregistered name
    (``KeyError``) and a value outside ``(0, inf)``, nan included
    (``ValueError``): an infinite tolerance would switch the check off."""
    if name not in REGISTRY:
        raise KeyError(f"unknown check {name!r}")
    tol = REGISTRY[name].default_tolerance if tolerance is None else float(tolerance)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance for {name!r} must be positive and finite, got {tol!r}")
    return tol


def run_check(name: str, ctx: CheckContext | None = None,
              tolerance: float | None = None) -> CheckResult:
    """Execute one registered check by name."""
    tol = checked_tolerance(name, tolerance)
    return REGISTRY[name].runner(ctx or CheckContext(), tol)
