"""Named verification checks: the registry behind the CLI runner.

Each check bundles one verifiable statement about the two condensed
gases — a closed-form identity, a convergence rate, or a matrix-level
oracle comparison — into a callable returning a tabular
:class:`CheckResult`. The registry is what ``bosefluct list-checks``
enumerates and ``bosefluct run`` dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import asymptotics, fluctuations, fock, quasifree
from .model import (
    ModelParams,
    MomentumGrid,
    bogoliubov_spectrum,
    dispersion,
    gaussian_potential,
    omega_gap,
)

__all__ = ["CheckContext", "CheckResult", "CheckDef", "REGISTRY", "checked_tolerance",
           "run_check"]

OMEGA_REL_BOUND = 1e-3  # spectrum: relative distance of lim E_q q / eps_q from Omega
FULL_RATIO_BOUND = 1.05  # structure-factor: spread max/min of the full-density S(q)
WIBG_COMMUTATOR_FLOOR = 1e-3  # u-commutation: truncated interaction must not commute
CLT_DENSITY = 4.0  # clt: condensate density of the coherent state
NORMAL_MU_SHIFT = -0.5  # delta-exponents: chemical-potential shift of the normal phase


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
        # the superfluid checks divide by c and the mean-field ones by rho0;
        # ModelParams allows zero because delta-exponents builds such phases
        for name in ("condensate_amplitude", "condensate_density"):
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero: every scenario has a condensate")

    @property
    def imperfect_ground(self) -> ModelParams:
        return ModelParams(mass=self.mass, beta=math.inf,
                           total_density=self.total_density,
                           condensate_density=self.condensate_density,
                           coupling=self.coupling)

    @property
    def imperfect_thermal(self) -> ModelParams:
        return ModelParams(mass=self.mass, beta=self.beta_thermal,
                           total_density=self.total_density,
                           condensate_density=self.condensate_density,
                           coupling=self.coupling)

    @property
    def wibg(self) -> ModelParams:
        # the superfluid model reads no total density; c^2 keeps rho0 <= rho
        return ModelParams(mass=self.mass, beta=math.inf,
                           total_density=self.condensate_amplitude**2,
                           condensate_density=self.condensate_amplitude**2,
                           condensate_amplitude=self.condensate_amplitude,
                           potential=gaussian_potential(self.v0, self.kappa))

    @property
    def wibg_thermal(self) -> ModelParams:
        return replace(self.wibg, beta=self.beta_thermal)


@dataclass
class CheckResult:
    """Outcome of one check: pass flag plus the table it emits."""

    passed: bool
    columns: Tuple[str, ...]
    rows: List[Tuple]
    details: Dict[str, float] = field(default_factory=dict)


Runner = Callable[[CheckContext, float], CheckResult]


@dataclass(frozen=True)
class CheckDef:
    name: str
    module: str
    anchor: str
    default_tolerance: float
    runner: Runner


# ---------------------------------------------------------------------------


def _pair_sectors(ws: fock.FockWorkspace) -> Dict[int, np.ndarray]:
    """Basis indices of each sector of ``n_q - n_{-q}`` on a ``[q, -q]`` workspace.

    :func:`fock.pair_block` conserves the number difference, so it is
    block diagonal in these sectors.
    """
    diff = ws.occupations[:, 0] - ws.occupations[:, 1]
    return {int(d): np.flatnonzero(diff == d) for d in np.unique(diff)}


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
    rows, worst = [], 0.0
    q = (0, 0, 1)
    ws = fock.FockWorkspace(2.0 * math.pi, [q, (0, 0, -1)], 20)
    sectors = _pair_sectors(ws)
    kinetic, pairing = fock.pair_block(ws, q, 1.0, 0.0), fock.pair_block(ws, q, 0.0, 1.0)
    blocks = [(kinetic[idx][:, idx].toarray(), pairing[idx][:, idx].toarray())
              for idx in (sectors[0], sectors[1])]
    for _ in range(50):
        eps = rng.uniform(0.3, 3.0)
        g = rng.uniform(0.0, 1.5)
        ground, excited = (np.linalg.eigvalsh(eps * kin + g * pair)[0] for kin, pair in blocks)
        gap = float(excited - ground)
        closed = bogoliubov_spectrum(eps, g)
        rel = abs(gap - closed) / closed
        worst = max(worst, rel)
        rows.append((eps, g, closed, gap, rel))
    # E_q q / eps_q is smooth in q^2: extrapolate it to q = 0 along a q-tail
    params = ctx.wibg
    q_tail = [2.0 * math.pi / 120.0 * 0.5**j for j in range(4)]
    ratios = [bogoliubov_spectrum(dispersion(q, params), params.c2v(q)) * q
              / dispersion(q, params) for q in q_tail]
    limit = asymptotics.richardson([q**2 for q in q_tail], ratios)
    gap_rel = abs(limit - omega_gap(params)) / omega_gap(params)
    passed = worst < tol and gap_rel < OMEGA_REL_BOUND
    return CheckResult(passed,
                       ("eps", "c2v", "E_closed", "E_dense_gap", "rel_err"),
                       rows, {"worst_rel": worst, "omega_rel": gap_rel,
                              "omega_rel_bound": OMEGA_REL_BOUND})


def _check_variance_oracle(ctx: CheckContext, tol: float) -> CheckResult:
    """Closed-form variances vs the finite-volume Wick oracle."""
    rows = []
    worst = 0.0
    q_phys = math.pi

    # ground-state mean-field gas: both variances exactly 1/2
    grid4 = MomentumGrid(4.0, 6.0)
    st = quasifree.QuasiFreeState("imperfect", ctx.imperfect_ground, grid4)
    exact_rho = quasifree.finite_volume_variance(st, "rho", (0, 0, 2))
    exact_a = quasifree.finite_volume_variance(st, "A", (0, 0, 2))
    for label, val in (("rho_ground", exact_rho), ("A_ground", exact_a)):
        err = abs(val - 0.5)
        worst = max(worst, err)
        rows.append((label, 0.5, val, err))

    thermal = ctx.imperfect_thermal
    # the Boltzmann tail exp(-beta k^2 / 2m) sets the momentum cutoff, and the
    # box sides grow with it; even sides put q = pi on the lattice at box / 2
    width = max(1.0, math.sqrt(thermal.mass / thermal.beta))
    cutoff = 6.5 * width
    boxes = [2.0 * round(side * width / 2.0) for side in (4.0, 6.0, 8.0)]
    vals = []
    for box in boxes:
        grid = MomentumGrid(box, cutoff)
        st = quasifree.QuasiFreeState("imperfect", thermal, grid)
        vals.append(quasifree.finite_volume_variance(st, "rho", (0, 0, int(box) // 2)))
    # lattice sums over an integrand with excluded 1/k^2 points carry an
    # odd-power error expansion in the spacing
    extrapolated = asymptotics.richardson_powers([1.0 / b for b in boxes],
                                                 vals, (1.0, 3.0))
    closed = fluctuations.variance_rho_imperfect(q_phys, thermal)
    rel = abs(extrapolated - closed) / abs(closed)
    worst = max(worst, rel)
    rows.append(("rho_thermal", closed, extrapolated, rel))

    st = quasifree.QuasiFreeState("imperfect", thermal, MomentumGrid(boxes[0], cutoff))
    val = quasifree.finite_volume_variance(st, "A", (0, 0, int(boxes[0]) // 2))
    closed = fluctuations.variance_A_imperfect(q_phys, thermal)
    rel = abs(val - closed) / abs(closed)
    worst = max(worst, rel)
    rows.append(("A_thermal", closed, val, rel))

    wibg, wibg_boxes = ctx.wibg_thermal, (4.0, 6.0, 8.0)
    for kind, closed_fn in (("rho0", fluctuations.variance_rho0_wibg),
                            ("A", fluctuations.variance_A_wibg)):
        vals = []
        for box in wibg_boxes:
            grid = MomentumGrid(box, 4.0)
            st = quasifree.QuasiFreeState("wibg", wibg, grid)
            vals.append(quasifree.finite_volume_variance(st, kind, (0, 0, int(box) // 2)))
        extrapolated = asymptotics.richardson([b**-3 for b in wibg_boxes], vals)
        closed = closed_fn(q_phys, wibg)
        rel = abs(extrapolated - closed) / abs(closed)
        worst = max(worst, rel)
        rows.append((f"{kind}_wibg", closed, extrapolated, rel))

    return CheckResult(worst < tol, ("case", "closed_form", "oracle", "error"),
                       rows, {"worst": worst})


def _check_divergence(ctx: CheckContext, tol: float) -> CheckResult:
    """Small-q divergence powers of the two variance contributions."""
    params = ctx.imperfect_thermal
    qs = np.geomspace(0.005, 0.05, 10)
    coth_fit = asymptotics.fit_power_law(
        [(q, fluctuations.variance_A_imperfect(q, params)) for q in qs])
    bubble_fit = asymptotics.fit_power_law(
        [(q, asymptotics.bose_bubble_integral(q, params).value) for q in qs])
    err_coth = abs(coth_fit.exponent + 2.0)
    err_bubble = abs(bubble_fit.exponent + 1.0)
    passed = err_coth < tol and err_bubble < 0.05
    rows = [("coth", coth_fit.exponent, -2.0, err_coth),
            ("bubble", bubble_fit.exponent, -1.0, err_bubble)]
    return CheckResult(passed, ("term", "fitted", "target", "error"), rows,
                       {"coth": coth_fit.exponent, "bubble": bubble_fit.exponent})


def _check_delta(ctx: CheckContext, tol: float) -> CheckResult:
    """Volume-scaling exponent delta across the three phases."""
    rows, passed, details = [], True, {}
    thermal = ctx.imperfect_thermal
    cases = [
        (asymptotics.PhaseTag("condensed"), thermal),
        (asymptotics.PhaseTag("critical"), replace(thermal, condensate_density=0.0)),
        (asymptotics.PhaseTag("normal", mu_shift=NORMAL_MU_SHIFT),
         replace(thermal, condensate_density=0.0)),
    ]
    for phase, params in cases:
        fit = asymptotics.delta_exponent(phase, params)
        err = abs(fit.exponent - phase.reference_delta)
        passed = passed and err < tol
        rows.append((phase.kind, fit.exponent, phase.reference_delta, err))
        details[f"delta_{phase.kind}"] = fit.exponent
    details["worst_error"] = max(row[3] for row in rows)
    return CheckResult(passed, ("phase", "fitted_delta", "target", "error"), rows, details)


def _bch_operators(params: ModelParams, box: float):
    q, mq = (0, 0, 1), (0, 0, -1)
    amp = math.sqrt(params.condensate_density * box**3)
    ws = fock.FockWorkspace(box, [(0, 0, 0), q, mq],
                            {(0, 0, 0): fock.coherent_cutoff(amp),
                             q: 10, mq: 10})
    state = fock.FiniteState.coherent_vacuum(ws, amp)
    rho = fock.condensate_fluct_matrix(ws, q, amp)
    a_op = fock.order_param_fluct_matrix(ws, q)
    return ws, state, rho, a_op


def _check_bch(ctx: CheckContext, tol: float) -> CheckResult:
    """BCH defect decreases with volume and respects the seminorm bound."""
    params = ctx.imperfect_ground
    rows, defects = [], []
    for box in (2.0, 3.0, 4.0):
        _, state, rho, a_op = _bch_operators(params, box)
        defect = fock.bch_defect(rho, a_op, state)
        bound = fock.appendix_bound(rho, a_op, state)
        rows.append((box**3, defect, bound))
        defects.append((defect, bound))
    monotone = all(defects[i][0] > defects[i + 1][0] for i in range(len(defects) - 1))
    bounded = all(d <= b * (1.0 + 1e-9) + tol for d, b in defects)
    return CheckResult(monotone and bounded, ("volume", "defect", "bound"), rows,
                       {"monotone": float(monotone), "bounded": float(bounded)})


def _clt_operator(ws, amp, f, g):
    q = (0, 0, 1)
    return (fock.condensate_fluct_matrix(ws, q, amp, f_q0=f)
            + fock.order_param_fluct_matrix(ws, q, g_q0=g)).tocsr()


def _check_clt(ctx: CheckContext, tol: float) -> CheckResult:
    """Gaussian character of the smeared fluctuation at the largest volume."""
    params = replace(ctx.imperfect_ground, total_density=CLT_DENSITY,
                     condensate_density=CLT_DENSITY)
    box = 5.0
    amp = math.sqrt(CLT_DENSITY * box**3)
    q, mq = (0, 0, 1), (0, 0, -1)
    ws = fock.FockWorkspace(box, [(0, 0, 0), q, mq],
                            {(0, 0, 0): fock.coherent_cutoff(amp), q: 10, mq: 10})
    state = fock.FiniteState.coherent_vacuum(ws, amp)
    rng = np.random.default_rng(11)
    rows, worst_rel, worst_imag = [], 0.0, 0.0
    for draw in range(10):
        while True:
            f = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(f + 1j * g) > 0.5:
                break
        s_closed = fluctuations.variance_general(
            fluctuations.FluctuationSpec("imperfect", ws.k_phys(q), f_q0=f, g_q0=g), params)
        t_max = 1.5 / math.sqrt(s_closed)
        t_grid = np.linspace(0.0, t_max, 7)[1:]
        f_op = _clt_operator(ws, amp, f, g)
        values = fock.clt_char_function(f_op, t_grid, state)
        worst_imag = max(worst_imag, float(np.max(np.abs(np.angle(values)))))
        y = -2.0 * np.log(np.abs(values))
        coeffs = np.polyfit(t_grid**2, y, 2)
        s_fit = float(coeffs[1])
        rel = abs(s_fit - s_closed) / s_closed
        worst_rel = max(worst_rel, rel)
        rows.append((draw, f.real, f.imag, g.real, g.imag, s_closed, s_fit, rel))
    passed = worst_rel < tol and worst_imag < 1e-6
    return CheckResult(passed,
                       ("draw", "f_re", "f_im", "g_re", "g_im",
                        "s_closed", "s_fit", "rel_err"),
                       rows, {"worst_rel": worst_rel, "worst_imag": worst_imag})


def _virial_ratio(model: str, params: ModelParams) -> Tuple[float, float]:
    """Oscillator energy ``Omega`` and the extrapolated ``Omega^2 <rho~^2> / <A~^2>``
    of the rescaled pair.

    Evaluated on the closed-form variances along the tail ``q = 0.25 * 2^-j``,
    j = 0..3, and Richardson-extrapolated in ``q^2`` (the ratio is smooth in ``q^2``).
    """
    if model == "imperfect":
        # ground state: both closed forms are exactly 1/2 at every q
        return 1.0, (fluctuations.variance_rho_imperfect(0.25, params)
                     / fluctuations.variance_A_imperfect(0.25, params))
    omega = omega_gap(params)
    q_tail = [0.25 * 0.5**j for j in range(4)]
    ratios = [
        omega**2 * (fluctuations.variance_rho0_wibg(qn, params) / qn)
        / (qn * fluctuations.variance_A_wibg(qn, params))
        for qn in q_tail
    ]
    return omega, asymptotics.richardson([qn**2 for qn in q_tail], ratios)


def _closure_result(report: fock.ClosureReport, params: ModelParams,
                    tol: float) -> CheckResult:
    omega, virial = _virial_ratio(report.model, params)
    rate_ok = abs(report.remainder_rate.exponent + 0.5) < 0.1
    virial_ok = abs(virial - 1.0) < 1e-3
    passed = report.identity_defect < tol and rate_ok and virial_ok \
        and report.secondary_defect < 1e-8
    rows = [(v, n) for v, n in zip(report.volumes, report.remainder_norms)]
    return CheckResult(passed, ("volume", "remainder_seminorm"), rows, {
        "identity_defect": report.identity_defect,
        "secondary_defect": report.secondary_defect,
        "remainder_rate": report.remainder_rate.exponent,
        "virial_ratio": virial,
        "oscillator_energy": omega,
    })


def _check_goldstone_imperfect(ctx: CheckContext, tol: float) -> CheckResult:
    params = ctx.imperfect_ground
    return _closure_result(fock.goldstone_closure_check("imperfect", params), params, tol)


def _check_goldstone_wibg(ctx: CheckContext, tol: float) -> CheckResult:
    params = ctx.wibg
    return _closure_result(fock.goldstone_closure_check("wibg", params), params, tol)


def _virial_result(model: str, params: ModelParams, tol: float) -> CheckResult:
    omega, ratio = _virial_ratio(model, params)
    err = abs(ratio - 1.0)
    return CheckResult(err < tol, ("omega", "virial_ratio", "error"),
                       [(omega, ratio, err)], {"virial_ratio": ratio})


def _check_virial_imperfect(ctx: CheckContext, tol: float) -> CheckResult:
    return _virial_result("imperfect", ctx.imperfect_ground, tol)


def _check_virial_wibg(ctx: CheckContext, tol: float) -> CheckResult:
    return _virial_result("wibg", ctx.wibg, tol)


def _check_structure_factor(ctx: CheckContext, tol: float) -> CheckResult:
    """Linear condensate-density law vs nonzero full-density constant."""
    params = ctx.wibg
    qs = np.geomspace(1e-4, 1e-3, 8)
    slopes = [fluctuations.structure_factor(q, params) / q for q in qs]
    spread = (max(slopes) - min(slopes)) / float(np.mean(slopes))
    fulls = [fluctuations.structure_factor(q, params, "full") for q in qs]
    full_ratio = max(fulls) / min(fulls)
    passed = spread < tol and full_ratio < FULL_RATIO_BOUND and min(fulls) > 0.0
    rows = [(q, s, f) for q, s, f in zip(qs, slopes, fulls)]
    return CheckResult(passed, ("q", "S_condensate_over_q", "S_full"), rows,
                       {"slope_spread": spread, "full_ratio": full_ratio,
                        "full_ratio_bound": FULL_RATIO_BOUND})


def _check_u_commutation(ctx: CheckContext, tol: float) -> CheckResult:
    report = fock.u_density_commutator_check(ctx.wibg)
    passed = (report.commutator_defect < tol and report.rewrite_defect < tol
              and report.wibg_commutator_norm > WIBG_COMMUTATOR_FLOOR)
    rows = [("full_interaction_commutator", report.commutator_defect),
            ("quadratic_rewrite", report.rewrite_defect),
            ("truncated_interaction_commutator", report.wibg_commutator_norm)]
    return CheckResult(passed, ("quantity", "norm"), rows, {
        "commutator_defect": report.commutator_defect,
        "rewrite_defect": report.rewrite_defect,
        "wibg_commutator_norm": report.wibg_commutator_norm,
        "wibg_commutator_floor": WIBG_COMMUTATOR_FLOOR,
    })


def _check_truncation(ctx: CheckContext, tol: float) -> CheckResult:
    step1, step2 = fock.truncation_rederivation_check(ctx.wibg)
    passed = step1 < tol and step2 < tol
    rows = [("zero_mode_reordering_identity", step1),
            ("c_substitution_vs_hamiltonian", step2)]
    return CheckResult(passed, ("step", "defect"), rows,
                       {"reordering_defect": step1, "substitution_defect": step2})


def _check_equivalence(ctx: CheckContext, tol: float) -> CheckResult:
    """(f, 0) and (0, Jf) are the same limiting field, both models."""
    rng = np.random.default_rng(23)
    rows, worst = [], 0.0
    for model, params in (("imperfect", ctx.imperfect_ground), ("wibg", ctx.wibg)):
        for _ in range(10):
            f = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            s1 = fluctuations.FluctuationSpec(model, 0.5, f_q0=f)
            s2 = fluctuations.FluctuationSpec(model, 0.5, g_q0=fluctuations.j_map(f))
            d = fluctuations.equivalence_distance(s1, s2, params)
            worst = max(worst, d)
            rows.append((model, f.real, f.imag, d))
    return CheckResult(worst < tol, ("model", "f_re", "f_im", "distance"), rows,
                       {"worst": worst})


def _check_bubble_scaling(ctx: CheckContext, tol: float) -> CheckResult:
    """Quadrature self-consistency of the bubble integrals."""
    params = ctx.imperfect_thermal
    rng = np.random.default_rng(3)
    rows, worst = [], 0.0
    for _ in range(5):
        q = float(rng.uniform(0.05, 2.0))
        coarse = asymptotics.bose_bubble_integral(q, params, rtol=1e-6)
        fine = asymptotics.bose_bubble_integral(q, params, rtol=1e-10)
        rel = abs(coarse.value - fine.value) / abs(fine.value)
        worst = max(worst, rel)
        rows.append((q, coarse.value, fine.value, rel, fine.tail_bound))
    tails_ok = all(r[4] < 1e-8 * max(abs(r[2]), 1e-3) for r in rows)
    return CheckResult(worst < tol and tails_ok,
                       ("q", "coarse", "fine", "rel_diff", "tail_bound"), rows,
                       {"worst_rel": worst})


def _check_lifetime(ctx: CheckContext, tol: float) -> CheckResult:
    """Dynamical energy-scale exponents: 2 (mean-field) vs 1 (superfluid)."""
    qs = np.geomspace(1e-3, 1e-2, 6)
    rows, passed, details = [], True, {}
    for model, params in (("imperfect", ctx.imperfect_ground), ("wibg", ctx.wibg)):
        fit = asymptotics.dynamical_rate_fit(model, params, qs)
        target = asymptotics.lifetime_exponent(model)
        err = abs(fit.exponent - target)
        passed = passed and err < tol and round(fit.exponent) == target
        rows.append((model, fit.exponent, target, err))
        details[f"exponent_{model}"] = fit.exponent
    details["worst_error"] = max(row[3] for row in rows)
    return CheckResult(passed, ("model", "fitted", "target", "error"), rows, details)


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
                 "closure of the canonical pair dynamics, mean-field gas", 1e-10,
                 _check_goldstone_imperfect),
        CheckDef("goldstone-wibg", "fock_oracle",
                 "closure of the canonical pair dynamics, superfluid gas", 1e-10,
                 _check_goldstone_wibg),
        CheckDef("virial-imperfect", "fluctuations",
                 "virial identity of the oscillator pair, mean-field gas", 1e-3,
                 _check_virial_imperfect),
        CheckDef("virial-wibg", "fluctuations",
                 "virial identity of the oscillator pair, superfluid gas", 1e-3,
                 _check_virial_wibg),
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
