"""Goldstone-pair fluctuation operators for condensed Bose gases.

Numerical library + CLI verifying, at desk scale, the construction of
the canonical fluctuation pair (density, order parameter) for the
mean-field ("imperfect") Bose gas and the weakly interacting
(Bogoliubov / superfluid) Bose gas: closed-form variances, symplectic
and covariance forms, divergence exponents, BCH/CLT limits, and the
emergent harmonic-oscillator dynamics.
"""

__version__ = "0.1.0"

from .model import (
    BogoliubovCoefficients,
    ModelParams,
    MomentumGrid,
    bogoliubov_coefficients,
    bogoliubov_spectrum,
    bose_occupation,
    dispersion,
    gaussian_potential,
    omega_gap,
    thermal_kernel,
)
from .quasifree import (
    OperatorWord,
    QuasiFreeState,
    characteristic_function,
    finite_volume_variance,
    two_point,
    wick_expectation,
)
from .fluctuations import (
    FluctuationSpec,
    FormValue,
    covariance_form,
    equivalence_distance,
    j_map,
    structure_factor,
    symplectic_sigma,
    variance_A_imperfect,
    variance_A_wibg,
    variance_general,
    variance_rho0_wibg,
    variance_rho_imperfect,
)
from .asymptotics import (
    PhaseTag,
    PowerLawFit,
    bose_bubble_integral,
    delta_exponent,
    fit_power_law,
    lifetime_exponent,
    richardson,
    wibg_pair_bubble,
)
from .fock import (
    FiniteState,
    FockWorkspace,
    bch_defect,
    build_hamiltonian,
    clt_char_function,
    dynamics_commutator,
    goldstone_closure_check,
    pair_block,
    truncation_rederivation_check,
    u_density_commutator_check,
)
from .checks import REGISTRY, CheckContext, CheckResult, run_check

__all__ = [
    "__version__",
    # model
    "ModelParams", "MomentumGrid", "BogoliubovCoefficients",
    "gaussian_potential", "dispersion", "bose_occupation",
    "thermal_kernel", "bogoliubov_spectrum", "bogoliubov_coefficients", "omega_gap",
    # quasifree
    "QuasiFreeState", "OperatorWord", "two_point", "wick_expectation",
    "characteristic_function", "finite_volume_variance",
    # fluctuations
    "FluctuationSpec", "FormValue", "j_map",
    "variance_rho_imperfect", "variance_A_imperfect", "variance_rho0_wibg",
    "variance_A_wibg", "variance_general", "symplectic_sigma",
    "covariance_form", "equivalence_distance", "structure_factor",
    # asymptotics
    "PhaseTag", "PowerLawFit", "bose_bubble_integral", "wibg_pair_bubble",
    "fit_power_law", "delta_exponent", "lifetime_exponent", "richardson",
    # fock
    "FockWorkspace", "FiniteState", "pair_block", "build_hamiltonian",
    "bch_defect", "clt_char_function", "dynamics_commutator",
    "goldstone_closure_check", "truncation_rederivation_check",
    "u_density_commutator_check",
    # checks
    "REGISTRY", "CheckContext", "CheckResult", "run_check",
]
