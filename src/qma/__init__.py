"""Numerical toolkit for quaternionic Monge-Ampere energies of the radial power family."""

from .energy import (
    EnergyParams,
    EnergyResult,
    QuadratureError,
    energy_numeric,
    sphere_area,
    total_mass,
)
from .hessian import (
    HESSIAN_SCALE,
    EvaluationPoint,
    PowerFamilyMember,
    fd_quaternionic_hessian,
    ma_density,
    mixed_density,
    power_hessian_closed,
)
from .ineq import (
    CertificateError,
    ConstantsReport,
    RatioCertificate,
    F_func,
    alpha_const,
    check_two_term,
    constants_report,
    d_const,
    dFdb_closed,
    f_lemma,
    find_violation,
    ratio_R,
    ratio_general,
    ratio_grid,
)
from .quatlin import (
    HyperhermitianMatrix,
    PairingError,
    complex_adjoint,
    mixed_moore_det,
    moore_det,
)
from .specfun import beta, digamma, log_beta, log_gamma

__version__ = "0.1.0"
