"""The public surface of qma, pinned: API comes or goes only with an edit here."""

import qma
import qma.cli  # noqa: F401  (so that dir(qma) lists cli whatever the test order)
from qma import energy, hessian, ineq, quatlin, specfun

PACKAGE = [
    "CertificateError",
    "ConstantsReport",
    "DEFAULT_QUADRATURE",
    "EnergyParams",
    "EnergyResult",
    "EvaluationPoint",
    "F_func",
    "HESSIAN_SCALE",
    "HyperhermitianMatrix",
    "PairingError",
    "PowerFamilyMember",
    "QuadratureError",
    "QuadratureSpec",
    "Quaternion",
    "RatioCertificate",
    "alpha_const",
    "beta",
    "check_two_term",
    "cli",
    "complex_adjoint",
    "constants_report",
    "dFdb_closed",
    "d_const",
    "digamma",
    "energy",
    "energy_numeric",
    "f_lemma",
    "fd_quaternionic_hessian",
    "find_violation",
    "hessian",
    "ineq",
    "integrate_radial",
    "log_beta",
    "log_gamma",
    "ma_density",
    "mixed_density",
    "mixed_moore_det",
    "moore_det",
    "power_hessian_closed",
    "quatlin",
    "ratio_R",
    "ratio_general",
    "ratio_grid",
    "specfun",
    "sphere_area",
    "total_mass",
]

MODULES = {
    specfun: ["beta", "digamma", "log_beta", "log_gamma"],
    quatlin: [
        "HyperhermitianMatrix",
        "PairingError",
        "Quaternion",
        "complex_adjoint",
        "mixed_moore_det",
        "moore_det",
    ],
    hessian: [
        "EvaluationPoint",
        "HESSIAN_SCALE",
        "PowerFamilyMember",
        "fd_quaternionic_hessian",
        "ma_density",
        "mixed_density",
        "power_hessian_closed",
    ],
    energy: [
        "DEFAULT_QUADRATURE",
        "EnergyParams",
        "EnergyResult",
        "QuadratureError",
        "QuadratureSpec",
        "energy_closed_core",
        "energy_numeric",
        "integrate_radial",
        "integrate_unit_interval",
        "log_pair_energy",
        "sphere_area",
        "total_mass",
    ],
    ineq: [
        "CertificateError",
        "ConstantsReport",
        "F_func",
        "RatioCertificate",
        "alpha_const",
        "check_two_term",
        "constants_report",
        "dFdb_closed",
        "d_const",
        "f_lemma",
        "find_violation",
        "ratio_R",
        "ratio_general",
        "ratio_grid",
    ],
}


def test_package_surface():
    assert sorted(n for n in dir(qma) if not n.startswith("_")) == PACKAGE


def test_module_surfaces():
    for module, names in MODULES.items():
        assert sorted(module.__all__) == names, module.__name__
        assert all(hasattr(module, n) for n in names), module.__name__
