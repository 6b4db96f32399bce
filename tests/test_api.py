"""The public surface of qma, pinned: API comes or goes only with an edit here."""

import inspect

import qma
import qma.cli  # noqa: F401  (so that dir(qma) lists cli whatever the test order)
from qma import energy, hessian, ineq, quatlin, specfun

PACKAGE = [
    "CertificateError",
    "ConstantsReport",
    "EnergyParams",
    "EnergyResult",
    "EvaluationPoint",
    "F_func",
    "HESSIAN_SCALE",
    "HyperhermitianMatrix",
    "PairingError",
    "PowerFamilyMember",
    "QuadratureError",
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
        "EnergyParams",
        "EnergyResult",
        "QuadratureError",
        "energy_closed_core",
        "energy_numeric",
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


# the parameter names of every public function, class and public method:
# a knob that was removed cannot come back unnoticed
SIGNATURES = {
    "energy.EnergyParams": ("p", "n"),
    "energy.EnergyResult": ("value", "method", "discrepancy"),
    "energy.energy_closed_core": ("p", "n", "a0", "tail"),
    "energy.energy_numeric": ("params", "a0", "tail", "rel_tol"),
    "energy.integrate_unit_interval": ("f", "rel_tol"),
    "energy.log_pair_energy": ("p", "n", "a", "b"),
    "energy.sphere_area": ("n",),
    "energy.total_mass": ("member",),
    "hessian.EvaluationPoint": ("coords", "radius"),
    "hessian.EvaluationPoint.from_coords": ("coords",),
    "hessian.PowerFamilyMember": ("a", "n"),
    "hessian.PowerFamilyMember.as_function": ("self",),
    "hessian.fd_quaternionic_hessian": ("u", "point", "h"),
    "hessian.ma_density": ("member", "r"),
    "hessian.mixed_density": ("members", "r"),
    "hessian.power_hessian_closed": ("member", "s"),
    "ineq.ConstantsReport": ("p", "n", "alpha", "d_p", "f_pn", "f_p2n"),
    "ineq.F_func": ("p", "n", "a", "b"),
    "ineq.RatioCertificate": (
        "p",
        "n",
        "a_star",
        "b_star",
        "ratio",
        "f_value",
        "quad_crosscheck",
        "error_bound",
        "violation_found",
    ),
    "ineq.alpha_const": ("p", "n"),
    "ineq.check_two_term": ("p", "n", "a", "b", "c"),
    "ineq.constants_report": ("p", "n"),
    "ineq.dFdb_closed": ("p", "n"),
    "ineq.d_const": ("p", "n"),
    "ineq.f_lemma": ("p", "n"),
    "ineq.find_violation": ("params", "grid_size", "amin", "amax", "rel_tol"),
    "ineq.ratio_R": ("params", "a", "b"),
    "ineq.ratio_general": ("params", "a0", "tail", "rel_tol"),
    "ineq.ratio_grid": ("params", "grid_size", "amin", "amax"),
    "quatlin.HyperhermitianMatrix": ("data",),
    "quatlin.HyperhermitianMatrix.diagonal": ("values",),
    "quatlin.HyperhermitianMatrix.from_json_dict": ("obj",),
    "quatlin.HyperhermitianMatrix.identity": ("n",),
    "quatlin.complex_adjoint": ("matrix",),
    "quatlin.mixed_moore_det": ("matrices",),
    "quatlin.moore_det": ("matrix",),
    "specfun.beta": ("x", "y"),
    "specfun.digamma": ("x",),
    "specfun.log_beta": ("x", "y"),
    "specfun.log_gamma": ("x",),
}


def _parameter_names(obj) -> tuple:
    return tuple(inspect.signature(obj).parameters)


def test_public_signatures():
    found = {}
    for module in MODULES:
        prefix = module.__name__.split(".")[-1]
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            found[f"{prefix}.{name}"] = _parameter_names(obj)
            if inspect.isclass(obj):
                for attr in vars(obj):
                    if not attr.startswith("_") and callable(getattr(obj, attr)):
                        found[f"{prefix}.{name}.{attr}"] = _parameter_names(getattr(obj, attr))
    assert found == SIGNATURES
