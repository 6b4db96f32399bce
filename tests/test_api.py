"""The public surface of qma, pinned: API comes or goes only with an edit here."""

import ast
import inspect
from pathlib import Path

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
    "PowerFamilyMember",
    "QuadratureError",
    "RatioCertificate",
    "alpha_const",
    "beta",
    "check_two_term",
    "cli",
    "constants_report",
    "dFdb_closed",
    "d_const",
    "energy",
    "energy_numeric",
    "f_lemma",
    "fd_quaternionic_hessian",
    "find_violation",
    "hessian",
    "ineq",
    "log_gamma",
    "ma_density",
    "mixed_moore_det",
    "moore_det",
    "quatlin",
    "ratio_R",
    "ratio_general",
    "ratio_grid",
    "specfun",
]

MODULES = {
    specfun: ["beta", "log_gamma"],
    quatlin: [
        "HyperhermitianMatrix",
        "mixed_moore_det",
        "moore_det",
    ],
    hessian: [
        "EvaluationPoint",
        "HESSIAN_SCALE",
        "PowerFamilyMember",
        "fd_quaternionic_hessian",
        "ma_density",
            ],
    energy: [
        "EnergyParams",
        "EnergyResult",
        "QuadratureError",
        "energy_closed_core",
        "energy_numeric",
        "integrate_unit_interval",
        "log_pair_energy",
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
    "energy.energy_numeric": ("params", "a0", "tail"),
    "energy.integrate_unit_interval": ("f",),
    "energy.log_pair_energy": ("p", "n", "a", "b"),
    "hessian.EvaluationPoint": ("coords",),
    "hessian.EvaluationPoint.from_coords": ("coords",),
    "hessian.PowerFamilyMember": ("a", "n"),
    "hessian.PowerFamilyMember.as_function": ("self",),
    "hessian.fd_quaternionic_hessian": ("u", "point", "h"),
    "hessian.ma_density": ("member", "r"),
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
    "ineq.find_violation": ("params", "grid_size", "amin", "amax"),
    "ineq.ratio_R": ("params", "a", "b"),
    "ineq.ratio_general": ("params", "a0", "tail"),
    "ineq.ratio_grid": ("params", "grid_size", "amin", "amax"),
    "quatlin.HyperhermitianMatrix": ("data",),
    "quatlin.HyperhermitianMatrix.from_json_dict": ("obj",),
    "quatlin.mixed_moore_det": ("matrices",),
    "quatlin.moore_det": ("matrix",),
    "specfun.beta": ("x", "y"),
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



ROOT = Path(__file__).resolve().parents[1]
# the package and the benchmark's calls into it: a public name must have a caller here
CALLERS = sorted((ROOT / "src" / "qma").glob("*.py")) + [ROOT / "bench" / "tasks.py"]
# public names without such a caller, and the ROADMAP item that gives them one
UNCALLED = {"ineq.dFdb_closed": "item 6", "specfun.beta": "item 6"}
# the dunders every class may define; any other is API, an operator included
PROTOCOL = {"__init__", "__post_init__", "__repr__"}
LAYERS = {module.__name__.split(".")[-1] for module in MODULES}


def _bindings(tree, module: str, package: dict) -> dict:
    """What each module-level name of a source stands for: a public name "module.name", a module, or "qma"."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.Assign):
            out.update((t.id, f"{module}.{t.id}") for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "qma"):  # from . import energy
            out.update((a.asname or a.name, package.get(a.name, a.name)) for a in node.names)
        elif isinstance(node, ast.ImportFrom):  # from .energy import X, from qma.energy import X
            source = node.module.split(".")[-1]
            out.update((a.asname or a.name, f"{source}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.asname or a.name.split(".")[0], "qma") for a in node.names if a.name.startswith("qma"))
    return out


def _references(path: Path, package: dict, skipped: set) -> set:
    """The public names and the method names that a source refers to.

    A reference inside the definition it names, or inside a skipped
    definition ("module.name" or "module.Class.method"), does not count.
    """
    module = "qma" if path.name == "__init__.py" else path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _bindings(tree, module, package)
    found = set()

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner == "qma":
                return package.get(node.attr)
            return f"{owner}.{node.attr}" if owner in LAYERS else None
        return None

    def visit(node, key: str, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            key, inside = f"{key}.{node.name}", inside | {node.name}
            if key in skipped:
                return
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            target = resolve(node)
            if target and target.rsplit(".", 1)[-1] not in inside:
                found.add(target)
            if isinstance(node, ast.Attribute) and node.attr not in inside:
                found.add(node.attr)  # a method, on whatever object
        for child in ast.iter_child_nodes(node):
            visit(child, key, inside)

    visit(tree, module, frozenset())
    return found


def _public_api() -> dict:
    """Each public name, "module.name", and public method, "module.Class.method", with the name a caller uses."""
    api = {}
    for module in MODULES:
        prefix = module.__name__.split(".")[-1]
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        classes = {node.name: node.body for node in tree.body if isinstance(node, ast.ClassDef)}
        for name in module.__all__:
            api[f"{prefix}.{name}"] = f"{prefix}.{name}"
            for item in classes.get(name, []):
                if isinstance(item, ast.FunctionDef) and item.name not in PROTOCOL:
                    if not item.name.startswith("_") or item.name.endswith("__"):
                        api[f"{prefix}.{name}.{item.name}"] = item.name
    return api


def test_no_public_api_exists_only_for_the_tests():
    init = ast.parse((ROOT / "src" / "qma" / "__init__.py").read_text(encoding="utf-8"))
    package = {name: name for name in LAYERS | {"cli"}}
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            package.update((a.name, f"{node.module}.{a.name}") for a in node.names)
    api = _public_api()
    # a name called only from uncalled definitions is uncalled too: skip those until none is added
    uncalled = set()
    while True:
        skipped = uncalled | set(UNCALLED)
        referenced = set().union(*(_references(path, package, skipped) for path in CALLERS))
        found = {key for key, name in api.items() if name not in referenced}
        if found == uncalled:
            break
        uncalled = found
    assert uncalled == set(UNCALLED), sorted(uncalled ^ set(UNCALLED))
