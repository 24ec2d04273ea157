import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

import ahmass

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_resolve():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_documented_modules_import():
    modules = re.findall(r":mod:`([\w.]+)`", ahmass.__doc__)
    assert modules
    for name in modules:
        importlib.import_module(name)


def loaded_by_importing_the_package(top: str) -> list:
    """The modules of the top-level package ``top`` in ``sys.modules`` after a
    fresh interpreter imports every module of ``ahmass``."""
    package = Path(ahmass.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    code = "import sys\n" + "".join(f"import ahmass.{name}\n" for name in modules)
    code += f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


def test_package_imports_without_scipy():
    """No module of the package loads scipy, which is not a dependency."""
    assert loaded_by_importing_the_package("scipy") == []


def test_package_imports_without_numpy():
    """Importing every module leaves numpy unloaded: only the float check of
    the finite action and the quadrature it runs import it, when they run."""
    assert loaded_by_importing_the_package("numpy") == []


NUMPY_FREE_SMOKE = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fractions import Fraction
from ahmass import harmonic, invariants, linalg, lorentz, massaspect, poly, quadrature, weyl
from ahmass.gaussian import GaussianRational
basis = harmonic.build_Hp(3, 2).basis
print(len(lorentz.highest_weight_vectors(basis, lorentz.algebra_act_on_poly, 3, [Fraction(2), Fraction(0)])))
print(len(weyl.chiral_hw_vector(0, 1).comp))
x, y, z = (poly.ExactPoly.variable(3, i) for i in range(3))
aspect = massaspect.SphereTensor(3, 3, {(0, 0): x * y / 2 + 1, (0, 2): z * z - x * Fraction(2, 3), (1, 2): y / 5})
m = massaspect.transversalize(aspect)
moved = massaspect.boost_action(1, m)
print(sum(len(p.terms) for p in moved.comp.values()), moved.is_transverse())
print(*invariants.wang_mass_vector(m))
a_1 = lorentz.named_generators(3)["a_1"]
print(*(invariants.check_equivariance_infinitesimal("conformal", m, "a_1", a_1, harmonic.build_Hp(3, p).basis) for p in (1, 2)))
print(weyl.build_Wp(3, 0).dim, weyl.build_Wp(3, 0).basis[0] is weyl.build_Wp(3, 0).basis[0])
print(*weyl.signature_Wp(3, 1))
z = GaussianRational(1, 2) * GaussianRational(1, -2)
print(type(z).__name__, z)
"""


def test_exact_pipeline_runs_without_numpy():
    """The exact modules import and solve highest-weight kernels with numpy blocked:
    one on H_2 and the null-frame solve behind the n = 3 chiral vector; the
    weighted action moves a rational aspect on its integer numerators; the
    masses evaluate the energy-momentum vector of that aspect (k = n) and
    its conformal equivariance residual under a_1, zero against H_1 and not
    against H_2; W_0 is built once, so two calls share their basis tensors;
    the signature of W_1 comes from its sparse integer Gram matrix; a
    product of Gaussian rationals with a zero imaginary part is a
    ``Fraction``.

    The script runs as is under any interpreter that finds ``src`` on its
    path, with no third-party package installed.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(ahmass.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NUMPY_FREE_SMOKE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "10", "114", "True", "8/9", "0", "0", "14/675", "0", "16/225", "10", "True", "12", "12", "Fraction", "5"]


def unused_imports(source: str) -> list:
    """Module-level imports whose name is never read (``__all__`` exempt)."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detects_dead_names():
    source = "from __future__ import annotations\nimport os\nfrom typing import List, Dict\n__all__ = ['Dict']\nx: List[int] = []\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_no_unused_module_imports():
    paths = sorted(Path(ahmass.__file__).parent.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {str(path.relative_to(path.parents[1])): unused_imports(path.read_text()) for path in paths}
    assert {name: dead for name, dead in found.items() if dead} == {}


def code_references(texts) -> Counter:
    """How often each name is referenced by the code of ``texts`` (a list of sources).

    Counted are ``Name`` ids, ``Attribute`` attrs, imported names and each
    part of a ``str`` constant that is a dotted identifier (the benchmark
    tracer names its targets that way).  Docstrings, comments and other
    prose count nothing.
    """
    counts = Counter()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.alias):
                counts.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    counts.update(parts)
    return counts


def unreferenced_definitions(sources: dict, corpus: list) -> list:
    """Top-level functions and class methods in ``sources`` (name -> text)
    that no code in ``corpus`` (a list of texts) references
    (:func:`code_references`).

    Dunder methods are exempt: the interpreter calls them.
    """
    defs = {}
    for fname, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    defs.setdefault(member.name, []).append(f"{fname}:{member.lineno}")
    counts = code_references(corpus)
    return sorted(f"{name} ({w})" for name, where in defs.items() if not counts[name] for w in where)


def test_unreferenced_definitions_detects_dead_names():
    lib = (
        "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def called(self):\n        pass\n\n    def orphan(self):\n        pass\n\n"
        "    def documented(self):\n        pass\n\n    def remarked(self):\n        pass\n"
    )
    caller = (
        '"""documented is named here only in prose."""\n'
        "used()\nC().called()\n# remarked, and used_elsewhere, a different name\n"
    )
    assert unreferenced_definitions({"lib.py": lib}, [lib, caller]) == [
        "dead (lib.py:5)", "documented (lib.py:19)", "orphan (lib.py:16)", "remarked (lib.py:22)"
    ]


def test_no_unreferenced_definitions():
    package = Path(ahmass.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    corpus = [
        path.read_text() for folder in (package, ROOT / "tests", ROOT / "perfbench") for path in sorted(folder.glob("*.py"))
    ]
    assert unreferenced_definitions(sources, corpus) == []


def unreached_oracles(oracles: dict, tests: list) -> list:
    """Top-level functions of the oracle modules ``oracles`` (name -> text)
    that the code of ``tests`` (a list of texts) does not reference
    (:func:`code_references`), directly or through top-level code of an
    oracle module that it reaches.
    """
    nodes = {}
    for fname, source in oracles.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                nodes.setdefault(name, []).append((fname, node))
    reached = {name for name in code_references(tests) if name in nodes}
    todo = list(reached)
    while todo:
        for _, node in nodes[todo.pop()]:
            for name in code_references([ast.unparse(node)]):
                if name in nodes and name not in reached:
                    reached.add(name)
                    todo.append(name)
    return sorted(
        f"{name} ({fname}:{node.lineno})"
        for name, where in nodes.items()
        if name not in reached
        for fname, node in where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def test_unreached_oracles_detects_untested_oracles():
    oracles = (
        "def direct():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def through_table():\n    return 2\n\n\n"
        "TABLE = {'a': through_table}\n\n\n"
        "def via_table():\n    return TABLE['a']()\n\n\n"
        "def orphan():\n    return helper()\n\n\n"
        "def named_in_prose():\n    pass\n"
    )
    test = (
        '"""named_in_prose is only mentioned here."""\n'
        "from x_oracles import direct, via_table\n\n\ndef test():\n    direct(), via_table()\n"
    )
    assert unreached_oracles({"x_oracles.py": oracles}, [test]) == [
        "named_in_prose (x_oracles.py:24)", "orphan (x_oracles.py:20)"
    ]


def test_every_oracle_is_reached_by_a_test():
    """Nothing leaves ``src`` without its oracle being run by some test."""
    oracles = {path.name: path.read_text() for path in sorted((ROOT / "tests").glob("*_oracles.py"))}
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert oracles and unreached_oracles(oracles, tests) == []


DOC_REFERENCE = re.compile(r":(func|meth|class|attr):`~?([\w.]+)`")


def namespace(source: str) -> tuple:
    """(defined, imported) of a module: the qualified names it defines at top
    level and in its classes ("f", "C", "C.m"), and each name it imports
    from a sibling module (``from .x import f``), mapped to that module."""
    defined, imported = set(), {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update({alias.asname or alias.name: node.module for alias in node.names})
            continue
        members = [(None, node)]
        if isinstance(node, ast.ClassDef):
            members += [(node.name, member) for member in node.body]
        for owner, member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [member.name]
            elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                targets = member.targets if isinstance(member, ast.Assign) else [member.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update(f"{owner}.{name}" if owner else name for name in names)
    return defined, imported


def stale_doc_references(sources: dict, package: str) -> list:
    """``:func:``, ``:meth:``, ``:class:`` and ``:attr:`` references in the
    docstrings of ``sources`` (module name -> text) that name no definition.

    A reference ``package.module.name`` resolves in that module.  A bare
    one resolves, in turn, as a member of the class whose docstrings hold
    it, as a definition of its own module, or, through the sibling import
    of its first part, in the module that part comes from.
    """
    spaces = {name: namespace(text) for name, text in sources.items()}

    def defines(module, qualname) -> bool:
        return module in spaces and qualname in spaces[module][0]

    def resolves(module, owner, target) -> bool:
        if target.startswith(package + "."):
            _, module, qualname = target.split(".", 2)
            return defines(module, qualname)
        source = spaces[module][1].get(target.split(".")[0])
        return (owner is not None and defines(module, f"{owner}.{target}")) or defines(module, target) or defines(source, target)

    stale = []

    def visit(module, node, owner):
        doc = ast.get_docstring(node, clean=False) if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for role, target in DOC_REFERENCE.findall(doc or ""):
            if not resolves(module, owner, target):
                stale.append(f"{module}: :{role}:`{target}`")
        for child in ast.iter_child_nodes(node):
            visit(module, child, child.name if isinstance(child, ast.ClassDef) else owner)

    for module, text in sources.items():
        visit(module, ast.parse(text), None)
    return sorted(stale)


def test_stale_doc_references_detects_missing_definitions():
    lib = (
        '"""Uses :func:`helper`, :class:`C`, :meth:`C.run`, :attr:`C.size`, :func:`pkg.other.tool`,\n'
        ':func:`~pkg.other.tool`, :func:`tool`, :meth:`Base.go` and :func:`pkg.other.gone`."""\n'
        "from .other import tool, Base\n\n\n"
        'def helper():\n    """Not :func:`missing`."""\n\n\n'
        'class C:\n    """Sized by :attr:`size`; :meth:`run` and :meth:`walk`."""\n\n'
        "    size: int = 0\n\n"
        '    def run(self):\n        """Calls :meth:`C.stop`."""\n'
    )
    other = "def tool():\n    pass\n\n\nclass Base:\n    def go(self):\n        pass\n"
    assert stale_doc_references({"lib": lib, "other": other}, "pkg") == [
        "lib: :func:`missing`", "lib: :func:`pkg.other.gone`", "lib: :meth:`C.stop`", "lib: :meth:`walk`"
    ]


def test_doc_references_name_existing_definitions():
    package = Path(ahmass.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert stale_doc_references(sources, "ahmass") == []


# Definitions that no route of the package or of the benchmark reaches,
# each kept on purpose: a paper object or closed form the tests check, or
# a utility the tests build their data with.
TEST_ONLY = {
    "ball_action": "paper object: the Lorentz action on the ball model",
    "check_restriction_eigenfunction": "paper object: H_p restricts to Laplace eigenfunctions",
    "de_donder_fix": "paper object: the de Donder gauge of a linearized Einstein solution",
    "dense_to_rows": "test utility: sparse rows of a dense matrix",
    "eta_tensor": "paper object: the Minkowski metric as a symmetric 2-tensor",
    "evaluate": "test utility: the exact value of a polynomial at a point",
    "highest_weight_vectors": "paper object: highest-weight vectors of any invariant span",
    "hyperboloid_normal_form": "paper object: the quadric reduction on the unit hyperboloid",
    "identity_element": "paper object: the identity of SO(n,1)",
    "matvec": "test utility: a sparse matrix times a sparse vector",
    "metric_multiplication_scaling": "paper object: the form under multiplication by X.X",
    "rational_rotation": "paper object: a rational rotation of SO(n,1)",
    "root_of_operator": "paper object: the root of a raising operator from its label",
    "signature_Hp_expected": "closed form: the signature of H_p",
    "signature_Wp_expected": "closed form: the signature of W_p",
    "sphere_action": "paper object: the boundary action on the sphere",
    "sphere_monomial_integral": "closed form: the sphere moments of one monomial",
    "to_coords": "test utility: the monomial coordinates of a homogeneous polynomial",
    "u_of_A": "paper object: the conformal factor u[A] of the boundary action",
    "wang_mass_vector": "paper object: the standard (Wang) mass vector",
    "weyl_to_potential": "paper object: a metric potential of a Weyl tensor",
}


def test_code_only_tests_reach_is_listed():
    """Each definition that only the tests call is on the list, with its reason."""
    package = Path(ahmass.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    corpus = [path.read_text() for folder in (package, ROOT / "perfbench") for path in sorted(folder.glob("*.py"))]
    assert {entry.split(" ")[0] for entry in unreferenced_definitions(sources, corpus)} == set(TEST_ONLY)


def unset_defaults(sources: dict, corpus: list) -> list:
    """Defaulted parameters of the top-level functions and class methods in
    ``sources`` (name -> text) that no call in ``corpus`` (a list of
    texts) sets, by keyword or by position.

    Calls are matched by name; a call of a class counts for its
    ``__init__``, and a call passing ``*args`` or ``**kwargs`` sets every
    parameter.
    """
    positional, keywords, starred = Counter(), {}, set()
    for text in corpus:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(k.arg is None for k in node.keywords):
                starred.add(name)
            positional[name] = max(positional[name], len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unset = []
    for fname, source in sources.items():
        for node in ast.parse(source).body:
            members = [(node.name, m, True) for m in node.body] if isinstance(node, ast.ClassDef) else [(None, node, False)]
            for owner, fn, bound in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = owner if fn.name == "__init__" else fn.name
                skip = int(bound and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                options = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
                options += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
                for arg, pos in options:
                    if name in starred or arg in keywords.get(name, ()):
                        continue
                    if pos is not None and positional[name] > pos:
                        continue
                    qualified = f"{owner}.{fn.name}" if owner else fn.name
                    unset.append(f"{qualified}({arg}) ({fname}:{fn.lineno})")
    return sorted(unset)


def test_unset_defaults_detects_unused_options():
    lib = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
        "def g(x=0):\n    pass\n\n\n"
        "class C:\n    def __init__(self, y=0, z=0):\n        pass\n\n"
        "    def m(self, u=0, v=0):\n        pass\n\n"
        "    @staticmethod\n    def s(w=0):\n        pass\n"
    )
    caller = "f(0, 1)\nf(0, d=4)\ng(*xs)\nC(1)\nC(z=2).m(1)\nC.s(1)\n"
    assert unset_defaults({"lib.py": lib}, [lib, caller]) == ["C.m(v) (lib.py:13)", "f(c) (lib.py:1)"]


def test_every_option_is_set_somewhere():
    package = Path(ahmass.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    corpus = [
        path.read_text() for folder in (package, ROOT / "tests", ROOT / "perfbench") for path in sorted(folder.glob("*.py"))
    ]
    assert unset_defaults(sources, corpus) == []


def test_tracer_targets_are_distinct_class_or_module_bindings():
    """Every traced target is bound on its own owner, one object per span name.

    The benchmark tracer looks each target up in ``vars(owner)`` and
    rebinds it by identity, so a method inherited from a base class, or
    two span names sharing one function object, would go untraced or
    merge two spans.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = {}
    for mod_name, attr, span in tracer.TARGETS:
        mod = importlib.import_module(f"ahmass.{mod_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        assert member in vars(owner), attr
        spans.setdefault(span, set()).add(id(vars(owner)[member]))
    names = list(spans)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not spans[a] & spans[b], (a, b)
