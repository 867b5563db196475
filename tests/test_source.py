"""Static checks on the package source, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

import graphcalc

_SOURCES = sorted(Path(graphcalc.__file__).resolve().parent.glob("*.py"))


def _unused_top_level_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that no code in it reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_top_level_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom __future__ import annotations\nb()\n")
    assert _unused_top_level_imports(tree) == ["os", "d"]


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each private name the module binds at top level:
    a ``_x`` function, class or assignment target (dunder names excluded)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if name.startswith("_") and not name.endswith("__")]
    return found


def _reads(node: ast.AST) -> set[str]:
    """Names read in ``node``, bare or as an attribute of another object."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each top-level private name that no statement of
    any of the modules reads, except the one defining it."""
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    unread = []
    for module, tree in trees.items():
        for name, defining in _private_definitions(tree):
            if not any(name in names for node, names in reads if node is not defining):
                unread.append(f"{module}.{name}")
    return unread


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in _SOURCES}


def test_every_private_name_is_read():
    trees = _package_trees()
    assert sum(len(_private_definitions(tree)) for tree in trees.values()) > 0
    assert _unread_private_names(trees) == []


def test_unread_private_name_is_found():
    a = ast.parse(
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f():\n    return _f()\n"
        "def _g():\n    return _A\n"
        "class _C:\n    pass\n"
    )
    b = ast.parse("import a\na._C()\n")
    assert _unread_private_names({"a": a, "b": b}) == ["a._B", "a._f", "a._g"]


def _functions(trees: dict[str, ast.Module]):
    """(``module.function`` or ``module.Class.method``, definition) of each
    top-level function and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{fn.name}", fn


def _functions_naming(trees: dict[str, ast.Module], name: str) -> list[str]:
    """Each top-level function or method whose body reads ``name``, bare or
    as an attribute."""
    return [qual for qual, fn in _functions(trees) if any(name in _reads(s) for s in fn.body)]


def _imports(node: ast.AST, package: str) -> bool:
    """Whether ``node`` holds an import of ``package`` or of a submodule."""
    for n in ast.walk(node):
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] == package for a in n.names):
            return True
        if isinstance(n, ast.ImportFrom) and n.level == 0 and n.module.split(".")[0] == package:
            return True
    return False


def _importers(trees: dict[str, ast.Module], package: str) -> list[str]:
    """Each top-level function or method that imports ``package``, and each
    module that imports it outside any function."""
    outside = [
        module
        for module, tree in trees.items()
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _imports(node, package)
    ]
    return outside + [qual for qual, fn in _functions(trees) if _imports(fn, package)]


# A rule stated once: the name that carries it, and the one function that may read it
@pytest.mark.parametrize(
    "name, owner",
    [
        ("gstrf", "calculus._splu"),
        ("ComplexNotAllowedError", "calculus._require_real"),
        ("load", "serialize.read_json"),
        ("_step_matrix", "evolution._implicit_stepper"),
        ("import_module", "__init__.__getattr__"),
        ("_schrodinger_system", "elliptic.solve_linear_schrodinger"),
        ("IncompatibleRHSError", "elliptic.solve_linear_schrodinger"),
    ],
)
def test_rule_is_stated_in_one_function(name, owner):
    assert _functions_naming(_package_trees(), name) == [owner]


def test_second_function_naming_a_rule_is_found():
    tree = ast.parse(
        "import s\nsplu = 1\n"
        "def f():\n    return s.splu(1)\n"
        "def g(x=splu):\n    return x\n"
        "class C:\n    def m(self):\n        def h():\n            return splu\n        return h\n"
    )
    assert _functions_naming({"a": tree}, "splu") == ["a.f", "a.C.m"]


def _strings(fn: ast.AST) -> list[str]:
    """The string constants in ``fn``, f-string pieces included, but not the
    docstrings, which may restate a rule for the reader."""
    docs = {
        id(node.body[0].value)
        for node in ast.walk(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        n.value
        for n in ast.walk(fn)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docs
    ]


def _functions_saying(trees: dict[str, ast.Module], text: str) -> list[str]:
    """Each top-level function or method with a string constant holding ``text``."""
    return [qual for qual, fn in _functions(trees) if any(text in s for s in _strings(fn))]


def test_finiteness_rule_is_stated_once():
    # errors._require_finite words every "must be ... and finite" message;
    # schrodinger_step's "nonzero and finite" dt is a rule of its own
    assert _functions_saying(_package_trees(), " and finite") == [
        "errors._require_finite",
        "evolution.schrodinger_step",
    ]


def test_count_rule_is_stated_once():
    # errors._require_count words every "must be an integer" message
    assert _functions_saying(_package_trees(), "must be an integer") == ["errors._require_count"]


def test_second_function_stating_a_rule_is_found():
    tree = ast.parse(
        'def f(x):\n    """x must be positive and finite."""\n    return x\n'
        "def g(x):\n    raise ValueError(f'x must be {x} and finite')\n"
        "class C:\n    def m(self):\n        def h():\n            return 'y: nonnegative and finite'\n"
        "        return h\n"
        "    def n(self):\n        return ' and fine'\n"
    )
    assert _functions_saying({"a": tree}, " and finite") == ["a.g", "a.C.m"]


def test_scipy_is_imported_by_two_functions():
    # SuperLU is loaded by file in calculus._superlu, with no import statement
    assert _importers(_package_trees(), "scipy") == [
        "elliptic.spectrum_smallest",
        "graph.WeightedGraph.weight_matrix",
    ]


def test_third_scipy_importer_is_found():
    tree = ast.parse(
        "import scipyx\nfrom . import scipy\nimport numpy, scipy.linalg\n"
        "def f():\n    import scipy.sparse.linalg as spla\n"
        "def g():\n    from scipy import sparse\n"
        "def h():\n    import scipyx\n"
        "class C:\n    def m(self):\n        def inner():\n            from scipy.sparse import eye\n"
    )
    assert _importers({"a": tree}, "scipy") == ["a", "a.f", "a.g", "a.C.m"]


def _package_importers(trees: dict[str, ast.Module]) -> list[str]:
    """Each top-level function or method that imports a graphcalc module, by
    a relative import or by the package's name."""
    return [
        qual
        for qual, fn in _functions(trees)
        if _imports(fn, "graphcalc")
        or any(isinstance(n, ast.ImportFrom) and n.level > 0 for n in ast.walk(fn))
    ]


def test_cli_functions_import_no_package_module():
    # the CLI reaches calculus, elliptic and evolution through the package's
    # name table, which loads each on first use
    assert _package_importers({"cli": _package_trees()["cli"]}) == []


def test_function_importing_a_package_module_is_found():
    tree = ast.parse(
        "import graphcalc\nfrom . import errors\n"
        "def f():\n    from .elliptic import SolverConfig\n"
        "def g():\n    import graphcalc.evolution\n"
        "def h():\n    import graphcalcx\n    return graphcalc.abs_fn\n"
        "class C:\n    def m(self):\n        def inner():\n            from .. import calculus\n"
    )
    assert _package_importers({"a": tree}) == ["a.f", "a.g", "a.C.m"]
