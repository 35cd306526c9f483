"""Import rules for the package modules, checked on their syntax trees
since no linter ships with the toolchain.

Every top-level import is referenced: a name bound by a top-level ``import``
must occur as a name somewhere in the module, or be listed in its
``__all__``.  No function body imports: every import sits at module
level.  The verifier stays independent of construction: ``verify``
imports no package module but ``errors``, and no construction module
imports ``verify``.  The third-party modules the package imports are
exactly the dependencies ``pyproject.toml`` declares (none), and importing
the CLI loads nothing outside the standard library and the package.  Every
``RunConfig`` field is read by some module besides ``config``, so no knob
is a no-op, and it holds only the three values a caller sets.  The
factor-hom search ``_search_hom_pair`` has one user, ``reduce_factors``,
so a second hom search cannot come back unnoticed.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from ordersep.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordersep"


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in _imported_names(tree) if n not in used | _exported_names(tree)]
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    local = sorted({
        f"{inner.lineno}: {ast.unparse(inner)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert not local, f"{path.name} imports inside a function: {local}"


def _package_imports(path: Path) -> set[str]:
    """Package modules imported anywhere in ``path``, by bare name."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ordersep" if node.level else None, node.module]))
            dotted += [f"{module}.{a.name}" for a in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("ordersep.")}


def test_verifier_imports_only_errors():
    assert _package_imports(PACKAGE / "verify.py") <= {"errors"}


@pytest.mark.parametrize("name", ["pipeline", "lemmas", "covergraph", "groupcore", "words"])
def test_construction_does_not_import_verifier(name):
    assert "verify" not in _package_imports(PACKAGE / f"{name}.py")


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"ordersep"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    assert third_party == declared == set()


def test_cli_import_loads_only_stdlib_and_ordersep():
    # modules the interpreter loaded at start-up (site hooks) are not the CLI's
    code = (
        "import sys; before = set(sys.modules); import ordersep.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'ordersep'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_config_field_is_read():
    read = {
        node.attr
        for path in PACKAGE.glob("*.py")
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    unread = sorted(set(RunConfig.__dataclass_fields__) - read)
    assert not unread, f"RunConfig fields no module reads: {unread}"


def test_config_holds_only_caller_set_values():
    # a budget with one value in use is a module constant next to its user
    assert list(RunConfig.__dataclass_fields__) == ["seed", "max_vertices", "lemma1_attempts"]


def test_one_factor_hom_search():
    uses = [
        (path.name, getattr(top, "name", "<module>"))
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "_search_hom_pair"
    ]
    assert uses == [("pipeline.py", "reduce_factors")]
