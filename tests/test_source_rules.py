"""Rules the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import surfrep

PACKAGE = Path(surfrep.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """Invariants raise real exceptions: ``python -O`` strips assert
    statements, so a check written as one would silently stop running."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependencies: every absolute import
    names ``surfrep`` itself or a standard library module."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "surfrep" and top not in sys.stdlib_module_names:
                    found.append(f"{path.relative_to(PACKAGE.parent)}:{node.lineno} {name}")
    assert not found, f"imports outside the standard library: {found}"


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """The value classes are plain classes, so starting the CLI pays for
    neither ``dataclasses`` nor the ``inspect`` it imports."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import surfrep.cli; import surfrep; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]", done.stdout


def test_no_cli_integer_is_read_with_type_int():
    """Every integer typed on the command line goes through the ASCII
    ``-?[0-9]+`` reader: ``type=int`` would also take spaces, a plus
    sign, underscores and non-ASCII digits."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
        and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int"
                for k in node.keywords)
    ]
    assert not found, f"add_argument(..., type=int) in the package: {found}"


def test_every_public_name_resolves():
    """Each name in a module's ``__all__``, and in the package's, is bound:
    the bench tracer reads every entry with ``getattr``, and star imports
    fail on a stale one."""
    modules = [surfrep] + [
        importlib.import_module(f"surfrep.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    ]
    assert len(modules) > 1
    found = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr in module.__all__
        if not hasattr(module, attr)
    ]
    assert not found, f"names in __all__ that do not resolve: {found}"


def _public_names(tree: ast.Module) -> list[str]:
    """The entries of a module's ``__all__``."""
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )


def _uses(tree: ast.Module) -> set[str]:
    """Names a module reads, by name or as an attribute, outside the
    top-level definition of each name itself."""
    found: set[str] = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_public_name_has_a_user():
    """Each name in a module's ``__all__`` is read somewhere in the package
    outside its own definition, or shown as code in README.md: the public
    surface is what the program runs or documents, not what only tests call.
    The package's ``__init__`` re-exports names and so uses none of them."""
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = set().union(*(_uses(tree) for stem, tree in trees.items() if stem != "__init__"))
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    # fenced blocks and inline code spans
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))
    documented = set(re.findall(r"\w+", code))
    found = [
        f"surfrep.{stem}.{name}"
        for stem, tree in trees.items() if stem != "__init__"
        for name in _public_names(tree)
        if name not in used and name not in documented
    ]
    assert len(trees) > 1
    assert not found, f"public names with no user in the package or README: {found}"


def test_sources_parse_at_the_python_floor():
    """Every module of the package and of the tests parses with the grammar
    of the oldest Python that ``requires-python`` admits, so syntax newer
    than the floor fails here and not only on an old interpreter."""
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)"', pyproject, flags=re.M)
    assert floor, "no requires-python = \">=3.N\" line in pyproject.toml"
    minor = int(floor.group(1))
    modules = sorted(PACKAGE.rglob("*.py")) + sorted(Path(__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    found = []
    for path in modules:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, minor))
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno} {exc.msg}")
    assert not found, f"syntax newer than Python 3.{minor}: {found}"
