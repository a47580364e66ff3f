"""Rules the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS
import surfrep
from surfrep.surface import _Value
from test_facewidth import toroidal_grid

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


def _modules_after(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after it runs ``statements``,
    with the package on its path, no site packages and no bytecode written."""
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{statements}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def _package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.partition(".")[0] == "surfrep"}


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """The value classes are plain classes, so loading every module of the
    package pays for neither ``dataclasses`` nor the ``inspect`` it imports."""
    loaded = _modules_after("import surfrep.cli\nfrom surfrep import *")
    assert len(_package_modules(loaded)) > 2
    assert not {"dataclasses", "inspect"} & loaded


def test_start_up_loads_no_package_module_but_the_cli():
    """``import surfrep.cli`` compiles only the package and the CLI: each
    subcommand imports the modules it calls when it runs."""
    loaded = _modules_after("import surfrep.cli")
    assert _package_modules(loaded) == {"surfrep", "surfrep.cli"}
    assert "fractions" not in loaded


def test_a_subcommand_loads_only_the_modules_it_calls(tmp_path):
    """Each subcommand loads exactly the package modules it calls: the CLI
    builds the report rows itself, so ``generate`` loads no certificate
    and ``certify`` no families, and only the chain families certify, so
    ``verify`` on a torus loads no certificate either."""
    grid = tmp_path / "grid3.json"
    grid.write_text(json.dumps(toroidal_grid(3).to_json()))
    # one pair of pants with each arc doubled: it certifies level 4
    piece = tmp_path / "piece.json"
    piece.write_text(json.dumps({"n": 4, "pieces": [{"piece": "P", "circles": 3, "arcs": [
        {"a": a, "b": b, "mult": 2} for a, b in ((0, 1), (1, 2), (0, 2))]}]}))
    verify = {"families", "surface", "smoothing"}
    expected = {
        ("generate", "exactly:4,2"): {"families", "surface"},
        ("verify", "torus:3,5"): verify,
        ("verify", "exactly:4,2"): verify | {"certificate"},
        ("verify", "lpq:2,7"): verify | {"certificate"},
        ("certify", str(piece)): {"certificate", "surface"},
        ("bounds", "--tag", "two_bridge"): {"bounds", "surface"},
        ("facewidth", str(grid)): {"facewidth", "surface"},
    }
    for argv, modules in expected.items():
        loaded = _modules_after(
            f"import surfrep.cli\nif surfrep.cli.main({list(argv)!r}):\n    raise SystemExit(1)"
        )
        wanted = {"surfrep", "surfrep.cli"} | {f"surfrep.{m}" for m in modules}
        assert _package_modules(loaded) == wanted, argv


def test_the_certificate_loads_no_smoothing():
    """Cut pieces live with the certificate that evaluates them, so the
    certificate needs only the surface module, not the orbit counter."""
    loaded = _package_modules(_modules_after("import surfrep.certificate"))
    assert loaded == {"surfrep", "surfrep.certificate", "surfrep.surface"}


def test_the_families_load_only_the_surface():
    """Building an instance needs only the surface module: ``verify_family``
    imports the component counter, and for a chain family the certificate,
    when it runs."""
    loaded = _package_modules(_modules_after("import surfrep.families"))
    assert loaded == {"surfrep", "surfrep.families", "surfrep.surface"}


def test_no_declared_field_is_stored_by_hand():
    """A value class hands its declared fields to the base's ``__init__`` in
    declared order, and the base stores them: ``_set_field`` is left for
    the undeclared tables an instance keeps, so no call of it in the
    package names a declared field."""
    for module in pkgutil.iter_modules(surfrep.__path__):
        importlib.import_module(f"surfrep.{module.name}")
    declared = {
        name
        for cls in _Value.__subclasses__() if cls.__module__.startswith("surfrep.")
        for name in cls._fields
    }
    assert len(declared) > 20
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno} {arg.value}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "_set_field"
        for arg in node.args
        if isinstance(arg, ast.Constant) and arg.value in declared
    ]
    assert not found, f"_set_field calls that store a declared field: {found}"


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


def test_subcommand_arguments_are_added_in_one_place():
    """A subcommand call parses with a lone parser and help goes through
    the full tree; both get their arguments from ``cli._arguments``, so no
    second list of flags can drift from the first.  ``build_parser``'s
    ``add_subparsers`` adds no argument, and no parser sets defaults:
    ``main`` takes a call's steps from ``cli._COMMANDS`` by its name."""
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    adders = {"add_argument", "add_argument_group", "add_mutually_exclusive_group",
              "set_defaults"}

    def calls(root: ast.AST) -> list[ast.Call]:
        return [node for node in ast.walk(root)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in adders]

    helpers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_arguments"]
    assert len(helpers) == 1 and calls(helpers[0])
    inside = set(calls(helpers[0]))
    found = [f"cli.py:{node.lineno} {node.func.attr}" for node in calls(tree)
             if node not in inside or node.func.attr == "set_defaults"]
    assert not found, f"arguments added outside cli._arguments, or defaults set: {found}"


def test_intervals_narrow_only_in_the_step_function():
    """Every rule and every seed narrows through ``bounds._apply``, the one
    step function, and it through ``_narrow``, the one narrower: no other
    code in the module names ``_narrow``, so a new fact is a step in the
    table, not a call of it.  ``_narrow`` alone decides that an interval
    is empty: ``Contradiction(`` is called at one site of the module, the
    ``raise`` inside it."""
    path = PACKAGE / "bounds.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def functions(name: str) -> list[ast.FunctionDef]:
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name]

    def uses(root: ast.AST, name: str) -> list[ast.Name]:
        return [node for node in ast.walk(root)
                if isinstance(node, ast.Name) and node.id == name]

    steppers, narrowers = functions("_apply"), functions("_narrow")
    assert len(steppers) == 1 and len(narrowers) == 1 and uses(steppers[0], "_narrow")
    inside = set(uses(steppers[0], "_narrow"))
    found = [f"bounds.py:{node.lineno}" for node in uses(tree, "_narrow") if node not in inside]
    assert not found, f"intervals narrowed outside bounds._apply: {found}"
    raised = [node.exc for node in ast.walk(narrowers[0]) if isinstance(node, ast.Raise)]
    sites = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Contradiction"]
    assert len(sites) == 1 and sites[0] in raised, (
        f"Contradiction( called at {[node.lineno for node in sites]}, "
        "not once in a raise inside bounds._narrow")


def test_progress_is_read_only_in_the_pass_loop():
    """Whether a pass moved anything is decided in ``bounds.propagate``
    alone, from the identity of the stored intervals: neither ``_narrow``
    nor ``_apply`` returns a value, so no flag of progress runs beside
    the facts."""
    path = PACKAGE / "bounds.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    steppers = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in ("_narrow", "_apply")]
    assert sorted(node.name for node in steppers) == ["_apply", "_narrow"]
    found = [f"bounds.py:{ret.lineno} in {node.name}" for node in steppers
             for ret in ast.walk(node) if isinstance(ret, ast.Return) and ret.value is not None]
    assert not found, f"a step function returns a value: {found}"


def test_one_crossing_rule_with_no_torus_arm():
    """``surface._crossed`` is the one pairing rule, for k classes per
    family with the torus as k = 1: it reads no ``kind``, and, run for
    every class of a call, it builds no set and sorts nothing."""
    rules = [(path, node) for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_crossed")]
    assert [(path.name, node.name) for path, node in rules] == [("surface.py", "_crossed")]
    found = [f"surface.py:{node.lineno}" for node in ast.walk(rules[0][1])
             if isinstance(node, ast.Attribute) and node.attr == "kind"
             or isinstance(node, (ast.Set, ast.SetComp))
             or isinstance(node, ast.Name) and node.id in {"set", "frozenset", "sorted"}]
    assert not found, f"a torus arm, a set or a sort in the crossing rule: {found}"


def test_the_smoothing_names_no_gcd():
    """The torus count must come from the induction, never from gcd(p, q),
    which is the value the tests and ``verify``'s torus row check it
    against: ``smoothing.py`` names no ``gcd``, as a variable, an
    attribute or an imported name."""
    path = PACKAGE / "smoothing.py"
    found = [f"smoothing.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Name) and "gcd" in node.id.lower()
             or isinstance(node, ast.Attribute) and "gcd" in node.attr.lower()
             or isinstance(node, ast.alias) and "gcd" in node.name.lower()]
    assert not found, f"the smoothing names gcd: {found}"


def test_the_crossing_count_has_one_home():
    """``MultiCurve.boundary_count`` is the one place that counts a class's
    crossings: besides it, ``surface._crossed`` is read only by the walk
    that builds the reconnection map and by the cut that keys arcs, so a
    caller that needs a count asks for it instead of summing its own."""
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        tops = [(getattr(top, "name", "<module>"), top) for top in tree.body
                if not isinstance(top, ast.ClassDef)]
        tops += [(f"{top.name}.{node.name}", node) for top in tree.body
                 if isinstance(top, ast.ClassDef)
                 for node in top.body if isinstance(node, ast.FunctionDef)]
        callers |= {(path.name, name) for name, top in tops for node in ast.walk(top)
                    if isinstance(node, ast.Name) and node.id == "_crossed"}
    assert sorted(callers) == [
        ("certificate.py", "cut_pieces"),
        ("smoothing.py", "_return_pieces"),
        ("surface.py", "MultiCurve.boundary_count"),
    ]


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


def test_the_package_reads_each_public_name_from_its_module():
    """The package namespace imports a name's module on first access and
    hands out the module's own object; a name it does not export is an
    AttributeError, and a star import binds every exported name."""
    for name, short in surfrep._EXPORTS.items():
        module = importlib.import_module(f"surfrep.{short}")
        assert name in module.__all__
        assert getattr(surfrep, name) is getattr(module, name)
        assert vars(surfrep)[name] is getattr(module, name)
    namespace: dict = {}
    exec("from surfrep import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(surfrep.__all__)
    assert len(surfrep.__all__) == 20
    with pytest.raises(AttributeError, match="'nope'"):
        surfrep.nope
    loaded = _modules_after("import surfrep\nsurfrep.propagate")
    assert _package_modules(loaded) == {"surfrep", "surfrep.bounds", "surfrep.surface"}


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


def test_every_decoder_has_a_reader_in_the_package():
    """Each ``from_json`` a package class defines is called in the package
    outside that class: a decoder exists only for a file a command reads,
    not for a format nothing loads."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    decoders = {
        node.name: node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "from_json" for f in node.body)
    }
    assert len(decoders) > 1

    def calls(root: ast.AST, name: str) -> set[ast.Call]:
        return {
            node for node in ast.walk(root)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_json"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == name
        }

    found = [
        name for name, cls in sorted(decoders.items())
        if not set().union(*(calls(tree, name) for tree in trees)) - calls(cls, name)
    ]
    assert not found, f"from_json decoders that nothing in the package calls: {found}"


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


def test_every_mutant_snippet_occurs_once():
    """Each entry of the mutant catalog in ``tests/mutants.py`` breaks one
    place: its snippet occurs exactly once in its module, its replacement
    differs, and each file that must kill it is a test file of the suite."""
    assert len(MUTANTS) >= 10
    for mutant in MUTANTS:
        source = (PACKAGE / mutant.module).read_text()
        assert source.count(mutant.snippet) == 1, mutant.reason
        assert mutant.replacement != mutant.snippet and mutant.killers, mutant.reason
        for name in mutant.killers:
            assert (Path(__file__).parent / name).is_file(), (mutant.reason, name)
