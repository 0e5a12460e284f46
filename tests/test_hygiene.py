"""Static checks over the package source and the README that documents it."""
from __future__ import annotations

import argparse
import ast
import importlib
import itertools
import re
import types
from pathlib import Path

import pytest

from htnsat import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "htnsat"
README = PACKAGE.parent.parent / "README.md"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# package __init__ modules import names to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
MAX_LINE = 99


def package_trees() -> dict[str, ast.Module]:
    """Every package source parsed, keyed by its path in the package."""
    return {str(p.relative_to(PACKAGE)): ast.parse(p.read_text())
            for p in SOURCES}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never mentions again."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def self_calls(tree: ast.Module) -> list[str]:
    """Calls by which a function calls itself: by its name, or for a
    method as ``self.<name>``. A method's bare name means another function."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    found: list[tuple[int, str]] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if id(fn) in methods:
                hit = (isinstance(f, ast.Attribute) and f.attr == fn.name
                       and isinstance(f.value, ast.Name) and f.value.id == "self")
            else:
                hit = isinstance(f, ast.Name) and f.id == fn.name
            if hit:
                found.append((node.lineno, fn.name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def unused_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """Private functions and methods (``_name``, not dunder) whose name no
    module of the package mentions, as a name or as an attribute."""
    mentioned = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
    return [f"{module} line {fn.lineno}: {fn.name}"
            for module, tree in sorted(trees.items()) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name.startswith("_") and not fn.name.endswith("__")
            and fn.name not in mentioned]


def uncalled_methods(trees: dict[str, ast.Module], module: str,
                     cls: str) -> list[str]:
    """Public methods of class cls in module that no other module of the
    package calls, as ``<anything>.<name>(...)``."""
    called = {n.func.attr for name, tree in trees.items() if name != module
              for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    return [f"{module} line {fn.lineno}: {cls}.{fn.name}"
            for c in ast.walk(trees[module])
            if isinstance(c, ast.ClassDef) and c.name == cls
            for fn in c.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_") and fn.name not in called]


def long_lines(text: str) -> list[str]:
    """Lines longer than MAX_LINE characters."""
    return [f"line {i}: {len(line)} characters"
            for i, line in enumerate(text.splitlines(), 1) if len(line) > MAX_LINE]


def collector_policy_calls(tree: ast.Module) -> list[str]:
    """Calls of gc.disable, gc.freeze or gc.set_threshold, under any name
    the module imports them by."""
    modules: set[str] = set()
    functions: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update((a.asname or a.name, a.name) for a in node.names)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in modules):
            name = f.attr
        elif isinstance(f, ast.Name):
            name = functions.get(f.id)
        else:
            continue
        if name in ("disable", "freeze", "set_threshold"):
            found.append((node.lineno, name))
    return [f"line {line}: gc.{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z\nprint(a.b)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]


# Input of any depth must not crash the planner, so no function recurses.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_function_calls_itself(path):
    assert self_calls(ast.parse(path.read_text())) == []


def test_checker_sees_a_function_that_calls_itself():
    tree = ast.parse(
        "def f(n):\n"
        "    return f(n - 1) if n else 0\n"
        "class C:\n"
        "    def walk(self, x):\n"
        "        return self.walk(x)\n"
        "    def f(self):\n"
        "        return f(2)\n"  # the module's f, not the method
        "def outer():\n"
        "    def inner():\n"
        "        return outer()\n"
        "    return inner\n"
        "def g():\n"
        "    return f(1) + self.g()\n")
    assert self_calls(tree) == ["line 2: f", "line 5: walk", "line 10: outer"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_line_is_too_long(path):
    assert long_lines(path.read_text()) == []


def test_checker_sees_a_long_line():
    text = "x = 1\n" + "y" * MAX_LINE + "\n" + "z" * (MAX_LINE + 1) + "\n"
    assert long_lines(text) == [f"line 3: {MAX_LINE + 1} characters"]


def test_no_private_function_is_unused():
    assert unused_private_functions(package_trees()) == []


def test_checker_sees_an_unused_private_function():
    trees = {
        "a.py": ast.parse(
            "def _called(): pass\n"
            "def _orphan(): pass\n"
            "class C:\n"
            "    def __init__(self): self._step()\n"
            "    def _step(self): pass\n"
            "    def _spare(self): pass\n"
            "    def public(self): pass\n"),
        "b.py": ast.parse("import a\na._called()\n"),
    }
    assert unused_private_functions(trees) == [
        "a.py line 2: _orphan", "a.py line 6: _spare"]


# A method of the SAT session that only its own module or the tests call
# is code the planner pays nothing for, such as a bulk path kept for tests.
def test_every_public_session_method_is_called_outside_the_solver():
    assert uncalled_methods(package_trees(), "sat/solver.py", "SatSession") == []


def test_checker_sees_an_uncalled_public_method():
    trees = {
        "s.py": ast.parse(
            "class S:\n"
            "    def used(self): pass\n"
            "    def spare(self): self.used()\n"
            "    def mentioned(self): pass\n"
            "    def _private(self): pass\n"
            "class T:\n"
            "    def other(self): pass\n"
            "S().spare()\n"),  # a call inside the module does not count
        "b.py": ast.parse("import s\ns.S().used()\nf = s.S().mentioned\n"),
    }
    assert uncalled_methods(trees, "s.py", "S") == [
        "s.py line 3: S.spare", "s.py line 4: S.mentioned"]


# Collector policy belongs to the caller: the package keeps the collector's
# cost down by holding fewer tracked objects, not by switching it off.
def test_no_collector_policy_in_the_package():
    found = [f"{p.relative_to(PACKAGE)} {hit}"
             for p in SOURCES
             for hit in collector_policy_calls(ast.parse(p.read_text()))]
    assert found == []


def test_checker_sees_a_collector_policy_call():
    tree = ast.parse(
        "import gc\n"
        "import gc as collector\n"
        "from gc import freeze, set_threshold as threshold\n"
        "gc.disable()\n"
        "collector.set_threshold(0)\n"
        "freeze()\n"
        "threshold(1)\n"
        "gc.collect()\n"
        "gc.enable()\n"
        "other.disable()\n")
    assert collector_policy_calls(tree) == [
        "line 4: gc.disable", "line 5: gc.set_threshold", "line 6: gc.freeze",
        "line 7: gc.set_threshold"]


FILE_METHODS = ("open", "read_text", "read_bytes", "write_text", "write_bytes")


def file_io_calls(tree: ast.Module) -> list[str]:
    """Calls of open, by name or as a method, and of the Path methods
    that read or write a whole file."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(f, ast.Attribute) and f.attr in FILE_METHODS:
            found.append((node.lineno, f".{f.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


# The command line is the one module that reads and writes files; the
# search, the encoder and the readers take and return text and objects.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_file_io_outside_the_command_line(path):
    assert file_io_calls(ast.parse(path.read_text())) == []


def test_checker_sees_file_io():
    tree = ast.parse(
        "from pathlib import Path\n"
        "with open(path, 'w') as fh:\n"
        "    fh.write(text)\n"
        "Path(p).write_text(text)\n"
        "data = Path(p).read_bytes()\n"
        "q.read_text()\n"
        "q.write_bytes(b'')\n"
        "Path(p).open()\n"
        "opener = open\n"
        "sess.write(text)\n"
        "read_text(q)\n")
    assert file_io_calls(tree) == [
        "line 2: open", "line 4: .write_text", "line 5: .read_bytes",
        "line 6: .read_text", "line 7: .write_bytes", "line 8: .open"]


def option_strings(parser: argparse.ArgumentParser) -> list[str]:
    """Every option string the parser defines, -h and --help included."""
    return [o for action in parser._actions for o in action.option_strings]


def unnamed_options(options: list[str], text: str) -> list[str]:
    """Options that text never names as a whole word."""
    return [o for o in options
            if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)]


def useful_flags(readme: str) -> list[str]:
    """The --flags named in the indented block under "Useful flags:"."""
    lines = readme.split("Useful flags:\n", 1)[1].splitlines()
    block = itertools.takewhile(lambda l: not l or l.startswith("    "), lines)
    return [f for line in block for f in re.findall(r"--[\w-]+", line)]


# A flag the parser drops must leave the README with it, and a new one
# must be documented there.
def test_every_option_is_named_in_the_readme():
    options = option_strings(cli._solver_parser()) + option_strings(
        cli._bench_parser())
    assert unnamed_options(options, README.read_text()) == []


def test_every_useful_flag_is_a_solver_option():
    defined = set(option_strings(cli._solver_parser()))
    assert [f for f in useful_flags(README.read_text()) if f not in defined] == []


def test_checker_sees_drifted_flag_docs():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode")
    parser.add_argument("--no-mutex", action="store_true")
    text = ("Useful flags:\n\n    --mode M   as before\n    --amo S    gone,\n"
            "               like --mandpre-prune\n\nAfter it, --later.\n")
    assert option_strings(parser) == ["-h", "--help", "--mode", "--no-mutex"]
    assert unnamed_options(option_strings(parser), text) == [
        "-h", "--help", "--no-mutex"]
    assert useful_flags(text) == ["--mode", "--amo", "--mandpre-prune"]


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """Names in the module's __all__ that it does not bind."""
    return [n for n in module.__all__ if not hasattr(module, n)]


# A name a package stops defining must leave its __all__ with it.
@pytest.mark.parametrize("name", ["htnsat", "htnsat.sat", "htnsat.hddl"])
def test_every_exported_name_resolves(name):
    assert unresolved_exports(importlib.import_module(name)) == []


def test_checker_sees_an_unresolved_export():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert unresolved_exports(module) == ["gone"]
