"""Lint (stdlib ast only): every import in the package modules and the test
files is used, the package's __init__ exports exactly what it imports, and
every config field, every public function and class and every module
constant of the package is used by some caller outside the tests. The
command line has one parser, with one flag per run setting, and every
constant the README names exists."""
import argparse
import ast
import dataclasses
import importlib
import pathlib
import re

import pytest

from kppfrag import OptimConfig, SolverConfig
from kppfrag.cli import RunConfig, build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kppfrag"
PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# the package __init__ only re-exports, so it calls nothing
CALLERS = PACKAGE + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in bound.items()) if name not in used]


def imports_and_exports(source: str) -> tuple[set[str], set[str]]:
    """Names a package __init__ imports, and the names its __all__ lists."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported, exported


def keywords_passed(source: str, class_names) -> dict[str, set[str]]:
    """Keyword arguments passed to calls of each named class, whether called
    by bare name or as a module attribute."""
    passed = {name: set() for name in class_names}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in passed:
                passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def public_definitions(source: str) -> list[str]:
    """Public functions and classes defined at a module's top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def module_constants(source: str) -> list[str]:
    """ALL-CAPS names bound at a module's top level, private ones included;
    a tuple target binds each of its names."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        names += [node.id for target in targets for node in ast.walk(target)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", node.id)]
    return names


def names_referenced(source: str) -> set[str]:
    """Names a module refers to: bare names it reads, attribute names and
    the names it imports from other modules. Definitions and assignments
    do not count."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def readme_constants(text: str) -> list[str]:
    """ALL-CAPS names in the inline code spans of a markdown text, with
    their module prefix when they have one. Fenced blocks are skipped, and
    environment variables are not names of the package: KPPFRAG_* and any
    name assigned as NAME=value."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = [match.group(0) for span in re.findall(r"`([^`\n]+)`", text)
             for match in re.finditer(r"(?:\b[a-z_]+\.)?\b[A-Z][A-Z0-9_]+\b(?!=[^=])", span)]
    return [name for name in names if not name.startswith("KPPFRAG_")]


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d\nx: c = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: d"]


def test_keyword_checker_reads_bare_and_attribute_calls():
    source = ("a = Cfg(x=1, **extra)\nb = mod.Cfg(y=2)\nc = Other(z=3)\n"
              "d = Cfg\n")
    assert keywords_passed(source, ["Cfg"]) == {"Cfg": {"x", "y"}}


def test_reference_checker_reads_names_attributes_and_imports():
    defs = ("def by_import(): pass\nclass ByAttribute: pass\n"
            "def by_name(): pass\ndef unused(): pass\ndef _private(): pass\n"
            "CONSTANT = 1\n")
    assert public_definitions(defs) == ["by_import", "ByAttribute", "by_name", "unused"]
    user = ("from pkg.mod import by_import\nmod.ByAttribute()\nf = by_name\n"
            "def unused(): pass\n")
    refs = names_referenced(user)
    assert [n for n in public_definitions(defs) if n not in refs] == ["unused"]


def test_constant_checker_reads_loads_attributes_and_imports():
    defs = ("READ = 1\n_BY_ATTRIBUTE: int = 2\n(BY_IMPORT,) = f()\nSTORED = 4\n"
            "lower = 5\nMixed_Case = 6\nx[K] = 7\ndef g():\n    INNER = 8\n")
    assert module_constants(defs) == [
        "READ", "_BY_ATTRIBUTE", "BY_IMPORT", "STORED"]
    user = ("y = READ + 1\nmod._BY_ATTRIBUTE\nfrom pkg.mod import BY_IMPORT\n"
            "STORED = 0\n")
    refs = names_referenced(user)
    assert [n for n in module_constants(defs) if n not in refs] == ["STORED"]


def test_readme_checker_reads_spans_and_prefixes():
    text = ("Set `KPPFRAG_THREADS`; `solver.MAX_NEWTON_ITERS`, `ARMIJO_C` and\n"
            "`min(solver.NEWTON_FORCING, ||R||/2)` but not `Grid`, `MAX_nodes`\n"
            "or SOLO.\n```\nFENCED_NAME\n```\n")
    assert readme_constants(text) == [
        "solver.MAX_NEWTON_ITERS", "ARMIJO_C", "solver.NEWTON_FORCING"]


def test_readme_checker_skips_environment_assignments():
    text = ("Run `OMP_NUM_THREADS=1 PYTHONPATH=src python -m pytest`; `BOGUS_NAME`\n"
            "and `BOGUS_NAME==1` are still names.\n")
    assert readme_constants(text) == ["BOGUS_NAME", "BOGUS_NAME"]


def test_export_checker_reads_imports_and_all():
    source = "from .a import b, c\nfrom .d import e as f\n__all__ = ['b', 'f', 'g']\n"
    assert imports_and_exports(source) == ({"b", "c", "f"}, {"b", "f", "g"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_init_exports_what_it_imports():
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    imported, exported = imports_and_exports(source)
    assert imported == exported


def test_every_config_field_has_a_caller():
    # a setting that no code outside the tests sets is a constant
    passed = {cls.__name__: set() for cls in (SolverConfig, OptimConfig)}
    for path in CALLERS:
        for name, kws in keywords_passed(path.read_text(encoding="utf-8"),
                                         passed).items():
            passed[name] |= kws
    unset = [f"{cls.__name__}.{f.name}" for cls in (SolverConfig, OptimConfig)
             for f in dataclasses.fields(cls) if f.name not in passed[cls.__name__]]
    assert unset == []


def test_every_public_name_has_a_caller():
    # a function or class that only tests use is a test oracle: it lives
    # in tests/conftest.py, not in the package
    referenced = set().union(*(names_referenced(path.read_text(encoding="utf-8"))
                               for path in CALLERS))
    uncalled = [f"{path.stem}.{name}" for path in PACKAGE
                for name in public_definitions(path.read_text(encoding="utf-8"))
                if name not in referenced]
    assert uncalled == []


def test_every_constant_has_a_reader():
    # a module constant that no code outside the tests reads is left over
    # from code that is gone
    referenced = set().union(*(names_referenced(path.read_text(encoding="utf-8"))
                               for path in CALLERS))
    unread = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in module_constants(path.read_text(encoding="utf-8"))
              if name not in referenced]
    assert unread == []


def test_cli_has_one_parser_with_one_flag_per_setting():
    # max_outer_iters is set only from config files; --config and --preset
    # choose where settings come from and are not settings themselves
    actions = build_parser()._actions
    assert not any(isinstance(a, argparse._SubParsersAction) for a in actions)
    flags = sorted(a.dest for a in actions if a.option_strings
                   and a.dest not in ("help", "config", "preset"))
    settings = sorted(f.name for f in dataclasses.fields(RunConfig)
                      if f.name not in ("command", "max_outer_iters"))
    assert flags == settings


def test_every_readme_constant_exists():
    # a constant the README cites must still be defined: qualified names in
    # their module, bare names in some module of the package
    modules = {path.stem: importlib.import_module(f"kppfrag.{path.stem}")
               for path in PACKAGE}
    missing = []
    for name in readme_constants((ROOT / "README.md").read_text(encoding="utf-8")):
        module, _, attr = name.rpartition(".")
        owners = [modules.get(module)] if module else modules.values()
        if not any(hasattr(owner, attr) for owner in owners):
            missing.append(name)
    assert missing == []
