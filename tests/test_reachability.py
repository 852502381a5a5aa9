"""Guard: every public name in kiqa has a caller outside the tests.

A public name is a top-level function or class of a module in ``src/kiqa``,
or a method, property or class-level annotated field of such a class.  It
is reached when the package (outside the name's own definition),
``scripts/`` or ``perfbench/`` reads it:

- a top-level name when it is imported by name, read as an attribute of
  its module (``ad.f``), or read as a bare name inside its own module.  A
  bare name in a module that never imports it is another binding: a local
  ``sub`` in ``cli`` does not reach ``autodiff.sub``;
- a member when any attribute of that name is read (``x.m``), since the
  class of ``x`` cannot be seen;
- either when ``perfbench/tracing.py`` wraps it by a ``"module:Class.attr"``
  string.

Dunders are out of scope.  ``ALLOWED`` names each exception and why it stays.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import kiqa

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "fusion.grad_check":
        "the central-difference check behind the exact-float64-gradient fixed point",
    "external.load_external_vectors":
        "the route for a pretrained LM's vectors under the heads (kept without a CLI path)",
    "external.save_external_vectors":
        "the route for a pretrained LM's vectors under the heads (kept without a CLI path)",
}

_WRAP = re.compile(r"kiqa\.(\w+):(\w+(?:\.\w+)*)")


def _lines(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def definitions(module: str, tree: ast.Module):
    """(dotted name, owning class or None, own lines) for each public name of a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", None, _lines(node)
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{module}.{node.name}.{name}", node.name, _lines(item)


def references(tree: ast.Module, home: str | None):
    """(module or None, name, line) for each read of a kiqa name in a file.

    ``home`` is the file's own kiqa module, or None outside the package.  The
    module is None for an attribute read, which may be any class's member.
    """
    bound = {}  # local name -> kiqa module it is bound to, "" for the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] != "kiqa":
                    continue
                if alias.asname:  # import kiqa.x as y
                    bound[alias.asname] = alias.name.removeprefix("kiqa").lstrip(".")
                else:  # import kiqa.x binds kiqa
                    bound["kiqa"] = ""
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level and home:  # relative imports only inside the package
                source = f"kiqa.{source}" if source else "kiqa"
            for alias in node.names:
                if source == "kiqa":
                    bound[alias.asname or alias.name] = alias.name
                elif source.startswith("kiqa."):
                    yield source.removeprefix("kiqa."), alias.name, node.lineno

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and module_of(node.value) == "":
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield None, node.attr, node.lineno
            module = module_of(node.value)
            if module:
                yield module, node.attr, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and home:
            yield home, node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for module, path in _WRAP.findall(node.value):
                top, *members = path.split(".")
                yield module, top, node.lineno
                for member in members:
                    yield None, member, node.lineno


def reached(files: dict[str, tuple[str | None, ast.Module]]) -> dict[str, bool]:
    """Whether each public name is read from outside its own definition.

    ``files`` maps a file's path to its kiqa module (None outside the
    package) and its parsed tree.
    """
    reads = {}  # (module or None, name) -> [(file, line)]
    for path, (home, tree) in files.items():
        for module, name, line in references(tree, home):
            reads.setdefault((module, name), []).append((path, line))
    found = {}
    for path, (home, tree) in files.items():
        if home is None:
            continue
        for dotted, owner, own in definitions(home, tree):
            key = (None if owner else home, dotted.rpartition(".")[2])
            found[dotted] = any(not (where == path and line in own)
                                for where, line in reads.get(key, ()))
    return found


def stale(allowed, found: dict[str, bool]) -> list[str]:
    """The allowlist entries that are no longer defined or now have a caller."""
    return [name for name in allowed if found.get(name, True)]


@pytest.fixture(scope="module")
def found() -> dict[str, bool]:
    paths = sorted(Path(kiqa.__file__).parent.glob("*.py"))
    files = {str(p): (p.stem, ast.parse(p.read_text(encoding="utf-8"))) for p in paths}
    for folder in ("scripts", "perfbench"):
        for p in sorted((ROOT / folder).glob("*.py")):
            files[str(p)] = (None, ast.parse(p.read_text(encoding="utf-8")))
    return reached(files)


def load_perfbench(name: str, monkeypatch):
    """``perfbench/<name>.py`` loaded by path, so perfbench itself is not edited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_wrap_resolves(monkeypatch):
    # --trace 1's trace-names-resolve check, run on perfbench/tracing.py's
    # own resolver without editing it: a kiqa rename fails here first
    tracing = load_perfbench("tracing", monkeypatch)
    missing = []
    for wrap in tracing.WRAPS:
        owner, attr = tracing._resolve(wrap.target)
        if attr not in (owner.__dict__ if isinstance(owner, type) else dir(owner)):
            missing.append(wrap.target)
    assert len(tracing.WRAPS) > 30 and missing == []


def test_every_public_name_has_a_caller(found):
    assert [name for name, ok in found.items() if not ok and name not in ALLOWED] == []


def test_no_allowlist_entry_is_stale(found):
    assert stale(ALLOWED, found) == []


def test_the_reachability_guard_sees_every_way_of_reading():
    ops = "\n".join([
        "import re",
        "def sub(a, b): return a",          # read only through cli's local `sub`
        "def div(a, b): return div(a, b)",  # read only inside itself
        "def used_here(): pass",
        "def run(): return used_here()",    # reached from scripts: imported by name
        "def by_attribute(): pass",
        "def by_package(): pass",
        "def by_alias(): pass",
        "def by_module(): pass",
        "def wrapped(): pass",
        "def pattern(): pass",              # `.pattern` of a regex is not ops.pattern
        "def _private(): pass",
        "class Box:",
        "    size: int",
        "    label: str",                   # never read
        "    def __len__(self): return 0",  # dunder: out of scope
        "    @property",
        "    def volume(self): return self.size",
        "    def grow(self): return self.grow()",
        "    def traced(self): pass",
        "    def unused(self): pass",
    ])
    cli = "\n".join([
        "from . import ops as o",
        "from .ops import Box",
        "sub = parser.add_parser('x')",
        "sub.add_argument('--y')",
        "o.by_attribute()",
        "re.compile('a').pattern",
        "box = Box(size=1, label='x')",     # keywords write fields, they do not read them
        "box.volume",
        "def unused(): pass",
    ])
    script = "\n".join([
        "import kiqa.ops",
        "from kiqa.ops import run",
        "kiqa.ops.by_package()",
        "import kiqa.ops as k",
        "k.by_alias()",
        "from kiqa import ops",
        "ops.by_module()",
        "label = 'x'",
        "print(label)",                    # a script's own name, not Box.label
        "from .ops import sub",            # relative, outside the package: not kiqa
    ])
    tracing = 'WRAPS = ("kiqa.ops:wrapped", "kiqa.ops:Box.traced")'
    files = {
        "ops.py": ("ops", ast.parse(ops)),
        "cli.py": ("cli", ast.parse(cli)),
        "script.py": (None, ast.parse(script)),
        "tracing.py": (None, ast.parse(tracing)),
    }
    found = reached(files)
    assert sorted(name for name, ok in found.items() if not ok) == [
        "cli.unused", "ops.Box.grow", "ops.Box.label", "ops.Box.unused",
        "ops.div", "ops.pattern", "ops.sub",
    ]
    assert stale(["ops.div", "ops.gone", "ops.run"], found) == ["ops.gone", "ops.run"]
