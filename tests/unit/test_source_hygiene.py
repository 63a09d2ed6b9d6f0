"""Source hygiene that needs no linter: stdlib ``ast`` over ``src/repro``.

ruff and mypy are not installable in every build image, so the three
import rules this repo relies on are checked here, in tier-1:

* a module imports no name it never uses (package ``__init__`` files
  exist to re-export and are exempt);
* every name a module lists in ``__all__`` is bound in that module;
* only a package ``__init__`` may list in ``__all__`` a name it merely
  imported -- every other module exports what it defines, so each public
  name has one import home;

plus a vocabulary rule: the spellings of the deleted compatibility
layer, and of readers deleted for having no production caller, stay
deleted; a boundary rule: ``repro.cluster`` reads no underscore name of
an object it does not own; a codec rule: under ``repro.net`` a
``struct.Struct`` is packed and unpacked inside ``Writer`` / ``Reader``
only, so ``struct.error`` has one place to become ``CodecError``; and one
rule for the workflow file, which no build image ever runs: a CI job
that imports ``repro`` installs what ``pyproject.toml`` says ``repro``
depends on.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
IDS = [str(path.relative_to(SRC)) for path in MODULES]


def _imported(tree: ast.Module) -> set[str]:
    """Every name an import statement binds, anywhere in the module."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            found.append(node.annotation)
    return [annotation for annotation in found if annotation is not None]


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level by anything other than an import."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_imports_and_exports(path: Path) -> None:
    tree = ast.parse(path.read_text())
    imported, exported, defined = _imported(tree), _exported(tree), _defined(tree)
    unbound = exported - defined - imported
    assert not unbound, f"in __all__ but not bound here: {sorted(unbound)}"
    if path.name != "__init__.py":
        unused = imported - _used(tree) - exported
        assert not unused, f"imported but never used: {sorted(unused)}"
        borrowed = exported - defined
        assert not borrowed, f"re-exported from elsewhere: {sorted(borrowed)}"


def test_the_compatibility_vocabulary_stays_deleted() -> None:
    banned = re.compile(
        r"\brel_stats\b|pre-refactor|backwards compat"
        r"|\bon_eof\b|\bread_telemetry\b|\bscan_dir\b|\ball_corrected\b")
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "\n".join(hits)


CLUSTER = [path for path in MODULES if path.parent.name == "cluster"]


@pytest.mark.parametrize("path", CLUSTER, ids=[path.name for path in CLUSTER])
def test_cluster_reads_no_foreign_underscore_name(path: Path) -> None:
    """The socket deployment drives the editor classes through their
    public surface: ``obj._name`` is allowed on ``self`` / ``cls`` only
    (dunders aside, and ``os._exit``, the injected crash, by name)."""
    reach_ins = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__") and ast.unparse(node) != "os._exit"
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls"))
    ]
    assert not reach_ins, "\n".join(reach_ins)


NET = [path for path in MODULES if path.parent.name == "net"]
STRUCT_METHODS = {"pack", "pack_into", "unpack", "unpack_from", "iter_unpack"}
#: The top-level scopes that may touch a layout directly: the two codec
#: primitives, and the stream's 4-byte length prefix (``frame`` checks
#: the 16 MiB guard first and ``read_frame`` unpacks exactly the four
#: bytes it read, so neither can see ``struct.error``).
STRUCT_HOMES = {"codec.py": {"Writer", "Reader"}, "wire.py": {"frame", "read_frame"}}


def _is_struct_struct(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("struct.Struct", "Struct"))


def _layout_names(trees: list[ast.Module]) -> set[str]:
    """Every module-level name bound to a ``struct.Struct(...)``."""
    return {
        target.id
        for tree in trees for node in tree.body
        if isinstance(node, ast.Assign) and _is_struct_struct(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }


def _struct_uses_outside(tree: ast.Module, homes: set[str],
                         layouts: set[str]) -> list[str]:
    """Lines that pack, unpack or catch ``struct`` outside ``homes``."""
    found = []
    for scope in tree.body:
        if getattr(scope, "name", None) in homes:
            continue
        for node in ast.walk(scope):
            if not isinstance(node, ast.Attribute):
                continue
            on = node.value
            if ast.unparse(node) == "struct.error" or (
                node.attr in STRUCT_METHODS and (
                    _is_struct_struct(on)
                    or isinstance(on, ast.Name) and on.id in layouts | {"struct"})):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_layouts_are_packed_and_unpacked_by_writer_and_reader_only() -> None:
    trees = {path: ast.parse(path.read_text()) for path in NET}
    layouts = _layout_names(list(trees.values()))
    assert {"_U32", "_OP_HEAD", "_DATA_HEAD", "_LENGTH_PREFIX"} <= layouts
    hits = [
        f"{path.name}:{hit}"
        for path, tree in trees.items()
        for hit in _struct_uses_outside(tree, STRUCT_HOMES.get(path.name, set()), layouts)
    ]
    assert not hits, "\n".join(hits)
    # The rule sees what it is for: each spelling of a stray pack/unpack.
    planted = ast.parse(
        "def f(data):\n"
        "    try:\n"
        "        return _U32.unpack(data), struct.pack('>I', 1)\n"
        "    except struct.error:\n"
        "        return struct.Struct('>B').unpack_from(data)\n"
        "class Writer:\n"
        "    def pack(self, layout): return _U32.pack(1)\n")
    assert len(_struct_uses_outside(planted, {"Writer"}, layouts)) == 4


def _ci_jobs() -> dict[str, list[str]]:
    """Job name -> its non-comment lines (plain text: no YAML parser in stdlib)."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs: dict[str, list[str]] = {}
    for line in text.partition("\njobs:\n")[2].splitlines():
        key = re.fullmatch(r"  ([\w-]+):", line)
        if key:
            jobs[key.group(1)] = []
        elif jobs and not line.lstrip().startswith("#"):
            jobs[next(reversed(jobs))].append(line)
    return jobs


def test_every_ci_job_that_imports_repro_installs_its_dependencies() -> None:
    """``repro.clocks.vector`` imports numpy and ``repro.analysis.causality``
    networkx at module import; a clean runner has neither."""
    runs_repro = re.compile(r"python -m repro\b|-m pytest\b|perfbench/run\.py")
    importing = {name: lines for name, lines in _ci_jobs().items()
                 if any(runs_repro.search(line) for line in lines)}
    assert {"tests", "perfbench", "cluster-smoke"} <= set(importing)
    for name, lines in importing.items():
        installs = [line for line in lines if "pip install" in line]
        for package in ("numpy", "networkx"):
            assert any(re.search(rf"\b{package}\b", line) for line in installs), (
                f"CI job {name!r} imports repro but never pip-installs {package}")
