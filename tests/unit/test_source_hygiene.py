"""Source hygiene that needs no linter: stdlib ``ast`` over ``src/repro``.

ruff and mypy are not installable in every build image, so the three
import rules this repo relies on are checked here, in tier-1:

* a module imports no name it never uses (package ``__init__`` files
  exist to re-export and are exempt);
* every name a module lists in ``__all__`` is bound in that module;
* only a package ``__init__`` may list in ``__all__`` a name it merely
  imported -- every other module exports what it defines, so each public
  name has one import home;

plus a reader rule: every module under ``src/repro`` is imported by a
file in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` other
than its own package's ``__init__`` (a module only its own tests read is
a module nobody reads), and a package ``__init__`` re-exports only names
some file outside the package imports from it -- a short allow-list
carries one written reason per entry -- and every attribute a method
under ``src/`` stores on ``self`` is loaded, or named by a string
constant, somewhere in those same directories (state only a test reads
is state nobody reads); a vocabulary rule: the spellings
of the deleted compatibility layer, and of readers deleted for having no
production caller, stay deleted; a boundary rule: ``repro.cluster``
reads no underscore name of an object it does not own; a codec rule: under ``repro.net`` a
``struct.Struct`` is packed and unpacked inside ``Writer`` / ``Reader``
only, so ``struct.error`` has one place to become ``CodecError``; a
closure rule: nothing under ``repro.net`` schedules a lambda or a nested
function (a scheduled event carries a bound method and its arguments,
not a closure built per message or timer); and a dependency rule: nothing under ``src/`` imports a top-level module from
outside the standard library, and ``pyproject.toml`` declares no runtime
dependency.

Two rules hold what ``frozen`` used to, for the per-message values the
notifier builds once per destination and the reliability layer once per
packet: none of them has a ``__dict__``, and nothing under ``src/``
stores to an ``OpMessage``, ``ReliablePacket`` or ``CompressedTimestamp``
field name on an object other than ``self`` (all three are shared by
reference).
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
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


#: Where a module's reader may live.  ``tests/`` imports everything, so
#: it proves nothing about a module; it does count as a user of a name a
#: package re-exports.
READER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: What stays without a reader the rule can see, and why (six at most).
#: An entry the rule no longer needs is itself a finding.
UNREAD_ON_PURPOSE = {
    "repro/__init__.py":
        "the public API: README's quickstart imports from `repro`, "
        "whichever of its names this repository's own files happen to use",
    "repro/clocks/dimension.py":
        "EXPERIMENTS row DIM (the Charron-Bost bound the paper cites); its "
        "harness is the tier-1 test tests/unit/test_dimension.py",
    "repro/clocks/fz.py":
        "the paper's reference [7], the offline family its introduction "
        "argues against; checked against full vectors by "
        "tests/property/test_clock_properties.py::TestFZEquivalence",
    "repro/workloads/typing_model.py":
        "the burst driver ROADMAP 7(c) names as the workload that "
        "coalescing is to be driven from",
}


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, package: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported name (``name`` is ``None`` for a
    plain ``import module``); relative imports resolved in ``package``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                above = parts[:len(parts) + 1 - node.level]
                module = ".".join(above + ([module] if module else []))
            found += [(module, alias.name) for alias in node.names]
    return found


def reader_rule_findings(root: Path, allowed: dict[str, str]) -> list[str]:
    """Unread modules, unread re-exports and unneeded allow-list entries
    of the tree at ``root`` (``src/repro`` plus the reader directories)."""
    src = root / "src"
    paths = {_module_name(path, src): path for path in sorted(src.rglob("*.py"))}
    packages = {name for name, path in paths.items() if path.name == "__init__.py"}

    def package_of(name: str) -> str:
        return name if name in packages else name.rpartition(".")[0]

    #: importing file -> (where it lives, its module name under src/, its imports)
    files: dict[Path, tuple[str, str, list[tuple[str, str | None]]]] = {}
    for top in (*READER_DIRS, "tests"):
        for path in sorted((root / top).rglob("*.py")):
            name = _module_name(path, src) if top == "src" else ""
            files[path] = (top, name, _imports(path, package_of(name)))
    #: package -> name -> the module its ``__init__`` imports that name from.
    reexports = {
        package: {name: module for module, name in files[paths[package]][2]
                  if module in paths and name and f"{module}.{name}" not in paths}
        for package in packages
    }

    def home(module: str, name: str | None) -> str:
        """The module an import reads, followed through re-export tables."""
        if name and f"{module}.{name}" in paths:
            return f"{module}.{name}"
        if name in reexports.get(module, {}):
            return home(reexports[module][name], name)
        return module

    #: module -> who reads it: module names under ``src/``, or ``True``
    #: for a benchmark, an example or perfbench.  Neither a module itself
    #: nor its own package's ``__init__`` is a reader.
    readers: dict[str, set[str | bool]] = {name: set() for name in paths}
    #: (package, re-exported name) -> the files that import it from there.
    importers: dict[tuple[str, str], list[Path]] = {}
    for path, (top, reader, found) in files.items():
        for module, name in found:
            if name in reexports.get(module, {}):
                importers.setdefault((module, name), []).append(path)
            target = home(module, name)
            if target in paths and top != "tests" and reader not in (
                    target, package_of(target)):
                readers[target].add(reader or True)

    # A reader under ``src/`` counts while it is itself read: drop the
    # unread to a fixed point, so one dead module cannot keep another.
    kept = {_module_name(src / key, src) for key in allowed}
    alive = set(paths)

    def read(name: str) -> bool:
        return any(reader is True or reader in alive for reader in readers[name])

    while unread := {name for name in alive - packages - kept
                     if not name.endswith("__main__") and not read(name)}:
        alive -= unread
    findings = [f"{paths[name].relative_to(src)}: no reader outside tests/"
                for name in sorted(set(paths) - alive)]

    for package in sorted(packages):
        key = str(paths[package].relative_to(src))
        unused = sorted(
            name for name in reexports[package]
            if all(paths[package].parent in path.parents
                   for path in importers.get((package, name), ())))
        if unused and key not in allowed:
            findings.append(f"{key}: re-exports what nobody imports from it: {unused}")
        elif key in allowed and not unused:
            findings.append(f"{key}: allow-listed, but every name it re-exports is read")
    for key in allowed:
        name = _module_name(src / key, src)
        if name not in paths:
            findings.append(f"{key}: allow-listed, but there is no such module")
        elif name not in packages and read(name):
            findings.append(f"{key}: allow-listed, but it has a reader")
    return findings


def test_every_module_and_every_reexport_has_a_reader() -> None:
    assert len(UNREAD_ON_PURPOSE) <= 6
    findings = reader_rule_findings(ROOT, UNREAD_ON_PURPOSE)
    assert not findings, "\n".join(findings)


def test_the_reader_rule_fails_where_it_should(tmp_path: Path) -> None:
    """A four-module tree: an orphan, a module only the orphan reads, a
    re-export nobody imports, and one allow-listed module."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/__main__.py": "from repro.pkg import used\n",
        "src/repro/pkg/__init__.py":
            "from repro.pkg.a import used, unused\nfrom repro.pkg.kept import K\n",
        "src/repro/pkg/a.py": "used = unused = 1\n",
        "src/repro/pkg/orphan.py": "from repro.pkg.leaf import L\n",
        "src/repro/pkg/leaf.py": "L = 1\n",
        "src/repro/pkg/kept.py": "K = 1\n",
        "tests/test_orphan.py": "from repro.pkg.orphan import L\nfrom repro.pkg import K\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    reason = {"repro/pkg/kept.py": "a reason"}
    assert reader_rule_findings(tmp_path, reason) == [
        "repro/pkg/leaf.py: no reader outside tests/",
        "repro/pkg/orphan.py: no reader outside tests/",
        "repro/pkg/__init__.py: re-exports what nobody imports from it: ['unused']",
    ]
    # Without its entry the allow-listed module is an orphan too; with a
    # reader, its entry is what is left over.
    assert "repro/pkg/kept.py: no reader outside tests/" in reader_rule_findings(tmp_path, {})
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from repro.pkg.kept import K\n")
    assert reader_rule_findings(tmp_path, reason)[-1] == (
        "repro/pkg/kept.py: allow-listed, but it has a reader")


def attribute_rule_findings(root: Path) -> list[str]:
    """Attributes a method under ``src/`` stores on ``self`` that nothing
    in the reader directories loads (``x.name``) or names as a string
    constant (``getattr(x, "name")``)."""
    stored: dict[str, set[str]] = {}
    read: set[str] = set()
    for top in READER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
            if top != "src":
                continue
            where = str(path.relative_to(root / "src"))
            methods = [method for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                       for method in cls.body
                       if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in (inner for method in methods for inner in ast.walk(method)):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.setdefault(node.attr, set()).add(where)
    return [f"{where}: self.{name} is stored and never read"
            for name in sorted(set(stored) - read) for where in sorted(stored[name])]


def test_every_stored_attribute_has_a_reader() -> None:
    findings = attribute_rule_findings(ROOT)
    assert not findings, "\n".join(findings)


def test_the_attribute_rule_fails_where_it_should(tmp_path: Path) -> None:
    """A counter only a test reads, a counter only ever bumped (an
    augmented assignment stores, it is not a reader), and three
    attributes read the ways the rule accepts: under ``src/``, by
    ``getattr`` with a constant name, and from perfbench."""
    files = {
        "src/repro/a.py":
            "class A:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.read = 1\n"
            "        self.named = 2\n"
            "        self.bumped = 3\n"
            "    def bump(self):\n"
            "        self.bumped += self.read\n"
            "        self.perf = 4\n",
        "perfbench/probe.py": "def probe(a):\n    return getattr(a, 'named'), a.perf\n",
        "tests/test_a.py": "def test(a):\n    assert a.count == 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert attribute_rule_findings(tmp_path) == [
        "repro/a.py: self.bumped is stored and never read",
        "repro/a.py: self.count is stored and never read",
    ]
    # A reader in a benchmark or an example counts; one in tests/ did not.
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("def show(a):\n    print(a.count)\n")
    assert attribute_rule_findings(tmp_path) == [
        "repro/a.py: self.bumped is stored and never read"]


#: What the ``repro`` modules behind ``StarSession`` import from outside
#: ``repro``: the standard library only.
SESSION_IMPORTS = (
    "__future__, abc, asyncio, collections, dataclasses, enum, hashlib, heapq, "
    "itertools, json, math, os, pathlib, random, sys, time, typing")


def _foreign_modules_after(statement: str) -> set[str]:
    """Top-level non-``repro`` modules a fresh interpreter holds after ``statement``."""
    listing = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\n"
         "print(*sorted({m.partition('.')[0] for m in sys.modules}))"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=60).stdout
    return set(listing.split()) - {"repro"}


def test_importing_a_session_loads_nothing_outside_the_standard_library() -> None:
    """A bare interpreter's ``site`` files may load third-party modules
    of their own; importing ``StarSession`` adds only standard ones."""
    loaded = _foreign_modules_after("from repro.editor.star import StarSession")
    added = loaded - _foreign_modules_after("pass")
    assert added <= sys.stdlib_module_names, sorted(added - sys.stdlib_module_names)
    assert loaded == _foreign_modules_after(f"import {SESSION_IMPORTS}")


def test_the_compatibility_vocabulary_stays_deleted() -> None:
    banned = re.compile(
        r"\brel_stats\b|pre-refactor|backwards compat"
        r"|\bon_eof\b|\bread_telemetry\b|\bscan_dir\b|\ball_corrected\b"
        r"|\bClockProtocol\b|\bCLOCK_FAMILIES\b|\bMatrixClock\b"
        r"|\bSessionRecorder\b|\bsession_stats\b|Tracer\(enabled"
        r"|TraceEventKind\.SPAN\b|\borigin_time\b|\bSPAN_STAGES\b"
        r"|\b_payload_origin_wall\b|\bstage_counts\b"
        r"|\bTextOperation\b|text-component|\bTextComponentType\b"
        r"|\bdrive_star_session_component\b|\bserialized_size\b"
        r"|\bfrom_positional\b|\bprimitive_count\b"
        r"|beacon|\bBeaconSender\b|\bBeaconReceiver\b|\bFRAME_TELEMETRY\b"
        r"|\bencode_telemetry_frame\b|\bon_telemetry\b|\bframes_from_|gossip"
        r"|\bSimulationError\b|\b_WallEvent\b|\brun_until_complete\b"
        r"|\bReliabilityConfig\b|\bRetransmitPolicy\b|standby|degraded_limit"
        r"|degraded-limit|\b_track_failover\b|\breliability_config\b|\bgrace_s\b"
        r"|\bFlightRecorder\b|\bflight_path\b|\bdump_flight\b|\borigin_wall\b"
        r"|\bspan_clock\b|\be2e_window\b|\bOP_TRAILER_VERSION\b|\b_TRAILER\b"
        r"|\bTelemetrySampler\b|\btelemetry_path\b|telemetry_interval"
        r"|telemetry-interval|\bsnapshot_endpoint\b|\battach_telemetry\b"
        r"|\bTELEMETRY_FORMAT\b|\bTELEMETRY_SCHEMA_VERSION\b|\btelemetry_frames\b"
        r"|\bstart_telemetry\b|\bclose_streams\b|\btelemetry_enabled\b"
        r"|\blocal_ops_generated\b|\b_call_int\b|\bLogHook\b|telemetry_\*"
        r"|\bProcessResult\b|\bresult_path\b|\bread_artifacts\b"
        r"|\btransform_enabled\b|\bexecute_remote\b"
        r"|\bTransportError\b|\b_unwired_for\b|\b_undeliverable_for\b"
        r"|\bstability_vector\b|\bcompacted_ops\b|\bknown_vc\b|\bdelivered_ids\b"
        r"|\bdropped_on_dead_wire\b|\bentry_count\b|\b_ScheduledEvent\b"
        r"|\bRichTextType\b|\bRichOperation\b|\bListOp\b|\bLWWRegisterType\b"
        r"|\bRegisterOp\b|\bundo_last\b|\bUndoError\b|\b_last_local\b"
        r"|\bregister_type\b|\bdrive_star_session_list\b|\brandom_list_op\b"
        r"|rich-text|lww-register"
        r"|timestamp_bytes=|\.total_bytes\(\)|\b_OP_PAYLOAD_HEAD\b")
    hits = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    # A message is its payload: no send names a kind beside it.
    hits += [
        f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "send" in ast.unparse(node.func)
        and any(keyword.arg == "kind" for keyword in node.keywords)
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


def test_per_message_values_have_no_dict() -> None:
    """What a broadcast builds per copy, what the reliability layer
    builds per packet, and what buffers one is slots only: half the
    allocations, and no attribute that was not declared."""
    import dataclasses

    from repro.core.history import HistoryEntry
    from repro.core.timestamp import CompressedTimestamp, OriginKind
    from repro.editor.messages import OpMessage
    from repro.editor.star_notifier import PendingOp
    from repro.net.reliability import ReliablePacket
    from repro.net.simulator import Simulator
    from repro.net.transport import Envelope

    ts = CompressedTimestamp(1, 2)
    message = OpMessage("op", 1, 2, 1)
    values = [
        Envelope(1, 0, message),
        message,
        ReliablePacket(0, 0, -1, message),
        PendingOp("op", "c1_1'", 1),
        HistoryEntry("op", ts, 1, OriginKind.LOCAL),
        ts,
        Simulator().schedule(0.0, print, "x"),  # the heap entry is the handle
    ]
    def slots_only(value: object) -> None:
        assert not hasattr(value, "__dict__"), type(value).__name__
        # TypeError: what a frozen slots=True dataclass says before 3.12
        # (its __setattr__ still names the class slots=True replaced).
        with pytest.raises((AttributeError, TypeError)):
            value.undeclared = 1

    for value in values:
        slots_only(value)
    # The constructor surface that slots=True re-creates the class around.
    assert message == OpMessage(op="op", first=1, second=2, origin_site=1,
                                shared=object())
    assert message != OpMessage("op", 1, 2, 2)
    assert message != OpMessage("op", 2, 2, 1) and message != OpMessage("op", 1, 1, 1)
    # A copy's timestamp is its two slots; the value is built on a read.
    assert [f.name for f in dataclasses.fields(OpMessage)] == [
        "op", "first", "second", "origin_site", "shared"]
    assert message.timestamp == ts and message.timestamp is not message.timestamp
    assert ReliablePacket(-1, 1, 4, None, True, True) == ReliablePacket(
        seq=-1, epoch=1, ack=4, probe=True, gap=True)
    # The rule fires on what these classes were, frozen without slots
    # (refusing an undeclared attribute, so only the __dict__ check
    # tells), and on a plain dataclass, which fails both checks.
    names = [f.name for f in dataclasses.fields(ReliablePacket)]
    for frozen in (True, False):
        planted = dataclasses.make_dataclass("Planted", names, frozen=frozen)
        with pytest.raises(AssertionError, match="Planted"):
            slots_only(planted(0, 0, -1, None, False, False))


def _message_field_stores(tree: ast.Module, fields: set[str]) -> list[str]:
    """Every ``x.<field> = ...`` (or ``+=``, ``del``, ``setattr`` with
    the name spelled out) whose ``x`` is not ``self``."""
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in fields
                and not isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func)
                and any(isinstance(arg, ast.Constant) and arg.value in fields
                        for arg in node.args)):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    return hits


def test_nothing_stores_to_a_message_field_but_its_own_constructor() -> None:
    """``OpMessage``, ``ReliablePacket`` and ``CompressedTimestamp`` are
    not ``frozen`` (a frozen ``__init__`` is an ``object.__setattr__``
    per field, per copy or per packet), and each is shared by
    reference: the simulator hands the sender's object to the receiver,
    ``ReliableEndpoint.unacked`` retains a message, and a timestamp is
    held by its message, its ``HistoryEntry`` and the broadcast log, so
    a receiver that mutated one would corrupt a retransmit or a check.
    Every ``OpMessage`` field but ``op``: a client's pending
    ``HistoryEntry`` keeps an ``op`` that inclusion transformation
    replaces in place (the notifier's shared ``PendingOp`` is replaced
    by a new record instead)."""
    import dataclasses

    from repro.core.timestamp import CompressedTimestamp
    from repro.editor.messages import OpMessage
    from repro.net.reliability import ReliablePacket

    def names(cls: type) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    # No name travels.
    assert names(OpMessage) - {"op"} == {"first", "second", "origin_site", "shared"}
    assert names(ReliablePacket) == {"seq", "epoch", "ack", "payload", "probe", "gap"}
    assert names(CompressedTimestamp) == {"first", "second"}
    # ``timestamp`` too: a message's is a read-only view, a
    # ``HistoryEntry``'s is shared with the message it came from.
    fields = ((names(OpMessage) - {"op"}) | {"timestamp"} | names(ReliablePacket)
              | names(CompressedTimestamp))
    hits = [
        f"{path.relative_to(SRC)}:{hit}"
        for path in MODULES
        for hit in _message_field_stores(ast.parse(path.read_text()), fields)
    ]
    assert not hits, "\n".join(hits)
    planted = ast.parse(
        "class Receiver:\n"
        "    def __init__(self, message):\n"
        "        self.timestamp = message.timestamp\n"  # its own field: fine
        "    def handle(self, envelope, message):\n"
        "        message.timestamp = self.timestamp\n"
        "        envelope.payload.shared = None\n"
        "        message.origin_site += 1\n"
        "        del message.timestamp\n"
        "        object.__setattr__(message, 'origin_site', 2)\n"
        "        setattr(message, 'shared', None)\n"
        "        message.op = message.timestamp\n"  # op: not covered, a load: fine
        "        message.first = 0\n"
        "        envelope.payload.second += 1\n"
        "    def on_wire(self, envelope, packet):\n"
        "        packet.ack = -1\n"
        "        envelope.payload.seq += 1\n"
        "        setattr(packet, 'gap', True)\n"
        "        packet.payload.timestamp.first = 0\n"
        "        del packet.payload.timestamp.second\n"
        "        self.seq = packet.seq\n")  # its own field, and a load: fine
    assert len(_message_field_stores(planted, fields)) == 13


def scheduled_closure_findings(root: Path) -> list[str]:
    """Every ``schedule(...)`` / ``schedule_after(...)`` under
    ``src/repro/net/`` whose callback is a lambda or a function defined
    inside another function: one closure per scheduled message or timer,
    where a bound method and its arguments do the same job."""
    findings = []
    for path in sorted((root / "src" / "repro" / "net").rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        nested = {inner.name for outer in functions for inner in ast.walk(outer)
                  if inner is not outer and inner in functions}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule", "schedule_after")):
                continue
            callbacks = node.args[1:2] + [keyword.value for keyword in node.keywords
                                          if keyword.arg == "callback"]
            if any(isinstance(callback, ast.Lambda)
                   or (isinstance(callback, ast.Name) and callback.id in nested)
                   for callback in callbacks):
                findings.append(f"{path.relative_to(root / 'src')}:{node.lineno}: "
                                f"{ast.unparse(node)}")
    return findings


def test_nothing_under_net_schedules_a_closure() -> None:
    findings = scheduled_closure_findings(ROOT)
    assert not findings, "\n".join(findings)


def test_the_closure_rule_fails_where_it_should(tmp_path: Path) -> None:
    """A lambda, a nested function (positional and by keyword) and a
    nested ``async def`` are found; a bound method with its arguments, a
    module-level function and a lambda outside ``net/`` are not."""
    files = {
        "src/repro/net/a.py":
            "def tick():\n"
            "    pass\n"
            "class Timer:\n"
            "    def arm(self, dest, link):\n"
            "        def fire():\n"
            "            self.on_timer(dest, link)\n"
            "        async def wake():\n"
            "            pass\n"
            "        self.sim.schedule_after(1.0, lambda: self.on_timer(dest, link))\n"
            "        self.sim.schedule(2.0, fire)\n"
            "        self.sim.schedule_after(delay=1.0, callback=fire)\n"
            "        self.sim.schedule(3.0, wake)\n"
            "        self.sim.schedule_after(1.0, self.on_timer, dest, link)\n"
            "        self.sim.schedule(2.0, tick)\n",
        "src/repro/editor/b.py": "def go(sim, op):\n    sim.schedule(1.0, lambda: op)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert [finding.split(": ")[0] for finding in scheduled_closure_findings(tmp_path)] == [
        "repro/net/a.py:9", "repro/net/a.py:10", "repro/net/a.py:11", "repro/net/a.py:12"]


def _foreign_imports(tree: ast.Module) -> set[str]:
    """Top-level modules an absolute import names outside the stdlib and ``repro``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names - sys.stdlib_module_names - {"repro"}


def test_src_imports_nothing_outside_the_standard_library() -> None:
    """``repro`` runs on a bare interpreter: numpy is a benchmark-only
    import (the ``bench`` extra) and the causality oracle's DAG is a dict."""
    foreign = {str(path.relative_to(SRC)): found for path in MODULES
               if (found := _foreign_imports(ast.parse(path.read_text())))}
    assert not foreign, f"imports from outside the standard library: {foreign}"
    project = (ROOT / "pyproject.toml").read_text().partition("[project]")[2]
    assert re.search(r"^dependencies = \[\]$", project, re.MULTILINE), (
        "pyproject.toml declares a runtime dependency")
    planted = ast.parse("import numpy.linalg\nfrom networkx import DiGraph\n"
                        "import json\nfrom repro.core import history\nfrom . import x\n")
    assert _foreign_imports(planted) == {"numpy", "networkx"}
