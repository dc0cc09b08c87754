"""Package hygiene: every top-level definition is exported or used, every
method and property is used, and every field and attribute is read."""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatch
from inspect import ismodule
from pathlib import Path

import fogloop

PACKAGE = Path(fogloop.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
RUN_OUTPUTS = ROOT / "docs" / "run_outputs.md"


def _referenced_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_top_level_definition_is_exported_or_referenced():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in modules.values():
        everywhere += _referenced_names(tree)
    exported = set(fogloop.__all__)

    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            # References inside a definition's own body do not keep it alive.
            if everywhere[node.name] - _referenced_names(node)[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined in src/fogloop but never used or exported: " + ", ".join(unused)


# (class, method pattern) -> why the method stays although no module in the
# package names it.
UNCALLED_METHODS = {
    ("EventTrace", "to_jsonl"): "perfbench patches it",
    ("EventTrace", "of_kind"): "a trace query the tests use",
}


def test_every_method_and_property_is_used():
    """A method or property counts as used when its name appears anywhere in
    the package outside its own body. Dunders, the `TraceSink` protocol,
    which other sinks implement, and `UNCALLED_METHODS` are exempt."""
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in modules.values():
        everywhere += _referenced_names(tree)

    unused = []
    for path, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name == "TraceSink":
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__") \
                        or any(cls.name == owner and fnmatch(node.name, pattern)
                               for owner, pattern in UNCALLED_METHODS):
                    continue
                if everywhere[node.name] - _referenced_names(node)[node.name] <= 0:
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not unused, "methods in src/fogloop that nothing uses: " + ", ".join(unused)


# (class, attribute) -> why the attribute stays although nothing in the
# package reads it.
UNREAD_ATTRIBUTES = {
    ("Runtime", "physics"): "the C3-P3 probe body reads it, and ROADMAP keeps that body",
}


def _self_attributes(cls: ast.ClassDef) -> list[ast.Attribute]:
    """Every `self.<name>` a method of `cls` assigns."""
    stored = []
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name) \
                            and part.value.id == "self":
                        stored.append(part)
    return stored


def test_every_field_and_attribute_is_read():
    """A dataclass or `NamedTuple` field, or an attribute a method assigns,
    counts as read when some attribute load in the package names it. The
    scenario record classes are held to this too: `_dump` and `_record`
    reach every field through `getattr` or a constructor call, which is no
    attribute load, so a field only they touch is one no run reads. The
    `TraceSink` protocol and `UNREAD_ATTRIBUTES` are exempt."""
    exempt = {"TraceSink"}
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {node.attr for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    unread = []
    for path, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exempt:
                continue
            fields = [(node.lineno, node.target.id) for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            fields += [(node.lineno, node.attr) for node in _self_attributes(cls)]
            for lineno, name in fields:
                if name not in loaded and (cls.name, name) not in UNREAD_ATTRIBUTES:
                    unread.append(f"{path.name}:{lineno} {cls.name}.{name}")
    assert not unread, "fields in src/fogloop that nothing reads: " + ", ".join(unread)


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_every_scenario_default_is_read_by_a_run():
    """A `BuildingDefaults` field is a `defaults` key a scenario file may
    set, so a run must read it: `Runtime.__init__` or `instantiate_office`
    loads it as `defaults.<field>`. A value only the generator reads belongs
    in `BuildingParams`, which no file holds."""
    from dataclasses import fields

    from fogloop.smartbuilding import BuildingDefaults

    runtime = next(node for node in ast.parse((PACKAGE / "runtime.py").read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == "Runtime")
    readers = (_function(runtime, "__init__"),
               _function(ast.parse((PACKAGE / "smartbuilding.py").read_text()),
                         "instantiate_office"))
    read = {node.attr for reader in readers for node in ast.walk(reader)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "defaults"}
    assert [f.name for f in fields(BuildingDefaults) if f.name not in read] == []


def _tracer_install() -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(TRACER.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "install")


def _tracer_patch_points(install: ast.FunctionDef) -> list[tuple[ast.expr, str]]:
    """(owner expression, attribute) for every name the perfbench tracer
    replaces: its `_patch(owner, "name", ...)` calls, including those that
    loop over a tuple of names, and its direct `owner.name = ...` writes."""
    loop_names: dict[str, list[str]] = {}
    for node in ast.walk(install):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            loop_names[node.target.id] = [elt.value for elt in node.iter.elts]
    points: list[tuple[ast.expr, str]] = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_patch":
            owner, attr = node.args[0], node.args[1]
            names = ([attr.value] if isinstance(attr, ast.Constant)
                     else loop_names[attr.id])
            points.extend((owner, name) for name in names)
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute):
            points.append((node.targets[0].value, node.targets[0].attr))
    return points


def _tracer_scope(install: ast.FunctionDef) -> dict[str, object]:
    """The names `install` binds to fogloop modules and their members."""
    scope: dict[str, object] = {}
    for node in install.body:
        if isinstance(node, ast.ImportFrom) and node.module == "fogloop":
            for alias in node.names:
                scope[alias.asname or alias.name] = importlib.import_module(
                    f"fogloop.{alias.name}")
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Attribute):
            scope[node.targets[0].id] = _resolve(node.value, scope)
    return scope


def _resolve(expr: ast.expr, scope: dict[str, object]) -> object:
    if isinstance(expr, ast.Name):
        return scope[expr.id]
    assert isinstance(expr, ast.Attribute), ast.unparse(expr)
    return getattr(_resolve(expr.value, scope), expr.attr)


def test_every_name_perfbench_patches_still_exists():
    install = _tracer_install()
    scope = _tracer_scope(install)
    points = _tracer_patch_points(install)
    assert {"decide_round", "advance", "place", "run_until", "open"} <= {
        name for _, name in points}
    missing = []
    for owner_expr, name in points:
        owner = _resolve(owner_expr, scope)
        # A module also looks names up in builtins, as the CLI does `open`.
        if not (hasattr(owner, name) or (ismodule(owner) and hasattr(builtins, name))):
            missing.append(f"{ast.unparse(owner_expr)}.{name}")
    assert not missing, "perfbench/tracer.py patches names that are gone: " + ", ".join(missing)


# A traced `fogloop run`, as perfbench's traced repetition runs it: the
# tracer is installed over a clocked `run_until`, and `summary` checks that
# the self times under each call add up. Prints the summary as JSON.
TRACED_RUN = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import rep
from tracer import Tracer

tracer = Tracer()
out = sys.argv[2]
result = rep.run_command(sys.argv[3:], out, prepare=tracer.install)
trace_bytes = os.path.getsize(os.path.join(out, "trace.jsonl"))
print(json.dumps(tracer.summary(trace_bytes, result["run_until"])))
"""


def test_perfbench_counts_what_the_run_does(tmp_path):
    """perfbench counts handlers as `register` receives them, sends by
    wrapping `send`, and fog-to-cloud hops from the `deliver` rows passed to
    `emit`. A change to those call shapes would skew its counts without
    failing a test outside `perfbench/`. The 1-office scenario runs with its
    analysis in the cloud, so that some messages go from fog to cloud."""
    from fogloop.metrics import compute_metrics
    from fogloop.runtime import run_scenario
    from fogloop.scenario import load_scenario, with_offering

    bundled = json.loads((ROOT / "scenarios" / "smart_building_1office.json").read_text())
    scenario, seed, horizon = tmp_path / "apaas_split.json", 1, 60_000
    scenario.write_text(json.dumps(with_offering(bundled, "apaas_split")))
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(scenario), "--seed", str(seed),
            "--until-ms", str(horizon), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER.parent), str(out), *argv],
        capture_output=True, text=True, timeout=120)
    # `summary` raises unless its span accounting closes.
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(proc.stdout.splitlines()[-1])

    lines = (out / "trace.jsonl").read_text().splitlines()[1:]
    kinds = Counter(json.loads(line)["kind"] for line in lines)
    assert layers["runtime.handler.calls"] == kinds["deliver"] > 0
    assert layers["simnet.send.calls"] == kinds["send"] > 0
    metrics = compute_metrics(run_scenario(load_scenario(str(scenario)), seed, horizon))
    assert layers["model.fog_to_cloud"] == metrics.fog_to_cloud > 0


# The kind of the row a `.trace.<method>(...)` call hands to the sink.
MESSAGE_METHODS = {"sent": "send", "delivered": "deliver"}


def _emitted_kinds() -> set[str]:
    """Every string literal passed as the kind of an `.emit(<kind>, ...)` call
    or of a direct `.trace.append(<t>, <kind>, ...)` call in the package, and
    the kind of every direct `.trace.sent(...)` or `.trace.delivered(...)`
    call."""
    kinds = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr in MESSAGE_METHODS and isinstance(func.value, ast.Attribute) \
                    and func.value.attr == "trace":
                kinds.add(MESSAGE_METHODS[func.attr])
                continue
            if func.attr == "emit":
                kind = 0
            elif func.attr == "append" and isinstance(func.value, ast.Attribute) \
                    and func.value.attr == "trace":
                kind = 1
            else:
                continue
            if len(node.args) > kind and isinstance(node.args[kind], ast.Constant) \
                    and isinstance(node.args[kind].value, str):
                kinds.add(node.args[kind].value)
    return kinds


def _documented_kinds() -> set[str]:
    """The first cell of every row of the event table in docs/run_outputs.md."""
    lines = RUN_OUTPUTS.read_text().splitlines()
    start = lines.index("| kind | emitted when | detail keys |")
    kinds = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kinds.add(line.split("|")[1].strip().strip("`"))
    return kinds


def test_every_emitted_event_kind_is_documented_and_no_other():
    emitted = _emitted_kinds()
    assert {"send", "deliver", "round-open"} <= emitted
    assert emitted == _documented_kinds()


SCENARIO_SCHEMA = RUN_OUTPUTS.parent / "scenario_schema.md"


def _documented_commands() -> list[tuple[str, str, str, str]]:
    """(kind, command, argument type, accepts) for every row of the command
    table in docs/scenario_schema.md, with backticks dropped."""
    lines = SCENARIO_SCHEMA.read_text().splitlines()
    start = lines.index("  | kind | command | `argument_type` | accepts |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("  |"):
            break
        rows.append(tuple(cell.strip().replace("`", "") for cell in line.split("|")[1:-1]))
    return rows


def test_the_command_table_is_documented_as_devices_apply_it():
    from fogloop.smartbuilding import COMMANDS

    assert _documented_commands() == [
        (kind.value, name, "none" if record.argument_type is None
         else record.argument_type.value, record.accepts)
        for kind, commands in COMMANDS.items() for name, record in commands.items()]


def _schema_examples() -> dict[str, list]:
    """The JSON examples of docs/scenario_schema.md, by the top-level key
    their section documents."""
    examples = {}
    for section in SCENARIO_SCHEMA.read_text().split("\n## `")[1:]:
        key = section.split("`", 1)[0]
        examples[key] = [json.loads(block)
                         for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    return examples


def test_the_schema_examples_parse():
    from fogloop.scenario import parse_scenario

    examples = _schema_examples()
    (policy,), (topology,), (loop,), (devices,), (environment,) = (
        examples[key] for key in ("policies", "topology", "loops", "devices", "environment"))
    assert [control["mode"] for control in examples["control"]] == [
        "centralized", "decentralized"]
    for control in examples["control"]:
        parse_scenario({"policies": [policy], "topology": topology,
                        "loops": [loop], "control": control, "devices": devices,
                        "environment": environment})


def test_cli_opens_files_only_in_with_statements():
    # perfbench replaces `cli.open` with a wrapper that works only as the
    # context expression of a `with` item; any other use would fail only
    # in a traced benchmark run.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    in_with = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    opens = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert opens
    bare = [f"line {node.lineno}" for node in opens if id(node) not in in_with]
    assert not bare, "cli.py calls open outside a with item: " + ", ".join(bare)


def test_the_package_calls_no_builtin_id():
    # An object's id changes when a run is pickled and loaded, so run state
    # keyed by `id()` would not resume; see `TestCheckpoint` in test_runtime.
    calls = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert not calls, "src/fogloop calls id(): " + ", ".join(calls)


# Modules that may read a loop's `.scope`: the schema, which builds the
# ownership table `Scenario.owners` from scopes; placement, which places a
# loop near its scope's devices; and the building generator.
SCOPE_READERS = {"scenario.py", "placement.py", "smartbuilding.py"}


def test_ownership_is_read_from_one_table():
    readers = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "scope"}
    assert "scenario.py" in readers
    assert readers <= SCOPE_READERS, (
        f"{sorted(readers - SCOPE_READERS)} read .scope; read Scenario.owners instead")
