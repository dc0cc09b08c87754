"""Scenario files: strict JSON schema, validation, and canonical digests.

A scenario is one JSON object with sections policies, topology, loops,
devices, defaults, environment, and optionally control. Parsing is
strict (unknown keys are rejected); semantic problems are collected as
violations so a validate command can print them all. The config digest is
the SHA-256 of the canonical JSON form, making traces attributable to the
exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Any, Callable, Mapping

from fogloop.coordination import (
    COORDINATED_COMPONENTS,
    AggregationSpec,
    CentralizedControl,
    Combinator,
    ControlMode,
    DecentralizedControl,
)
from fogloop.errors import ConfigError
from fogloop.mape import (
    Comparator,
    Condition,
    ElapsedSinceCondition,
    PlannedAction,
    Policy,
    ThresholdCondition,
)
from fogloop.model import ValidationReport, ValueType, Violation, value_conforms
from fogloop.placement import LoopSpec, Offering, place
from fogloop.simnet import Link, Node, Tier, Topology
from fogloop.smartbuilding import (
    _DEFAULT_STATE,
    COMMANDS,
    ENVIRONMENT_READINGS,
    ENVIRONMENT_SERVICE,
    READINGS,
    Building,
    BuildingDefaults,
    DeviceKind,
    DeviceSetup,
    EnvironmentEvent,
    with_article,
)

WEATHER_VALUES = ("sunny", "not-sunny")


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


@dataclass
class Scenario:
    name: str
    policies: tuple[Policy, ...]
    topology: Topology
    loops: tuple[LoopSpec, ...]
    control: ControlMode | None
    devices: tuple[DeviceSetup, ...]
    defaults: BuildingDefaults
    environment_events: tuple[EnvironmentEvent, ...]
    raw: dict
    parse_violations: list[Violation] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    def loop(self, loop_id: str) -> LoopSpec | None:
        for spec in self.loops:
            if spec.id == loop_id:
                return spec
        return None

    @property
    def master_id(self) -> str | None:
        if isinstance(self.control, CentralizedControl):
            return self.control.master
        return None

    @property
    def managing_loops(self) -> tuple[LoopSpec, ...]:
        """Loops that directly manage devices (the master manages loops)."""
        return tuple(spec for spec in self.loops if spec.id != self.master_id)

    @property
    def owners(self) -> dict[str, str]:
        """The loop that acts on each service: the first managing loop whose
        scope holds it, in `managing_loops` order, else the master when only
        its scope holds it. Monitoring, forwarding, delegation and rounds read it."""
        owners: dict[str, str] = {}
        master = self.loop(self.master_id)
        for spec in self.managing_loops + ((master,) if master else ()):
            for svc in spec.scope:
                owners.setdefault(svc, spec.id)
        return owners


def _expect(obj: Any, kind: type, path: str) -> Any:
    label = {dict: "object", list: "array", str: "string", int: "integer"}[kind]
    if not isinstance(obj, kind) or (kind is int and isinstance(obj, bool)):
        raise ConfigError(f"{path}: expected {label}")
    return obj


def _check_keys(obj: Mapping, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")


# Readers take (value, path) and return the checked, converted value.
Reader = Callable[[Any, str], Any]


def _str(value: Any, path: str) -> str:
    return _expect(value, str, path)


def _int(value: Any, path: str) -> int:
    return _expect(value, int, path)


def _number(value: Any, path: str) -> float | int:
    """The number as a float, or the int itself when it is beyond the float
    range: `validate_scenario` then reports it as not real, as it does NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        return value


def _scalar(value: Any, path: str) -> Any:
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise ConfigError(f"{path}: expected a scalar value")
    return value


def _enum(cls: type[Enum]) -> Reader:
    def read(value: Any, path: str) -> Any:
        try:
            return cls(value)
        except ValueError:
            choices = sorted(member.value for member in cls)
            raise ConfigError(f"{path}: {value!r} is not one of {choices}") from None
    return read


def _opt(read: Reader) -> Reader:
    return lambda value, path: None if value is None else read(value, path)


def _tuple(read: Reader) -> Reader:
    return lambda value, path: tuple(
        read(item, f"{path}[{i}]") for i, item in enumerate(_expect(value, list, path))
    )


def _mapping(read: Reader) -> Reader:
    return lambda value, path: {key: read(item, f"{path}.{key}")
                                for key, item in _expect(value, dict, path).items()}


def _rec(cls: type) -> Reader:
    return lambda value, path: _record(cls, value, path)


def _input(value: Any, path: str) -> tuple[str, str]:
    _expect(value, list, path)
    if len(value) != 2 or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{path}: expected [service, parameter]")
    return tuple(value)


def _condition(value: Any, path: str) -> Condition:
    """A condition is a threshold, or a wrapped elapsed-time condition."""
    if isinstance(value, dict) and "elapsed_since" in value:
        _check_keys(value, path, ("elapsed_since",))
        return _record(ElapsedSinceCondition, value["elapsed_since"],
                       f"{path}.elapsed_since")
    return _record(ThresholdCondition, value, path)


def _condition_json(cond: Condition) -> dict:
    if isinstance(cond, ElapsedSinceCondition):
        return {"elapsed_since": _dump(cond)}
    return _dump(cond)


def _to_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if type(value) in _SHAPES:
        return _dump(value)
    return value


class _Shape:
    """The JSON form of one record type.

    `keys` maps each JSON key, in written order, to a reader or to a
    (reader, writer) pair; the writer defaults to `_to_json`. `rename` maps
    a JSON key to the attribute it fills when the names differ. A key is
    required when its attribute has no default. A key is written when
    required, listed in `always`, or holding a value other than its default.
    """

    def __init__(self, cls: type, keys: dict[str, Any],
                 rename: Mapping[str, str] = {}, always: tuple[str, ...] = ()):
        self.cls = cls
        self.attrs = {key: rename.get(key, key) for key in keys}
        self.readers: dict[str, Reader] = {}
        self.writers: dict[str, Callable[[Any], Any]] = {}
        for key, codec in keys.items():
            self.readers[key], self.writers[key] = (
                codec if isinstance(codec, tuple) else (codec, _to_json))
        self.defaults: dict[str, Any] = {}
        for f in fields(cls) if is_dataclass(cls) else ():
            if f.default is not MISSING:
                self.defaults[f.name] = f.default
            elif f.default_factory is not MISSING:
                self.defaults[f.name] = f.default_factory()
        self.required = tuple(key for key, attr in self.attrs.items()
                              if attr not in self.defaults)
        self.optional = tuple(key for key in keys if key not in self.required)
        self.written = frozenset(self.required + always)


def _record(cls: type, obj: Any, path: str, **given: Any) -> Any:
    """Parse one record of `cls` from its JSON object; `given` fills
    attributes that come from outside the object."""
    shape = _SHAPES[cls]
    _expect(obj, dict, path)
    _check_keys(obj, path, shape.required, shape.optional)
    for key, value in obj.items():
        given[shape.attrs[key]] = shape.readers[key](value, f"{path}.{key}")
    return cls(**given)


def _dump(record: Any) -> dict:
    shape = _SHAPES[type(record)]
    out = {}
    for key, attr in shape.attrs.items():
        value = getattr(record, attr)
        if key in shape.written or value != shape.defaults[attr]:
            out[key] = shape.writers[key](value)
    return out


_DEFAULTS_READER = {int: _int, float: _number, str: _str}
_DEFAULT_TYPES = {int: ValueType.INTEGER, float: ValueType.REAL, str: ValueType.ENUM_OF_STRINGS}
# The powers and thermal rates: a negative one makes energy or the room's
# temperature run the wrong way.
_NON_NEGATIVE = ("lamp_w", "heater_w", "heat_rate_c_per_min", "leak_open_per_min",
                 "leak_closed_per_min")

# The scenario format, one entry per record type. A loop's policies are
# names here; parse_scenario resolves them against the policies section.
_SHAPES: dict[type, _Shape] = {shape.cls: shape for shape in (
    _Shape(ThresholdCondition, {"service": _str, "parameter": _str,
                                "op": _enum(Comparator), "value": _scalar},
           rename={"op": "comparator", "value": "threshold"}),
    _Shape(ElapsedSinceCondition, {"service": _str, "parameter": _str,
                                   "value": _scalar, "ms": _int},
           rename={"ms": "duration_ms"}),
    _Shape(PlannedAction, {"service": _str, "command": _str, "arg": _scalar},
           rename={"arg": "argument"}),
    _Shape(Policy, {"name": _str,
                    "when": (_tuple(_condition),
                             lambda when: [_condition_json(c) for c in when]),
                    "then": _tuple(_rec(PlannedAction)), "cooldown_ms": _int}),
    _Shape(Node, {"id": _str, "tier": _enum(Tier)}),
    _Shape(Link, {"a": _str, "b": _str, "latency_ms": _int, "jitter_ms": _int}),
    _Shape(Topology, {"nodes": _tuple(_rec(Node)), "links": _tuple(_rec(Link))}),
    _Shape(LoopSpec, {"id": _str, "scope": _tuple(_str), "offering": _enum(Offering),
                      "policies": (_tuple(_str),
                                   lambda policies: [p.name for p in policies])},
           always=("policies",)),
    _Shape(AggregationSpec, {"name": _str, "inputs": _tuple(_input),
                             "combinator": _enum(Combinator), "output": _str,
                             "output_type": _enum(ValueType)},
           always=("output_type",)),
    _Shape(CentralizedControl, {"loop": _str,
                                "aggregations": _tuple(_rec(AggregationSpec))},
           rename={"loop": "master"}),
    _Shape(DecentralizedControl, {"group": _tuple(_str), "coordinate": _tuple(_str)}),
    _Shape(DeviceSetup, {"kind": _enum(DeviceKind), "node": _str, "office": _opt(_str),
                         "initial": _mapping(_scalar), "samples": _mapping(_int)}),
    _Shape(EnvironmentEvent, {"t": _int, "weather": _opt(_str),
                              "outside_temp_c": _opt(_number)}),
    _Shape(BuildingDefaults, {f.name: _DEFAULTS_READER[type(f.default)]
                              for f in fields(BuildingDefaults)},
           always=tuple(f.name for f in fields(BuildingDefaults))),
)}


def _control(obj: Any) -> ControlMode | None:
    if obj is None:
        return None
    _expect(obj, dict, "control")
    mode = obj.get("mode")
    if mode == "centralized":
        _check_keys(obj, "control", ("mode", "master"))
        return _record(CentralizedControl, obj["master"], "control.master")
    if mode == "decentralized":
        return _record(DecentralizedControl,
                       {key: value for key, value in obj.items() if key != "mode"},
                       "control")
    raise ConfigError("control.mode: expected 'centralized' or 'decentralized'")


def parse_scenario(data: dict) -> Scenario:
    """Strictly parse a scenario object; raises ConfigError on schema faults.

    Reference problems (for example a loop naming an unknown policy) are
    collected as violations for validate_scenario instead of raised, so a
    validate run can report them all at once.
    """
    _expect(data, dict, "scenario")
    _check_keys(data, "scenario", ("policies", "topology", "loops"),
                ("name", "control", "devices", "defaults", "environment"))
    deferred: list[Violation] = []
    policies = _tuple(_rec(Policy))(data["policies"], "policies")
    by_name: dict[str, Policy] = {}
    for policy in policies:
        if policy.name in by_name:
            deferred.append(Violation("policies", f"duplicate policy '{policy.name}'"))
        by_name[policy.name] = policy
    loops = []
    for li, loop in enumerate(_tuple(_rec(LoopSpec))(data["loops"], "loops")):
        resolved = []
        for name in loop.policies:
            if name in by_name:
                resolved.append(by_name[name])
            else:
                deferred.append(Violation(f"loops[{li}].policies",
                                          f"unknown policy '{name}'"))
        loops.append(replace(loop, policies=tuple(resolved)))
    devices = tuple(_record(DeviceSetup, entry, f"devices.{service}", service=service)
                    for service, entry in _expect(data.get("devices", {}), dict,
                                                  "devices").items())
    return Scenario(
        name=_str(data.get("name", "scenario"), "name"),
        policies=policies,
        topology=_record(Topology, data["topology"], "topology",
                         hosts={setup.service: setup.node for setup in devices}),
        loops=tuple(loops),
        control=_control(data.get("control")),
        devices=devices,
        defaults=_record(BuildingDefaults, data.get("defaults", {}), "defaults"),
        environment_events=_tuple(_rec(EnvironmentEvent))(
            data.get("environment", []), "environment"),
        raw=data,
        parse_violations=deferred,
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object of `pairs`, whose keys must differ: `json.load` keeps the last."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ConfigError(f"scenario repeats the key '{repeated}'")
    return obj


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(data)


_NUMERIC = (ValueType.INTEGER, ValueType.REAL)
# Longest repr a violation line echoes whole; see `_echo`.
_ECHO_LIMIT = 40


def _echo(value: Any) -> str:
    """`repr(value)` if it is short, else its first and last characters
    around their count, so a violation line stays readable."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    unit = "digits" if type(value) is int else "characters"
    return f"{text[:12]}...{text[-12:]} ({len(text)} {unit})"


def _sampled_streams(scenario: Scenario) -> dict[tuple[str, str], ValueType]:
    """The environment's streams, and each reading a device samples that its
    kind can read, with its type."""
    streams = {(ENVIRONMENT_SERVICE, name): vtype
               for name, vtype in ENVIRONMENT_READINGS.items()}
    for setup in scenario.devices:
        readings = READINGS[setup.kind]
        for name in setup.samples:
            if name in readings:
                streams[(setup.service, name)] = readings[name]
    return streams


def _validate_policy(policy: Policy, index: int,
                     streams: Mapping[tuple[str, str], ValueType],
                     kinds: Mapping[str, DeviceKind], report: ValidationReport) -> None:
    path = f"policies[{index}]"
    if not policy.when:
        report.add(path, "when must be non-empty")
    if not policy.then:
        report.add(path, "then must be non-empty")
    if policy.cooldown_ms < 0:
        report.add(path, "cooldown must be >= 0")
    for ci, cond in enumerate(policy.when):
        cpath = f"{path}.when[{ci}]"
        vtype = streams.get((cond.service, cond.parameter))
        if vtype is None:
            report.add(cpath, f"unknown stream '{cond.service}.{cond.parameter}'")
            continue
        if isinstance(cond, ThresholdCondition):
            if not value_conforms(cond.threshold, vtype):
                report.add(cpath, f"threshold {_echo(cond.threshold)} does not conform "
                                  f"to {vtype.value}")
            if cond.comparator in (Comparator.LT, Comparator.LE,
                                   Comparator.GE, Comparator.GT) \
                    and vtype not in _NUMERIC:
                report.add(cpath, f"ordered comparison on {vtype.value} stream")
        else:
            if not value_conforms(cond.value, vtype):
                report.add(cpath, f"value {_echo(cond.value)} does not conform "
                                  f"to {vtype.value}")
            if cond.duration_ms < 0:
                report.add(cpath, "duration must be >= 0")
    for ai, action in enumerate(policy.then):
        apath = f"{path}.then[{ai}]"
        # Only a devices entry gets an actor to act on.
        kind = kinds.get(action.service)
        if kind is None:
            report.add(apath, f"'{action.service}' is not a devices entry")
            continue
        record = COMMANDS[kind].get(action.command)
        if record is None:
            report.add(apath, f"'{action.service}' has no command '{action.command}'")
        elif record.argument_type is None:
            if action.argument is not None:
                report.add(apath, f"'{action.command}' takes no argument")
        elif not value_conforms(action.argument, record.argument_type):
            report.add(apath, f"argument {_echo(action.argument)} does not conform "
                              f"to {record.argument_type.value}")
        elif not record.admits(action.argument):
            report.add(apath, f"argument {_echo(action.argument)} of '{action.command}' "
                              f"on {with_article(kind.value)} is not {record.accepts}")


def _validate_environment(scenario: Scenario, report: ValidationReport) -> None:
    """The environment events and the building defaults. The parser checks
    their types too, but a Scenario built in Python skips it."""
    last_t = -1
    for ei, event in enumerate(scenario.environment_events):
        path = f"environment[{ei}]"
        if event.t <= last_t:
            report.add(path, "event times must be strictly increasing")
        last_t = event.t
        if event.weather is None and event.outside_temp_c is None:
            report.add(path, "event changes nothing")
        if event.weather is not None and event.weather not in WEATHER_VALUES:
            report.add(path, f"weather must be one of {list(WEATHER_VALUES)}")
        if event.outside_temp_c is not None \
                and not value_conforms(event.outside_temp_c, ValueType.REAL):
            report.add(path, f"outside_temp_c {_echo(event.outside_temp_c)} is not real")
    for f in fields(BuildingDefaults):
        value, vtype = getattr(scenario.defaults, f.name), _DEFAULT_TYPES[type(f.default)]
        if not value_conforms(value, vtype):
            report.add(f"defaults.{f.name}", f"{_echo(value)} is not {vtype.value}")
        elif f.name in _NON_NEGATIVE and value < 0:
            report.add(f"defaults.{f.name}", f"{_echo(value)} is negative")
    if scenario.defaults.weather not in WEATHER_VALUES:
        report.add("defaults.weather", f"weather must be one of {list(WEATHER_VALUES)}")


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Every semantic check across sections; violations are data, not errors."""
    report = ValidationReport()
    report.violations.extend(scenario.parse_violations)
    report.extend(scenario.topology.validate())

    # Every observable stream: the sampled ones, and the aggregation outputs,
    # which are streams of a service named after the master loop.
    streams = _sampled_streams(scenario)
    master = scenario.master_id
    taken = {name for service, name in streams if service == master}
    aggs = (scenario.control.aggregations
            if isinstance(scenario.control, CentralizedControl) else ())
    for agg in aggs:
        if agg.combinator is not Combinator.VECTOR:
            streams[(master, agg.output)] = agg.output_type
    kinds = {setup.service: setup.kind for setup in scenario.devices}
    for index, policy in enumerate(scenario.policies):
        _validate_policy(policy, index, streams, kinds, report)

    owners = scenario.owners
    seen_loops: set[str] = set()
    for li, loop in enumerate(scenario.loops):
        path = f"loops[{li}]"
        if loop.id in seen_loops:
            report.add(path, f"duplicate loop id '{loop.id}'")
        seen_loops.add(loop.id)
        if not loop.scope:
            report.add(path, "scope must be non-empty")
        listed: set[str] = set()
        for svc in loop.scope:
            if svc not in kinds:
                report.add(path, f"scope service '{svc}' is not a devices entry")
            if svc in listed:
                report.add(path, f"'{svc}' is listed twice in the scope")
            elif loop.id != master and owners[svc] != loop.id:
                report.add(path, f"'{svc}' already managed by loop '{owners[svc]}'")
            listed.add(svc)
        # A policy listed twice would raise two symptoms for each firing.
        named: set[str] = set()
        for policy in loop.policies:
            if policy.name in named:
                report.add(f"{path}.policies", f"policy '{policy.name}' is listed twice")
            named.add(policy.name)

    # An office's physics reads one heater and one window.
    sole: dict[tuple[str, DeviceKind], str] = {}
    for setup in scenario.devices:
        path = f"devices.{setup.service}"
        if setup.service == ENVIRONMENT_SERVICE:
            report.add(path, f"'{ENVIRONMENT_SERVICE}' names the environment, not a device")
        if setup.node not in scenario.topology.by_id:
            report.add(path, f"node '{setup.node}' is not in the topology")
        if setup.office is not None and setup.kind in (DeviceKind.HEATER, DeviceKind.WINDOW):
            first = sole.setdefault((setup.office, setup.kind), setup.service)
            if first != setup.service:
                report.add(path, f"office '{setup.office}' already has "
                                 f"{with_article(setup.kind.value)} '{first}'")
        if setup.office is None and setup.kind in (DeviceKind.HEATER,
                                                   DeviceKind.ENERGY_METER):
            report.add(path, f"{setup.kind.value} needs an office for physics")
        bad = sorted(set(setup.initial) - set(_DEFAULT_STATE[setup.kind]))
        if bad:
            report.add(path, f"unknown initial state keys {bad}")
        readings = READINGS[setup.kind]
        for name, interval in setup.samples.items():
            if name not in readings:
                report.add(path, f"{with_article(setup.kind.value)} cannot read '{name}'")
            if interval <= 0:
                report.add(path, f"interval of '{name}' must be positive, not {interval}")
        for key, value in setup.initial.items():
            vtype = readings.get(key)
            if vtype is not None and not value_conforms(value, vtype):
                report.add(path, f"initial {key} {_echo(value)} is not {vtype.value}")

    if isinstance(scenario.control, CentralizedControl):
        master_loop = scenario.loop(master)
        if master_loop is None:
            report.add("control.master", f"unknown loop '{master}'")
        else:
            # Master plans are delegated to owners, so a slave must own each
            # action's target.
            for policy in master_loop.policies:
                for action in policy.then:
                    if owners.get(action.service, master) == master:
                        report.add("control.master",
                                   f"policy '{policy.name}' acts on '{action.service}', "
                                   f"which no slave scope holds")
        if len(scenario.loops) < 2:
            report.add("control.master", "centralized control needs at least one slave")
        # One type per output: none names a sampled stream or another output.
        for ai, agg in enumerate(scenario.control.aggregations):
            path = f"control.master.aggregations[{ai}]"
            if not agg.inputs:
                report.add(path, "inputs must be non-empty")
            if agg.combinator is not Combinator.VECTOR and agg.output_type not in _NUMERIC:
                report.add(path, f"{agg.combinator.value} yields a number, not "
                                 f"{agg.output_type.value}")
            if agg.output in taken:
                report.add(path, f"output '{agg.output}' is already a stream of '{master}'")
            taken.add(agg.output)
            for svc, parameter in agg.inputs:
                if svc not in kinds:
                    report.add(path, f"input '{svc}' is not a devices entry")
                    continue
                # Only the slave that owns a service forwards it.
                if owners.get(svc, master) == master:
                    report.add(path, f"input on '{svc}', which no slave scope holds, "
                                     f"is never forwarded")
                vtype = streams.get((svc, parameter))
                if vtype is None:
                    report.add(path, f"unknown stream '{svc}.{parameter}'")
                elif agg.combinator is not Combinator.VECTOR and vtype not in _NUMERIC:
                    report.add(path, f"{agg.combinator.value} needs numeric inputs, "
                                     f"'{svc}.{parameter}' is {vtype.value}")
    elif isinstance(scenario.control, DecentralizedControl):
        group = scenario.control.group
        if len(group) < 2:
            report.add("control.group", "group must have at least two loops")
        members: set[str] = set()
        for loop_id in group:
            # A round waits for one proposal per listed member.
            if loop_id in members:
                report.add("control.group", f"duplicate loop '{loop_id}'")
            elif scenario.loop(loop_id) is None:
                report.add("control.group", f"unknown loop '{loop_id}'")
            members.add(loop_id)
        for component in scenario.control.coordinate:
            if component not in COORDINATED_COMPONENTS:
                report.add("control.coordinate",
                           f"cannot coordinate '{component}': only "
                           f"{' and '.join(COORDINATED_COMPONENTS)} hold rounds")
        if "execute" in scenario.control.coordinate:
            # Each member runs the decided actions on its own scope, so some
            # member must own each action's target.
            for loop in scenario.loops:
                if loop.id not in members:
                    continue
                for policy in loop.policies:
                    for action in policy.then:
                        if owners.get(action.service) not in members:
                            report.add("control.coordinate",
                                       f"policy '{policy.name}' of loop '{loop.id}' acts "
                                       f"on '{action.service}', which no group member's "
                                       f"scope holds")

    # A knowledge base learns the environment, the streams of the services
    # its loop owns and, on the master, the aggregation inputs and outputs.
    forwarded = {stream for agg in aggs for stream in agg.inputs}
    forwarded |= {(master, agg.output) for agg in aggs}
    for li, loop in enumerate(scenario.loops):
        for policy in loop.policies:
            for cond in policy.when:
                stream = (cond.service, cond.parameter)
                if stream in streams and cond.service != ENVIRONMENT_SERVICE \
                        and owners.get(cond.service) != loop.id \
                        and not (loop.id == master and stream in forwarded):
                    report.add(f"loops[{li}]",
                               f"policy '{policy.name}' reads '{cond.service}."
                               f"{cond.parameter}', which loop '{loop.id}' never receives")

    _validate_environment(scenario, report)

    if report.ok:
        try:
            place(scenario.loops, scenario.topology)
        except ConfigError as exc:
            report.add("loops", str(exc))
    return report


def building_to_dict(building: Building, name: str) -> dict:
    """Serialize a generated building into the scenario schema."""
    data: dict[str, Any] = {
        "name": name,
        "policies": _to_json(building.policies),
        "topology": _dump(building.topology),
        "loops": _to_json(building.loops),
        "devices": {setup.service: _dump(setup) for setup in building.devices},
        "defaults": _dump(building.defaults),
        "environment": _to_json(building.environment_events),
    }
    if isinstance(building.control, CentralizedControl):
        data["control"] = {"mode": "centralized", "master": _dump(building.control)}
    elif isinstance(building.control, DecentralizedControl):
        data["control"] = {"mode": "decentralized", **_dump(building.control)}
    return data


def with_offering(data: dict, offering: str) -> dict:
    """Variant transform: force every loop onto one offering."""
    _enum(Offering)(offering, "variant")
    out = json.loads(json.dumps(data))
    for loop in out.get("loops", []):
        loop["offering"] = offering
    return out


def with_mode(data: dict, mode: str) -> dict:
    """Variant transform: switch the control mode.

    A centralized scenario turns decentralized by dropping the master loop
    and the policies only it lists, and grouping the remaining loops over
    analyze+execute. Centralized cannot be synthesized: the scenario must
    already define a master.
    """
    out = json.loads(json.dumps(data))
    control = out.get("control")
    if mode == "centralized":
        if not (isinstance(control, dict) and control.get("mode") == "centralized"):
            raise ConfigError("scenario defines no centralized master to switch to")
        return out
    if mode != "decentralized":
        raise ConfigError(f"unknown mode '{mode}'")
    if isinstance(control, dict) and control.get("mode") == "decentralized":
        return out
    if isinstance(control, dict) and control.get("mode") == "centralized":
        master = control["master"]["loop"]
        mine = {name for loop in out["loops"] if loop["id"] == master
                for name in loop.get("policies", [])}
        out["loops"] = [loop for loop in out["loops"] if loop["id"] != master]
        # The master's own policies may read its aggregates, gone with it.
        mine -= {name for loop in out["loops"] for name in loop.get("policies", [])}
        out["policies"] = [p for p in out["policies"] if p["name"] not in mine]
    group = [loop["id"] for loop in out["loops"]]
    if len(group) < 2:
        raise ConfigError("decentralized control needs at least two loops")
    out["control"] = {"mode": "decentralized", "group": group,
                      "coordinate": ["analyze", "execute"]}
    return out
