"""Scenario files: strict JSON schema, validation, and canonical digests.

A scenario is one JSON object with sections domain, policies, topology,
loops, devices, defaults, environment, and optionally control. Parsing is
strict (unknown keys are rejected); semantic problems are collected as
violations so a validate command can print them all. The config digest is
the SHA-256 of the canonical JSON form, making traces attributable to the
exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

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
from fogloop.model import (
    CommandSpec,
    Composite,
    Domain,
    ParameterSpec,
    Service,
    ServiceKind,
    Task,
    ValidationReport,
    ValueType,
    Violation,
    validate_domain,
    value_conforms,
)
from fogloop.placement import (
    COMPONENTS,
    LoopSpec,
    NoFogNodeError,
    Offering,
    place,
    validate_placement,
)
from fogloop.simnet import Link, Node, Tier, Topology
from fogloop.smartbuilding import (
    _DEFAULT_STATE,
    Building,
    BuildingDefaults,
    DeviceKind,
    DeviceSetup,
    Environment,
    EnvironmentEvent,
)

WEATHER_VALUES = ("sunny", "not-sunny")


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_digest(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


@dataclass
class Scenario:
    name: str
    domain: Domain
    policies: tuple[Policy, ...]
    topology: Topology
    loops: tuple[LoopSpec, ...]
    control: ControlMode | None
    devices: tuple[DeviceSetup, ...]
    defaults: BuildingDefaults
    environment: Environment
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


def _enum(cls: type, value: Any, path: str) -> Any:
    try:
        return cls(value)
    except ValueError:
        choices = sorted(member.value for member in cls)
        raise ConfigError(f"{path}: {value!r} is not one of {choices}") from None


def _scalar(value: Any, path: str) -> Any:
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise ConfigError(f"{path}: expected a scalar value")
    return value


def _parse_parameter(obj: Any, path: str) -> ParameterSpec:
    _expect(obj, dict, path)
    _check_keys(obj, path, ("name", "value_type"), ("unit", "sample_interval_ms"))
    return ParameterSpec(
        name=_expect(obj["name"], str, f"{path}.name"),
        value_type=_enum(ValueType, obj["value_type"], f"{path}.value_type"),
        unit=obj.get("unit"),
        sample_interval_ms=_expect(obj.get("sample_interval_ms", 1000), int,
                                   f"{path}.sample_interval_ms"),
    )


def _parse_command(obj: Any, path: str) -> CommandSpec:
    _expect(obj, dict, path)
    _check_keys(obj, path, ("name",), ("argument_type",))
    arg_type = obj.get("argument_type")
    return CommandSpec(
        name=_expect(obj["name"], str, f"{path}.name"),
        argument_type=None if arg_type is None
        else _enum(ValueType, arg_type, f"{path}.argument_type"),
    )


def _parse_service(obj: Any, path: str) -> Service:
    _expect(obj, dict, path)
    _check_keys(obj, path, ("name", "kind"), ("parameters", "commands"))
    return Service(
        name=_expect(obj["name"], str, f"{path}.name"),
        kind=_enum(ServiceKind, obj["kind"], f"{path}.kind"),
        parameters=tuple(
            _parse_parameter(p, f"{path}.parameters[{i}]")
            for i, p in enumerate(_expect(obj.get("parameters", []), list,
                                          f"{path}.parameters"))
        ),
        commands=tuple(
            _parse_command(c, f"{path}.commands[{i}]")
            for i, c in enumerate(_expect(obj.get("commands", []), list,
                                          f"{path}.commands"))
        ),
    )


def _parse_domain(obj: Any) -> Domain:
    _expect(obj, dict, "domain")
    _check_keys(obj, "domain", ("name", "tasks"))
    tasks = []
    for ti, task_obj in enumerate(_expect(obj["tasks"], list, "domain.tasks")):
        path = f"domain.tasks[{ti}]"
        _expect(task_obj, dict, path)
        _check_keys(task_obj, path, ("name",), ("services", "composites"))
        composites = []
        for ci, comp in enumerate(_expect(task_obj.get("composites", []), list,
                                          f"{path}.composites")):
            cpath = f"{path}.composites[{ci}]"
            _expect(comp, dict, cpath)
            _check_keys(comp, cpath, ("name", "members"), ("goal",))
            composites.append(
                Composite(
                    name=_expect(comp["name"], str, f"{cpath}.name"),
                    members=tuple(_expect(m, str, f"{cpath}.members[]")
                                  for m in _expect(comp["members"], list,
                                                   f"{cpath}.members")),
                    goal=comp.get("goal", ""),
                )
            )
        tasks.append(
            Task(
                name=_expect(task_obj["name"], str, f"{path}.name"),
                services=tuple(
                    _parse_service(s, f"{path}.services[{si}]")
                    for si, s in enumerate(_expect(task_obj.get("services", []), list,
                                                   f"{path}.services"))
                ),
                composites=tuple(composites),
            )
        )
    return Domain(name=_expect(obj["name"], str, "domain.name"), tasks=tuple(tasks))


def _parse_condition(obj: Any, path: str) -> Condition:
    _expect(obj, dict, path)
    if "elapsed_since" in obj:
        _check_keys(obj, path, ("elapsed_since",))
        inner = _expect(obj["elapsed_since"], dict, f"{path}.elapsed_since")
        _check_keys(inner, f"{path}.elapsed_since",
                    ("service", "parameter", "value", "ms"))
        return ElapsedSinceCondition(
            service=_expect(inner["service"], str, f"{path}.service"),
            parameter=_expect(inner["parameter"], str, f"{path}.parameter"),
            value=_scalar(inner["value"], f"{path}.value"),
            duration_ms=_expect(inner["ms"], int, f"{path}.ms"),
        )
    _check_keys(obj, path, ("service", "parameter", "op", "value"))
    return ThresholdCondition(
        service=_expect(obj["service"], str, f"{path}.service"),
        parameter=_expect(obj["parameter"], str, f"{path}.parameter"),
        comparator=_enum(Comparator, obj["op"], f"{path}.op"),
        threshold=_scalar(obj["value"], f"{path}.value"),
    )


def _parse_action(obj: Any, path: str) -> PlannedAction:
    _expect(obj, dict, path)
    _check_keys(obj, path, ("service", "command"), ("arg", "delay_ms"))
    return PlannedAction(
        service=_expect(obj["service"], str, f"{path}.service"),
        command=_expect(obj["command"], str, f"{path}.command"),
        argument=_scalar(obj.get("arg"), f"{path}.arg"),
        delay_ms=_expect(obj.get("delay_ms", 0), int, f"{path}.delay_ms"),
    )


def _parse_policies(obj: Any) -> tuple[Policy, ...]:
    policies = []
    for pi, pol in enumerate(_expect(obj, list, "policies")):
        path = f"policies[{pi}]"
        _expect(pol, dict, path)
        _check_keys(pol, path, ("name", "when", "then"), ("cooldown_ms",))
        policies.append(
            Policy(
                name=_expect(pol["name"], str, f"{path}.name"),
                when=tuple(
                    _parse_condition(c, f"{path}.when[{i}]")
                    for i, c in enumerate(_expect(pol["when"], list, f"{path}.when"))
                ),
                then=tuple(
                    _parse_action(a, f"{path}.then[{i}]")
                    for i, a in enumerate(_expect(pol["then"], list, f"{path}.then"))
                ),
                cooldown_ms=_expect(pol.get("cooldown_ms", 0), int,
                                    f"{path}.cooldown_ms"),
            )
        )
    return tuple(policies)


def _parse_topology(obj: Any) -> Topology:
    _expect(obj, dict, "topology")
    _check_keys(obj, "topology", ("nodes", "links"))
    nodes = []
    for ni, node in enumerate(_expect(obj["nodes"], list, "topology.nodes")):
        path = f"topology.nodes[{ni}]"
        _expect(node, dict, path)
        _check_keys(node, path, ("id", "tier"), ("hosts",))
        nodes.append(
            Node(
                id=_expect(node["id"], str, f"{path}.id"),
                tier=_enum(Tier, node["tier"], f"{path}.tier"),
                hosted=tuple(_expect(h, str, f"{path}.hosts[]")
                             for h in _expect(node.get("hosts", []), list,
                                              f"{path}.hosts")),
            )
        )
    links = []
    for li, link in enumerate(_expect(obj["links"], list, "topology.links")):
        path = f"topology.links[{li}]"
        _expect(link, dict, path)
        _check_keys(link, path, ("a", "b", "latency_ms"), ("jitter_ms",))
        links.append(
            Link(
                a=_expect(link["a"], str, f"{path}.a"),
                b=_expect(link["b"], str, f"{path}.b"),
                latency_ms=_expect(link["latency_ms"], int, f"{path}.latency_ms"),
                jitter_ms=_expect(link.get("jitter_ms", 0), int, f"{path}.jitter_ms"),
            )
        )
    return Topology(tuple(nodes), tuple(links))


def _parse_loops(obj: Any, by_name: Mapping[str, Policy],
                 deferred: list[Violation]) -> tuple[LoopSpec, ...]:
    loops = []
    for li, loop in enumerate(_expect(obj, list, "loops")):
        path = f"loops[{li}]"
        _expect(loop, dict, path)
        _check_keys(loop, path, ("id", "scope", "offering"),
                    ("policies", "node", "components"))
        resolved = []
        for name in _expect(loop.get("policies", []), list, f"{path}.policies"):
            _expect(name, str, f"{path}.policies[]")
            if name in by_name:
                resolved.append(by_name[name])
            else:
                deferred.append(Violation(f"{path}.policies", f"unknown policy '{name}'"))
        components = _expect(loop.get("components", {}), dict, f"{path}.components")
        for comp, node in components.items():
            if comp not in COMPONENTS:
                raise ConfigError(f"{path}.components: unknown component '{comp}'")
            _expect(node, str, f"{path}.components.{comp}")
        loops.append(
            LoopSpec(
                id=_expect(loop["id"], str, f"{path}.id"),
                scope=tuple(_expect(s, str, f"{path}.scope[]")
                            for s in _expect(loop["scope"], list, f"{path}.scope")),
                offering=_enum(Offering, loop["offering"], f"{path}.offering"),
                policies=tuple(resolved),
                node=loop.get("node"),
                components=tuple(sorted(components.items())),
            )
        )
    return tuple(loops)


def _parse_control(obj: Any) -> ControlMode | None:
    if obj is None:
        return None
    _expect(obj, dict, "control")
    mode = obj.get("mode")
    if mode == "centralized":
        _check_keys(obj, "control", ("mode", "master"))
        master = _expect(obj["master"], dict, "control.master")
        _check_keys(master, "control.master", ("loop",), ("node", "aggregations"))
        aggregations = []
        for ai, agg in enumerate(_expect(master.get("aggregations", []), list,
                                         "control.master.aggregations")):
            path = f"control.master.aggregations[{ai}]"
            _expect(agg, dict, path)
            _check_keys(agg, path, ("name", "inputs", "combinator", "output"),
                        ("output_type",))
            inputs = []
            for ii, entry in enumerate(_expect(agg["inputs"], list, f"{path}.inputs")):
                _expect(entry, list, f"{path}.inputs[{ii}]")
                if len(entry) != 3 or not all(isinstance(x, str) for x in entry):
                    raise ConfigError(
                        f"{path}.inputs[{ii}]: expected [loop, service, parameter]"
                    )
                inputs.append(tuple(entry))
            aggregations.append(
                AggregationSpec(
                    name=_expect(agg["name"], str, f"{path}.name"),
                    inputs=tuple(inputs),
                    combinator=_enum(Combinator, agg["combinator"], f"{path}.combinator"),
                    output=_expect(agg["output"], str, f"{path}.output"),
                    output_type=_enum(ValueType, agg.get("output_type", "real"),
                                      f"{path}.output_type"),
                )
            )
        node = master.get("node")
        if node is not None:
            _expect(node, str, "control.master.node")
        return CentralizedControl(
            master=_expect(master["loop"], str, "control.master.loop"),
            node=node,
            aggregations=tuple(aggregations),
        )
    if mode == "decentralized":
        _check_keys(obj, "control", ("mode", "group"), ("coordinate",))
        coordinate = tuple(
            _expect(c, str, "control.coordinate[]")
            for c in _expect(obj.get("coordinate", ["execute"]), list,
                             "control.coordinate")
        )
        return DecentralizedControl(
            group=tuple(_expect(g, str, "control.group[]")
                        for g in _expect(obj["group"], list, "control.group")),
            coordinate=coordinate,
        )
    raise ConfigError("control.mode: expected 'centralized' or 'decentralized'")


def _parse_devices(obj: Any) -> tuple[DeviceSetup, ...]:
    _expect(obj, dict, "devices")
    setups = []
    for service in obj:
        entry = _expect(obj[service], dict, f"devices.{service}")
        _check_keys(entry, f"devices.{service}", ("kind",), ("office", "initial"))
        initial = _expect(entry.get("initial", {}), dict, f"devices.{service}.initial")
        for key in initial:
            _scalar(initial[key], f"devices.{service}.initial.{key}")
        setups.append(
            DeviceSetup(
                service=service,
                kind=_enum(DeviceKind, entry["kind"], f"devices.{service}.kind"),
                office=entry.get("office"),
                initial=dict(initial),
            )
        )
    return tuple(setups)


def _parse_defaults(obj: Any) -> BuildingDefaults:
    _expect(obj, dict, "defaults")
    spec = {f.name: f.default for f in fields(BuildingDefaults)}
    _check_keys(obj, "defaults", (), tuple(spec))
    cleaned = {}
    for key, value in obj.items():
        default = spec[key]
        path = f"defaults.{key}"
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{path}: expected a boolean")
        elif isinstance(default, int):
            value = _expect(value, int, path)
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: expected a number")
            value = float(value)
        else:
            value = _expect(value, str, path)
        cleaned[key] = value
    return BuildingDefaults(**cleaned)


def _parse_environment(obj: Any) -> tuple[EnvironmentEvent, ...]:
    events = []
    for ei, entry in enumerate(_expect(obj, list, "environment")):
        path = f"environment[{ei}]"
        _expect(entry, dict, path)
        _check_keys(entry, path, ("t",), ("weather", "outside_temp_c"))
        outside = entry.get("outside_temp_c")
        if outside is not None and (isinstance(outside, bool)
                                    or not isinstance(outside, (int, float))):
            raise ConfigError(f"{path}.outside_temp_c: expected a number")
        events.append(
            EnvironmentEvent(
                t=_expect(entry["t"], int, f"{path}.t"),
                weather=entry.get("weather"),
                outside_temp_c=None if outside is None else float(outside),
            )
        )
    return tuple(events)


TOP_KEYS = ("name", "domain", "policies", "topology", "loops", "devices",
            "defaults", "environment")


def parse_scenario(data: dict) -> Scenario:
    """Strictly parse a scenario object; raises ConfigError on schema faults.

    Reference problems (for example a loop naming an unknown policy) are
    collected as violations for validate_scenario instead of raised, so a
    validate run can report them all at once.
    """
    _expect(data, dict, "scenario")
    _check_keys(data, "scenario", ("domain", "policies", "topology", "loops"),
                ("name", "control", "devices", "defaults", "environment"))
    deferred: list[Violation] = []
    policies = _parse_policies(data["policies"])
    by_name: dict[str, Policy] = {}
    for policy in policies:
        if policy.name in by_name:
            deferred.append(Violation("policies", f"duplicate policy '{policy.name}'"))
        by_name[policy.name] = policy
    defaults = _parse_defaults(data.get("defaults", {}))
    return Scenario(
        name=data.get("name", "scenario"),
        domain=_parse_domain(data["domain"]),
        policies=policies,
        topology=_parse_topology(data["topology"]),
        loops=_parse_loops(data["loops"], by_name, deferred),
        control=_parse_control(data.get("control")),
        devices=_parse_devices(data.get("devices", {})),
        defaults=defaults,
        environment=Environment(defaults.weather, defaults.outside_temp_c),
        environment_events=_parse_environment(data.get("environment", [])),
        raw=data,
        parse_violations=deferred,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(data)


def _stream_types(scenario: Scenario) -> dict[tuple[str, str], ValueType]:
    """Every observable stream: declared parameters plus aggregation outputs."""
    streams: dict[tuple[str, str], ValueType] = {}
    for service in scenario.domain.all_services():
        for parameter in service.parameters:
            streams[(service.name, parameter.name)] = parameter.value_type
    if isinstance(scenario.control, CentralizedControl):
        for agg in scenario.control.aggregations:
            if agg.combinator is not Combinator.VECTOR:
                streams[(scenario.control.master, agg.output)] = agg.output_type
    return streams


def _validate_policy(policy: Policy, index: int, scenario: Scenario,
                     streams: Mapping[tuple[str, str], ValueType],
                     report: ValidationReport) -> None:
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
                report.add(cpath, f"threshold {cond.threshold!r} does not conform "
                                  f"to {vtype.value}")
            if cond.comparator in (Comparator.LT, Comparator.LE,
                                   Comparator.GE, Comparator.GT) \
                    and vtype not in (ValueType.INTEGER, ValueType.REAL):
                report.add(cpath, f"ordered comparison on {vtype.value} stream")
        else:
            if not value_conforms(cond.value, vtype):
                report.add(cpath, f"value {cond.value!r} does not conform "
                                  f"to {vtype.value}")
            if cond.duration_ms < 0:
                report.add(cpath, "duration must be >= 0")
    for ai, action in enumerate(policy.then):
        apath = f"{path}.then[{ai}]"
        service = scenario.domain.find_service(action.service)
        if service is None:
            report.add(apath, f"unknown service '{action.service}'")
            continue
        command = service.command(action.command)
        if command is None:
            report.add(apath, f"'{action.service}' has no command '{action.command}'")
            continue
        if command.argument_type is None:
            if action.argument is not None:
                report.add(apath, f"'{action.command}' takes no argument")
        elif not value_conforms(action.argument, command.argument_type):
            report.add(apath, f"argument {action.argument!r} does not conform "
                              f"to {command.argument_type.value}")
        if action.delay_ms < 0:
            report.add(apath, "delay must be >= 0")


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Every semantic check across sections; violations are data, not errors."""
    report = ValidationReport()
    report.violations.extend(scenario.parse_violations)
    report.extend(validate_domain(scenario.domain))
    physical = {
        svc.name for svc in scenario.domain.all_services()
        if svc.kind is ServiceKind.PHYSICAL_DEVICE
    }
    report.extend(scenario.topology.validate(device_services=physical))

    streams = _stream_types(scenario)
    for index, policy in enumerate(scenario.policies):
        _validate_policy(policy, index, scenario, streams, report)

    seen_loops: set[str] = set()
    owned: dict[str, str] = {}
    for li, loop in enumerate(scenario.loops):
        path = f"loops[{li}]"
        if loop.id in seen_loops:
            report.add(path, f"duplicate loop id '{loop.id}'")
        seen_loops.add(loop.id)
        if not loop.scope:
            report.add(path, "scope must be non-empty")
        for svc in loop.scope:
            if svc not in physical:
                report.add(path, f"scope service '{svc}' is not a physical device")
        if loop.id == scenario.master_id:
            continue
        for svc in loop.scope:
            if svc in owned:
                report.add(path, f"'{svc}' already managed by loop '{owned[svc]}'")
            owned[svc] = loop.id

    from fogloop.smartbuilding import _DEFAULT_STATE

    setup_for = {setup.service: setup for setup in scenario.devices}
    for service in sorted(physical):
        if service not in setup_for:
            report.add(f"devices.{service}", "physical device has no setup entry")
        elif scenario.topology.host_of(service) is None:
            report.add(f"devices.{service}", "device is hosted on no node")
    for setup in scenario.devices:
        path = f"devices.{setup.service}"
        if setup.service not in physical:
            report.add(path, "setup for unknown or non-physical service")
            continue
        if setup.office is None and setup.kind in (DeviceKind.HEATER,
                                                   DeviceKind.ENERGY_METER):
            report.add(path, f"{setup.kind.value} needs an office for physics")
        bad = sorted(set(setup.initial) - set(_DEFAULT_STATE[setup.kind]))
        if bad:
            report.add(path, f"unknown initial state keys {bad}")

    if isinstance(scenario.control, CentralizedControl):
        master = scenario.control.master
        if scenario.loop(master) is None:
            report.add("control.master", f"unknown loop '{master}'")
        if len(scenario.loops) < 2:
            report.add("control.master", "centralized control needs at least one slave")
        if scenario.control.node is not None \
                and scenario.control.node not in scenario.topology.by_id:
            report.add("control.master", f"unknown node '{scenario.control.node}'")
        for ai, agg in enumerate(scenario.control.aggregations):
            path = f"control.master.aggregations[{ai}]"
            if not agg.inputs:
                report.add(path, "inputs must be non-empty")
            for loop_id, svc, parameter in agg.inputs:
                loop = scenario.loop(loop_id)
                if loop is None:
                    report.add(path, f"unknown loop '{loop_id}'")
                    continue
                if svc not in loop.scope:
                    report.add(path, f"'{svc}' is outside loop '{loop_id}' scope")
                vtype = streams.get((svc, parameter))
                if vtype is None:
                    report.add(path, f"unknown stream '{svc}.{parameter}'")
                elif agg.combinator is not Combinator.VECTOR \
                        and vtype not in (ValueType.INTEGER, ValueType.REAL):
                    report.add(path, f"{agg.combinator.value} needs numeric inputs, "
                                     f"'{svc}.{parameter}' is {vtype.value}")
    elif isinstance(scenario.control, DecentralizedControl):
        group = scenario.control.group
        if len(group) < 2:
            report.add("control.group", "group must have at least two loops")
        for loop_id in group:
            if scenario.loop(loop_id) is None:
                report.add("control.group", f"unknown loop '{loop_id}'")
        for component in scenario.control.coordinate:
            if component not in COORDINATED_COMPONENTS:
                report.add("control.coordinate",
                           f"cannot coordinate '{component}': only "
                           f"{' and '.join(COORDINATED_COMPONENTS)} hold rounds")

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
    if scenario.defaults.weather not in WEATHER_VALUES:
        report.add("defaults.weather", f"weather must be one of {list(WEATHER_VALUES)}")

    if report.ok:
        try:
            placement = place(scenario.loops, scenario.topology)
        except (NoFogNodeError, ConfigError) as exc:
            report.add("loops", str(exc))
        else:
            report.extend(validate_placement(placement, scenario.loops,
                                             scenario.topology))
            for loop in scenario.loops:
                # Analysis reads the knowledge base directly, so the two
                # components cannot be split across nodes.
                if placement.node_of(loop.id, "analyze") != placement.node_of(
                    loop.id, "knowledge"
                ):
                    report.add(
                        f"loops.{loop.id}",
                        "analyze and knowledge must share a node",
                    )
    return report


def _condition_to_dict(cond: Condition) -> dict:
    if isinstance(cond, ElapsedSinceCondition):
        return {
            "elapsed_since": {
                "service": cond.service,
                "parameter": cond.parameter,
                "value": cond.value,
                "ms": cond.duration_ms,
            }
        }
    return {
        "service": cond.service,
        "parameter": cond.parameter,
        "op": cond.comparator.value,
        "value": cond.threshold,
    }


def _action_to_dict(action: PlannedAction) -> dict:
    out: dict[str, Any] = {"service": action.service, "command": action.command}
    if action.argument is not None:
        out["arg"] = action.argument
    if action.delay_ms:
        out["delay_ms"] = action.delay_ms
    return out


def _policy_to_dict(policy: Policy) -> dict:
    out: dict[str, Any] = {
        "name": policy.name,
        "when": [_condition_to_dict(c) for c in policy.when],
        "then": [_action_to_dict(a) for a in policy.then],
    }
    if policy.cooldown_ms:
        out["cooldown_ms"] = policy.cooldown_ms
    return out


def _service_to_dict(service: Service) -> dict:
    out: dict[str, Any] = {"name": service.name, "kind": service.kind.value}
    if service.parameters:
        params = []
        for p in service.parameters:
            entry: dict[str, Any] = {"name": p.name, "value_type": p.value_type.value,
                                     "sample_interval_ms": p.sample_interval_ms}
            if p.unit is not None:
                entry["unit"] = p.unit
            params.append(entry)
        out["parameters"] = params
    if service.commands:
        commands = []
        for c in service.commands:
            entry = {"name": c.name}
            if c.argument_type is not None:
                entry["argument_type"] = c.argument_type.value
            commands.append(entry)
        out["commands"] = commands
    return out


def building_to_dict(building: Building, name: str) -> dict:
    """Serialize a generated building into the scenario schema."""
    data: dict[str, Any] = {
        "name": name,
        "domain": {
            "name": building.domain.name,
            "tasks": [
                {
                    "name": task.name,
                    "services": [_service_to_dict(s) for s in task.services],
                    **(
                        {
                            "composites": [
                                {"name": c.name, "members": list(c.members),
                                 "goal": c.goal}
                                for c in task.composites
                            ]
                        }
                        if task.composites
                        else {}
                    ),
                }
                for task in building.domain.tasks
            ],
        },
        "policies": [_policy_to_dict(p) for p in building.policies],
        "topology": {
            "nodes": [
                {
                    "id": node.id,
                    "tier": node.tier.value,
                    **({"hosts": list(node.hosted)} if node.hosted else {}),
                }
                for node in building.topology.nodes
            ],
            "links": [
                {
                    "a": link.a,
                    "b": link.b,
                    "latency_ms": link.latency_ms,
                    **({"jitter_ms": link.jitter_ms} if link.jitter_ms else {}),
                }
                for link in building.topology.links
            ],
        },
        "loops": [
            {
                "id": loop.id,
                "scope": list(loop.scope),
                "offering": loop.offering.value,
                "policies": [p.name for p in loop.policies],
                **({"node": loop.node} if loop.node else {}),
                **({"components": dict(loop.components)} if loop.components else {}),
            }
            for loop in building.loops
        ],
        "devices": {
            setup.service: {
                "kind": setup.kind.value,
                "office": setup.office,
                **({"initial": setup.initial} if setup.initial else {}),
            }
            for setup in building.devices
        },
        "defaults": {f.name: getattr(building.defaults, f.name)
                     for f in fields(BuildingDefaults)},
        "environment": [
            {
                "t": event.t,
                **({"weather": event.weather} if event.weather is not None else {}),
                **(
                    {"outside_temp_c": event.outside_temp_c}
                    if event.outside_temp_c is not None
                    else {}
                ),
            }
            for event in building.environment_events
        ],
    }
    if isinstance(building.control, CentralizedControl):
        data["control"] = {
            "mode": "centralized",
            "master": {
                "loop": building.control.master,
                **({"node": building.control.node} if building.control.node else {}),
                "aggregations": [
                    {
                        "name": agg.name,
                        "inputs": [list(entry) for entry in agg.inputs],
                        "combinator": agg.combinator.value,
                        "output": agg.output,
                        "output_type": agg.output_type.value,
                    }
                    for agg in building.control.aggregations
                ],
            },
        }
    elif isinstance(building.control, DecentralizedControl):
        data["control"] = {
            "mode": "decentralized",
            "group": list(building.control.group),
            "coordinate": list(building.control.coordinate),
        }
    return data


def with_offering(data: dict, offering: str) -> dict:
    """Variant transform: force every loop onto one offering."""
    _enum(Offering, offering, "variant")
    out = json.loads(json.dumps(data))
    for loop in out.get("loops", []):
        loop["offering"] = offering
    return out


def with_mode(data: dict, mode: str) -> dict:
    """Variant transform: switch the control mode.

    A centralized scenario turns decentralized by dropping the master loop
    and grouping the remaining loops over analyze+execute. Centralized
    cannot be synthesized: the scenario must already define a master.
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
    master = None
    if isinstance(control, dict) and control.get("mode") == "centralized":
        master = control["master"]["loop"]
        out["loops"] = [loop for loop in out["loops"] if loop["id"] != master]
    group = [loop["id"] for loop in out["loops"]]
    if len(group) < 2:
        raise ConfigError("decentralized control needs at least two loops")
    out["control"] = {"mode": "decentralized", "group": group,
                      "coordinate": ["analyze", "execute"]}
    return out
