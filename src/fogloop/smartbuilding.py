"""Smart-building case study: device behavior models and a scenario generator.

Each office has six devices (door, window, heater, energy meter, lamp,
smart clock) behind one fog node and one control loop. Room temperature
follows a linear thermal model stepped at every meter tick, and energy
is accounted in integer millijoules (watts x virtual ms) so the meter is
exact. The generator installs the three standing rules per office:

  P1  lights off while it is sunny and the window is open
  P2  locking the door arms the clock; after the duration the lights go off
  P3  temperature band: too hot -> heater off + window open,
      too cold -> window closed + heater on
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from fogloop.coordination import (
    AggregationSpec,
    CentralizedControl,
    Combinator,
    ControlMode,
    DecentralizedControl,
)
from fogloop.errors import ConfigError, FogloopError
from fogloop.mape import (
    Comparator,
    ElapsedSinceCondition,
    Observation,
    PlannedAction,
    Policy,
    ThresholdCondition,
)
from fogloop.model import ValueType, value_conforms
from fogloop.placement import LoopSpec, Offering
from fogloop.simnet import Link, Node, Tier, Topology

MS_PER_MINUTE = 60_000
MJ_PER_KWH = 3_600_000_000


class DeviceKind(str, Enum):
    DOOR = "door"
    WINDOW = "window"
    HEATER = "heater"
    ENERGY_METER = "energy-meter"
    LAMP = "lamp"
    CLOCK = "clock"


class UnknownCommandError(FogloopError):
    """A device received a command it does not implement."""


class BadArgumentError(FogloopError):
    """A command argument has the wrong type or an impossible value."""


class InvalidCountError(ConfigError):
    """The office count must be at least one."""


_DEFAULT_STATE: dict[DeviceKind, dict[str, Any]] = {
    DeviceKind.DOOR: {"lock-state": "locked"},
    DeviceKind.WINDOW: {"position": "open"},
    DeviceKind.HEATER: {"power-state": False, "setpoint-c": 21.0},
    DeviceKind.ENERGY_METER: {},
    DeviceKind.LAMP: {"power-state": True},
    DeviceKind.CLOCK: {"armed-at": None, "duration-ms": None},
}

# Every parameter a device of each kind reads, with the type of every value
# it reads, in the order a device samples them. A reading is a state key, or
# taken from the office (`room-temp`, `kwh-reading`), or derived from state
# (`armed`). Validation holds sampled readings to the kind and initial state
# to these types, and every command keeps them.
READINGS: dict[DeviceKind, dict[str, ValueType]] = {
    DeviceKind.DOOR: {"lock-state": ValueType.ENUM_OF_STRINGS},
    DeviceKind.WINDOW: {"position": ValueType.ENUM_OF_STRINGS},
    DeviceKind.HEATER: {"power-state": ValueType.BOOLEAN, "setpoint-c": ValueType.REAL,
                        "room-temp": ValueType.REAL},
    DeviceKind.ENERGY_METER: {"kwh-reading": ValueType.REAL},
    DeviceKind.LAMP: {"power-state": ValueType.BOOLEAN},
    DeviceKind.CLOCK: {"armed": ValueType.BOOLEAN},
}

# What a command sets a state key to, besides a constant: its argument, or
# the current time.
ARG, NOW = object(), object()


def with_article(noun: str) -> str:
    """`noun` after its indefinite article: "a door", "an energy-meter"."""
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


@dataclass(frozen=True)
class DeviceCommand:
    """One command of a device kind: the type of its argument (None: it
    takes none), which values of that type it accepts (one of `choices`,
    or a positive integer; else any), and the state keys it sets, each to
    a constant, to `ARG` or to `NOW`."""

    argument_type: ValueType | None
    sets: Mapping[str, Any]
    choices: tuple[str, ...] = ()
    positive: bool = False

    @property
    def accepts(self) -> str:
        """The arguments it takes, in words."""
        if self.argument_type is None:
            return "no argument"
        if self.choices:
            return " or ".join(self.choices)
        return "a positive integer" if self.positive else with_article(self.argument_type.value)

    def has_type(self, arg: Any) -> bool:
        return arg is None if self.argument_type is None else value_conforms(
            arg, self.argument_type)

    def admits(self, arg: Any) -> bool:
        """Whether an argument of its type is one it accepts."""
        return arg in self.choices if self.choices else not self.positive or arg > 0


_SET_POWER = DeviceCommand(ValueType.BOOLEAN, {"power-state": ARG})

# Every command a device of each kind implements. Validation holds every
# action's command and argument to it, and `Device.apply` carries a command
# out from it, so a device accepts every action that validates.
COMMANDS: dict[DeviceKind, dict[str, DeviceCommand]] = {
    DeviceKind.DOOR: {"lock": DeviceCommand(None, {"lock-state": "locked"}),
                      "unlock": DeviceCommand(None, {"lock-state": "unlocked"})},
    DeviceKind.WINDOW: {"set-position": DeviceCommand(
        ValueType.ENUM_OF_STRINGS, {"position": ARG}, choices=("open", "closed"))},
    DeviceKind.HEATER: {"set-power": _SET_POWER},
    DeviceKind.ENERGY_METER: {},
    DeviceKind.LAMP: {"set-power": _SET_POWER},
    DeviceKind.CLOCK: {
        "arm": DeviceCommand(ValueType.INTEGER, {"armed-at": NOW, "duration-ms": ARG},
                             positive=True),
        "disarm": DeviceCommand(None, {"armed-at": None, "duration-ms": None}),
    },
}

# A reading derived from a state key rather than stored under its own name,
# with the key and how: a clock is armed while it holds its arming time.
_DERIVED: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "armed": ("armed-at", partial(operator.is_not, None)),
}


def _read(state: Mapping[str, Any], parameter: str) -> Any:
    """`parameter` as a device in `state` reads it."""
    if parameter in _DERIVED:
        key, derive = _DERIVED[parameter]
        return derive(state[key])
    return state[parameter]


# Ambient context: the service whose streams the environment feeds to every
# knowledge base, and the type of each of them.
ENVIRONMENT_SERVICE = "environment"
ENVIRONMENT_READINGS: dict[str, ValueType] = {
    "weather": ValueType.ENUM_OF_STRINGS,
    "outside-temp": ValueType.REAL,
}


class Device:
    """One physical device: readable parameters plus command transitions.

    apply() returns the observations produced by the transition; idempotent
    commands (setting the current state) change nothing and return none.
    """

    def __init__(
        self,
        service: str,
        kind: DeviceKind,
        power_w: int = 0,
        initial: Mapping[str, Any] | None = None,
    ):
        self.service = service
        self.kind = kind
        self.power_w = power_w
        # Readings taken from elsewhere than the state, by parameter.
        self.readers: dict[str, Callable[[], Any]] = {}
        self.state: dict[str, Any] = dict(_DEFAULT_STATE[kind])
        self.state.update(initial or {})

    def reader(self, parameter: str) -> Callable[[], Any]:
        """A `partial` of no arguments that reads `parameter`, so a run that
        holds it pickles; ConfigError when this device cannot read it."""
        if parameter in self.readers:
            return self.readers[parameter]
        if parameter in READINGS[self.kind]:
            if parameter in _DERIVED:
                return partial(_read, self.state, parameter)
            if parameter in self.state:
                return partial(self.state.__getitem__, parameter)
        raise ConfigError(f"{self.service} has no readable parameter '{parameter}'")

    def read(self, parameter: str) -> Any:
        return self.reader(parameter)()

    def apply(self, command: str, arg: Any, now: int) -> list[Observation]:
        """Carry out `command` as its `COMMANDS` record says. It changes the
        state only if that changes a reading, so arming an armed clock keeps
        its first arming time."""
        record = COMMANDS[self.kind].get(command)
        if record is None:
            raise UnknownCommandError(f"{self.service} has no command '{command}'")
        if not (record.has_type(arg) and record.admits(arg)):
            raise BadArgumentError(f"{self.service}.{command} takes {record.accepts}, "
                                   f"got {arg!r}")
        after = dict(self.state)
        for key, to in record.sets.items():
            after[key] = arg if to is ARG else now if to is NOW else to
        changed = []
        for parameter in READINGS[self.kind]:
            key = _DERIVED[parameter][0] if parameter in _DERIVED else parameter
            if key in record.sets and _read(after, parameter) != _read(self.state, parameter):
                changed.append(Observation(self.service, parameter, _read(after, parameter), now))
        if changed:
            self.state.update(after)
        return changed


@dataclass
class Environment:
    outside_temp_c: float = 14.0


@dataclass(frozen=True)
class EnvironmentEvent:
    t: int
    weather: str | None = None
    outside_temp_c: float | None = None


class OfficeState:
    """Shared physics of one office: room temperature and the energy meter.

    Energy accrues as integer millijoules; account() must run before any
    power level changes so each segment integrates the power that actually
    held over it. The office integrates lazily: `sync(now)` advances it
    exactly to `now` under `env`, so every read and every power change sits
    on a segment boundary. The heater, the window and the powered devices
    are resolved once, here, so a step scans no devices.
    """

    def __init__(
        self,
        office_id: str,
        devices: dict[str, Device],
        room_temp_c: float,
        heat_rate_c_per_min: float = 0.5,
        leak_open_per_min: float = 0.2,
        leak_closed_per_min: float = 0.05,
        env: Environment | None = None,
    ):
        self.id = office_id
        self.env = Environment() if env is None else env
        self.devices = devices
        self.room_temp_c = room_temp_c
        self.heat_rate_c_per_min = heat_rate_c_per_min
        self.leak_open_per_min = leak_open_per_min
        self.leak_closed_per_min = leak_closed_per_min
        self.energy_mj = 0
        self._accounted_at = 0
        # The state of the first device of each kind.
        of_kind = {device.kind: device.state for device in reversed(devices.values())}
        self._heater = of_kind.get(DeviceKind.HEATER, {"power-state": False})
        self._window = of_kind.get(DeviceKind.WINDOW, {"position": "closed"})
        # (state, watts) of every device that draws power while switched on.
        self._powered = [(device.state, device.power_w) for device in devices.values()
                         if device.kind in (DeviceKind.LAMP, DeviceKind.HEATER)]

    @property
    def heater_on(self) -> bool:
        return bool(self._heater["power-state"])

    @property
    def window_open(self) -> bool:
        return self._window["position"] == "open"

    def power_w(self) -> int:
        return sum(watts for state, watts in self._powered if state["power-state"])

    def account(self, now: int) -> None:
        if now < self._accounted_at:
            raise ConfigError(f"office '{self.id}': accounting moved backwards")
        self.energy_mj += self.power_w() * (now - self._accounted_at)
        self._accounted_at = now

    def kwh(self) -> float:
        return self.energy_mj / MJ_PER_KWH

    def advance(self, env: Environment, now: int, dt_ms: int) -> None:
        self.account(now)
        self.room_temp_c = step_thermal(self, env, dt_ms)

    def sync(self, now: int) -> None:
        if now > self._accounted_at:
            self.advance(self.env, now, now - self._accounted_at)


def step_thermal(office: OfficeState, env: Environment, dt_ms: int) -> float:
    """Linear model: heater adds heat_rate C/min; the outside pulls the room
    toward it at the open or closed leak rate. Returns the new temperature."""
    if dt_ms <= 0:
        raise ConfigError("thermal step needs dt > 0")
    minutes = dt_ms / MS_PER_MINUTE
    temp = office.room_temp_c
    heat = office.heat_rate_c_per_min if office.heater_on else 0.0
    leak = office.leak_open_per_min if office.window_open else office.leak_closed_per_min
    return temp + heat * minutes + leak * (env.outside_temp_c - temp) * minutes


@dataclass(frozen=True)
class BuildingDefaults:
    """A scenario's `defaults`: what a run reads of the building."""

    room_temp_c: float = 21.0
    outside_temp_c: float = 14.0
    weather: str = "not-sunny"
    lamp_w: int = 60
    heater_w: int = 2000
    heat_rate_c_per_min: float = 0.5
    leak_open_per_min: float = 0.2
    leak_closed_per_min: float = 0.05


@dataclass(frozen=True)
class BuildingParams:
    """What `build_smart_building` writes into the building it generates.
    A scenario file holds their effect, not these values."""

    sample_interval_ms: int = 1000
    clock_duration_ms: int = 600_000
    setpoint_c: float = 21.0
    door_locked: bool = True
    lamp_on: bool = True
    window_open: bool = True
    heater_on: bool = False
    p3_cooldown_ms: int = 60_000
    device_fog_latency_ms: int = 1
    fog_fog_latency_ms: int = 2
    fog_cloud_latency_ms: int = 50


@dataclass
class DeviceSetup:
    """A scenario's one declaration of a device: its kind, the node it runs
    on, its office, its initial state and the interval in ms of each
    reading it samples."""

    service: str
    kind: DeviceKind
    node: str
    office: str | None = None
    initial: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)


@dataclass
class Building:
    topology: Topology
    loops: tuple[LoopSpec, ...]
    policies: tuple[Policy, ...]
    devices: tuple[DeviceSetup, ...]
    environment_events: tuple[EnvironmentEvent, ...]
    control: ControlMode | None
    defaults: BuildingDefaults


# Each office device by its short name, with its kind, in generation order.
_KIND_BY_SHORT = {
    "door": DeviceKind.DOOR,
    "window": DeviceKind.WINDOW,
    "heater": DeviceKind.HEATER,
    "meter": DeviceKind.ENERGY_METER,
    "lamp": DeviceKind.LAMP,
    "clock": DeviceKind.CLOCK,
}

# The readings an office device of each kind samples.
_DECLARED: dict[DeviceKind, tuple[str, ...]] = {
    DeviceKind.DOOR: ("lock-state",),
    DeviceKind.WINDOW: ("position",),
    DeviceKind.HEATER: ("power-state", "room-temp"),
    DeviceKind.ENERGY_METER: ("kwh-reading",),
    DeviceKind.LAMP: ("power-state",),
    DeviceKind.CLOCK: ("armed",),
}


def office_policies(office: str, params: BuildingParams) -> tuple[Policy, ...]:
    def svc(short: str) -> str:
        return f"{office}.{short}"

    # Cooldowns must outlast one sampling period plus the slowest actuation
    # round trip, or stale samples re-raise the symptom before the effect
    # is observed; 200 ms covers the cloud-hosted analyzer's round trip.
    guard = params.sample_interval_ms + 200
    return (
        Policy(
            f"{office}-lights-off-sunny",
            when=(
                ThresholdCondition(ENVIRONMENT_SERVICE, "weather", Comparator.EQ, "sunny"),
                ThresholdCondition(svc("window"), "position", Comparator.EQ, "open"),
                ThresholdCondition(svc("lamp"), "power-state", Comparator.EQ, True),
            ),
            then=(PlannedAction(svc("lamp"), "set-power", False),),
            cooldown_ms=guard,
        ),
        Policy(
            f"{office}-arm-clock",
            when=(
                ThresholdCondition(svc("door"), "lock-state", Comparator.EQ, "locked"),
                ThresholdCondition(svc("clock"), "armed", Comparator.EQ, False),
            ),
            then=(PlannedAction(svc("clock"), "arm", params.clock_duration_ms),),
            cooldown_ms=guard,
        ),
        Policy(
            f"{office}-lights-off-after-lock",
            when=(
                ElapsedSinceCondition(
                    svc("door"), "lock-state", "locked", params.clock_duration_ms
                ),
                ThresholdCondition(svc("lamp"), "power-state", Comparator.EQ, True),
            ),
            then=(PlannedAction(svc("lamp"), "set-power", False),),
            cooldown_ms=params.clock_duration_ms,
        ),
        Policy(
            f"{office}-too-hot",
            when=(
                ThresholdCondition(
                    svc("heater"), "room-temp", Comparator.GE, params.setpoint_c + 1.0
                ),
            ),
            then=(
                PlannedAction(svc("heater"), "set-power", False),
                PlannedAction(svc("window"), "set-position", "open"),
            ),
            cooldown_ms=params.p3_cooldown_ms,
        ),
        Policy(
            f"{office}-too-cold",
            when=(
                ThresholdCondition(
                    svc("heater"), "room-temp", Comparator.LE, params.setpoint_c - 1.0
                ),
            ),
            then=(
                PlannedAction(svc("window"), "set-position", "closed"),
                PlannedAction(svc("heater"), "set-power", True),
            ),
            cooldown_ms=params.p3_cooldown_ms,
        ),
    )


def _initial_state(short: str, params: BuildingParams) -> dict[str, Any]:
    if short == "door":
        return {"lock-state": "locked" if params.door_locked else "unlocked"}
    if short == "window":
        return {"position": "open" if params.window_open else "closed"}
    if short == "heater":
        return {"power-state": params.heater_on, "setpoint-c": params.setpoint_c}
    if short == "lamp":
        return {"power-state": params.lamp_on}
    return {}


def instantiate_office(
    office_id: str, setups: Iterable[DeviceSetup], defaults: BuildingDefaults,
    env: Environment | None = None,
) -> OfficeState:
    """Create live devices plus the shared physics for one office, which
    integrates under `env`. The office reads its devices, and the heater and
    the meter read the office."""
    watts = {DeviceKind.LAMP: defaults.lamp_w, DeviceKind.HEATER: defaults.heater_w}
    devices = {
        setup.service: Device(setup.service, setup.kind, power_w=watts.get(setup.kind, 0),
                              initial=setup.initial)
        for setup in setups
    }
    office = OfficeState(
        office_id,
        devices,
        room_temp_c=defaults.room_temp_c,
        heat_rate_c_per_min=defaults.heat_rate_c_per_min,
        leak_open_per_min=defaults.leak_open_per_min,
        leak_closed_per_min=defaults.leak_closed_per_min,
        env=env,
    )
    for device in devices.values():
        if device.kind is DeviceKind.HEATER:
            device.readers["room-temp"] = partial(getattr, office, "room_temp_c")
        elif device.kind is DeviceKind.ENERGY_METER:
            device.readers["kwh-reading"] = office.kwh
    return office


def build_smart_building(
    n: int,
    defaults: BuildingDefaults | None = None,
    control: str = "none",
    environment_events: Iterable[EnvironmentEvent] = (),
    params: BuildingParams | None = None,
) -> Building:
    """Generate the N-office building: devices, topology, loops, and rules.

    The building keeps `defaults`, what its runs read. `params` is spent
    here: `sample_interval_ms` sets every sampled reading's interval and the
    rules' cooldown guard; `clock_duration_ms` the clock's `arm` argument and
    the lock-to-lights-off delay and cooldown; `setpoint_c` the heaters'
    `setpoint-c` and the thermostat thresholds a degree either side;
    `p3_cooldown_ms` the thermostat cooldown; `door_locked`, `lamp_on`,
    `window_open` and `heater_on` the initial states; `device_fog_latency_ms`,
    `fog_fog_latency_ms` and `fog_cloud_latency_ms` the links."""
    if n < 1:
        raise InvalidCountError(f"need at least one office, got {n}")
    if control not in ("none", "centralized", "decentralized"):
        raise ConfigError(f"unknown control mode '{control}'")
    if control == "decentralized" and n < 2:
        raise ConfigError("decentralized control needs at least two offices")
    defaults = defaults or BuildingDefaults()
    params = params or BuildingParams()

    offices = [f"office{i}" for i in range(1, n + 1)]
    nodes: list[Node] = []
    links: list[Link] = []
    loops: list[LoopSpec] = []
    policies: list[Policy] = []
    setups: list[DeviceSetup] = []

    for office in offices:
        fog = f"fog{office.removeprefix('office')}"
        nodes.append(Node(fog, Tier.FOG))
        scope = []
        for short, kind in _KIND_BY_SHORT.items():
            service = f"{office}.{short}"
            nodes.append(Node(service, Tier.DEVICE))
            links.append(Link(service, fog, params.device_fog_latency_ms))
            samples = dict.fromkeys(_DECLARED[kind], params.sample_interval_ms)
            setups.append(DeviceSetup(service, kind, service, office,
                                      _initial_state(short, params), samples))
            scope.append(service)
        office_rules = office_policies(office, params)
        policies.extend(office_rules)
        loops.append(LoopSpec(office, tuple(scope), Offering.MAPEAAS, policies=office_rules))

    fogs = [f"fog{i}" for i in range(1, n + 1)]
    for i, a in enumerate(fogs):
        for b in fogs[i + 1:]:
            links.append(Link(a, b, params.fog_fog_latency_ms))
    nodes.append(Node("cloud", Tier.CLOUD))
    links.extend(Link(fog, "cloud", params.fog_cloud_latency_ms) for fog in fogs)

    mode: ControlMode | None = None
    if control == "centralized":
        every_service = tuple(svc for loop in loops for svc in loop.scope)
        loops.append(LoopSpec("building", every_service, Offering.MAPEAAS))
        mode = CentralizedControl(
            master="building",
            aggregations=(
                AggregationSpec(
                    "total-kwh",
                    inputs=tuple((f"{office}.meter", "kwh-reading") for office in offices),
                    combinator=Combinator.SUM,
                    output="total-kwh",
                ),
            ),
        )
    elif control == "decentralized":
        mode = DecentralizedControl(group=tuple(offices),
                                    coordinate=("analyze", "execute"))

    return Building(
        topology=Topology(tuple(nodes), tuple(links),
                          {setup.service: setup.node for setup in setups}),
        loops=tuple(loops),
        policies=tuple(policies),
        devices=tuple(setups),
        environment_events=tuple(environment_events),
        control=mode,
        defaults=defaults,
    )
