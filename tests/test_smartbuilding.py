"""Device model, physics, and building generator tests."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fogloop.coordination import CentralizedControl, Combinator, DecentralizedControl
from fogloop.errors import ConfigError
from fogloop.mape import ElapsedSinceCondition
from fogloop.model import ValueType, value_conforms
from fogloop.runtime import Runtime
from fogloop.scenario import building_to_dict, parse_scenario, validate_scenario
from fogloop.simnet import Tier
from fogloop.smartbuilding import (
    COMMANDS,
    READINGS,
    BadArgumentError,
    BuildingDefaults,
    Device,
    DeviceKind,
    DeviceSetup,
    Environment,
    InvalidCountError,
    OfficeState,
    UnknownCommandError,
    build_smart_building,
    instantiate_office,
    step_thermal,
)


def device(kind: DeviceKind, **initial) -> Device:
    power = {"lamp": 60, "heater": 2000}.get(kind.name.lower(), 0)
    return Device(f"office1.{kind.value}", kind, power_w=power, initial=initial or None)


def test_locking_an_unlocked_door_emits_observation():
    door = device(DeviceKind.DOOR, **{"lock-state": "unlocked"})
    obs = door.apply("lock", None, now=1000)
    assert [(o.parameter, o.value, o.timestamp) for o in obs] == [("lock-state", "locked", 1000)]
    assert door.read("lock-state") == "locked"


def test_idempotent_commands_change_nothing():
    lamp = device(DeviceKind.LAMP, **{"power-state": False})
    assert lamp.apply("set-power", False, now=5) == []
    assert lamp.read("power-state") is False
    door = device(DeviceKind.DOOR)
    assert door.apply("lock", None, now=5) == []


def test_bad_arguments_are_rejected():
    heater = device(DeviceKind.HEATER)
    with pytest.raises(BadArgumentError):
        heater.apply("set-power", "warm", now=0)
    window = device(DeviceKind.WINDOW)
    with pytest.raises(BadArgumentError):
        window.apply("set-position", "ajar", now=0)
    clock = device(DeviceKind.CLOCK)
    with pytest.raises(BadArgumentError):
        clock.apply("arm", True, now=0)
    with pytest.raises(BadArgumentError):
        clock.apply("arm", -5, now=0)
    door = device(DeviceKind.DOOR)
    with pytest.raises(BadArgumentError):
        door.apply("lock", "tight", now=0)


def test_unknown_commands_are_rejected():
    with pytest.raises(UnknownCommandError):
        device(DeviceKind.LAMP).apply("dim", 50, now=0)
    with pytest.raises(UnknownCommandError):
        device(DeviceKind.ENERGY_METER).apply("reset", None, now=0)


def test_clock_arms_once_until_disarmed():
    clock = device(DeviceKind.CLOCK)
    assert clock.read("armed") is False
    obs = clock.apply("arm", 600_000, now=42)
    assert [(o.parameter, o.value) for o in obs] == [("armed", True)]
    assert clock.state["armed-at"] == 42
    assert clock.apply("arm", 600_000, now=99) == []
    assert clock.state["armed-at"] == 42
    obs = clock.apply("disarm", None, now=120)
    assert [(o.parameter, o.value) for o in obs] == [("armed", False)]
    assert clock.apply("disarm", None, now=121) == []


def office_with(heater_on: bool, window_open: bool, temp: float) -> OfficeState:
    devices = {
        "office1.heater": device(DeviceKind.HEATER, **{"power-state": heater_on}),
        "office1.window": device(
            DeviceKind.WINDOW, position="open" if window_open else "closed"
        ),
        "office1.lamp": device(DeviceKind.LAMP),
    }
    return OfficeState("office1", devices, room_temp_c=temp)


def test_thermal_equilibrium_holds():
    office = office_with(heater_on=False, window_open=False, temp=20.0)
    assert step_thermal(office, Environment(outside_temp_c=20.0), 60_000) == 20.0


def test_heater_adds_half_degree_per_minute():
    office = office_with(heater_on=True, window_open=False, temp=20.0)
    assert step_thermal(office, Environment(outside_temp_c=20.0), 60_000) == pytest.approx(20.5)
    cooler = office_with(heater_on=True, window_open=False, temp=18.0)
    new = step_thermal(cooler, Environment(outside_temp_c=10.0), 60_000)
    assert new == pytest.approx(18.0 + 0.5 + 0.05 * (10.0 - 18.0))


def test_open_window_leaks_toward_outside():
    office = office_with(heater_on=False, window_open=True, temp=20.0)
    assert step_thermal(office, Environment(outside_temp_c=10.0), 60_000) == pytest.approx(18.0)
    heated = office_with(heater_on=True, window_open=True, temp=20.0)
    assert step_thermal(heated, Environment(outside_temp_c=10.0), 60_000) == pytest.approx(18.5)


def test_meter_counts_nothing_when_everything_is_off():
    office = office_with(heater_on=False, window_open=False, temp=20.0)
    office.devices["office1.lamp"].state["power-state"] = False
    office.account(3_600_000)
    assert office.energy_mj == 0
    assert office.kwh() == 0.0


def test_lamp_for_an_hour_is_exactly_point_zero_six_kwh():
    office = office_with(heater_on=False, window_open=False, temp=20.0)
    office.account(3_600_000)
    assert office.energy_mj == 60 * 3_600_000
    assert office.kwh() == 0.06


def test_mixed_duty_cycle_sums_segments_exactly():
    office = office_with(heater_on=True, window_open=False, temp=20.0)
    office.account(1_800_000)  # heater 30 min + lamp 30 min
    office.devices["office1.heater"].apply("set-power", False, now=1_800_000)
    office.account(3_600_000)  # lamp alone for the second half hour
    assert office.energy_mj == 2000 * 1_800_000 + 60 * 3_600_000
    assert office.kwh() == 1.06


def test_accounting_refuses_to_move_backwards():
    office = office_with(heater_on=False, window_open=False, temp=20.0)
    office.account(100)
    with pytest.raises(ConfigError):
        office.account(99)


@given(st.lists(st.tuples(st.integers(1, 1000), st.booleans()), max_size=40))
def test_meter_is_monotone_under_any_toggling(segments):
    office = office_with(heater_on=False, window_open=False, temp=20.0)
    lamp = office.devices["office1.lamp"]
    now = 0
    readings = [office.energy_mj]
    for dt, lamp_on in segments:
        now += dt
        office.account(now)
        lamp.state["power-state"] = lamp_on
        readings.append(office.energy_mj)
    assert readings == sorted(readings)


@given(t=st.integers(1, 10_000_000), earlier=st.integers(0, 10_000_000))
def test_sync_integrates_once_up_to_the_latest_instant(t, earlier):
    office = office_with(heater_on=True, window_open=False, temp=20.0)
    office.sync(t)
    assert office.energy_mj == office.power_w() * t
    settled = (office.energy_mj, office.room_temp_c)
    office.sync(t)
    office.sync(min(earlier, t))
    assert (office.energy_mj, office.room_temp_c) == settled


def test_runtime_physics_is_its_offices():
    scenario = parse_scenario(building_to_dict(build_smart_building(2), name="two"))
    runtime = Runtime(scenario, seed=0)
    assert runtime.physics is runtime.offices
    assert all(office.env is runtime.env for office in runtime.offices.values())


def test_instantiated_office_wires_physics_readers():
    defaults = BuildingDefaults()
    setups = [
        DeviceSetup("office1.heater", DeviceKind.HEATER, "office1",
                    {"power-state": False, "setpoint-c": 21.0}),
        DeviceSetup("office1.meter", DeviceKind.ENERGY_METER, "office1"),
        DeviceSetup("office1.lamp", DeviceKind.LAMP, "office1", {"power-state": True}),
    ]
    office = instantiate_office("office1", setups, defaults)
    assert office.devices["office1.heater"].read("room-temp") == defaults.room_temp_c
    office.account(60_000)
    assert office.devices["office1.meter"].read("kwh-reading") == office.kwh()
    assert office.devices["office1.lamp"].power_w == defaults.lamp_w
    office.advance(Environment(outside_temp_c=14.0), 120_000, 60_000)
    assert office.devices["office1.heater"].read("room-temp") == office.room_temp_c


def test_readable_parameters_are_what_an_office_device_reads():
    office = instantiate_office(
        "office1",
        [DeviceSetup(f"office1.{kind.value}", kind, "office1") for kind in DeviceKind],
        BuildingDefaults(),
    )
    for kind in DeviceKind:
        dev = office.devices[f"office1.{kind.value}"]
        for parameter, vtype in READINGS[kind].items():
            assert value_conforms(dev.reader(parameter)(), vtype), (kind, parameter)
        with pytest.raises(ConfigError, match="no readable parameter 'bogus-param'"):
            dev.reader("bogus-param")
    clock = office.devices["office1.clock"]
    for parameter in ("armed-at", "duration-ms"):
        with pytest.raises(ConfigError, match=f"no readable parameter '{parameter}'"):
            clock.reader(parameter)


def test_commands_are_what_each_device_kind_implements():
    # Per argument type: an argument every command of that type accepts,
    # and one none accepts.
    accepted = {None: None, ValueType.BOOLEAN: True, ValueType.INTEGER: 1_000,
                ValueType.ENUM_OF_STRINGS: "closed"}
    refused = {None: True, ValueType.BOOLEAN: None, ValueType.INTEGER: None,
               ValueType.ENUM_OF_STRINGS: None}
    for kind in DeviceKind:
        for command, record in COMMANDS[kind].items():
            device(kind).apply(command, accepted[record.argument_type], now=0)
            with pytest.raises(BadArgumentError):
                device(kind).apply(command, refused[record.argument_type], now=0)
        with pytest.raises(UnknownCommandError):
            device(kind).apply("bogus", None, now=0)


# Values of every JSON scalar type, some of which fit no reading; and, per
# value type, values that fit it, so most drawn initial states validate.
ANY_SCALAR = st.sampled_from([None, True, False, 0, -5, 3, 2.5, 600_000,
                              "locked", "unlocked", "open", "closed", "ajar"])
FITTING = {
    ValueType.BOOLEAN: st.booleans(),
    ValueType.REAL: st.one_of(st.integers(-50, 50), st.floats(-50, 50)),
    ValueType.ENUM_OF_STRINGS: st.sampled_from(["locked", "unlocked", "open", "closed"]),
}


@st.composite
def validated_office(draw):
    """A 1-office scenario whose devices start from drawn initial states,
    kept only when `validate_scenario` accepts it."""
    data = building_to_dict(build_smart_building(1), name="drawn")
    for service, entry in data["devices"].items():
        kind = DeviceKind(entry["kind"])
        initial = {}
        for key in Device(service, kind).state:
            if draw(st.booleans()):
                vtype = READINGS[kind].get(key)
                fitting = [FITTING[vtype]] if vtype is not None else []
                initial[key] = draw(st.one_of(*fitting, ANY_SCALAR))
        entry["initial"] = initial
    scenario = parse_scenario(data)
    assume(validate_scenario(scenario).ok)
    return scenario


@st.composite
def commands(draw, scenario):
    """(service, command, argument, dt) steps over every command of every
    device's kind, plus one no device has, with arguments of any type."""
    names = {setup.service: [*COMMANDS[setup.kind], "bogus"] for setup in scenario.devices
             if setup.service.startswith("office1.")}
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        service = draw(st.sampled_from(sorted(names)))
        steps.append((service, draw(st.sampled_from(names[service])), draw(ANY_SCALAR),
                      draw(st.integers(0, 120_000))))
    return steps


@given(data=st.data())
def test_every_reading_keeps_its_type_under_any_command(data):
    """From any initial state validation accepts, every command, accepted or
    rejected, leaves each readable parameter of its table type: so the
    samples a run takes need no type check of their own."""
    scenario = data.draw(validated_office())
    office = instantiate_office("office1", scenario.devices, scenario.defaults)
    now = 0
    for service, command, argument, dt in data.draw(commands(scenario)):
        now += dt
        office.sync(now)
        try:
            office.devices[service].apply(command, argument, now)
        except (BadArgumentError, UnknownCommandError):
            pass
        for dev in office.devices.values():
            for parameter, vtype in READINGS[dev.kind].items():
                value = dev.read(parameter)
                assert value_conforms(value, vtype), (dev.service, parameter, value)


def test_single_office_building_shape():
    building = build_smart_building(1)
    assert len(building.devices) == 6
    assert [loop.id for loop in building.loops] == ["office1"]
    tiers = [node.tier for node in building.topology.nodes]
    assert tiers.count(Tier.FOG) == 1
    assert tiers.count(Tier.CLOUD) == 1
    assert tiers.count(Tier.DEVICE) == 6
    assert building.topology.validate().ok
    assert building.topology.hosts == {setup.service: setup.node
                                       for setup in building.devices}
    assert len(building.loops[0].policies) == 5


def test_zero_offices_is_invalid():
    with pytest.raises(InvalidCountError):
        build_smart_building(0)


def test_three_office_centralized_building():
    building = build_smart_building(3, control="centralized")
    assert [loop.id for loop in building.loops] == [
        "office1", "office2", "office3", "building"
    ]
    assert isinstance(building.control, CentralizedControl)
    assert building.control.master == "building"
    (agg,) = building.control.aggregations
    assert agg.combinator is Combinator.SUM
    assert agg.inputs == (
        ("office1.meter", "kwh-reading"),
        ("office2.meter", "kwh-reading"),
        ("office3.meter", "kwh-reading"),
    )
    assert building.topology.validate().ok
    assert building.topology.hosts == {setup.service: setup.node
                                       for setup in building.devices}


def test_decentralized_building_groups_all_offices():
    building = build_smart_building(2, control="decentralized")
    assert isinstance(building.control, DecentralizedControl)
    assert building.control.group == ("office1", "office2")
    assert building.control.coordinate == ("analyze", "execute")
    with pytest.raises(ConfigError):
        build_smart_building(1, control="decentralized")


def test_generated_policies_encode_the_three_rules():
    building = build_smart_building(1)
    by_name = {policy.name: policy for policy in building.policies}
    sunny = by_name["office1-lights-off-sunny"]
    assert [c.parameter for c in sunny.when] == ["weather", "position", "power-state"]
    assert sunny.then[0] == sunny.then[0].__class__("office1.lamp", "set-power", False)

    after_lock = by_name["office1-lights-off-after-lock"]
    assert isinstance(after_lock.when[0], ElapsedSinceCondition)
    assert after_lock.when[0].duration_ms == 600_000

    hot = by_name["office1-too-hot"]
    cold = by_name["office1-too-cold"]
    assert hot.when[0].threshold == 22.0
    assert cold.when[0].threshold == 20.0
    assert [a.command for a in hot.then] == ["set-power", "set-position"]
    assert [a.command for a in cold.then] == ["set-position", "set-power"]
