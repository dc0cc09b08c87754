"""Scenario schema: strict parsing, validation, digests, variant transforms."""

from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fogloop.coordination import CentralizedControl, DecentralizedControl
from fogloop.errors import ConfigError
from fogloop.placement import Offering
from fogloop.runtime import run_scenario
from fogloop.scenario import (
    building_to_dict,
    canonical_json,
    config_digest,
    load_scenario,
    parse_scenario,
    validate_scenario,
    with_mode,
    with_offering,
)
from fogloop.model import ValueType
from fogloop.smartbuilding import (
    COMMANDS,
    READINGS,
    BuildingDefaults,
    BuildingParams,
    DeviceKind,
    EnvironmentEvent,
    build_smart_building,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_dict(n: int = 1, control: str = "none") -> dict:
    building = build_smart_building(n, control=control)
    return building_to_dict(building, name=f"building-{n}-{control}")


def reparse(data: dict) -> dict:
    return json.loads(json.dumps(data))


class TestRoundTrip:
    def test_one_office_parses_and_validates_clean(self):
        data = reparse(scenario_dict(1))
        scenario = parse_scenario(data)
        report = validate_scenario(scenario)
        assert report.ok, "\n".join(report.lines())
        assert [loop.id for loop in scenario.loops] == ["office1"]
        assert len(scenario.policies) == 5
        assert len(scenario.devices) == 6
        assert scenario.defaults == BuildingDefaults()

    def test_centralized_three_offices_clean(self):
        data = reparse(scenario_dict(3, "centralized"))
        scenario = parse_scenario(data)
        report = validate_scenario(scenario)
        assert report.ok, "\n".join(report.lines())
        assert isinstance(scenario.control, CentralizedControl)
        assert scenario.master_id == "building"
        assert [loop.id for loop in scenario.managing_loops] == [
            "office1", "office2", "office3",
        ]
        agg = scenario.control.aggregations[0]
        assert agg.inputs == (
            ("office1.meter", "kwh-reading"),
            ("office2.meter", "kwh-reading"),
            ("office3.meter", "kwh-reading"),
        )

    def test_decentralized_two_offices_clean(self):
        data = reparse(scenario_dict(2, "decentralized"))
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).ok
        assert isinstance(scenario.control, DecentralizedControl)
        assert scenario.control.group == ("office1", "office2")
        assert scenario.control.coordinate == ("analyze", "execute")

    def test_policies_survive_round_trip(self):
        data = reparse(scenario_dict(1))
        scenario = parse_scenario(data)
        building = build_smart_building(1)
        assert scenario.policies == building.policies
        assert scenario.loops == building.loops

    def test_environment_events_round_trip(self):
        building = build_smart_building(1)
        from fogloop.smartbuilding import EnvironmentEvent

        building.environment_events = (
            EnvironmentEvent(t=60_000, weather="sunny"),
            EnvironmentEvent(t=120_000, outside_temp_c=9.0),
        )
        data = reparse(building_to_dict(building, name="scripted"))
        scenario = parse_scenario(data)
        assert scenario.environment_events == building.environment_events
        assert validate_scenario(scenario).ok


class TestDigest:
    def test_key_order_does_not_matter(self):
        data = scenario_dict(1)
        shuffled = {key: data[key] for key in reversed(list(data))}
        assert config_digest(data) == config_digest(shuffled)

    def test_content_changes_the_digest(self):
        data = scenario_dict(1)
        changed = reparse(data)
        changed["defaults"]["lamp_w"] = 40
        assert config_digest(data) != config_digest(changed)

    def test_canonical_json_is_compact_and_sorted(self):
        text = canonical_json({"b": 1, "a": [True, None]})
        assert text == '{"a":[true,null],"b":1}'

    def test_scenario_digest_matches_raw(self):
        data = reparse(scenario_dict(2, "decentralized"))
        scenario = parse_scenario(data)
        assert scenario.digest == config_digest(data)


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        data = scenario_dict(1)
        data["plotting"] = True
        with pytest.raises(ConfigError, match="unknown keys.*plotting"):
            parse_scenario(data)

    def test_master_node_is_an_unknown_key(self):
        # The master's node comes from its loop's offering and scope.
        data = scenario_dict(3, "centralized")
        data["control"]["master"]["node"] = "fog1"
        with pytest.raises(ConfigError, match=r"control\.master: unknown keys \['node'\]"):
            parse_scenario(data)

    def test_unknown_policy_key(self):
        data = scenario_dict(1)
        data["policies"][0]["priority"] = 3
        with pytest.raises(ConfigError, match=r"policies\[0\].*priority"):
            parse_scenario(data)

    def test_missing_required_key(self):
        data = scenario_dict(1)
        del data["topology"]["links"]
        with pytest.raises(ConfigError, match="missing keys.*links"):
            parse_scenario(data)

    def test_bad_offering_enum(self):
        data = scenario_dict(1)
        data["loops"][0]["offering"] = "edge"
        with pytest.raises(ConfigError, match="mapeaas"):
            parse_scenario(data)

    def test_bad_tier_enum(self):
        data = scenario_dict(1)
        data["topology"]["nodes"][0]["tier"] = "mist"
        with pytest.raises(ConfigError, match="not one of"):
            parse_scenario(data)

    def test_latency_must_be_integer(self):
        data = scenario_dict(1)
        data["topology"]["links"][0]["latency_ms"] = 1.5
        with pytest.raises(ConfigError, match="expected integer"):
            parse_scenario(data)

    def test_sample_interval_must_be_integer(self):
        data = scenario_dict(1)
        data["devices"]["office1.lamp"]["samples"]["power-state"] = 1.5
        with pytest.raises(ConfigError, match=re.escape(
                "devices.office1.lamp.samples.power-state: expected integer")):
            parse_scenario(data)

    @pytest.mark.parametrize("place, message", [
        (lambda data: data.update(domain={"name": "smart-building", "tasks": []}),
         "scenario: unknown keys ['domain']"),
        (lambda data: data["topology"]["nodes"][1].update(hosts=["office1.door"]),
         "topology.nodes[1]: unknown keys ['hosts']"),
    ], ids=["domain", "hosts"])
    def test_a_device_is_declared_only_by_its_devices_entry(self, place, message):
        # Its kind fixes its readings' and commands' types, and its entry
        # names its node, so neither a domain service nor a host list is read.
        data = scenario_dict(1)
        place(data)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_scenario(data)

    @pytest.mark.parametrize("key, pin", [("node", "fog1"),
                                          ("components", {"knowledge": "fog1"})])
    def test_loop_placement_pins_are_unknown_keys(self, key, pin):
        # A loop's offering alone places its components.
        data = scenario_dict(1)
        data["loops"][0][key] = pin
        with pytest.raises(ConfigError,
                           match=re.escape(f"loops[0]: unknown keys ['{key}']")):
            parse_scenario(data)

    def test_defaults_reject_wrong_types(self):
        data = scenario_dict(1)
        data["defaults"]["lamp_w"] = "sixty"
        with pytest.raises(ConfigError, match="defaults.lamp_w"):
            parse_scenario(data)

    @pytest.mark.parametrize("key", [f.name for f in fields(BuildingParams)])
    def test_a_generator_parameter_is_an_unknown_key(self, key):
        # Only build_smart_building reads these; a run never does.
        data = scenario_dict(1)
        data["defaults"][key] = getattr(BuildingParams(), key)
        with pytest.raises(ConfigError,
                           match=re.escape(f"defaults: unknown keys ['{key}']")):
            parse_scenario(data)

    def test_aggregation_input_names_only_its_stream(self):
        # The ownership table, not the input, names the slave that forwards it.
        data = scenario_dict(3, "centralized")
        data["control"]["master"]["aggregations"][0]["inputs"][0].insert(0, "office1")
        with pytest.raises(ConfigError, match=re.escape(
                "control.master.aggregations[0].inputs[0]: expected [service, parameter]")):
            parse_scenario(data)

    def test_control_mode_required(self):
        data = scenario_dict(2, "decentralized")
        data["control"]["mode"] = "federated"
        with pytest.raises(ConfigError, match="centralized.*decentralized"):
            parse_scenario(data)

    def test_condition_shape_is_exclusive(self):
        data = scenario_dict(1)
        data["policies"][0]["when"][0] = {
            "elapsed_since": {"service": "s", "parameter": "p", "value": 1, "ms": 5},
            "op": ">",
        }
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(data)

    @pytest.mark.parametrize("path, owner, key", [
        ("name", lambda d: d, "name"),
        ("environment[0].weather", lambda d: d["environment"][0], "weather"),
        ("devices.office1.lamp.office", lambda d: d["devices"]["office1.lamp"], "office"),
        ("devices.office1.lamp.node", lambda d: d["devices"]["office1.lamp"], "node"),
    ])
    def test_string_fields_reject_other_types(self, path, owner, key):
        data = scenario_dict(1)
        data["environment"] = [{"t": 100, "weather": "sunny"}]
        owner(data)[key] = ["office1"]
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected string")):
            parse_scenario(data)


class TestValidation:
    def test_unknown_policy_reference_is_a_violation(self):
        data = scenario_dict(1)
        data["loops"][0]["policies"].append("office1-defrost")
        scenario = parse_scenario(data)
        report = validate_scenario(scenario)
        assert not report.ok
        assert any("unknown policy 'office1-defrost'" in line for line in report.lines())

    def test_overlapping_scopes_flagged(self):
        data = scenario_dict(2)
        data["loops"][1]["scope"].append("office1.lamp")
        report = validate_scenario(parse_scenario(data))
        assert any("already managed by loop 'office1'" in line
                   for line in report.lines())

    def test_service_listed_twice_in_one_scope(self):
        data = scenario_dict(2)
        data["loops"][0]["scope"].append("office1.door")
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == ["loops[0]: 'office1.door' is listed twice in the scope"]

    def test_policy_listed_twice_in_one_loop(self):
        # Both entries would fire together, doubling every plan and dispatch.
        data = scenario_dict(2)
        data["loops"][1]["policies"].append("office2-too-hot")
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "loops[1].policies: policy 'office2-too-hot' is listed twice"]

    @pytest.mark.parametrize("kind", ["heater", "window"])
    def test_an_office_has_one_heater_and_one_window(self, kind):
        # Its physics reads the first of each kind, while every powered
        # device draws energy, so a second one would be half modelled.
        data = scenario_dict(1)
        first, second = f"office1.{kind}", f"office1.{kind}2"
        data["topology"]["nodes"].append({"id": second, "tier": "device"})
        data["topology"]["links"].append({"a": second, "b": "fog1", "latency_ms": 1})
        data["loops"][0]["scope"].append(second)
        data["devices"][second] = dict(data["devices"][first], node=second)
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            f"devices.{second}: office 'office1' already has a {kind} '{first}'"]

    def test_master_scope_may_overlap(self):
        data = scenario_dict(3, "centralized")
        assert validate_scenario(parse_scenario(data)).ok

    def test_unknown_stream_in_policy(self):
        data = scenario_dict(1)
        data["policies"][0]["when"][0]["parameter"] = "humidity"
        report = validate_scenario(parse_scenario(data))
        assert any("unknown stream" in line for line in report.lines())

    def test_threshold_type_mismatch(self):
        data = scenario_dict(1)
        data["policies"][0]["when"][0]["value"] = 42
        report = validate_scenario(parse_scenario(data))
        assert any("does not conform" in line for line in report.lines())

    def test_ordered_comparison_on_enum_stream(self):
        data = scenario_dict(1)
        data["policies"][0]["when"][0]["op"] = "<"
        report = validate_scenario(parse_scenario(data))
        assert any("ordered comparison" in line for line in report.lines())

    def test_command_argument_mismatch(self):
        data = scenario_dict(1)
        data["policies"][0]["then"][0]["arg"] = "off"
        report = validate_scenario(parse_scenario(data))
        assert any("does not conform to boolean" in line for line in report.lines())

    def test_environment_must_increase(self):
        data = scenario_dict(1)
        data["environment"] = [{"t": 100, "weather": "sunny"},
                               {"t": 100, "weather": "not-sunny"}]
        report = validate_scenario(parse_scenario(data))
        assert any("strictly increasing" in line for line in report.lines())

    def test_environment_event_must_change_something(self):
        data = scenario_dict(1)
        data["environment"] = [{"t": 100}]
        report = validate_scenario(parse_scenario(data))
        assert any("changes nothing" in line for line in report.lines())

    def test_weather_vocabulary(self):
        data = scenario_dict(1)
        data["environment"] = [{"t": 100, "weather": "drizzle"}]
        report = validate_scenario(parse_scenario(data))
        assert any("weather must be one of" in line for line in report.lines())

    def test_environment_temperature_must_be_real(self):
        # A Scenario built in Python skips the parser's type checks.
        scenario = parse_scenario(scenario_dict(1))
        scenario.environment_events = (EnvironmentEvent(1_000, outside_temp_c="warm"),)
        assert validate_scenario(scenario).lines() == [
            "environment[0]: outside_temp_c 'warm' is not real"]
        with pytest.raises(ConfigError, match="environment\\[0\\]"):
            run_scenario(scenario, seed=1, horizon=2_000)

    @pytest.mark.parametrize("name, value, expected", [
        ("outside_temp_c", "warm", "real"),
        ("outside_temp_c", True, "real"),
        ("room_temp_c", None, "real"),
        ("lamp_w", 60.0, "integer"),
        ("heater_w", True, "integer"),
    ])
    def test_defaults_must_have_their_declared_types(self, name, value, expected):
        scenario = parse_scenario(scenario_dict(1))
        scenario.defaults = replace(scenario.defaults, **{name: value})
        assert validate_scenario(scenario).lines() == [
            f"defaults.{name}: {value!r} is not {expected}"]
        with pytest.raises(ConfigError, match=f"defaults.{name}"):
            run_scenario(scenario, seed=1, horizon=2_000)

    @pytest.mark.parametrize("name, value", [
        ("lamp_w", -60),
        ("heater_w", -2000),
        ("heat_rate_c_per_min", -0.5),
        ("leak_open_per_min", -1.0),
        ("leak_closed_per_min", -0.05),
    ])
    def test_powers_and_rates_must_not_be_negative(self, name, value):
        # A negative draw makes energy fall; a negative leak makes the room
        # run away from the outside temperature.
        data = reparse(scenario_dict(1))
        data["defaults"][name] = value
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).lines() == [f"defaults.{name}: {value!r} is negative"]
        with pytest.raises(ConfigError, match=f"defaults.{name}"):
            run_scenario(scenario, seed=1, horizon=2_000)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("place, path", [
        (lambda data, v: data["defaults"].update(room_temp_c=v), "defaults.room_temp_c"),
        (lambda data, v: data["defaults"].update(outside_temp_c=v),
         "defaults.outside_temp_c"),
        (lambda data, v: data.update(environment=[{"t": 100, "outside_temp_c": v}]),
         "environment[0]"),
        (lambda data, v: data["policies"][3]["when"][0].update(value=v),
         "policies[3].when[0]"),
        (lambda data, v: data["devices"]["office1.heater"]["initial"].update(
            {"setpoint-c": v}), "devices.office1.heater"),
    ], ids=["room_temp_c", "outside_temp_c", "environment", "threshold", "setpoint-c"])
    def test_reals_must_be_finite(self, place, path, value):
        # json reads NaN and Infinity, and reads 1e400 as inf.
        data = scenario_dict(1)
        place(data, value)
        report = validate_scenario(parse_scenario(reparse(data)))
        assert any(line.startswith(f"{path}: ") for line in report.lines()), report.lines()

    @pytest.mark.parametrize("place, path", [
        (lambda data, v: data["defaults"].update(room_temp_c=v), "defaults.room_temp_c"),
        (lambda data, v: data["defaults"].update(outside_temp_c=v),
         "defaults.outside_temp_c"),
        (lambda data, v: data.update(environment=[{"t": 100, "outside_temp_c": v}]),
         "environment[0]"),
        (lambda data, v: data["policies"][3]["when"][0].update(value=v),
         "policies[3].when[0]"),
        (lambda data, v: data["devices"]["office1.heater"]["initial"].update(
            {"setpoint-c": v}), "devices.office1.heater"),
    ], ids=["room", "outside", "env", "threshold", "setpoint-c"])
    def test_real_integer_beyond_float_range_is_a_violation(self, place, path):
        # json reads an integer literal exactly, however long; the parser keeps
        # one beyond the float range as it is, for validation to report.
        data = scenario_dict(1)
        place(data, -10**400)
        report = validate_scenario(parse_scenario(reparse(data)))
        assert any(line.startswith(f"{path}: ") for line in report.lines()), report.lines()

    def test_missing_device_setup(self):
        data = scenario_dict(1)
        del data["devices"]["office1.lamp"]
        report = validate_scenario(parse_scenario(data))
        assert "loops[0]: scope service 'office1.lamp' is not a devices entry" \
            in report.lines()

    @pytest.mark.parametrize("place, line", [
        (lambda data: data["loops"][0]["scope"].append("office1.alarm"),
         "loops[0]: scope service 'office1.alarm' is not a devices entry"),
        (lambda data: data["policies"][0]["then"].append(
            {"service": "office1.alarm", "command": "ring"}),
         "policies[0].then[1]: 'office1.alarm' is not a devices entry"),
        (lambda data: data["control"]["master"]["aggregations"][0]["inputs"].append(
            ["office1.alarm", "kwh-reading"]),
         "control.master.aggregations[0]: input 'office1.alarm' is not a devices entry"),
    ], ids=["scope", "action", "aggregation-input"])
    def test_a_device_reference_names_a_devices_entry(self, place, line):
        data = scenario_dict(2, "centralized")
        place(data)
        assert validate_scenario(parse_scenario(data)).lines() == [line]

    def test_a_device_named_environment_is_a_violation(self):
        # Every knowledge base learns the environment's streams without a
        # sender, so no policy on a device of that name would be checked
        # for reaching its loop.
        data = scenario_dict(1)
        data["devices"]["environment"] = data["devices"]["office1.door"]
        assert validate_scenario(parse_scenario(data)).lines() == [
            "devices.environment: 'environment' names the environment, not a device"]

    @pytest.mark.parametrize("change, line", [
        (lambda entry: entry["samples"].update({"setpoint-c": 0}),
         "devices.office1.heater: interval of 'setpoint-c' must be positive, not 0"),
        (lambda entry: entry["samples"].update({"room-temp": -1000}),
         "devices.office1.heater: interval of 'room-temp' must be positive, not -1000"),
        (lambda entry: entry.update(node="office1.radiator"),
         "devices.office1.heater: node 'office1.radiator' is not in the topology"),
    ], ids=["zero-interval", "negative-interval", "unknown-node"])
    def test_sample_intervals_and_node_are_checked(self, change, line):
        data = scenario_dict(1)
        change(data["devices"]["office1.heater"])
        assert validate_scenario(parse_scenario(data)).lines() == [line]

    def test_unknown_initial_state_key(self):
        data = scenario_dict(1)
        data["devices"]["office1.lamp"]["initial"] = {"brightness": 5}
        report = validate_scenario(parse_scenario(data))
        assert any("unknown initial state keys" in line for line in report.lines())

    @pytest.mark.parametrize("service, key, value, expected", [
        ("office1.lamp", "power-state", 7, "boolean"),
        ("office1.heater", "power-state", "on", "boolean"),
        ("office1.door", "lock-state", True, "enum_of_strings"),
        ("office1.window", "position", 1, "enum_of_strings"),
    ])
    def test_initial_value_must_match_its_parameter_type(self, service, key, value,
                                                         expected):
        data = scenario_dict(1)
        data["devices"][service]["initial"] = {key: value}
        report = validate_scenario(parse_scenario(data))
        assert f"devices.{service}: initial {key} {value!r} is not {expected}" \
            in report.lines()

    def test_declared_parameter_the_device_cannot_read(self):
        data = scenario_dict(1)
        data["devices"]["office1.heater"]["samples"]["bogus-param"] = 1000
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == ["devices.office1.heater: a heater cannot read 'bogus-param'"]

    def test_stream_declared_with_a_type_its_source_never_reads(self, type_gap):
        data, path = type_gap
        report = validate_scenario(parse_scenario(data))
        assert report.lines() and all(line.startswith(f"{path}: ")
                                      for line in report.lines()), report.lines()

    def test_environment_declares_only_what_the_environment_reads(self):
        # Its streams are fixed: a weather and an outside temperature.
        data = scenario_dict(1)
        data["policies"][0]["when"][0]["parameter"] = "humidity"
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "policies[0].when[0]: unknown stream 'environment.humidity'"]

    @pytest.mark.parametrize("change, line", [
        (lambda policies: policies[0]["then"].append(
            {"service": "office1.window", "command": "set-position", "arg": "ajar"}),
         "policies[0].then[1]: argument 'ajar' of 'set-position' on a window "
         "is not open or closed"),
        (lambda policies: policies[1]["then"][0].update(arg=0),
         "policies[1].then[0]: argument 0 of 'arm' on a clock is not a positive integer"),
        (lambda policies: policies[1]["then"][0].update(arg=-5),
         "policies[1].then[0]: argument -5 of 'arm' on a clock is not a positive integer"),
    ], ids=["window-ajar", "arm-zero", "arm-negative"])
    def test_action_argument_its_device_refuses(self, change, line):
        # Each of these once validated, and its device then refused the
        # argument mid-run.
        data = scenario_dict(1)
        change(data["policies"])
        assert validate_scenario(parse_scenario(data)).lines() == [line]

    @pytest.mark.parametrize("place, path", [
        (lambda data, v: data["defaults"].update(outside_temp_c=v),
         "defaults.outside_temp_c"),
        (lambda data, v: data.update(environment=[{"t": 100, "outside_temp_c": v}]),
         "environment[0]"),
        (lambda data, v: data["policies"][3]["when"][0].update(value=v),
         "policies[3].when[0]"),
        (lambda data, v: data["policies"][2]["when"][0]["elapsed_since"].update(value=v),
         "policies[2].when[0]"),
        (lambda data, v: data["policies"][0]["then"][0].update(arg=v),
         "policies[0].then[0]"),
        (lambda data, v: data["devices"]["office1.heater"]["initial"].update(
            {"setpoint-c": v}), "devices.office1.heater"),
    ], ids=["defaults", "environment", "threshold", "value", "argument", "initial"])
    def test_a_long_value_is_echoed_short(self, place, path):
        # json reads an integer literal exactly, however long.
        data = scenario_dict(1)
        place(data, 10**400)
        lines = validate_scenario(parse_scenario(reparse(data))).lines()
        echoed = [line for line in lines if line.startswith(f"{path}: ")]
        assert len(echoed) == 1, lines
        assert "100000000000...000000000000 (401 digits)" in echoed[0], echoed
        assert len(echoed[0]) < 120, echoed

    def test_a_long_string_is_echoed_short(self):
        data = scenario_dict(1)
        data["policies"][0]["then"][0]["arg"] = "x" * 500
        assert validate_scenario(parse_scenario(data)).lines() == [
            "policies[0].then[0]: argument 'xxxxxxxxxxx...xxxxxxxxxxx' (502 characters) "
            "does not conform to boolean"]

    def test_a_short_value_is_echoed_whole(self):
        data = scenario_dict(1)
        data["policies"][0]["then"][0]["arg"] = "x" * 38
        assert validate_scenario(parse_scenario(data)).lines() == [
            f"policies[0].then[0]: argument {'x' * 38!r} does not conform to boolean"]

    def test_sum_aggregation_must_yield_a_number(self):
        data = scenario_dict(2, "centralized")
        data["control"]["master"]["aggregations"][0]["output_type"] = "boolean"
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "control.master.aggregations[0]: sum yields a number, not boolean"]

    def test_aggregation_output_may_not_shadow_a_declared_parameter(self):
        # A meter named after the master samples the reading the output
        # names; a vector output is a list, whatever that reading's type.
        data = scenario_dict(2, "centralized")
        agg = data["control"]["master"]["aggregations"][0]
        agg.update(combinator="vector", output="kwh-reading")
        data["devices"]["building"] = {"kind": "energy-meter", "node": "fog1",
                                       "office": "office1",
                                       "samples": {"kwh-reading": 1000}}
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "control.master.aggregations[0]: output 'kwh-reading' is already a stream "
            "of 'building'"]

    def test_aggregation_outputs_are_unique(self):
        data = scenario_dict(2, "centralized")
        aggregations = data["control"]["master"]["aggregations"]
        aggregations.append(dict(aggregations[0], name="total-kwh-rounded",
                                 output_type="integer"))
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "control.master.aggregations[1]: output 'total-kwh' is already a stream "
            "of 'building'"]

    @pytest.mark.parametrize("scopes", [["office1"], ["office1", "building"]],
                             ids=["master-owned", "in-no-scope"])
    def test_aggregation_input_no_slave_forwards(self, scopes):
        # Only the slave that owns an input's service forwards it, so an
        # input on a service the master owns, or no loop owns, never arrives
        # and the aggregation never fires.
        data = scenario_dict(3, "centralized")
        for loop in data["loops"]:
            if loop["id"] in scopes:
                loop["scope"].remove("office1.meter")
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            "control.master.aggregations[0]: input on 'office1.meter', which no slave "
            "scope holds, is never forwarded"]

    def test_policy_reads_a_stream_its_loop_never_receives(self):
        # Without the door in office1's scope, its samples go to the master.
        data = scenario_dict(3, "centralized")
        data["loops"][0]["scope"].remove("office1.door")
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == [
            f"loops[0]: policy '{policy}' reads 'office1.door.lock-state', "
            "which loop 'office1' never receives"
            for policy in ("office1-arm-clock", "office1-lights-off-after-lock")]

    @pytest.mark.parametrize("service, parameter, ok", [
        ("environment", "outside-temp", True),
        ("building", "total-kwh", True),
        ("office1.meter", "kwh-reading", True),
        ("office1.lamp", "power-state", False),
    ], ids=["environment", "aggregation-output", "aggregation-input", "slave-stream"])
    def test_master_receives_aggregation_streams(self, service, parameter, ok):
        data = scenario_dict(2, "centralized")
        data["policies"].append({
            "name": "building-rule",
            "when": [{"service": service, "parameter": parameter, "op": "==", "value": 1}],
            "then": [{"service": "office2.lamp", "command": "set-power", "arg": False}],
        })
        data["loops"][-1]["policies"] = ["building-rule"]
        if service == "office1.lamp":
            data["policies"][-1]["when"][0]["value"] = True
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == ([] if ok else [
            "loops[2]: policy 'building-rule' reads 'office1.lamp.power-state', "
            "which loop 'building' never receives"])

    def test_aggregation_needs_numeric_inputs(self):
        data = scenario_dict(2, "centralized")
        agg = data["control"]["master"]["aggregations"][0]
        agg["inputs"][0] = ["office1.door", "lock-state"]
        agg["inputs"].append(["office1.lamp", "power-state"])
        report = validate_scenario(parse_scenario(data))
        assert sum("needs numeric inputs" in line for line in report.lines()) == 2

    def test_decentralized_group_of_one(self):
        data = scenario_dict(2, "decentralized")
        data["control"]["group"] = ["office1"]
        report = validate_scenario(parse_scenario(data))
        assert any("at least two loops" in line for line in report.lines())

    def test_decentralized_group_lists_each_loop_once(self):
        # A round waits for a proposal from each listed member, so a listed
        # twice loop would leave every round one proposal short.
        data = scenario_dict(3, "decentralized")
        data["control"]["group"] = ["office1", "office1"]
        report = validate_scenario(parse_scenario(data))
        assert report.lines() == ["control.group: duplicate loop 'office1'"]

    @pytest.mark.parametrize("coordinate, ok", [
        (["analyze", "execute"], False), (["execute"], False), (["analyze"], True),
    ])
    def test_coordinated_action_needs_a_member_owner(self, coordinate, ok):
        # With execute coordinated, each member runs only the decided actions
        # on its own scope: an action on a target no member holds would
        # dispatch nowhere. Office2's own lamp rules lose their owner too,
        # and with it the lamp's samples, in every case.
        data = scenario_dict(2, "decentralized")
        data["control"]["coordinate"] = coordinate
        office2 = next(loop for loop in data["loops"] if loop["id"] == "office2")
        office2["scope"].remove("office2.lamp")
        arm = next(p for p in data["policies"] if p["name"] == "office1-arm-clock")
        arm["then"].append({"service": "office2.lamp", "command": "set-power", "arg": False})
        report = validate_scenario(parse_scenario(data))
        offenders = [("office1-arm-clock", "office1"), ("office2-lights-off-sunny", "office2"),
                     ("office2-lights-off-after-lock", "office2")]
        unread = [f"loops[1]: policy '{policy}' reads 'office2.lamp.power-state', "
                  "which loop 'office2' never receives" for policy, _ in offenders[1:]]
        assert report.lines() == ([] if ok else [
            f"control.coordinate: policy '{policy}' of loop '{loop}' acts on "
            "'office2.lamp', which no group member's scope holds"
            for policy, loop in offenders]) + unread

    @pytest.mark.parametrize("component, ok", [
        ("analyze", True), ("execute", True),
        ("monitor", False), ("plan", False), ("bogus", False),
    ])
    def test_only_analyze_and_execute_can_coordinate(self, component, ok):
        data = scenario_dict(2, "decentralized")
        data["control"]["coordinate"] = [component]
        report = validate_scenario(parse_scenario(data))
        assert report.ok is ok, report.lines()
        if not ok:
            assert report.lines() == [
                f"control.coordinate: cannot coordinate '{component}': "
                "only analyze and execute hold rounds"
            ]


class TestVariants:
    def test_with_offering_flips_every_loop(self):
        data = scenario_dict(3, "centralized")
        out = with_offering(data, "apaas_split")
        assert all(loop["offering"] == "apaas_split" for loop in out["loops"])
        assert all(loop["offering"] == "mapeaas" for loop in data["loops"])
        assert validate_scenario(parse_scenario(out)).ok

    def test_with_offering_rejects_unknown(self):
        with pytest.raises(ConfigError):
            with_offering(scenario_dict(1), "cloudlet")

    def test_centralized_to_decentralized_drops_master(self):
        data = scenario_dict(3, "centralized")
        out = with_mode(data, "decentralized")
        ids = [loop["id"] for loop in out["loops"]]
        assert "building" not in ids
        assert out["control"] == {
            "mode": "decentralized",
            "group": ["office1", "office2", "office3"],
            "coordinate": ["analyze", "execute"],
        }
        scenario = parse_scenario(out)
        assert validate_scenario(scenario).ok, "\n".join(
            validate_scenario(scenario).lines())

    def test_decentralized_drops_the_policies_only_the_master_listed(self):
        data = scenario_dict(3, "centralized")
        data["policies"] += [
            {"name": "building-energy-cap",
             "when": [{"service": "building", "parameter": "total-kwh",
                       "op": ">", "value": 0.0001}],
             "then": [{"service": "office1.lamp", "command": "set-power", "arg": False}]},
            {"name": "shared-rule",
             "when": [{"service": "environment", "parameter": "weather",
                       "op": "==", "value": "sunny"}],
             "then": [{"service": "office1.lamp", "command": "set-power", "arg": False}]},
        ]
        data["loops"][0]["policies"].append("shared-rule")
        data["loops"][-1]["policies"] = ["building-energy-cap", "shared-rule"]
        assert validate_scenario(parse_scenario(data)).ok
        out = with_mode(data, "decentralized")
        names = [policy["name"] for policy in out["policies"]]
        assert names == [policy["name"] for policy in data["policies"]
                         if policy["name"] != "building-energy-cap"]
        report = validate_scenario(parse_scenario(out))
        assert report.ok, "\n".join(report.lines())

    def test_mode_is_idempotent(self):
        data = scenario_dict(2, "decentralized")
        assert with_mode(data, "decentralized") == data
        cent = scenario_dict(2, "centralized")
        assert with_mode(cent, "centralized") == cent

    def test_centralized_cannot_be_synthesized(self):
        with pytest.raises(ConfigError, match="no centralized master"):
            with_mode(scenario_dict(2, "decentralized"), "centralized")
        with pytest.raises(ConfigError, match="no centralized master"):
            with_mode(scenario_dict(2), "centralized")

    def test_decentralized_needs_two_loops(self):
        with pytest.raises(ConfigError, match="at least two"):
            with_mode(scenario_dict(1), "decentralized")


class TestFiles:
    def test_load_scenario_round_trip(self, tmp_path):
        data = scenario_dict(1)
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data, indent=2))
        scenario = load_scenario(str(path))
        assert scenario.name == "building-1-none"
        assert scenario.digest == config_digest(data)

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(str(path))

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))


@given(
    n=st.integers(min_value=1, max_value=4),
    control=st.sampled_from(["none", "centralized", "decentralized"]),
)
def test_generated_scenarios_always_validate(n, control):
    if control == "decentralized" and n < 2:
        n = 2
    if control == "centralized" and n < 2:
        n = 2
    data = reparse(scenario_dict(n, control))
    scenario = parse_scenario(data)
    report = validate_scenario(scenario)
    assert report.ok, "\n".join(report.lines())
    again = json.loads(json.dumps(building_to_dict(
        build_smart_building(n, BuildingDefaults(), control=control),
        name=f"building-{n}-{control}")))
    assert config_digest(again) == config_digest(data)


@pytest.mark.parametrize("n, control, digest", [
    (1, "none", "a19d04481f840819"),
    (3, "centralized", "e174cdef148e62af"),
    (3, "decentralized", "96b11433cdf13013"),
])
def test_generated_scenario_digests(n, control, digest):
    assert config_digest(scenario_dict(n, control))[:16] == digest


@pytest.mark.parametrize("stem, n, control, defaults", [
    ("smart_building_1office", 1, "none", BuildingDefaults(outside_temp_c=21.0)),
    ("smart_building_3office_centralized", 3, "centralized", BuildingDefaults()),
    ("smart_building_3office_decentralized", 3, "decentralized", BuildingDefaults()),
], ids=["1office", "3office_centralized", "3office_decentralized"])
def test_each_bundled_scenario_is_the_generator_output(stem, n, control, defaults):
    """A bundled file is `build_smart_building` with the generator's own
    parameters, its environment and, for one office, a mild outside; a hand
    edit or a stale key fails here."""
    data = json.loads((SCENARIOS / f"{stem}.json").read_text())
    events = parse_scenario(data).environment_events
    building = build_smart_building(n, defaults, control=control, environment_events=events)
    assert reparse(building_to_dict(building, name=data["name"])) == data


_finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
_defaults = st.builds(
    BuildingDefaults,
    outside_temp_c=_finite,
    weather=st.sampled_from(["sunny", "not-sunny"]),
    lamp_w=st.integers(0, 500),
    leak_closed_per_min=_finite,
)
_params = st.builds(
    BuildingParams,
    sample_interval_ms=st.integers(1, 5000),
    setpoint_c=_finite,
    door_locked=st.booleans(),
    heater_on=st.booleans(),
    fog_cloud_latency_ms=st.integers(1, 200),
)
_events = st.lists(
    st.builds(EnvironmentEvent, t=st.integers(0, 10**7),
              weather=st.none() | st.sampled_from(["sunny", "not-sunny"]),
              outside_temp_c=st.none() | _finite),
    max_size=4,
)


@given(
    n=st.integers(min_value=1, max_value=4),
    control=st.sampled_from(["none", "centralized", "decentralized"]),
    defaults=_defaults,
    params=_params,
    events=_events,
)
def test_building_round_trips_through_the_schema(n, control, defaults, params, events):
    if control == "decentralized":
        n = max(n, 2)
    building = build_smart_building(n, defaults, control=control,
                                    environment_events=events, params=params)
    scenario = parse_scenario(reparse(building_to_dict(building, name="rt")))
    assert scenario.devices == building.devices
    assert scenario.policies == building.policies
    assert scenario.topology.nodes == building.topology.nodes
    assert scenario.topology.links == building.topology.links
    assert scenario.topology.hosts == building.topology.hosts
    assert scenario.loops == building.loops
    assert scenario.control == building.control
    assert scenario.defaults == building.defaults
    assert scenario.environment_events == building.environment_events


ONE_OFFICE = SCENARIOS / "smart_building_1office.json"
# Arguments of every JSON scalar type, and, per argument type, values of that
# type: some each device takes, some it refuses.
ANY_ARGUMENT = st.sampled_from(["ajar", 0, -5, True, None, False, "open", "closed", 1, 2.5])
OF_TYPE = {
    None: st.none(),
    ValueType.BOOLEAN: st.booleans(),
    ValueType.INTEGER: st.integers(-10, 10**6),
    ValueType.REAL: st.floats(-50, 50),
    ValueType.ENUM_OF_STRINGS: st.sampled_from(["open", "closed", "ajar", "locked", ""]),
}


# The policies of the 1-office scenario that act in its first 310 s: the
# locked door arms the clock at once, and the sunny weather at 300 s turns
# the lights off. No action of another policy runs that early.
ACTING = ("office1-arm-clock", "office1-lights-off-sunny")


@st.composite
def mutated_one_office(draw):
    """The bundled 1-office scenario after a few changes to its acting
    policies and its devices: add an action, retarget one, swap its
    command, set its argument to any scalar, or give a device another kind
    with some of that kind's readings sampled."""
    data = json.loads(ONE_OFFICE.read_text())
    devices = data["devices"]
    names = sorted({name for commands in COMMANDS.values() for name in commands} | {"blink"})
    acting = [policy for policy in data["policies"] if policy["name"] in ACTING]

    def commands(service: str) -> dict:
        return COMMANDS[DeviceKind(devices[service]["kind"])]

    for _ in range(draw(st.integers(1, 2))):
        change = draw(st.sampled_from(["argument", "action"] * 2
                                      + ["command", "service", "kind"]))
        policy = draw(st.sampled_from(acting))
        action = draw(st.sampled_from(policy["then"]))
        if change == "action":
            action = {"service": draw(st.sampled_from(sorted(devices)))}
            policy["then"].append(action)
        if change in ("action", "command"):
            action["command"] = draw(st.sampled_from(sorted(commands(action["service"]))
                                                     or names))
        if change in ("action", "argument"):
            record = commands(action["service"]).get(action["command"])
            types = [record.argument_type] if record is not None else []
            action["arg"] = draw(st.one_of(*(OF_TYPE[t] for t in types), ANY_ARGUMENT))
        if change == "service":
            action["service"] = draw(st.sampled_from(sorted(devices)))
        if change == "kind":
            kind = draw(st.sampled_from(list(DeviceKind)))
            readings = draw(st.lists(st.sampled_from(list(READINGS[kind])), unique=True))
            devices[draw(st.sampled_from(sorted(devices)))].update(
                kind=kind.value, initial={}, samples=dict.fromkeys(readings, 1000))
    return data


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_one_office())
def test_a_mutated_scenario_that_validates_runs(data):
    """Validation is the only check: whatever changes to actions and
    device kinds it accepts, a run past the sunny weather at 300 s raises
    nothing."""
    scenario = parse_scenario(data)
    if validate_scenario(scenario).ok:
        run_scenario(scenario, 1, 310_000, check=False)
