"""End-to-end runs: timing, physics, determinism, and both control modes."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fogloop.errors import ConfigError
from fogloop.mape import KnowledgeBase, Observation, analyze
from fogloop.metrics import MetricsFold, compute_metrics, metrics_csv
from fogloop.model import value_conforms
from fogloop.runtime import Runtime, RunResult, discrete_snapshot, run_scenario
from fogloop.scenario import (
    _sampled_streams,
    building_to_dict,
    load_scenario,
    parse_scenario,
    validate_scenario,
    with_mode,
    with_offering,
)
from fogloop.simnet import EventTrace, Topology
from fogloop.smartbuilding import (
    ENVIRONMENT_SERVICE,
    BuildingDefaults,
    BuildingParams,
    build_smart_building,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CLOCK_MS = 600_000


def scenario_dict(n: int = 1, control: str = "none", events=(),
                  params: BuildingParams | None = None, **defaults) -> dict:
    building = build_smart_building(n, BuildingDefaults(**defaults), control=control,
                                    params=params)
    data = building_to_dict(building, name=f"run-{n}-{control}")
    if events:
        data["environment"] = [dict(e) for e in events]
    return data


def quiet_one_office(**overrides) -> dict:
    """One office in thermal equilibrium: only the standing light/clock
    rules can fire, so timing is exact."""
    base = dict(outside_temp_c=21.0, room_temp_c=21.0,
                params=BuildingParams(sample_interval_ms=1000))
    base.update(overrides)
    return scenario_dict(1, **base)


def applied(result, policy_suffix: str | None = None):
    events = result.trace.of_kind("actuate-applied")
    if policy_suffix is None:
        return events
    return [e for e in events if e["detail"]["policy"].endswith(policy_suffix)]


def tier_hops(result) -> list[tuple[str, str]]:
    """Every (tier, tier) hop crossed by any delivered message."""
    tiers = result.trace.header["nodes"]
    hops = []
    for event in result.trace.of_kind("deliver"):
        path = event["detail"]["path"]
        hops.extend((tiers[a], tiers[b]) for a, b in zip(path, path[1:]))
    return hops


def trace_rows(trace) -> list[dict]:
    """Every event of a kept trace, read back from its JSONL text."""
    return [json.loads(line) for line in trace.to_jsonl().splitlines()[1:]]


class TestTiming:
    def test_lamp_off_two_ms_after_sunny_when_loop_is_local(self):
        data = quiet_one_office(events=[{"t": 300_000, "weather": "sunny"}])
        result = run_scenario(parse_scenario(data), seed=42, horizon=320_000)
        events = applied(result, "lights-off-sunny")
        assert len(events) == 1
        assert events[0]["t"] == 300_002
        assert events[0]["detail"]["latency"] == 2
        assert result.devices["office1.lamp"].read("power-state") is False

    def test_split_analysis_adds_two_cloud_crossings(self):
        data = quiet_one_office(events=[{"t": 300_000, "weather": "sunny"}])
        split = with_offering(data, "apaas_split")
        result = run_scenario(parse_scenario(split), seed=42, horizon=320_000)
        events = applied(result, "lights-off-sunny")
        assert len(events) == 1
        assert events[0]["t"] == 300_102
        assert events[0]["detail"]["latency"] == 102

    def test_clock_arms_with_configured_duration_at_startup(self):
        result = run_scenario(parse_scenario(quiet_one_office()), seed=1,
                              horizon=5_000)
        events = applied(result, "arm-clock")
        assert len(events) == 1
        assert events[0]["t"] == 2
        assert events[0]["detail"]["command"] == "arm"
        assert events[0]["detail"]["arg"] == CLOCK_MS
        assert result.devices["office1.clock"].read("armed") is True

    def test_lights_off_after_lock_duration_elapses(self):
        result = run_scenario(parse_scenario(quiet_one_office()), seed=7,
                              horizon=CLOCK_MS + 10_000)
        events = applied(result, "lights-off-after-lock")
        assert len(events) == 1
        assert events[0]["t"] == CLOCK_MS + 2
        assert result.devices["office1.lamp"].read("power-state") is False

    def test_weather_flip_fires_at_the_next_sample_of_an_unrelated_stream(self):
        """An environment change is not analyzed on its own: the loop's next
        observation is, whatever its stream. Lamp and window sample only every
        100 s here, so that observation comes from the door, heater, meter or
        clock."""
        data = quiet_one_office(events=[{"t": 300_500, "weather": "sunny"}])
        for name in ("office1.lamp", "office1.window"):
            samples = data["devices"][name]["samples"]
            samples.update(dict.fromkeys(samples, 100_000))
        result = run_scenario(parse_scenario(data), seed=42, horizon=320_000)
        first = next(e for e in result.trace.of_kind("deliver")
                     if e["dst"].endswith("/office1.analyze") and e["t"] > 300_500)
        symptoms = [e["t"] for e in result.trace.of_kind("symptom")
                    if e["detail"]["policy"] == "office1-lights-off-sunny"]
        assert symptoms == [first["t"]] == [301_001]
        assert not [e for e in result.trace.of_kind("send")
                    if e["src"].endswith(("/office1.lamp", "/office1.window"))
                    and 300_500 <= e["t"] <= first["t"]]
        assert result.devices["office1.lamp"].read("power-state") is False

    def test_changed_state_reannounced_without_waiting_for_the_grid(self):
        data = quiet_one_office(events=[{"t": 300_000, "weather": "sunny"}])
        result = run_scenario(parse_scenario(data), seed=42, horizon=320_000)
        sends = [
            e for e in result.trace.of_kind("send")
            if e["src"] == "office1.lamp/office1.lamp" and e["t"] == 300_002
        ]
        assert sends, "actuation effects must be sampled immediately"


class TestPhysics:
    def test_lamp_energy_integrates_exactly(self):
        data = quiet_one_office(events=[{"t": 300_000, "weather": "sunny"}])
        result = run_scenario(parse_scenario(data), seed=42, horizon=360_000)
        assert result.offices["office1"].energy_mj == 60 * 300_002

    def test_energy_integrates_to_an_off_grid_horizon(self):
        result = run_scenario(parse_scenario(quiet_one_office()), seed=3,
                              horizon=3_333)
        assert result.offices["office1"].energy_mj == 60 * 3_333

        hot = quiet_one_office(params=BuildingParams(heater_on=True))
        result = run_scenario(parse_scenario(hot), seed=3, horizon=3_333)
        assert result.offices["office1"].energy_mj == (60 + 2000) * 3_333

    def test_outside_temperature_event_changes_the_trajectory(self):
        baseline = run_scenario(parse_scenario(quiet_one_office()), seed=5,
                                horizon=240_000)
        assert baseline.offices["office1"].room_temp_c == 21.0

        warmed = quiet_one_office(
            events=[{"t": 60_000, "outside_temp_c": 27.0}])
        result = run_scenario(parse_scenario(warmed), seed=5, horizon=240_000)
        env = [e for e in result.trace.of_kind("env") if e["t"] == 60_000]
        assert env and env[0]["detail"] == {"outside_temp_c": 27.0}
        assert result.offices["office1"].room_temp_c > 21.5

    def test_cold_room_turns_the_heater_on(self):
        data = scenario_dict(1, params=BuildingParams(sample_interval_ms=1000))
        result = run_scenario(parse_scenario(data), seed=11, horizon=120_000)
        events = applied(result, "too-cold")
        services = {e["detail"]["service"] for e in events}
        assert services == {"office1.window", "office1.heater"}
        assert result.devices["office1.heater"].read("power-state") is True
        assert result.devices["office1.window"].read("position") == "closed"
        assert result.offices["office1"].heater_on


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        data = scenario_dict(3, "decentralized")
        first = run_scenario(parse_scenario(data), seed=42, horizon=20_000)
        second = run_scenario(parse_scenario(data), seed=42, horizon=20_000)
        assert first.trace.to_jsonl() == second.trace.to_jsonl()

    def test_trace_does_not_depend_on_the_hash_seed(self):
        # Set and dict order of strings changes with PYTHONHASHSEED, so two
        # interpreters with different seeds must still agree on every row.
        probe = (
            "import hashlib, sys\n"
            "from fogloop.runtime import run_scenario\n"
            "from fogloop.scenario import load_scenario\n"
            "result = run_scenario(load_scenario(sys.argv[1]), 42, 120_000)\n"
            "print(hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest(),\n"
            "      len(result.trace.of_kind('round-decide')))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = str(SCENARIOS / "smart_building_3office_decentralized.json")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", probe, path], capture_output=True, text=True,
                check=True, timeout=120,
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                         PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
            ).stdout.split()
            for hash_seed in (0, 1)
        ]
        assert outputs[0] == outputs[1]
        assert int(outputs[0][1]) > 0

    def test_jitter_draws_depend_only_on_the_seed(self):
        data = quiet_one_office()
        for link in data["topology"]["links"]:
            link["jitter_ms"] = 1
        same = [
            run_scenario(parse_scenario(data), seed=9, horizon=10_000)
            for _ in range(2)
        ]
        assert same[0].trace.to_jsonl() == same[1].trace.to_jsonl()
        other = run_scenario(parse_scenario(data), seed=10, horizon=10_000)
        assert other.trace.to_jsonl() != same[0].trace.to_jsonl()

    def test_trace_times_are_monotone_and_bounded(self):
        data = scenario_dict(2, "centralized")
        result = run_scenario(parse_scenario(data), seed=4, horizon=5_000)
        times = [e["t"] for e in trace_rows(result.trace)]
        assert len(times) == len(result.trace.events)
        assert times == sorted(times)
        assert times[-1] <= 5_000
        assert result.trace.header["seed"] == 4
        assert result.trace.header["config_digest"] == result.scenario.digest

    def test_trace_serializes_to_plain_json(self):
        data = scenario_dict(2, "decentralized")
        result = run_scenario(parse_scenario(data), seed=2, horizon=3_000)
        for line in result.trace.to_jsonl().splitlines():
            json.loads(line)


@pytest.mark.parametrize("name, most", [("1office", 7), ("3office_centralized", 24)])
def test_analysis_runs_only_while_a_policy_can_fire(monkeypatch, name, most):
    """A put with no live policy skips analysis, a policy in cooldown or
    before an `elapsed_since` deadline sleeps until then, and a policy
    blocked at a condition sleeps until a value comes under which that
    condition holds. Analysing after every put, with only values putting
    policies to sleep, made 4,202 and 14,407 calls on these runs; waking on
    any new value of a stream read up to the blocking condition, 8 and
    1,821."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr("fogloop.runtime.analyze", counted)
    scenario = load_scenario(str(SCENARIOS / f"smart_building_{name}.json"))
    run_scenario(scenario, seed=42, horizon=600_000)
    assert 0 < len(calls) <= most


CHECKPOINT_MS, RESUMED_MS = 600_000, 1_800_000


def finish(runtime: Runtime, horizon: int) -> RunResult:
    """`runtime` run on to `horizon` and finished as `run_scenario` does."""
    runtime.sim.run_until(horizon)
    runtime.finalize(horizon)
    return RunResult(runtime.scenario, runtime.sim.seed, horizon, runtime.sim.trace,
                     runtime.offices, {}, runtime.placement)


def digests(result: RunResult) -> list[str]:
    """The sha256 of the trace's JSONL and of the metrics CSV."""
    return [hashlib.sha256(text.encode()).hexdigest()
            for text in (result.trace.to_jsonl(), metrics_csv(compute_metrics(result)))]


# One side of a checkpoint in a fresh interpreter; argv: scenario, pickle,
# horizon. Without the pickle, run the scenario at seed 42 to the horizon
# and save it; with it, load it, finish it at the horizon and print `digests`.
CHECKPOINT = """
import hashlib, os, pickle, sys
from fogloop.metrics import compute_metrics, metrics_csv
from fogloop.runtime import Runtime, RunResult
from fogloop.scenario import load_scenario
scenario, checkpoint, horizon = sys.argv[1], sys.argv[2], int(sys.argv[3])
if not os.path.exists(checkpoint):
    runtime = Runtime(load_scenario(scenario), 42)
    runtime.sim.run_until(horizon)
    with open(checkpoint, "wb") as fh:
        pickle.dump(runtime, fh)
    sys.exit()
with open(checkpoint, "rb") as fh:
    runtime = pickle.load(fh)
runtime.sim.run_until(horizon)
runtime.finalize(horizon)
result = RunResult(runtime.scenario, 42, horizon, runtime.sim.trace, runtime.offices, {},
                   runtime.placement)
for text in (result.trace.to_jsonl(), metrics_csv(compute_metrics(result))):
    print(hashlib.sha256(text.encode()).hexdigest())
"""


class TestCheckpoint:
    """A run is plain data: pickled between two `run_until` calls and
    loaded again, it finishes with the uninterrupted run's bytes. A closure
    or an `id()` key in run state fails this."""

    @pytest.mark.parametrize("name,offering", [
        ("1office", "mapeaas"), ("1office", "apaas_split"),
        ("3office_centralized", "mapeaas"), ("3office_decentralized", "mapeaas")])
    def test_a_resumed_run_matches_the_uninterrupted_one(self, name, offering):
        scenario = parse_scenario(with_offering(bundled(name), offering))
        runtime = Runtime(scenario, 42)
        runtime.sim.run_until(CHECKPOINT_MS)
        resumed = finish(pickle.loads(pickle.dumps(runtime)), RESUMED_MS)
        assert digests(resumed) == digests(run_scenario(scenario, 42, RESUMED_MS))

    def test_a_resumed_fold_matches_the_uninterrupted_one(self):
        # The fold's counter cells are shared between the (interaction,
        # path) keys that bump them, and stay shared through the pickle.
        scenario = parse_scenario(with_offering(bundled("1office"), "apaas_split"))
        runtime = Runtime(scenario, 42, sink=MetricsFold)
        runtime.sim.run_until(CHECKPOINT_MS)
        resumed = finish(pickle.loads(pickle.dumps(runtime)), RESUMED_MS)
        whole = run_scenario(scenario, 42, RESUMED_MS, sink=MetricsFold)
        assert metrics_csv(compute_metrics(resumed)) == metrics_csv(compute_metrics(whole))

    def test_a_run_saved_under_one_hash_seed_resumes_under_another(self, tmp_path):
        path = str(SCENARIOS / "smart_building_1office.json")
        checkpoint = str(tmp_path / "run.pickle")
        src = str(Path(__file__).resolve().parent.parent / "src")
        printed = [
            subprocess.run(
                [sys.executable, "-c", CHECKPOINT, path, checkpoint, str(horizon)],
                capture_output=True, text=True, check=True, timeout=120,
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                         PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
            ).stdout.split()
            for hash_seed, horizon in ((0, CHECKPOINT_MS), (1, RESUMED_MS))
        ]
        assert printed[0] == []
        assert printed[1] == digests(run_scenario(load_scenario(path), 42, RESUMED_MS))


class TestCentralized:
    def test_forwarded_state_aggregates_without_touching_the_cloud(self):
        data = scenario_dict(3, "centralized")
        result = run_scenario(parse_scenario(data), seed=42, horizon=10_000)
        aggregates = result.trace.of_kind("aggregate")
        assert aggregates, "master must aggregate forwarded meter readings"
        assert {e["detail"]["name"] for e in aggregates} == {"total-kwh"}
        assert all(e["detail"]["loop"] == "building" for e in aggregates)
        assert ("fog", "cloud") not in tier_hops(result)

    def test_forwarding_is_change_based(self):
        data = scenario_dict(
            3, "centralized",
            params=BuildingParams(lamp_on=False, door_locked=False), outside_temp_c=21.0,
        )
        result = run_scenario(parse_scenario(data), seed=1, horizon=5_000)
        to_master = [
            e for e in result.trace.of_kind("deliver")
            if e["dst"] == "fog1/building.knowledge"
        ]
        # Nothing draws power, so each meter forwards exactly its first sample.
        assert len(to_master) == 3

    def test_master_rule_delegates_to_every_office(self):
        data = scenario_dict(3, "centralized")
        data["policies"].append({
            "name": "building-energy-cap",
            "when": [{
                "service": "building", "parameter": "total-kwh",
                "op": ">", "value": 0.0001,
            }],
            "then": [
                {"service": f"office{i}.lamp", "command": "set-power",
                 "arg": False}
                for i in (1, 2, 3)
            ],
            "cooldown_ms": 3_600_000,
        })
        for loop in data["loops"]:
            if loop["id"] == "building":
                loop["policies"] = ["building-energy-cap"]
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).ok
        result = run_scenario(scenario, seed=8, horizon=10_000)

        delegations = result.trace.of_kind("delegate")
        assert {e["detail"]["to"] for e in delegations} == {
            "office1", "office2", "office3",
        }
        assert all(e["detail"]["actions"] == 1 for e in delegations)
        offs = [
            e for e in applied(result, "energy-cap")
            if e["detail"]["command"] == "set-power"
        ]
        assert {e["detail"]["service"] for e in offs} == {
            "office1.lamp", "office2.lamp", "office3.lamp",
        }
        # Sub-plans execute on the owning office loop, not on the master.
        assert {e["detail"]["loop"] for e in offs} == {
            "office1", "office2", "office3",
        }
        for name in ("office1.lamp", "office2.lamp", "office3.lamp"):
            assert result.devices[name].read("power-state") is False


class TestDecentralized:
    def test_rounds_open_decide_and_close(self):
        data = scenario_dict(3, "decentralized")
        result = run_scenario(parse_scenario(data), seed=42, horizon=5_000)
        opened = {e["detail"]["round"] for e in result.trace.of_kind("round-open")}
        decided = {e["detail"]["round"] for e in result.trace.of_kind("round-decide")}
        closed = {e["detail"]["round"] for e in result.trace.of_kind("round-close")}
        assert opened and opened == decided == closed
        assert not result.trace.of_kind("round-abort")
        leaders = {e["detail"]["leader"] for e in result.trace.of_kind("round-open")}
        assert leaders == {"office1"}
        for name in ("office1.clock", "office2.clock", "office3.clock"):
            assert result.devices[name].read("armed") is True

    def test_each_decided_action_dispatches_exactly_once(self):
        data = scenario_dict(3, "decentralized")
        result = run_scenario(parse_scenario(data), seed=42, horizon=5_000)
        dispatches = result.trace.of_kind("dispatch")
        assert dispatches
        by_plan = [(e["detail"]["plan"], e["detail"]["idx"]) for e in dispatches]
        assert len(by_plan) == len(set(by_plan))
        in_rounds = [
            (e["detail"]["round"], e["detail"]["service"], e["detail"]["command"])
            for e in dispatches if "round" in e["detail"]
        ]
        assert in_rounds
        assert len(in_rounds) == len(set(in_rounds))

    @pytest.mark.parametrize("offering", ["mapeaas", "apaas_split"])
    @pytest.mark.parametrize("seed", [3, 42])
    def test_every_round_closes_within_four_jittered_trips(self, offering, seed):
        # The network is lossless and no link jitters beyond its latency, so
        # call, propose, decide and ack each take at most twice the worst
        # base latency w between member nodes: every round closes by 8w.
        horizon = 120_000
        data = scenario_dict(3, "decentralized")
        for link in data["topology"]["links"]:
            link["jitter_ms"] = link["latency_ms"]
        runtime = Runtime(parse_scenario(with_offering(data, offering)), seed=seed)
        runtime.sim.run_until(horizon)
        topology = runtime.scenario.topology

        def worst_latency(component: str) -> int:
            nodes = sorted({runtime.placement.node_of(m, component) for m in runtime.group})
            return max(topology.route(a, b)[1] for a in nodes for b in nodes)

        rounds: dict[str, list[dict]] = {}
        for event in trace_rows(runtime.sim.trace):
            if event["kind"].startswith("round-"):
                rounds.setdefault(event["detail"]["round"], []).append(event)
        assert rounds
        last_open = {}
        for round_id, events in rounds.items():
            last_open[events[0]["detail"]["component"]] = round_id
        for round_id, events in rounds.items():
            kinds = [e["kind"] for e in events]
            opened = events[0]
            bound = 8 * worst_latency(opened["detail"]["component"])
            if kinds == ["round-open", "round-decide", "round-close"]:
                assert events[2]["t"] - opened["t"] <= bound
            else:
                assert kinds in (["round-open"], ["round-open", "round-decide"])
                assert last_open[opened["detail"]["component"]] == round_id
                assert opened["t"] + bound > horizon


class TestRobustness:
    def test_stale_observation_is_dropped(self):
        data = scenario_dict(1, params=BuildingParams(sample_interval_ms=100))
        runtime = Runtime(parse_scenario(data), seed=0)
        runtime.sim.run_until(150)
        door = runtime.devices["office1.door"]
        loop = runtime.loops["office1"]
        runtime.sim.send(
            "inter-component", runtime.sim.channel(door.addr, loop.addr["analyze"]),
            Observation("office1.door", "lock-state", "unlocked", 0),
        )
        runtime.sim.run_until(300)
        drops = runtime.sim.trace.of_kind("stale-drop")
        assert len(drops) == 1
        assert drops[0]["detail"]["t_obs"] == 0
        assert drops[0]["detail"]["t_latest"] >= 100
        assert loop.kb.get("office1.door", "lock-state").value == "locked"

    def test_unplaceable_loop_is_a_config_error(self):
        # Every device on the cloud and no fog node: the topology checks
        # pass, and placement finds no fog for the loop.
        data = bundled("1office")
        data["topology"] = {"nodes": [{"id": "cloud", "tier": "cloud"}], "links": []}
        for device in data["devices"].values():
            device["node"] = "cloud"
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).lines() == [
            "loops: loop 'office1': no fog node reaches its scope devices"]
        with pytest.raises(ConfigError, match="no fog node"):
            Runtime(scenario, seed=0, check=False)

    def test_invalid_scenario_is_rejected_before_running(self):
        data = scenario_dict(1)
        data["loops"][0]["scope"] = ["office1.door", "no-such-service"]
        with pytest.raises(ConfigError, match="scenario is invalid"):
            Runtime(parse_scenario(data), seed=0)

    def test_unmanaged_device_is_never_sampled(self):
        data = scenario_dict(1, params=BuildingParams(sample_interval_ms=1000))
        data["devices"]["office1.spare"] = {"kind": "lamp", "node": "fog1",
                                            "samples": {"power-state": 1000}}
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).ok
        result = run_scenario(scenario, seed=6, horizon=5_000)
        announced = [
            e for e in result.trace.of_kind("init")
            if e["src"] == "fog1/office1.spare"
        ]
        assert len(announced) == 1
        sampled = [
            e for e in result.trace.of_kind("send")
            if e["src"] == "fog1/office1.spare"
        ]
        assert sampled == []


def bundled(name: str) -> dict:
    return json.loads((SCENARIOS / f"smart_building_{name}.json").read_text())


def central_integer_sum() -> dict:
    """Two offices whose master sums meter readings to an integer, read by a
    master rule."""
    data = scenario_dict(2, "centralized")
    (agg,) = data["control"]["master"]["aggregations"]
    agg["output_type"] = "integer"
    data["policies"].append({
        "name": "building-over-budget",
        "when": [{"service": "building", "parameter": "total-kwh", "op": ">=", "value": 0}],
        "then": [{"service": "office1.lamp", "command": "set-power", "arg": False}],
        "cooldown_ms": 60_000,
    })
    data["loops"][-1]["policies"] = ["building-over-budget"]
    return data


def with_master_rule(data: dict, then: list[str], when: dict | None = None) -> dict:
    """The master acts on every service of `then` (by default once a
    minute, on the ambient temperature)."""
    data["policies"].append({
        "name": "building-rule",
        "when": [when or {"service": "environment", "parameter": "outside-temp",
                          "op": ">=", "value": -100}],
        "then": [{"service": svc, "command": "set-power", "arg": False} for svc in then],
        "cooldown_ms": 60_000,
    })
    next(loop for loop in data["loops"]
         if loop["id"] == data["control"]["master"]["loop"])["policies"] = ["building-rule"]
    return data


def weather_and_heat_events() -> dict:
    return scenario_dict(1, events=[
        {"t": 30_000, "weather": "sunny"},
        {"t": 60_000, "outside_temp_c": 27},
        {"t": 90_000, "weather": "not-sunny", "outside_temp_c": -3.5},
        {"t": 120_000, "weather": "sunny"},
    ])


class TestTypeBoundary:
    """`validate_scenario` is the only type check: every value that reaches a
    knowledge base, whether a device sample, an aggregation output or an
    environment value, already has its stream's type."""

    @pytest.mark.parametrize("data, sources", [
        (bundled("1office"), {"device", "environment"}),
        (bundled("3office_centralized"), {"device", "environment", "aggregate"}),
        (bundled("3office_decentralized"), {"device", "environment"}),
        (central_integer_sum(), {"device", "environment", "aggregate"}),
        (weather_and_heat_events(), {"device", "environment"}),
    ], ids=["1office", "3office-centralized", "3office-decentralized", "integer-sum",
            "environment-events"])
    def test_every_value_put_has_its_stream_type(self, monkeypatch, data, sources):
        scenario = parse_scenario(data)
        put = KnowledgeBase.put
        seen: list[Observation] = []

        def recording_put(kb: KnowledgeBase, obs: Observation) -> None:
            seen.append(obs)
            put(kb, obs)

        monkeypatch.setattr(KnowledgeBase, "put", recording_put)
        run_scenario(scenario, seed=3, horizon=700_000)
        streams = _sampled_streams(scenario)
        if scenario.master_id is not None:
            streams.update(((scenario.master_id, agg.output), agg.output_type)
                           for agg in scenario.control.aggregations)
        found = set()
        for obs in seen:
            vtype = streams[(obs.service, obs.parameter)]
            assert value_conforms(obs.value, vtype), (obs, vtype)
            found.add("environment" if obs.service == ENVIRONMENT_SERVICE
                      else "aggregate" if obs.service == scenario.master_id else "device")
        assert found == sources


class TestSnapshot:
    def test_snapshot_lists_discrete_state_only(self):
        result = run_scenario(parse_scenario(quiet_one_office()), seed=1,
                              horizon=5_000)
        snapshot = discrete_snapshot(result)
        assert sorted(snapshot) == sorted(result.devices)
        assert snapshot["office1.door"] == {"lock-state": "locked"}
        assert snapshot["office1.meter"] == {}
        assert snapshot["office1.clock"] == {"armed": True}


def unlink_the_clock(data: dict) -> None:
    """office1's clock sits on a node no link reaches, outside every scope,
    while office1's arm-clock rule still acts on it."""
    data["topology"]["links"] = [link for link in data["topology"]["links"]
                                 if link["a"] != "office1.clock"]
    data["loops"][0]["scope"].remove("office1.clock")


def ring_alarm(data: dict) -> None:
    """office1 rings an alarm that has no devices entry, so no device actor
    carries it."""
    data["policies"][0]["then"].append({"service": "office1.alarm", "command": "ring"})


class TestChannels:
    """Every channel a run sends on is resolved when its `Runtime` is built."""

    @pytest.mark.parametrize("data", [
        bundled("1office"),
        with_offering(bundled("1office"), "apaas_split"),
        bundled("3office_centralized"),
        bundled("3office_decentralized"),
        with_mode(bundled("3office_centralized"), "centralized"),
        with_mode(bundled("3office_centralized"), "decentralized"),
        central_integer_sum(),
    ], ids=["1office", "1office-apaas-split", "3office-centralized",
            "3office-decentralized", "mode-centralized", "mode-decentralized",
            "master-rule"])
    def test_a_run_looks_up_no_route_or_host(self, monkeypatch, data):
        runtime = Runtime(parse_scenario(data), seed=3)

        def refuse(*args):
            raise AssertionError("topology looked up after the build")

        monkeypatch.setattr(Topology, "route", refuse)
        monkeypatch.setattr(Topology, "host_of", refuse)
        trace = runtime.sim.run_until(600_000)
        interactions = {row["detail"]["interaction"] for row in trace.of_kind("deliver")}
        assert {"m2e-sense", "m2e-actuate", "inter-component"} <= interactions
        if runtime.master_id is not None and runtime.loops[runtime.master_id].spec.policies:
            assert "intra-delegation" in interactions
        if runtime.group:
            assert "intra-coordination" in interactions

    @pytest.mark.parametrize("mutate, message", [
        (unlink_the_clock,
         "no route from 'fog1/office1.execute' to 'office1.clock/office1.clock'"),
        (ring_alarm,
         "no device at 'office1.alarm' for actions from 'fog1/office1.execute'"),
    ], ids=["unreachable", "unhosted"])
    def test_an_unresolvable_channel_fails_the_build(self, mutate, message):
        data = bundled("1office")
        mutate(data)
        traces: list[EventTrace] = []

        def sink(header: dict) -> EventTrace:
            traces.append(EventTrace(header))
            return traces[-1]

        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Runtime(parse_scenario(data), seed=0, check=False, sink=sink)
        assert [trace.events for trace in traces] == [[]]

    def test_a_master_action_no_slave_owns_fails_the_build(self):
        data = with_master_rule(bundled("3office_centralized"), ["office1.lamp"])
        data["loops"][0]["scope"].remove("office1.lamp")
        traces: list[EventTrace] = []

        def sink(header: dict) -> EventTrace:
            traces.append(EventTrace(header))
            return traces[-1]

        message = "no slave owns 'office1.lamp' for actions from 'fog1/building.execute'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Runtime(parse_scenario(data), seed=0, check=False, sink=sink)
        assert [trace.events for trace in traces] == [[]]


class TestOwnership:
    """`Scenario.owners` answers "which loop acts on service S": each
    device feeds its owner's monitor, master plans split by owner, and
    decided round items run at their owners."""

    @pytest.mark.parametrize("data", [
        bundled("1office"),
        with_offering(bundled("1office"), "apaas_split"),
        bundled("3office_centralized"),
        with_offering(bundled("3office_centralized"), "apaas_split"),
        bundled("3office_decentralized"),
        with_mode(bundled("3office_centralized"), "decentralized"),
        with_master_rule(bundled("3office_centralized"),
                         ["office3.heater", "office1.heater", "office2.lamp", "office1.lamp"]),
    ], ids=["1office", "1office-apaas-split", "3office-centralized",
            "3office-centralized-apaas-split", "3office-decentralized",
            "mode-decentralized", "master-rule"])
    def test_every_consumer_follows_the_table(self, data):
        scenario = parse_scenario(data)
        owners = scenario.owners
        order = [loop.id for loop in scenario.managing_loops]
        assert set(owners) == {svc for loop in scenario.loops for svc in loop.scope}
        for svc, loop_id in owners.items():
            holders = [loop.id for loop in scenario.managing_loops if svc in loop.scope]
            assert loop_id == (holders[0] if holders else scenario.master_id)

        runtime = Runtime(scenario, seed=3)
        for svc, actor in runtime.devices.items():
            if svc in owners:
                monitor = runtime.loops[owners[svc]].addr["monitor"]
                assert actor.to_monitor.dst == monitor
            else:
                assert actor.to_monitor is None
        # Each aggregation input is forwarded by the slave that owns it.
        inputs = [key for agg in getattr(scenario.control, "aggregations", ())
                  for key in agg.inputs]
        for loop_id, loop in runtime.loops.items():
            assert loop.forward_keys == {key for key in inputs if owners[key[0]] == loop_id}
        trace = runtime.sim.run_until(600_000)
        if runtime.master_id is not None:
            knowledge = runtime.loops[runtime.master_id].addr["knowledge"]
            senders = {row["src"] for row in trace.of_kind("deliver")
                       if row["dst"] == knowledge}
            assert senders == {runtime.loops[owners[svc]].addr["monitor"]
                               for svc, _ in inputs}

        planned = {row["detail"]["plan"]: row["detail"]["actions"]
                   for row in trace.of_kind("plan")
                   if row["detail"]["loop"] == runtime.master_id}
        split: dict[str, list] = {}
        to: dict[str, str] = {}
        for row in trace.of_kind("delegate"):
            detail = row["detail"]
            split.setdefault(detail["plan"], []).append(detail)
            to[detail["sub_plan"]] = detail["to"]
        assert set(split) == set(planned)
        for plan, subs in split.items():
            assert [sub["to"] for sub in subs] == sorted((sub["to"] for sub in subs),
                                                         key=order.index)
            assert sum(sub["actions"] for sub in subs) == planned[plan]
        decided = 0
        for row in trace.of_kind("dispatch"):
            detail = row["detail"]
            if detail["plan"] in to:
                assert detail["loop"] == to[detail["plan"]] == owners[detail["service"]]
            if "round" in detail:
                decided += 1
                assert detail["loop"] == owners[detail["service"]]
        if runtime.master_id is not None and runtime.loops[runtime.master_id].spec.policies:
            assert len({sub["to"] for subs in split.values() for sub in subs}) == 3
        if runtime.group:
            assert decided

    def test_a_service_only_the_master_holds_feeds_the_master(self):
        # office1's meter leaves its scope and its aggregation input: only
        # the master's scope holds it, and only a master rule reads it.
        data = with_master_rule(bundled("3office_centralized"), ["office2.lamp"], {
            "service": "office1.meter", "parameter": "kwh-reading", "op": ">=", "value": 0})
        data["loops"][0]["scope"].remove("office1.meter")
        (agg,) = data["control"]["master"]["aggregations"]
        agg["inputs"] = [key for key in agg["inputs"] if key[0] != "office1.meter"]
        scenario = parse_scenario(data)
        assert validate_scenario(scenario).ok
        runtime = Runtime(scenario, seed=1)
        master = runtime.loops["building"]
        to_monitor = runtime.devices["office1.meter"].to_monitor
        assert to_monitor.dst == master.addr["monitor"]
        trace = runtime.sim.run_until(120_000)
        assert master.kb.get("office1.meter", "kwh-reading") is not None
        assert runtime.loops["office1"].kb.get("office1.meter", "kwh-reading") is None
        delegated = trace.of_kind("delegate")
        assert delegated and {row["detail"]["to"] for row in delegated} == {"office2"}
