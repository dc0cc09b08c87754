"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the measured values.
The expensive two-hour virtual runs are shared through module-scoped fixtures;
every oracle here recomputes its expected value from the raw trace or from
first principles, never from the code paths under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogloop.coordination import (
    AggregationSpec,
    Combinator,
    aggregate,
    delegate,
)
from fogloop.mape import AdaptationPlan, KbEntry, PlannedAction, Symptom
from fogloop.cli import main
from fogloop.metrics import MetricsFold, compute_metrics, metrics_csv
from fogloop.placement import LoopSpec, Offering, place
from fogloop.runtime import Runtime, RunResult, discrete_snapshot, run_scenario
from fogloop.scenario import (
    building_to_dict,
    load_scenario,
    parse_scenario,
    with_mode,
    with_offering,
)
from fogloop.simnet import Link, Node, Tier, Topology
from fogloop.smartbuilding import EnvironmentEvent, build_smart_building

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ONE_OFFICE = SCENARIOS / "smart_building_1office.json"
THREE_CEN = SCENARIOS / "smart_building_3office_centralized.json"
THREE_DEC = SCENARIOS / "smart_building_3office_decentralized.json"
TWO_HOURS = 7_200_000


@dataclass
class TimedRun:
    result: RunResult
    seconds: float


def timed_run(scenario, seed: int, horizon: int) -> TimedRun:
    start = time.perf_counter()
    result = run_scenario(scenario, seed=seed, horizon=horizon)
    return TimedRun(result, time.perf_counter() - start)


def trace_rows(result: RunResult) -> tuple[dict, list[dict]]:
    lines = result.trace.to_jsonl().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def applied(rows: list[dict], policy_suffix: str) -> list[dict]:
    return [
        row
        for row in rows
        if row["kind"] == "actuate-applied"
        and row["detail"]["policy"].endswith(policy_suffix)
    ]


def fog_to_cloud_hops(header: dict, rows: list[dict]) -> int:
    """Independent tally: directed fog->cloud boundary crossings over every
    delivered message's routed path, using only the trace's own node table."""
    tiers = header["nodes"]
    count = 0
    for row in rows:
        if row["kind"] != "deliver":
            continue
        path = row["detail"]["path"]
        for a, b in zip(path, path[1:]):
            if tiers[a] == "fog" and tiers[b] == "cloud":
                count += 1
    return count


def trace_energy_mj(header: dict, rows: list[dict]) -> dict[str, int]:
    """Independent oracle: integrate power_w over on-intervals recovered from
    init states and applied power-state flips, in exact integer millijoules."""
    horizon = header["horizon"]
    power: dict[str, int] = {}
    office_of: dict[str, str] = {}
    on_since: dict[str, int | None] = {}
    energy: dict[str, int] = {}
    for row in rows:
        detail = row["detail"]
        if row["kind"] == "init":
            office = detail["office"]
            if office is None:
                continue
            energy.setdefault(office, 0)
            if detail["power_w"] <= 0:
                continue
            service = detail["service"]
            power[service] = detail["power_w"]
            office_of[service] = office
            on_since[service] = row["t"] if detail["state"]["power-state"] else None
        elif row["kind"] == "actuate-applied":
            service = detail["service"]
            if service not in power or "power-state" not in detail["changed"]:
                continue
            if detail["arg"]:
                on_since[service] = row["t"]
            else:
                started = on_since[service]
                if started is not None:
                    energy[office_of[service]] += power[service] * (row["t"] - started)
                on_since[service] = None
    for service, started in on_since.items():
        if started is not None:
            energy[office_of[service]] += power[service] * (horizon - started)
    return energy


@pytest.fixture(scope="module")
def one_office_data() -> dict:
    return json.loads(ONE_OFFICE.read_text())


@pytest.fixture(scope="module")
def run_one_mapeaas(one_office_data) -> TimedRun:
    return timed_run(parse_scenario(one_office_data), seed=42, horizon=TWO_HOURS)


@pytest.fixture(scope="module")
def run_one_apaas(one_office_data) -> TimedRun:
    variant = parse_scenario(with_offering(one_office_data, "apaas_split"))
    return timed_run(variant, seed=42, horizon=TWO_HOURS)


@pytest.fixture(scope="module")
def run_three_cen() -> TimedRun:
    return timed_run(load_scenario(str(THREE_CEN)), seed=42, horizon=TWO_HOURS)


@pytest.fixture(scope="module")
def run_three_dec() -> TimedRun:
    return timed_run(load_scenario(str(THREE_DEC)), seed=42, horizon=TWO_HOURS)


def test_c1_decision_latency_contrast(run_one_mapeaas, run_one_apaas):
    """Fog-hosted loops decide in 2 ms, cloud-hosted analysis in 102 ms."""
    measured = {}
    for label, run, expected in (
        ("mapeaas", run_one_mapeaas, 2),
        ("apaas_split", run_one_apaas, 102),
    ):
        assert run.seconds < 5.0, f"{label} run took {run.seconds:.2f}s"
        _, rows = trace_rows(run.result)
        hits = applied(rows, "-lights-off-sunny")
        assert [row["detail"]["latency"] for row in hits] == [expected]
        assert hits[0]["t"] == 300_000 + expected
        measured[label] = expected
    print(
        "PASS C1: lamp-off decision latency"
        f" mapeaas={measured['mapeaas']} ms, apaas_split={measured['apaas_split']} ms (tolerance 0)"
    )


@pytest.mark.parametrize("offering, zero_jitter", [("mapeaas", 2), ("apaas_split", 102)])
def test_c1_jittered_latency_counts_from_the_cause(one_office_data, offering, zero_jitter):
    """Every link jitters by up to its own latency, so the jitter bounds
    summed along the routes a decision's trigger sample and actuation travel
    equal its zero-jitter latency L from C1, and each lights-off latency lies
    in [L, 2L]. Without the sun, the lamp stays on until the lock-to-lights-off
    deadline, 600,000 ms after the t=0 lock and on a sample tick; that rule's
    latency counts from the deadline, not from an older sample of its streams."""
    data = with_offering(one_office_data, offering)
    for link in data["topology"]["links"]:
        link["jitter_ms"] = link["latency_ms"]
    runs = ((data, 310_000, "-lights-off-sunny"),
            (dict(data, environment=[]), 610_000, "-lights-off-after-lock"))
    latencies = []
    for seed in range(4):
        for variant, horizon, suffix in runs:
            _, rows = trace_rows(run_scenario(parse_scenario(variant), seed, horizon))
            hits = applied(rows, suffix)
            assert len(hits) == 1, (seed, suffix)
            latencies.append(hits[0]["detail"]["latency"])
    assert all(zero_jitter <= latency <= 2 * zero_jitter for latency in latencies), latencies
    print(f"PASS C1 jittered: {offering} lights-off latencies {latencies}"
          f" within [{zero_jitter}, {2 * zero_jitter}] ms")


def test_c2_fog_to_cloud_bandwidth_relief():
    """Centralized master-on-fog sends >=10x fewer fog->cloud messages."""
    data = json.loads(THREE_CEN.read_text())
    horizon = 120_000
    cen = run_scenario(parse_scenario(data), seed=42, horizon=horizon)
    split = run_scenario(
        parse_scenario(with_offering(data, "apaas_split")), seed=42, horizon=horizon
    )
    cen_hops = fog_to_cloud_hops(*trace_rows(cen))
    split_hops = fog_to_cloud_hops(*trace_rows(split))
    assert split_hops > 0
    assert cen_hops * 10 <= split_hops
    print(
        "PASS C2: fog->cloud messages over"
        f" {horizon} ms: centralized={cen_hops}, apaas_split={split_hops}"
    )


def only(values) -> object:
    """The one value every entry shares."""
    (value,) = set(values)
    return value


def sample_interval(data: dict) -> int:
    """The interval of every reading every device samples."""
    return only(interval for device in data["devices"].values()
                for interval in device["samples"].values())


def device_link_latency(data: dict) -> int:
    """The `latency_ms` of every link with a device at one end."""
    devices = {node["id"] for node in data["topology"]["nodes"] if node["tier"] == "device"}
    return only(link["latency_ms"] for link in data["topology"]["links"]
                if link["a"] in devices or link["b"] in devices)


def thermostat_band(data: dict) -> tuple[float, float]:
    """The `-too-cold` and `-too-hot` thresholds, alike in every office."""
    def threshold(suffix: str) -> float:
        return only(policy["when"][0]["value"] for policy in data["policies"]
                    if policy["name"].endswith(suffix))
    return threshold("-too-cold"), threshold("-too-hot")


def clock_duration(data: dict) -> int:
    """The argument every policy arms a clock with."""
    return only(action["arg"] for policy in data["policies"] for action in policy["then"]
                if action["command"] == "arm")


def test_c3_p1_lamp_off_after_sun(run_one_mapeaas, one_office_data):
    assert run_one_mapeaas.seconds < 10.0
    slack = sample_interval(one_office_data) + 2 * device_link_latency(one_office_data)
    _, rows = trace_rows(run_one_mapeaas.result)
    sunny = [
        row
        for row in rows
        if row["kind"] == "env" and row["detail"].get("weather") == "sunny"
    ]
    assert len(sunny) == 1
    hits = applied(rows, "-lights-off-sunny")
    assert len(hits) == 1
    reaction = hits[0]["t"] - sunny[0]["t"]
    assert 0 < reaction <= slack
    assert run_one_mapeaas.result.devices["office1.lamp"].read("power-state") is False
    print(f"PASS C3-P1: lamp off {reaction} ms after sun (bound {slack} ms)")


def test_c3_p2_lights_off_after_lock(one_office_data):
    data = json.loads(json.dumps(one_office_data))
    data["environment"] = []
    run = timed_run(parse_scenario(data), seed=42, horizon=TWO_HOURS)
    assert run.seconds < 10.0
    duration = clock_duration(data)
    slack = sample_interval(data) + 2 * device_link_latency(data)
    _, rows = trace_rows(run.result)
    hits = applied(rows, "-lights-off-after-lock")
    assert len(hits) == 1
    # The door has been locked since t=0, so the deadline counts from there.
    assert duration < hits[0]["t"] <= duration + slack
    assert run.result.devices["office1.lamp"].read("power-state") is False
    print(
        f"PASS C3-P2: lamp off at t={hits[0]['t']} ms,"
        f" within lock-time + {duration} + {slack} ms"
    )


def test_c3_p3_temperature_band():
    """After settling, every office holds setpoint +/- 1 C plus the drift one
    sampling-plus-actuation delay can add at the worst crossing rates."""
    data = json.loads(THREE_CEN.read_text())
    defaults = data["defaults"]
    interval = sample_interval(data)
    lag = interval + 2 * device_link_latency(data)
    cold, hot = thermostat_band(data)
    setpoint = (cold + hot) / 2
    down_rate = defaults["leak_open_per_min"] * (cold - defaults["outside_temp_c"])
    up_rate = defaults["heat_rate_c_per_min"] - defaults["leak_closed_per_min"] * (
        hot - defaults["outside_temp_c"]
    )
    lo = cold - down_rate * lag / 60_000.0
    hi = hot + up_rate * lag / 60_000.0

    start = time.perf_counter()
    runtime = Runtime(parse_scenario(data), seed=42)
    temps: dict[str, list[tuple[int, float]]] = {o: [] for o in runtime.offices}
    for t in range(interval, TWO_HOURS + 1, interval):
        runtime.sim.run_until(t)
        for physics in runtime.physics.values():
            physics.sync(t)
        for office_id, state in runtime.offices.items():
            temps[office_id].append((t, state.room_temp_c))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"probe run took {elapsed:.2f}s"

    thermostat = [
        row
        for row in runtime.sim.trace.of_kind("actuate-applied")
        if row["detail"]["policy"].endswith(("-too-hot", "-too-cold"))
    ]
    assert thermostat
    settle = thermostat[0]["t"] + interval
    worst_lo = worst_hi = setpoint
    for office_id, series in temps.items():
        post = [temp for t, temp in series if t >= settle]
        assert post
        assert min(post) >= lo and max(post) <= hi, office_id
        worst_lo = min(worst_lo, min(post))
        worst_hi = max(worst_hi, max(post))
    print(
        f"PASS C3-P3: room temps within [{lo:.5f}, {hi:.5f}] C after t={settle} ms"
        f" (observed [{worst_lo:.5f}, {worst_hi:.5f}])"
    )


def test_c4_energy_matches_trace_integration():
    rng = random.Random(1234)
    seeds = [rng.randrange(2**32) for _ in range(20)]
    plan = (
        (ONE_OFFICE, 360_000),
        (THREE_CEN, 120_000),
        (THREE_DEC, 120_000),
    )
    checked = 0
    for path, horizon in plan:
        scenario = load_scenario(str(path))
        for seed in seeds:
            result = run_scenario(scenario, seed=seed, horizon=horizon)
            oracle = trace_energy_mj(*trace_rows(result))
            assert compute_metrics(result).energy_mj == oracle, (path.name, seed)
            checked += 1
    print(
        f"PASS C4: energy equals the trace-integration oracle on {checked} runs"
        " (3 scenarios x 20 seeds, exact integer mJ)"
    )


def test_c5_byte_identical_traces(tmp_path):
    seeds = (3, 7, 42, 1234, 99991)
    horizon = 30_000
    pairs = 0
    for path in (ONE_OFFICE, THREE_CEN, THREE_DEC):
        data = json.loads(path.read_text())
        for seed in seeds:
            first = run_scenario(parse_scenario(data), seed=seed, horizon=horizon)
            second = run_scenario(parse_scenario(data), seed=seed, horizon=horizon)
            a = tmp_path / f"{path.stem}-{seed}-a.jsonl"
            b = tmp_path / f"{path.stem}-{seed}-b.jsonl"
            first.trace.write(str(a))
            second.trace.write(str(b))
            assert a.read_bytes() == b.read_bytes()
            pairs += 1
    assert pairs == 15
    print(f"PASS C5: byte-identical trace files for {pairs} (scenario, seed) pairs")


def test_c6_exactly_once_dispatch(run_three_dec):
    runs = [run_three_dec.result]
    data = json.loads(THREE_DEC.read_text())
    for seed in (1, 2):
        runs.append(run_scenario(parse_scenario(data), seed=seed, horizon=120_000))
    dispatched = 0
    for result in runs:
        _, rows = trace_rows(result)
        dispatches = [row for row in rows if row["kind"] == "dispatch"]
        decided = [
            row["detail"]["round"] for row in rows if row["kind"] == "round-decide"
        ]
        assert dispatches
        assert not [row for row in rows if row["kind"] == "round-abort"]
        assert all("round" in row["detail"] for row in dispatches)
        per_round_action = Counter(
            (
                row["detail"]["round"],
                row["detail"]["service"],
                row["detail"]["command"],
                json.dumps(row["detail"]["arg"]),
            )
            for row in dispatches
        )
        assert all(n == 1 for n in per_round_action.values())
        per_plan_step = Counter(
            (row["detail"]["plan"], row["detail"]["idx"]) for row in dispatches
        )
        assert all(n == 1 for n in per_plan_step.values())
        assert {key[0] for key in per_round_action} <= set(decided)
        assert len(decided) == len(set(decided))
        dispatched += len(dispatches)
    print(
        f"PASS C6: {dispatched} dispatches across {len(runs)} decentralized runs,"
        " each (round, action) exactly once"
    )


def test_c7_mode_equivalence(run_three_cen, run_three_dec):
    cen = discrete_snapshot(run_three_cen.result)
    dec = discrete_snapshot(run_three_dec.result)
    assert cen == dec
    assert len(cen) == 18  # 3 offices x 6 devices
    print(
        f"PASS C7: centralized and decentralized end states identical"
        f" for {len(cen)} devices at t={TWO_HOURS} ms"
    )


# Trace rows and sha256 prefixes of trace.to_jsonl(), of it after its header
# line, and of metrics_csv() at seed 42 over two hours; a change that alters
# behaviour on purpose updates these and says why. A change to the scenario
# file alone moves only the first digest, through the header's config_digest.
GOLDEN = {
    "1office": (201_643, "f50a112e96f12c71", "27eea7b40ced0b60", "a5ade4c997507891"),
    "1office+apaas_split": (201_643, "9998212edc0d5a02", "eaaaa54d8a9bab29",
                            "75c159b030a82e61"),
    "3office_centralized": (665_295, "583c92beb233f164", "ea10bb2e1f7dc34f",
                            "ff420e646d70032f"),
    "3office_decentralized": (609_434, "5fa7415291e1f557", "cfebd52158ce6dad",
                              "7961a1dea0254682"),
}


def trace_digests(trace) -> tuple[str, str]:
    """sha256 prefixes of the whole JSONL trace and of it after its header."""
    text = trace.to_jsonl()
    return (hashlib.sha256(text.encode()).hexdigest()[:16],
            hashlib.sha256(text.split("\n", 1)[1].encode()).hexdigest()[:16])


def test_golden_digests(run_one_mapeaas, run_one_apaas, run_three_cen, run_three_dec):
    """Trace and metrics bytes of the bundled scenarios are pinned."""
    runs = {
        "1office": run_one_mapeaas,
        "1office+apaas_split": run_one_apaas,
        "3office_centralized": run_three_cen,
        "3office_decentralized": run_three_dec,
    }
    measured = {}
    for name, run in runs.items():
        result = run.result
        metrics = hashlib.sha256(
            metrics_csv(compute_metrics(result)).encode()
        ).hexdigest()[:16]
        measured[name] = (len(result.trace.events), *trace_digests(result.trace), metrics)
    assert measured == GOLDEN
    print(f"PASS golden: trace and metrics digests of {len(GOLDEN)} two-hour runs")


def jittered_building(seed: int, horizon: int) -> dict:
    """Three offices under a centralized master, in the shape of the
    benchmark's buildings: one weather flip and one outside-temperature step
    per minute at seeded times, each link's jitter drawn from 0..latency,
    and a master rule that turns every heater off while it is warm outside."""
    rng = random.Random(seed)
    count = horizon // 60_000
    flips = sorted(rng.randrange(1, horizon) for _ in range(count))
    steps = sorted(rng.randrange(1, horizon) for _ in range(count))
    events = [EnvironmentEvent(t, weather="sunny" if i % 2 == 0 else "not-sunny")
              for i, t in enumerate(flips)]
    events += [EnvironmentEvent(t, outside_temp_c=rng.randrange(0, 61) / 2) for t in steps]
    events.sort(key=lambda event: event.t)
    building = build_smart_building(3, control="centralized", environment_events=events)
    data = building_to_dict(building, f"jittered-3office-seed{seed}")
    for link in data["topology"]["links"]:
        link["jitter_ms"] = rng.randint(0, link["latency_ms"])
    data["policies"].append({
        "name": "building-heat-off-when-warm",
        "when": [{"service": "environment", "parameter": "outside-temp",
                  "op": ">=", "value": 20.0}],
        "then": [{"service": f"office{i}.heater", "command": "set-power", "arg": False}
                 for i in (1, 2, 3)],
        "cooldown_ms": 60_000,
    })
    master = data["control"]["master"]["loop"]
    next(loop for loop in data["loops"] if loop["id"] == master)["policies"].append(
        "building-heat-off-when-warm")
    return data


# Trace rows and sha256 prefixes of trace.to_jsonl(), of it after its header
# line, and of metrics_csv() of `jittered_building(3, 300_000)` at seed 3, to
# 300,000 ms.
JITTERED = {
    "centralized": (28_230, "0a4b0487e292223c", "bcf3ff7defedd3ae", "aa2bdc1bae217c9b"),
    "decentralized": (26_189, "526268cfdb4337f8", "546a642b1c39d103", "777032c0ce4271e6"),
}


def test_jittered_building_digests(tmp_path, capsys):
    """Jitter, environment events and a master rule, which no bundled
    scenario has, are pinned in both control modes; the folded metrics and
    `fogloop compare` agree with the kept trace."""
    seed, horizon = 3, 300_000
    data = jittered_building(seed, horizon)
    measured, rows = {}, []
    for mode in JITTERED:
        scenario = parse_scenario(with_mode(data, mode))
        result = run_scenario(scenario, seed, horizon)
        metrics = compute_metrics(result)
        csv = metrics_csv(metrics)
        measured[mode] = (len(result.trace.events), *trace_digests(result.trace),
                          hashlib.sha256(csv.encode()).hexdigest()[:16])
        folded = run_scenario(scenario, seed, horizon, sink=MetricsFold)
        assert metrics_csv(compute_metrics(folded)) == csv
        rows.append(f"{mode:<16} {metrics.latency_mean:>16.3f} "
                    f"{metrics.fog_to_cloud:>13} {metrics.total_kwh:>14.9f}")
    assert measured == JITTERED
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["compare", "--scenario", str(path), "--variants", ",".join(JITTERED),
                 "--seed", str(seed), "--until-ms", str(horizon)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows


@st.composite
def placement_cases(draw):
    n_fog = draw(st.integers(min_value=1, max_value=5))
    n_dev = draw(st.integers(min_value=1, max_value=12))
    fogs = [f"fog{i}" for i in range(1, n_fog + 1)]
    services = [f"svc{i}" for i in range(1, n_dev + 1)]
    nodes = [Node("cloud", Tier.CLOUD)]
    nodes += [Node(fog, Tier.FOG) for fog in fogs]
    nodes += [
        Node(f"dev{i + 1}", Tier.DEVICE) for i in range(n_dev)
    ]
    links = [Link(fog, "cloud", draw(st.integers(10, 80))) for fog in fogs]
    links += [
        Link(f"dev{i + 1}", draw(st.sampled_from(fogs)), draw(st.integers(1, 5)))
        for i in range(n_dev)
    ]
    n_loops = draw(st.integers(1, min(3, n_dev)))
    group_of = [
        i if i < n_loops else draw(st.integers(0, n_loops - 1)) for i in range(n_dev)
    ]
    offerings = [
        Offering.APAAS_SPLIT
        if g == 0
        else draw(st.sampled_from((Offering.MAPEAAS, Offering.APAAS_SPLIT)))
        for g in range(n_loops)
    ]
    loops = tuple(
        LoopSpec(
            id=f"loop{g + 1}",
            scope=tuple(s for s, grp in zip(services, group_of) if grp == g),
            offering=offerings[g],
        )
        for g in range(n_loops)
    )
    hosts = {service: f"dev{i + 1}" for i, service in enumerate(services)}
    return Topology(tuple(nodes), tuple(links), hosts), loops


def shortest_latencies(topology: Topology) -> dict[tuple[str, str], float]:
    """All-pairs minimum summed link latency (Floyd-Warshall)."""
    ids = [node.id for node in topology.nodes]
    dist = {(a, b): 0 if a == b else float("inf") for a in ids for b in ids}
    for link in topology.links:
        for a, b in ((link.a, link.b), (link.b, link.a)):
            dist[a, b] = min(dist[a, b], link.latency_ms)
    for k in ids:
        for a in ids:
            for b in ids:
                dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
    return dist


def test_c8_placement_safety():
    examples = 200

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(placement_cases())
    def check(case):
        topology, loops = case
        placement = place(loops, topology)
        dist = shortest_latencies(topology)
        hosts = topology.hosts
        fogs = [node.id for node in topology.nodes if node.tier is Tier.FOG]
        assert len(placement.assignments) == 5 * len(loops)
        for loop in loops:
            fog = min(fogs, key=lambda f: (sum(dist[hosts[s], f] for s in loop.scope), f))
            core = fog if loop.offering is Offering.MAPEAAS else "cloud"
            assert {comp: placement.node_of(loop.id, comp)
                    for comp in ("monitor", "execute", "analyze", "plan", "knowledge")
                    } == {"monitor": fog, "execute": fog,
                          "analyze": core, "plan": core, "knowledge": core}
            assert placement.node_of(loop.id, "analyze") == placement.node_of(
                loop.id, "knowledge")

    check()
    print(
        f"PASS C8: {examples} random topologies (<=18 nodes): place() puts every"
        " loop on its nearest fog, split cores on the cloud, analyze with knowledge"
    )


@st.composite
def delegation_cases(draw):
    n_loops = draw(st.integers(1, 5))
    scopes: dict[str, tuple[str, ...]] = {}
    owner: dict[str, str] = {}
    next_svc = 1
    for i in range(1, n_loops + 1):
        size = draw(st.integers(1, 5))
        scope = tuple(f"svc{next_svc + k}" for k in range(size))
        next_svc += size
        scopes[f"loop{i}"] = scope
        for svc in scope:
            owner[svc] = f"loop{i}"
    pool = sorted(owner)
    n_actions = draw(st.integers(0, 50))
    actions = tuple(
        PlannedAction(
            draw(st.sampled_from(pool)),
            draw(st.sampled_from(("set-power", "set-position", "arm"))),
            draw(st.one_of(st.none(), st.booleans(), st.integers(0, 1000))),
        )
        for _ in range(n_actions)
    )
    plan = AdaptationPlan("p-master", Symptom("policy-x", 0), actions)
    return plan, scopes, owner


def test_c9_delegation_conservation():
    examples = 1000

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(delegation_cases())
    def check(case):
        plan, scopes, owner = case
        subs = delegate(plan, owner)
        assert list(subs) == [loop_id for loop_id in scopes if loop_id in subs]

        def key(action):
            return (action.service, action.command, action.argument)

        assert Counter(
            key(a) for sub in subs.values() for a in sub.actions
        ) == Counter(key(a) for a in plan.actions)
        for loop_id, sub in subs.items():
            assert loop_id in scopes
            assert sub.plan_id == f"{plan.plan_id}.{loop_id}"
            assert sub.symptom is plan.symptom
            assert sub.actions
            assert list(sub.actions) == [
                a for a in plan.actions if owner[a.service] == loop_id
            ]

    check()
    with pytest.raises(KeyError):
        delegate(
            AdaptationPlan(
                "p", Symptom("pol", 0), (PlannedAction("ghost", "set-power", True),)
            ),
            {"svc1": "loop1"},
        )
    print(
        f"PASS C9a: delegation conserves the action multiset, ownership, and"
        f" order over {examples} random plans (<=50 actions)"
    )


@st.composite
def aggregation_cases(draw):
    n = draw(st.integers(1, 100))
    keys = [(f"svc{i}", "p") for i in range(n)]
    values = [
        draw(
            st.one_of(
                st.integers(-(10**6), 10**6),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            )
        )
        for _ in range(n)
    ]
    combinator = draw(st.sampled_from(list(Combinator)))
    spec_order = draw(st.permutations(list(range(n))))
    state_order = draw(st.permutations(list(range(n))))
    return keys, values, combinator, spec_order, state_order


def test_c9_aggregation_permutation_invariance():
    examples = 1000

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(aggregation_cases())
    def check(case):
        keys, values, combinator, spec_order, state_order = case
        spec = AggregationSpec("agg", tuple(keys), combinator, "out")
        states = {keys[i]: KbEntry(values[i], 0, 0) for i in range(len(keys))}
        shuffled = {keys[i]: KbEntry(values[i], 0, 0) for i in state_order}
        base = aggregate(spec, states, now=7)
        assert base is not None
        assert aggregate(spec, shuffled, now=7) == base
        if combinator is not Combinator.VECTOR:
            permuted = AggregationSpec(
                "agg", tuple(keys[i] for i in spec_order), combinator, "out"
            )
            alt = aggregate(permuted, states, now=7)
            assert alt is not None
            assert alt.value == base.value
            assert type(alt.value) is type(base.value)

    check()
    assert (
        aggregate(
            AggregationSpec("agg", (("s", "p"),), Combinator.SUM, "out"), {}, 0
        )
        is None
    )
    print(
        f"PASS C9b: aggregation is permutation-invariant over {examples} random"
        " input vectors (<=100 values); missing inputs stall"
    )
