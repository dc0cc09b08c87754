"""Event loop, routing, and trace determinism tests."""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogloop import simnet
from fogloop.errors import ConfigError
from fogloop.runtime import Runtime, run_scenario
from fogloop.scenario import (building_to_dict, parse_scenario, validate_scenario,
                              with_offering)
from fogloop.simnet import (
    EventTrace,
    Link,
    Node,
    PastEventError,
    Simulator,
    Tier,
    Topology,
)
from fogloop.smartbuilding import build_smart_building

ONE_OFFICE = Path(__file__).resolve().parent.parent / "scenarios" / "smart_building_1office.json"


def three_tier() -> Topology:
    return Topology(
        nodes=(
            Node("lamp1", Tier.DEVICE),
            Node("fog1", Tier.FOG),
            Node("cloud", Tier.CLOUD),
        ),
        links=(Link("lamp1", "fog1", 1), Link("fog1", "cloud", 50)),
    )


def sink(sim: Simulator, address: str) -> list:
    """(delivery time, (kind, payload)) for every message delivered at
    `address`."""
    inbox: list = []
    sim.register(address, lambda kind, payload: inbox.append((sim.now, (kind, payload))))
    return inbox


def test_schedule_at_clock_runs_before_later_events():
    sim = Simulator(three_tier(), seed=0)
    order: list[str] = []
    sim.schedule(10, lambda: order.append("later"))
    sim.schedule(0, lambda: order.append("now"))
    sim.run_until(100)
    assert order == ["now", "later"]


def test_equal_times_run_in_insertion_order():
    sim = Simulator(three_tier(), seed=0)
    order: list[str] = []
    sim.schedule(100, lambda: order.append("A"))
    sim.schedule(100, lambda: order.append("B"))
    sim.run_until(100)
    assert order == ["A", "B"]


def test_past_event_is_rejected():
    sim = Simulator(three_tier(), seed=0)
    sim.schedule(5, lambda: None)
    sim.run_until(5)
    assert sim.now == 5
    with pytest.raises(PastEventError):
        sim.schedule(4, lambda: None)


def test_device_to_fog_delivery_takes_link_latency():
    sim = Simulator(three_tier(), seed=0)
    inbox = sink(sim, "fog1/monitor")
    channel = sim.channel("lamp1/lamp1", "fog1/monitor")
    sim.schedule(1000, lambda: sim.send("sense", channel, payload="on"))
    trace = sim.run_until(2000)
    assert inbox == [(1001, ("sense", "on"))]
    assert [row["detail"]["path"] for row in trace.of_kind("deliver")] == [("lamp1", "fog1")]


def test_fog_to_cloud_delivery_takes_default_latency():
    sim = Simulator(three_tier(), seed=0)
    inbox = sink(sim, "cloud/knowledge")
    sim.send("inter", sim.channel("fog1/monitor", "cloud/knowledge"))
    sim.run_until(100)
    assert [t for t, _ in inbox] == [50]


def test_same_node_delivery_is_immediate():
    sim = Simulator(three_tier(), seed=0)
    inbox = sink(sim, "fog1/analyze")
    channel = sim.channel("fog1/monitor", "fog1/analyze")
    sim.schedule(7, lambda: sim.send("inter", channel))
    sim.run_until(7)
    assert [t for t, _ in inbox] == [7]


def test_send_to_unlinked_node_raises():
    """A channel to a node no link path reaches is refused when it is built."""
    topo = Topology(
        nodes=(Node("a", Tier.DEVICE), Node("b", Tier.FOG), Node("cloud", Tier.CLOUD),
               Node("island", Tier.FOG)),
        links=(Link("a", "b", 1), Link("b", "cloud", 50)),
    )
    sim = Simulator(topo, seed=0)
    sink(sim, "island/monitor")
    with pytest.raises(ConfigError, match="^no route from 'a/a' to 'island/monitor'$"):
        sim.channel("a/a", "island/monitor")


def test_channel_to_an_unregistered_address_raises():
    sim = Simulator(three_tier(), seed=0)
    sink(sim, "fog1/monitor")
    with pytest.raises(ConfigError,
                       match="^no handler at 'fog1/analyze' for messages from 'lamp1/lamp1'$"):
        sim.channel("lamp1/lamp1", "fog1/analyze")


def test_channel_takes_the_handler_registered_last():
    sim = Simulator(three_tier(), seed=0)
    sink(sim, "fog1/monitor")
    inbox = sink(sim, "fog1/monitor")
    channel = sim.channel("lamp1/lamp1", "fog1/monitor")
    assert (channel.path, channel.latency, channel.jitters) == (("lamp1", "fog1"), 1, ())
    sim.send("sense", channel)
    sim.run_until(10)
    assert [t for t, _ in inbox] == [1]


def test_a_node_id_with_a_slash_is_refused_when_the_simulator_is_built():
    """A channel routes from the text before an address's first '/', so a
    node id holding one would route to the wrong node."""
    topo = Topology(
        nodes=(Node("lamp1", Tier.DEVICE), Node("fog/1", Tier.FOG), Node("cloud", Tier.CLOUD)),
        links=(Link("lamp1", "fog/1", 1), Link("fog/1", "cloud", 50)),
    )
    with pytest.raises(ConfigError, match="^node id 'fog/1' contains '/'$"):
        Simulator(topo, seed=0)


def test_a_component_name_with_a_slash_routes_from_its_node():
    topo = Topology(
        nodes=(Node("dev1", Tier.DEVICE), Node("fog1", Tier.FOG), Node("cloud", Tier.CLOUD)),
        links=(Link("dev1", "fog1", 2), Link("fog1", "cloud", 50)),
    )
    sim = Simulator(topo, seed=0)
    inbox = sink(sim, "dev1/office1/lamp")
    sink(sim, "fog1/monitor")
    sense = sim.channel("dev1/office1/lamp", "fog1/monitor")
    actuate = sim.channel("fog1/execute", "dev1/office1/lamp")
    assert (sense.path, sense.latency) == (("dev1", "fog1"), 2)
    assert (actuate.path, actuate.latency) == (("fog1", "dev1"), 2)
    sim.send("actuate", actuate, "on")
    trace = sim.run_until(10)
    assert inbox == [(2, ("actuate", "on"))]
    (row,) = trace.of_kind("deliver")
    assert (row["src"], row["dst"]) == ("fog1/execute", "dev1/office1/lamp")


def test_send_returns_the_id_its_rows_carry():
    sim = Simulator(three_tier(), seed=4)
    inbox = sink(sim, "cloud/knowledge")
    channel = sim.channel("fog1/monitor", "cloud/knowledge")
    payloads = [{"n": n} for n in range(3)]
    ids: list[int] = []
    for t, payload in zip((0, 5, 5), payloads):
        sim.schedule(t, lambda p=payload: ids.append(sim.send("inter", channel, p)))
    trace = sim.run_until(1_000)
    assert len(set(ids)) == 3
    for kind in ("send", "deliver"):
        carried = [row["detail"]["id"] for row in trace.of_kind(kind)]
        assert sorted(carried) == sorted(ids)
    assert [message for _, message in inbox] == [("inter", p) for p in payloads]
    assert all(got is want for (_, (_, got)), want in zip(inbox, payloads))


def test_empty_run_leaves_clock_at_zero():
    sim = Simulator(three_tier(), seed=3)
    trace = sim.run_until(10_000)
    assert sim.now == 0
    assert trace.events == []
    assert trace.header["horizon"] == 10_000
    assert trace.header["seed"] == 3
    assert trace.header["nodes"] == {"lamp1": "device", "fog1": "fog", "cloud": "cloud"}


def test_horizon_zero_processes_only_t0_events():
    sim = Simulator(three_tier(), seed=0)
    ran: list[int] = []
    sim.schedule(0, lambda: ran.append(0))
    sim.schedule(1, lambda: ran.append(1))
    sim.run_until(0)
    assert ran == [0]
    assert sim.now == 0


def test_scheduling_at_the_clock_runs_after_its_time_and_before_later_ones():
    sim = Simulator(three_tier(), seed=0)
    order: list[tuple[str, int]] = []

    def log(name: str) -> None:
        order.append((name, sim.now))

    def first() -> None:
        log("first")
        sim.schedule(sim.now, lambda: log("spawned"))

    sim.schedule(5, first)
    sim.schedule(5, lambda: log("second"))
    sim.schedule(6, lambda: log("later"))
    sim.schedule(5, lambda: log("third"))
    sim.run_until(10)
    assert order == [("first", 5), ("second", 5), ("third", 5), ("spawned", 5), ("later", 6)]


class Boom(Exception):
    pass


def test_a_raising_callback_loses_only_itself():
    sim = Simulator(three_tier(), seed=0)
    ran: list[tuple[str, int]] = []

    def log(name: str) -> None:
        ran.append((name, sim.now))

    def spawner() -> None:
        log("spawner")
        sim.schedule(5, lambda: log("spawned"))

    def boom() -> None:
        log("boom")
        raise Boom

    sim.schedule(5, spawner)
    sim.schedule(5, boom)
    sim.schedule(5, lambda: log("after-1"))
    sim.schedule(5, lambda: log("after-2"))
    sim.schedule(7, lambda: log("later"))
    with pytest.raises(Boom):
        sim.run_until(10)
    assert ran == [("spawner", 5), ("boom", 5)]
    assert sim.now == 5
    sim.run_until(10)
    assert ran[2:] == [("after-1", 5), ("after-2", 5), ("spawned", 5), ("later", 7)]
    sim.run_until(10)
    assert len(ran) == 6


def test_a_raise_at_the_end_of_a_bucket_leaves_nothing_behind():
    sim = Simulator(three_tier(), seed=0)
    ran: list[int] = []

    def boom() -> None:
        raise Boom

    sim.schedule(3, lambda: ran.append(3))
    sim.schedule(3, boom)
    sim.schedule(4, lambda: ran.append(4))
    with pytest.raises(Boom):
        sim.run_until(10)
    sim.run_until(10)
    assert ran == [3, 4]


class HeapScheduler:
    """The reference queue: one `(at, seq, fn)` heap entry per event."""

    def __init__(self) -> None:
        self.now = 0
        self._queue: list = []
        self._seq = itertools.count()

    def schedule(self, at: int, fn) -> None:
        if at < self.now:
            raise PastEventError(f"cannot schedule at t={at}, clock is {self.now}")
        heapq.heappush(self._queue, (at, next(self._seq), fn))

    def run_until(self, horizon: int) -> None:
        while self._queue and self._queue[0][0] <= horizon:
            at, _, fn = heapq.heappop(self._queue)
            self.now = at
            fn()


def replay_program(sim, starts, spawns, raising, horizons) -> list[tuple]:
    """Run one generated program on `sim` and log every firing as (event,
    now), every raise as ("raise", event) and every refused schedule.
    Event ids are handed out in firing order, so two queues that fire
    alike name their events alike."""
    log: list[tuple] = []
    next_id = itertools.count(len(starts))

    def event(eid: int):
        def fire() -> None:
            log.append((eid, sim.now))
            for delay in spawns[eid % len(spawns)] if eid < 150 else ():
                sim.schedule(sim.now + delay, event(next(next_id)))
            try:
                sim.schedule(sim.now - 1, event(-1))
            except PastEventError:
                log.append(("refused", eid))
            if eid in raising:
                raise Boom(eid)
        return fire

    for eid, at in enumerate(starts):
        sim.schedule(at, event(eid))
    for horizon in horizons:
        # Each raising event fires once, so a queue that reruns callbacks
        # shows as extra raises here rather than as a hang.
        for _ in range(len(raising) + 1):
            try:
                sim.run_until(horizon)
                break
            except Boom as exc:
                log.append(("raise", exc.args[0], sim.now))
        log.append(("horizon", horizon, sim.now))
    return log


@settings(max_examples=300, deadline=None)
@given(
    starts=st.lists(st.integers(1, 30), min_size=1, max_size=25),
    spawns=st.lists(st.lists(st.integers(0, 6), max_size=3), min_size=1, max_size=8),
    raising=st.sets(st.integers(0, 160), max_size=12),
    horizons=st.lists(st.integers(0, 60), min_size=1, max_size=4),
)
@example(starts=[5, 5, 5], spawns=[[0, 0], [], [1]], raising={1, 3}, horizons=[5, 4, 20])
def test_bucket_queue_fires_as_a_seq_heap_does(starts, spawns, raising, horizons):
    """The bucket queue fires every event at the time, in the order and with
    the clock a `(time, seq)` heap gives, across horizons and raises."""
    want = replay_program(HeapScheduler(), starts, spawns, raising, horizons)
    got = replay_program(Simulator(three_tier(), seed=0), starts, spawns, raising, horizons)
    assert got == want


def scripted_run(seed: int) -> str:
    sim = Simulator(three_tier(), seed=seed, config_digest="abc123")
    sink(sim, "fog1/monitor")
    sink(sim, "cloud/knowledge")
    sense = sim.channel("lamp1/lamp1", "fog1/monitor")
    inter = sim.channel("fog1/monitor", "cloud/knowledge")
    for t in range(0, 50, 10):
        sim.schedule(t, lambda: sim.send("sense", sense))
    sim.schedule(25, lambda: sim.send("inter", inter))
    return sim.run_until(1_000).to_jsonl()


def test_same_seed_gives_byte_identical_traces():
    assert scripted_run(42) == scripted_run(42)


def test_trace_times_never_decrease():
    sim = Simulator(three_tier(), seed=1)
    sink(sim, "cloud/knowledge")
    channel = sim.channel("fog1/monitor", "cloud/knowledge")
    for t in (30, 10, 20, 10):
        sim.schedule(t, lambda: sim.send("inter", channel))
    trace = sim.run_until(500)
    times = [json.loads(line)["t"] for line in trace.to_jsonl().splitlines()[1:]]
    assert len(times) == len(trace.events) == 8
    assert times == sorted(times)


def test_every_send_has_exactly_one_delivery():
    sim = Simulator(three_tier(), seed=9)
    sink(sim, "fog1/monitor")
    channel = sim.channel("lamp1/lamp1", "fog1/monitor")
    for t in range(0, 100, 7):
        sim.schedule(t, lambda: sim.send("sense", channel))
    trace = sim.run_until(10_000)
    sent = sorted(e["detail"]["id"] for e in trace.of_kind("send"))
    delivered = sorted(e["detail"]["id"] for e in trace.of_kind("deliver"))
    assert sent == delivered
    assert len(set(sent)) == len(sent)


def test_routing_prefers_lower_latency_then_lexicographic():
    topo = Topology(
        nodes=(
            Node("a", Tier.DEVICE),
            Node("fb", Tier.FOG),
            Node("fc", Tier.FOG),
            Node("cloud", Tier.CLOUD),
        ),
        links=(
            Link("a", "fb", 2),
            Link("a", "fc", 2),
            Link("fb", "cloud", 3),
            Link("fc", "cloud", 3),
        ),
    )
    assert topo.route("a", "cloud")[0] == ("a", "fb", "cloud")
    # A cheaper detour beats the tidy-looking route.
    faster = Topology(
        nodes=topo.nodes,
        links=(
            Link("a", "fb", 2),
            Link("a", "fc", 1),
            Link("fb", "cloud", 3),
            Link("fc", "cloud", 3),
        ),
    )
    assert faster.route("a", "cloud")[0] == ("a", "fc", "cloud")


@st.composite
def small_topologies(draw) -> Topology:
    """At most 6 nodes; each pair linked or not, latency 0-5, some jittered."""
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6,
                          unique=True))
    links = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if draw(st.booleans()):
                latency = draw(st.integers(0, 5))
                jitter = draw(st.integers(0, latency))
                ends = (a, b) if draw(st.booleans()) else (b, a)
                links.append(Link(*ends, latency, jitter))
    return Topology(tuple(Node(n, Tier.FOG) for n in names), tuple(links))


def simple_paths(topo: Topology, src: str, dst: str) -> list[tuple[str, ...]]:
    paths = []

    def extend(path: tuple[str, ...]) -> None:
        if path[-1] == dst:
            paths.append(path)
            return
        for link in topo.links:
            for here, there in ((link.a, link.b), (link.b, link.a)):
                if here == path[-1] and there not in path:
                    extend(path + (there,))

    extend((src,))
    return paths


@settings(max_examples=200)
@given(topo=small_topologies())
def test_route_is_the_cheapest_then_least_simple_path(topo: Topology):
    def link(a: str, b: str) -> Link:
        return next(l for l in topo.links if {l.a, l.b} == {a, b})

    def cost(path: tuple[str, ...]) -> int:
        return sum(link(a, b).latency_ms for a, b in zip(path, path[1:]))

    for src in topo.by_id:
        for dst in topo.by_id:
            paths = simple_paths(topo, src, dst)
            route = topo.route(src, dst)
            if not paths:
                assert route is None
                continue
            best = min(paths, key=lambda path: (cost(path), path))
            hops = [link(a, b) for a, b in zip(best, best[1:])]
            jitters = tuple(hop.jitter_ms for hop in hops if hop.jitter_ms)
            assert route == (best, cost(best), jitters)


def test_one_route_search_per_source_node(monkeypatch):
    """A search settles every node its source reaches, so validating and
    building a ten-office building, whose master's placement asks for a
    route from every device to every fog node, searches once per source."""
    search = Topology._search
    sources: list[str] = []

    def counted(topology: Topology, src: str):
        sources.append(src)
        return search(topology, src)

    monkeypatch.setattr(Topology, "_search", counted)
    scenario = parse_scenario(building_to_dict(build_smart_building(10, control="centralized"),
                                               name="ten"))
    assert validate_scenario(scenario).ok
    Runtime(scenario, seed=0)
    assert len(sources) == len(set(sources)) > 60


@settings(max_examples=50)
@given(seed=st.integers(0, 2**31), jitter=st.integers(0, 20))
def test_jitter_stays_within_bounds_and_is_causal(seed: int, jitter: int):
    topo = Topology(
        nodes=(Node("d", Tier.DEVICE), Node("f", Tier.FOG), Node("cloud", Tier.CLOUD)),
        links=(Link("d", "f", 20, jitter_ms=jitter), Link("f", "cloud", 50)),
    )
    sim = Simulator(topo, seed=seed)
    inbox = sink(sim, "f/monitor")
    channel = sim.channel("d/d", "f/monitor")
    for t in range(0, 200, 20):
        sim.schedule(t, lambda: sim.send("sense", channel))
    trace = sim.run_until(10_000)
    sent_at = {row["detail"]["id"]: row["t"] for row in trace.of_kind("send")}
    delivers = trace.of_kind("deliver")
    assert len(inbox) == len(delivers) == len(sent_at) == 10
    for (delivered, _), row in zip(inbox, delivers):
        sent = row["detail"]["sent"]
        assert row["t"] == delivered and sent == sent_at[row["detail"]["id"]]
        assert sent + 20 <= delivered <= sent + 20 + jitter


JITTER_SEED = 7
JITTER_HORIZON = 5_000
# sha256 prefix of the jittered run's `to_jsonl()`.
JITTER_TRACE = "81df20c395af777b"


def test_every_delivery_takes_base_latency_plus_the_replayed_jitter_draws():
    """Every link jitters by up to its latency, and a relay fog between fog1
    and the cloud gives apaas_split's fog-cloud sends two jittered hops. Each
    send draws `randint(0, j)` once per jittered hop of its route, in send
    order and path order, from `Random(seed)`."""
    data = with_offering(json.loads(ONE_OFFICE.read_text()), "apaas_split")
    topology = data["topology"]
    topology["nodes"].append({"id": "relay", "tier": "fog"})
    topology["links"] = [link for link in topology["links"] if link["b"] != "cloud"] + [
        {"a": "fog1", "b": "relay", "latency_ms": 2},
        {"a": "relay", "b": "cloud", "latency_ms": 48},
    ]
    for link in topology["links"]:
        link["jitter_ms"] = link["latency_ms"]
    scenario = parse_scenario(data)
    assert validate_scenario(scenario).ok
    trace = run_scenario(scenario, JITTER_SEED, JITTER_HORIZON).trace

    replay = random.Random(JITTER_SEED)
    expected: dict[int, int] = {}
    hops: dict[int, int] = {}
    for row in trace.of_kind("send"):
        _, base, jitters = scenario.topology.route(row["src"].partition("/")[0],
                                                   row["dst"].partition("/")[0])
        expected[row["detail"]["id"]] = base + sum(replay.randint(0, j) for j in jitters)
        hops[row["detail"]["id"]] = len(jitters)
    delivered = trace.of_kind("deliver")
    assert {hops[row["detail"]["id"]] for row in delivered} == {0, 1, 2}
    delays = [(row["t"] - row["detail"]["sent"], expected[row["detail"]["id"]])
              for row in delivered]
    assert [delay for delay, _ in delays] == [want for _, want in delays]
    assert len({delay for delay, _ in delays}) > 10
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()[:16]
    assert digest == JITTER_TRACE


def test_topology_validation_catches_structural_faults():
    report = Topology(
        nodes=(
            Node("d", Tier.DEVICE),
            Node("d", Tier.FOG),
            Node("c1", Tier.CLOUD),
            Node("c2", Tier.CLOUD),
            Node("fog/1", Tier.FOG),
        ),
        links=(Link("d", "c1", 5, jitter_ms=9), Link("x", "c1", 1), Link("d", "d", 1)),
    ).validate()
    messages = " | ".join(report.lines())
    assert "duplicate node id 'd'" in messages
    assert "node id 'fog/1' contains '/'" in messages
    assert "exactly one cloud node" in messages
    assert "jitter must not exceed latency" in messages
    assert "unknown endpoint 'x'" in messages
    assert "endpoints must differ" in messages


def test_topology_validation_requires_tier_connectivity():
    report = Topology(
        nodes=(
            Node("d", Tier.DEVICE),
            Node("f1", Tier.FOG),
            Node("f2", Tier.FOG),
            Node("cloud", Tier.CLOUD),
        ),
        links=(Link("f1", "cloud", 50),),
    ).validate()
    messages = " | ".join(report.lines())
    assert "reaches no fog node" in messages
    assert "fog 'f2' does not reach the cloud" in messages


def test_valid_three_tier_topology_is_clean():
    assert three_tier().validate().ok


# Strings that need escaping: quote, backslash, non-ASCII and control characters.
_TEXT = st.one_of(st.sampled_from(['"', "\\", "é", "\u2603", "\x00", "\n", "\x1f", "fog1/x"]),
                  st.text(max_size=3))
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                    st.floats(allow_nan=False), _TEXT)
_ADDRESSES = st.one_of(st.sampled_from(["fog1/office1.monitor", "cloud/k"]), _TEXT,
                       st.none())
_PATHS = st.one_of(st.tuples(_TEXT, _TEXT), st.lists(_TEXT, max_size=3).map(tuple),
                   st.lists(_TEXT, max_size=2), st.tuples(_TEXT, _VALUES))


@st.composite
def trace_rows(draw):
    """Well-formed send and deliver rows, or ones with one fault: a detail
    key dropped or added, or a field holding a value of another type."""
    kind = draw(st.sampled_from(["send", "deliver", "env"]))
    row = {"t": draw(st.integers(0, 10**9)), "src": draw(_ADDRESSES),
           "dst": draw(_ADDRESSES)}
    detail = {"id": draw(st.integers(0, 10**6)), "interaction": draw(_TEXT)}
    if kind != "send":
        detail["sent"] = draw(st.integers(0, 10**6))
        detail["path"] = draw(_PATHS)
    fault = draw(st.sampled_from(["none", "drop", "add", "retype"]))
    if fault == "drop":
        del detail[draw(st.sampled_from(sorted(detail)))]
    elif fault == "add":
        detail[draw(_TEXT)] = draw(_VALUES)
    elif fault == "retype":
        key = draw(st.sampled_from(["t", "src", "dst", *sorted(detail)]))
        (row if key in row else detail)[key] = draw(_VALUES)
    return row["t"], kind, row["src"], row["dst"], detail


@settings(max_examples=200)
@given(rows=st.lists(trace_rows(), min_size=1, max_size=4), shared=st.booleans(),
       typed=st.booleans())
@example(rows=[(1.5, "send", "a", "b", {"id": 1, "interaction": "x"}),
               (2, "send", "a", "b", {"id": True, "interaction": "x"}),
               (3, "deliver", "a", None, {"id": 2, "interaction": "x", "sent": False,
                                          "path": ("a", "b")}),
               (4, "deliver", "a", "b", {"id": 3, "interaction": "x", "sent": 1,
                                         "path": ["a", "b"], "extra": 1})],
         shared=False, typed=True)
@example(rows=[(1.5, "deliver", "a", "b", {"id": 1, "interaction": "x", "sent": 1,
                                           "path": ["a", "b"]}),
               (2, "deliver", "a", "b", {"id": 1, "interaction": "x", "sent": 1.0,
                                         "path": ("a", "b")}),
               (3, "send", "a", "b", {"id": 1, "interaction": "x", "extra": None})],
         shared=False, typed=True)
def test_jsonl_lines_equal_json_dumps(rows, shared, typed):
    route = ("dev", "fog1", "cloud")
    for _, _, _, _, detail in rows:
        if shared and "path" in detail:
            detail["path"] = route
    assert_lines_equal_json_dumps(rows, typed)


SEND_KEYS = {"id", "interaction"}
DELIVER_KEYS = {"id", "interaction", "sent", "path"}


def feed(trace: EventTrace, row, typed: bool = True) -> None:
    """Hand `row` to `trace`. With `typed`, a `send` or `deliver` row with
    its usual detail keys goes through `sent` or `delivered`, as a run hands
    it; every other row, and every row without `typed`, through `append`."""
    t, kind, src, dst, detail = row
    if typed and kind == "send" and detail.keys() == SEND_KEYS:
        trace.sent(t, src, dst, detail["id"], detail["interaction"])
    elif typed and kind == "deliver" and detail.keys() == DELIVER_KEYS:
        trace.delivered(t, src, dst, detail["id"], detail["interaction"],
                        detail["sent"], detail["path"])
    else:
        trace.append(*row)


def as_dict(row) -> dict:
    t, kind, src, dst, detail = row
    return {"t": t, "kind": kind, "src": src, "dst": dst, "detail": detail}


def assert_lines_equal_json_dumps(rows, typed: bool = True) -> None:
    """Each line of the trace fed `rows` equals `json.dumps` of the dict
    built from its input row."""
    trace = EventTrace(header={"kind": "header", "seed": 1, "nodes": {"a\u00e9": "fog"}})
    for row in rows:
        feed(trace, row, typed)
    assert len(trace.events) == len(rows)
    text = trace.to_jsonl()
    lines = text.split("\n")
    assert lines[-1] == ""
    expected = [trace.header, *map(as_dict, rows)]
    assert len(lines) - 1 == len(expected)
    for line, row in zip(lines, expected):
        assert line == json.dumps(row, sort_keys=True, separators=(",", ":"))
    for kind in {row[1] for row in rows}:
        assert trace.of_kind(kind) == [row for row in expected[1:] if row["kind"] == kind]


def send_row(interaction, src="a/x"):
    return (1, "send", src, "b/y", {"id": 1, "interaction": interaction})


def deliver_row(path, interaction="x", src="a/x"):
    return (2, "deliver", src, "b/y",
            {"id": 1, "interaction": interaction, "sent": 1, "path": path})


MONITOR = "fog1/office1.monitor"
# Equal to MONITOR, but another object.
MONITOR_COPY = "".join(["fog1/", "office1.monitor"])


# Rows whose shared parts are equal, and hash alike, but encode differently:
# the writer may share encoded text only between rows whose parts encode alike.
@pytest.mark.parametrize("rows", [
    [send_row(1), send_row(True), send_row(1.0)],
    [send_row(0.0), send_row(-0.0), send_row(False), send_row(0)],
    [deliver_row(("a", "b"), 1), deliver_row(("a", "b"), True),
     deliver_row(("a", "b"), 1.0)],
    [deliver_row(("a", 0.0)), deliver_row(("a", -0.0))],
    [deliver_row(("a", -0.0)), deliver_row(("a", 0.0))],
    [deliver_row(("a", 1)), deliver_row(("a", 1.0)), deliver_row(("a", True))],
    [deliver_row(["a", "b"]), deliver_row(("a", "b")), deliver_row(["a", "b"])],
    [send_row("x", MONITOR), send_row("x", MONITOR_COPY),
     deliver_row(("a",), src=MONITOR), deliver_row(("a",), src=MONITOR_COPY)],
], ids=["interaction-1-True-1.0", "interaction-signed-zeros", "deliver-interaction",
        "path-0.0-then-minus", "path-minus-then-0.0", "path-1-1.0-True", "list-path",
        "equal-addresses"])
def test_rows_equal_by_value_keep_their_own_encoding(rows):
    assert MONITOR_COPY == MONITOR and MONITOR_COPY is not MONITOR
    assert_lines_equal_json_dumps(rows)


@pytest.mark.parametrize("rows", [0, 2, 3, 4, 6, 7])
def test_write_equals_to_jsonl_at_chunk_boundaries(rows, tmp_path, monkeypatch):
    monkeypatch.setattr(simnet, "_ROWS_PER_CHUNK", 3)
    route = ("a", "b")
    # Templated rows alternate with rows that go through the encoder.
    pool = [(1, "send", "a", "b", {"id": 1, "interaction": "x"}),
            (1.5, "send", "a", "b", {"id": 1, "interaction": "x"}),
            (2, "deliver", "a", "b", {"id": 1, "interaction": "x", "sent": 1,
                                      "path": route}),
            (2, "send", "a", "b", {"id": True, "interaction": "x"}),
            (3, "send", "a\u00e9", None, {"id": 2, "interaction": "x"}),
            (3, "deliver", "a", None, {"id": 2, "interaction": "x", "sent": False,
                                       "path": route}),
            (4, "deliver", "a", "b", {"id": 2, "interaction": "x", "sent": 3,
                                      "path": route})]
    trace = EventTrace(header={"kind": "header", "seed": 1, "nodes": {"a\u00e9": "fog"}})
    for row in pool[:rows]:
        feed(trace, row)
    path = tmp_path / "trace.jsonl"
    trace.write(str(path))
    text = trace.to_jsonl()
    assert path.read_bytes() == text.encode("utf-8")
    assert text.split("\n") == [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in (trace.header, *map(as_dict, pool[:rows]))] + [""]


def test_write_memory_does_not_grow_with_the_trace(tmp_path):
    route = ("dev", "fog1", "cloud")

    def peak(rows: int) -> int:
        tracemalloc.start()
        try:
            # Send and deliver rows sharing addresses and a route, as a run's do.
            trace = EventTrace(header={"kind": "header", "seed": 1})
            for i in range(rows // 2):
                trace.append(2 * i, "send", "dev/a", "cloud/k",
                             {"id": i, "interaction": "read"})
                trace.append(2 * i + 1, "deliver", "dev/a", "cloud/k",
                             {"id": i, "interaction": "read", "sent": 2 * i, "path": route})
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace.write(str(tmp_path / "trace.jsonl"))
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 1.5 * peak(10_000)


class KeepsNoMessageRows(EventTrace):
    """The default sink without its `send` and `deliver` rows."""

    def append(self, t, kind, src, dst, detail):
        if kind not in ("send", "deliver"):
            super().append(t, kind, src, dst, detail)

    def sent(self, *row):
        pass

    def delivered(self, *row):
        pass


def test_message_rows_are_small_and_untracked():
    scenario = parse_scenario(json.loads(ONE_OFFICE.read_text()))

    def held(sink) -> tuple[int, EventTrace]:
        """Traced memory a run's trace holds after a collection, and the trace."""
        gc.collect()
        tracemalloc.start()
        try:
            trace = run_scenario(scenario, seed=1, horizon=120_000, sink=sink).trace
            gc.collect()
            return tracemalloc.get_traced_memory()[0], trace
        finally:
            tracemalloc.stop()

    run_scenario(scenario, seed=1, horizon=120_000)  # fills one-off caches untraced
    without, _ = held(KeepsNoMessageRows)
    with_rows, trace = held(EventTrace)
    messages = len(trace.of_kind("send")) + len(trace.of_kind("deliver"))
    assert messages > 3_000
    # Room for a flat tuple and its own ints (about 140 B), not for a dict per row.
    assert with_rows - without <= 200 * messages
    gc.collect()
    assert not [row for row in trace.events if row[1] in ("send", "deliver")
                and gc.is_tracked(row)]
