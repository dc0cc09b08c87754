"""Deterministic discrete-event core: virtual clock, tiered topology, messages.

Virtual time is integer milliseconds. The event loop is single-threaded;
ties at the same timestamp run in insertion order, so a run is a pure
function of (scenario, seed). Components never share memory: everything
crosses the scheduler as a message, a (kind, payload) pair sent on a
channel and handed to the destination's handler when it arrives. A
component's address is the text `node/component`; the trace and the handler
registry key on it, and a channel is routed from the node it names.

Events pile onto few distinct times, so the queue is a bucket queue: one
FIFO list of callbacks per pending time, under a heap of those times. A
tie needs no sequence number, and the heap moves once per time, not once
per event.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Protocol

from fogloop.errors import ConfigError, FogloopError
from fogloop.model import ValidationReport


class Tier(str, Enum):
    DEVICE = "device"
    FOG = "fog"
    CLOUD = "cloud"


class PastEventError(FogloopError):
    """An event was scheduled before the current clock."""


@dataclass(frozen=True)
class Node:
    id: str
    tier: Tier


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    latency_ms: int
    jitter_ms: int = 0


# (path, summed link latency, jitter bound of each jittered hop in path order)
Route = tuple[tuple[str, ...], int, tuple[int, ...]]


class Topology:
    """Nodes and links, and the node each device service runs on: `hosts`
    maps service to node id, built from the scenario's `devices` entries."""

    def __init__(self, nodes: tuple[Node, ...], links: tuple[Link, ...],
                 hosts: Mapping[str, str] = {}):
        self.nodes = nodes
        self.links = links
        self.hosts = dict(hosts)
        self.by_id = {n.id: n for n in nodes}
        self._adjacent: dict[str, list[tuple[str, Link]]] = {n.id: [] for n in nodes}
        for link in links:
            if link.a in self.by_id and link.b in self.by_id:
                self._adjacent[link.a].append((link.b, link))
                self._adjacent[link.b].append((link.a, link))
        for peers in self._adjacent.values():
            peers.sort(key=lambda pair: pair[0])
        # Source -> the route to every node it reaches, from one search.
        self._routes: dict[str, dict[str, Route]] = {}

    def host_of(self, service: str) -> str | None:
        return self.hosts.get(service)

    def route(self, src: str, dst: str) -> Route | None:
        """The minimum-latency path src..dst inclusive, with its summed link
        latency and the jitter bound of each jittered hop, in path order.
        Latency ties are broken by lexicographic node-id order. None when
        unreachable."""
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes[src] = self._search(src)
        return routes.get(dst)

    def _search(self, src: str) -> dict[str, Route]:
        """The route from `src` to every node it reaches. A node's first pop
        is its least (cost, path), which is the tie rule, so one search
        serves every destination."""
        routes: dict[str, Route] = {}
        if src not in self.by_id:
            return routes
        # (cost, path, jitters): paths are unique, so jitters never break a tie.
        frontier: list[tuple[int, tuple[str, ...], tuple[int, ...]]] = [(0, (src,), ())]
        while frontier:
            cost, path, jitters = heapq.heappop(frontier)
            here = path[-1]
            if here in routes:
                continue
            routes[here] = path, cost, jitters
            for neighbor, link in self._adjacent[here]:
                if neighbor not in routes:
                    heapq.heappush(frontier, (
                        cost + link.latency_ms,
                        path + (neighbor,),
                        jitters + (link.jitter_ms,) if link.jitter_ms else jitters,
                    ))
        return routes

    def validate(self) -> ValidationReport:
        """Structural checks; violations are reported, never raised."""
        report = ValidationReport()
        seen: set[str] = set()
        for ni, node in enumerate(self.nodes):
            if node.id in seen:
                report.add(f"nodes[{ni}]", f"duplicate node id '{node.id}'")
            seen.add(node.id)
            # An address is the text `node/component`: the trace and the
            # handler registry key on it and `Simulator.channel` routes from
            # its node, the text before the first '/', so no node id has one.
            if "/" in node.id:
                report.add(f"nodes[{ni}]", f"node id '{node.id}' contains '/'")
        clouds = [n for n in self.nodes if n.tier is Tier.CLOUD]
        if len(clouds) != 1:
            report.add("nodes", f"exactly one cloud node required, found {len(clouds)}")

        pairs: set[frozenset[str]] = set()
        for li, link in enumerate(self.links):
            path = f"links[{li}]"
            for end in (link.a, link.b):
                if end not in self.by_id:
                    report.add(path, f"unknown endpoint '{end}'")
            if link.a == link.b:
                report.add(path, "link endpoints must differ")
            pair = frozenset((link.a, link.b))
            if pair in pairs:
                report.add(path, f"duplicate link between '{link.a}' and '{link.b}'")
            pairs.add(pair)
            if link.latency_ms < 0:
                report.add(path, "latency must be >= 0")
            if link.jitter_ms < 0:
                report.add(path, "jitter must be >= 0")
            elif link.jitter_ms > link.latency_ms:
                report.add(path, "jitter must not exceed latency")

        if not report.ok:
            return report
        for ni, node in enumerate(self.nodes):
            if node.tier is Tier.DEVICE:
                if not any(
                    self.route(node.id, fog.id)
                    for fog in self.nodes
                    if fog.tier is Tier.FOG
                ):
                    report.add(f"nodes[{ni}]", f"device '{node.id}' reaches no fog node")
            elif node.tier is Tier.FOG and clouds:
                if self.route(node.id, clouds[0].id) is None:
                    report.add(f"nodes[{ni}]", f"fog '{node.id}' does not reach the cloud")
        return report


class TraceSink(Protocol):
    """Where a simulator's events go. A sink is built from the run header,
    which `run_until` completes with the horizon, and is handed each event
    as it is emitted: a `send` row through `sent`, a `deliver` row through
    `delivered` or `append`, and every other row through `append`."""

    header: dict[str, Any]

    def append(self, t: int, kind: str, src: str | None, dst: str | None,
               detail: dict[str, Any]) -> None: ...

    def sent(self, t: int, src: str, dst: str, id: int, interaction: str) -> None: ...

    def delivered(self, t: int, src: str, dst: str, id: int, interaction: str,
                  sent: int, path: tuple[str, ...]) -> None: ...


# Builds a run's sink from its header: `EventTrace` or `metrics.MetricsFold`.
SinkFactory = Callable[[dict[str, Any]], TraceSink]

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The detail keys of the rows `EventTrace.append` keeps as message rows.
_SEND_KEYS = frozenset(("id", "interaction"))
_DELIVER_KEYS = frozenset(("id", "interaction", "sent", "path"))
# Rows per block of text `EventTrace.write` hands to the file: writing adds
# at most one block to the memory the rows already hold.
_ROWS_PER_CHUNK = 4096


def _shareable(values: tuple[Any, ...]) -> bool:
    """True if each value is a str or None, whose every equal value encodes
    alike. Numbers do not qualify: `1 == True == 1.0` and `0.0 == -0.0`
    hash alike but encode differently."""
    return all(value is None or type(value) is str for value in values)


def _as_dict(row: tuple[Any, ...]) -> dict[str, Any]:
    """The dict view of a kept row, the object its trace line encodes."""
    if len(row) == 6:
        detail = {"id": row[4], "interaction": row[5]}
    elif len(row) == 8:
        detail = {"id": row[4], "interaction": row[5], "sent": row[6], "path": row[7]}
    else:
        detail = row[4]
    return {"t": row[0], "kind": row[1], "src": row[2], "dst": row[3], "detail": detail}


@dataclass
class EventTrace:
    """Append-only run record: one header plus one row per event.

    A `send` row is kept as the tuple `(t, "send", src, dst, id,
    interaction)`, a `deliver` row as `(t, "deliver", src, dst, id,
    interaction, sent, path)` and every other row as `(t, kind, src, dst,
    detail)`. A message row holds no dict, so it is small and, once the
    collector has seen it, untracked. `len(events)` counts rows; `of_kind`
    gives their dict view."""

    header: dict[str, Any]
    events: list[tuple[Any, ...]] = field(default_factory=list)

    def append(self, t: int, kind: str, src: str | None, dst: str | None,
               detail: dict[str, Any]) -> None:
        # `_deliver` emits its row through `emit`, where perfbench counts
        # fog-to-cloud hops. Once ROADMAP item 1 counts from the sink,
        # `_deliver` calls `delivered` directly and this check goes.
        if kind == "deliver" and detail.keys() == _DELIVER_KEYS:
            self.delivered(t, src, dst, detail["id"], detail["interaction"],
                           detail["sent"], detail["path"])
        elif kind == "send" and detail.keys() == _SEND_KEYS:
            self.sent(t, src, dst, detail["id"], detail["interaction"])
        else:
            self.events.append((t, kind, src, dst, detail))

    def sent(self, t: int, src: str, dst: str, id: int, interaction: str) -> None:
        self.events.append((t, "send", src, dst, id, interaction))

    def delivered(self, t: int, src: str, dst: str, id: int, interaction: str,
                  sent: int, path: tuple[str, ...]) -> None:
        self.events.append((t, "deliver", src, dst, id, interaction, sent, path))

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [_as_dict(row) for row in self.events if row[1] == kind]

    def tally(self, append: Callable[..., None]) -> tuple[dict[Any, int], dict[Any, int]]:
        """Count `send` rows by interaction and `deliver` rows by (interaction,
        path), keys as first seen; hand every other row to `append` in order."""
        sends: dict[Any, int] = {}
        delivers: dict[Any, int] = {}
        for row in self.events:
            if len(row) == 8:
                key = row[5], row[7]
                delivers[key] = delivers.get(key, 0) + 1
            elif len(row) == 6:
                sends[row[5]] = sends.get(row[5], 0) + 1
            else:
                append(*row)
        return sends, delivers

    def to_jsonl(self) -> str:
        """The header, then one line per row; each line equals
        `json.dumps(row, sort_keys=True, separators=(",", ":"))` of the
        row's dict view."""
        return "".join(self._chunks())

    def write(self, path: str) -> None:
        """Write `to_jsonl()` to `path` one chunk at a time."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._chunks())

    def _chunks(self) -> Iterator[str]:
        """The header line, then blocks of at most `_ROWS_PER_CHUNK` lines,
        each ending in a newline.

        A message row with integer times and ids is its integers around text
        it shares with every row of equal interaction, addresses and (for
        `deliver`) path. That text is encoded once per pass and found with
        one lookup keyed by those values. Only keys whose every value
        encodes like anything equal to it make an entry (see `_shareable`).
        Every other row is encoded from its dict view."""
        encode = _ENCODER.encode
        # (interaction, dst, src) -> the text between a send's id and t.
        sends: dict[tuple[Any, ...], str] = {}
        # (interaction, path, dst, src) -> the texts between a deliver's id
        # and sent, and between its sent and t.
        delivers: dict[tuple[Any, ...], tuple[str, str]] = {}

        def line(row: tuple[Any, ...]) -> str:
            if len(row) == 6:
                t, _, src, dst, msg_id, interaction = row
                if type(t) is int and type(msg_id) is int:
                    key = (interaction, dst, src)
                    try:
                        mid = sends.get(key)
                    except TypeError:  # an unhashable key part
                        return encode(_as_dict(row))
                    if mid is None:
                        if not _shareable(key):
                            return encode(_as_dict(row))
                        mid = sends[key] = (
                            f',"interaction":{encode(interaction)}}},"dst":{encode(dst)},'
                            f'"kind":"send","src":{encode(src)},"t":')
                    return f'{{"detail":{{"id":{msg_id}{mid}{t}}}'
            elif len(row) == 8:
                t, _, src, dst, msg_id, interaction, sent, path = row
                if type(t) is int and type(msg_id) is int and type(sent) is int:
                    key = (interaction, path, dst, src)
                    try:
                        texts = delivers.get(key)
                    except TypeError:  # an unhashable key part, such as a list path
                        return encode(_as_dict(row))
                    if texts is None:
                        if type(path) is not tuple \
                                or not _shareable((interaction, *path, dst, src)):
                            return encode(_as_dict(row))
                        texts = delivers[key] = (
                            f',"interaction":{encode(interaction)},"path":{encode(path)},'
                            f'"sent":',
                            f'}},"dst":{encode(dst)},"kind":"deliver","src":{encode(src)},'
                            f'"t":')
                    head, tail = texts
                    return f'{{"detail":{{"id":{msg_id}{head}{sent}{tail}{t}}}'
            return encode(_as_dict(row))

        yield encode(self.header) + "\n"
        events, step = self.events, _ROWS_PER_CHUNK
        for start in range(0, len(events), step):
            yield "\n".join([line(row) for row in events[start:start + step]]) + "\n"


# Called with a delivered message's (kind, payload).
Handler = Callable[[str, Any], None]


class Channel(NamedTuple):
    """One way from a source address to a destination address, resolved
    once by `Simulator.channel`: the two addresses, the route's path, its
    summed link latency, the jitter bound of each jittered hop in path
    order, and the handler registered at the destination."""

    src: str
    dst: str
    path: tuple[str, ...]
    latency: int
    jitters: tuple[int, ...]
    handler: Handler


class Simulator:
    """Single-threaded event loop over a topology.

    An address is the text `node/component`, e.g. `fog1/office1.analyze`;
    node ids hold no '/'. Handlers are registered per address. `channel`
    resolves a (source, destination) pair once, when a run is built, into a
    `Channel` holding the route between the two addresses' nodes and the
    destination's handler; a pair with no route or no handler is a
    `ConfigError` there, so no message can fail in flight.
    `send` puts a (kind, payload) message on a channel, schedules its
    delivery and returns its id; the delivery calls the handler with
    `(kind, payload)`. `schedule` runs arbitrary callbacks at a future tick
    (timers, periodic sampling). Everything lands in the trace, a sink
    built by `sink` from the run header: an `EventTrace` keeps every row.

    The queue is `_buckets`, each pending time's callbacks in the order they
    were scheduled, and `_times`, a heap of those times, each once. Callbacks
    run in (time, order scheduled) order, as a heap of (time, seq) entries
    would run them.

    `send` hands its row to the sink's `sent` with no detail dict, the
    cheapest path for the most frequent row. The `deliver` row and every
    other row go through `emit`, where perfbench counts outcomes (see
    `_deliver`).
    """

    def __init__(self, topology: Topology, seed: int, config_digest: str = "",
                 sink: SinkFactory = EventTrace):
        for node in topology.nodes:
            if "/" in node.id:
                raise ConfigError(f"node id '{node.id}' contains '/'")
        self.topology = topology
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        self._times: list[int] = []
        # The id of the last message sent; ids count from 1.
        self._last_id = 0
        self._handlers: dict[str, Handler] = {}
        self.trace = sink({
            "kind": "header",
            "seed": seed,
            "config_digest": config_digest,
            "horizon": None,
            "nodes": {n.id: n.tier.value for n in topology.nodes},
        })

    def register(self, address: str, handler: Handler) -> None:
        self._handlers[address] = handler

    def emit(self, kind: str, src: str | None = None, dst: str | None = None, /,
             **detail: Any) -> None:
        self.trace.append(self.now, kind, src, dst, detail)

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        """Run `fn` at time `at`, after every callback already scheduled
        for `at`. Only the first callback of a time touches the heap."""
        if at < self.now:
            raise PastEventError(f"cannot schedule at t={at}, clock is {self.now}")
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [fn]
            heapq.heappush(self._times, at)
        else:
            bucket.append(fn)

    def channel(self, src: str, dst: str) -> Channel:
        """The channel from address `src` to address `dst`, routed between
        their nodes and taking its handler from the registry, so register
        every handler first."""
        route = self.topology.route(src.partition("/")[0], dst.partition("/")[0])
        if route is None:
            raise ConfigError(f"no route from '{src}' to '{dst}'")
        handler = self._handlers.get(dst)
        if handler is None:
            raise ConfigError(f"no handler at '{dst}' for messages from '{src}'")
        path, latency, jitters = route
        return Channel(src, dst, path, latency, jitters, handler)

    def send(self, kind: str, channel: Channel, payload: Any = None) -> int:
        latency = channel.latency
        for jitter in channel.jitters:
            # `randint(0, jitter)`'s draw, by `Random._randbelow`'s loop without
            # its frames; tests/test_simnet.py replays the draws with `randint`.
            bits = (jitter + 1).bit_length()
            draw = self.rng.getrandbits(bits)
            while draw > jitter:
                draw = self.rng.getrandbits(bits)
            latency += draw
        now = self.now
        msg_id = self._last_id = self._last_id + 1
        self.trace.sent(now, channel.src, channel.dst, msg_id, kind)
        self.schedule(now + latency, partial(self._deliver, channel, msg_id, kind, payload, now))
        return msg_id

    def _deliver(self, channel: Channel, msg_id: int, kind: str, payload: Any,
                 sent: int) -> None:
        # Through `emit`, unlike `send`'s row: perfbench counts fog-to-cloud
        # hops from the `deliver` rows passed to `emit`. Once it counts from
        # the sink (ROADMAP item 1), this calls `self.trace.delivered`.
        self.emit(
            "deliver",
            channel.src,
            channel.dst,
            id=msg_id,
            interaction=kind,
            sent=sent,
            path=channel.path,
        )
        channel.handler(kind, payload)

    def run_until(self, horizon: int) -> TraceSink:
        """Process every event with time <= horizon, in (time, order
        scheduled) order.

        Each time's bucket leaves the queue before it runs, so a callback
        that schedules at the current time starts a new bucket there, which
        runs right after this one. If a callback raises, only it is lost:
        the rest of its bucket goes back at that time, ahead of any bucket
        the callbacks started there, and the exception propagates."""
        self.trace.header["horizon"] = horizon
        buckets, times, pop = self._buckets, self._times, heapq.heappop
        while times and times[0] <= horizon:
            at = pop(times)
            self.now = at
            pending = iter(buckets.pop(at))
            try:
                for fn in pending:
                    fn()
            except BaseException:
                rest = list(pending)
                if rest:
                    started = buckets.get(at)
                    if started is None:
                        buckets[at] = rest
                        heapq.heappush(times, at)
                    else:
                        buckets[at] = rest + started
                raise
        return self.trace
