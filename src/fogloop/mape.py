"""MAPE-K building blocks: knowledge base, rule-based analyzer, planner, executor.

The analyzer is a deterministic event-condition-action engine: a policy
fires when every condition holds over the knowledge base's latest values
and its cooldown has elapsed. Analysis is pure: re-trigger state (the
last-raised map) is owned by the caller and passed in explicitly. A
`PolicyIndex` spares analysis the policies that cannot fire yet: those no
new value since their last check can make fire, until the cooldown or
`elapsed_since` deadline they wait for comes. Value types are checked once,
by `validate_scenario`, so nothing here checks them again.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from fogloop.errors import FogloopError


class StaleObservationError(FogloopError):
    """An observation's timestamp regressed within its stream."""


class UnknownTouchpointError(FogloopError):
    """Sampling was requested for an unregistered (service, parameter)."""


class UnknownPolicyError(FogloopError):
    """A symptom references a policy the planner does not know."""


class DoubleDispatchError(FogloopError):
    """A plan was executed a second time."""


class Observation(NamedTuple):
    """One reading of a stream. A tuple, because every sample builds one:
    `Monitor.sample` builds it with `_observation`, in C."""

    service: str
    parameter: str
    value: Any
    timestamp: int


class KbEntry(NamedTuple):
    """Latest value of one stream. `since` is when this value first appeared,
    so unchanged periodic samples refresh `timestamp` but not `since`. A tuple,
    because every put builds one: `KnowledgeBase.put` builds it with
    `_kb_entry`, in C."""

    value: Any
    timestamp: int
    since: int


# Each builds its class from one tuple of all its fields, as `_make` does,
# without the namedtuple's Python-level `__new__`: the tuple is the same.
_observation = partial(tuple.__new__, Observation)
_kb_entry = partial(tuple.__new__, KbEntry)


class KnowledgeBase:
    def __init__(self) -> None:
        self.latest: dict[tuple[str, str], KbEntry] = {}

    def get(self, service: str, parameter: str) -> KbEntry | None:
        return self.latest.get((service, parameter))

    def put(self, obs: Observation) -> None:
        key = (obs.service, obs.parameter)
        entry = self.latest.get(key)
        if entry is not None and obs.timestamp < entry.timestamp:
            raise StaleObservationError(
                f"{obs.service}.{obs.parameter}: t={obs.timestamp} after t={entry.timestamp}"
            )
        since = entry.since if entry is not None and entry.value == obs.value else obs.timestamp
        self.latest[key] = _kb_entry((obs.value, obs.timestamp, since))


class Comparator(str, Enum):
    LT = "<"
    LE = "<="
    EQ = "=="
    NE = "!="
    GE = ">="
    GT = ">"


_COMPARE: dict[Comparator, Callable[[Any, Any], bool]] = {
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
    Comparator.GE: operator.ge,
    Comparator.GT: operator.gt,
}


@dataclass(frozen=True)
class ThresholdCondition:
    service: str
    parameter: str
    comparator: Comparator
    threshold: Any

    def holds_from(self, entry: KbEntry) -> float | None:
        """Always or never: a threshold does not depend on time."""
        return -math.inf if _COMPARE[self.comparator](entry.value, self.threshold) else None


@dataclass(frozen=True)
class ElapsedSinceCondition:
    """Holds once `parameter` has kept `value` for at least `duration_ms`."""

    service: str
    parameter: str
    value: Any
    duration_ms: int

    def holds_from(self, entry: KbEntry) -> int | None:
        """The deadline `since + duration_ms` while `entry` shows `value`."""
        if entry.value != self.value:
            return None
        return entry.since + self.duration_ms


# A condition reads the latest entry of one (service, parameter) stream.
# `holds_from(entry)` is the earliest time it holds while that entry is the
# latest, or None if it cannot hold.
Condition = ThresholdCondition | ElapsedSinceCondition


@dataclass(frozen=True)
class PlannedAction:
    service: str
    command: str
    argument: Any = None


@dataclass(frozen=True)
class Policy:
    name: str
    when: tuple[Condition, ...]
    then: tuple[PlannedAction, ...]
    cooldown_ms: int = 0


@dataclass(frozen=True)
class Symptom:
    """A policy that fired. `base_ts` is when its cause arose: the latest,
    over its conditions, of the entry's timestamp and the time the condition
    began to hold, so an `elapsed_since` deadline counts as a cause. Decision
    latency is measured from there to the actuation taking effect."""

    policy: str
    base_ts: int


@dataclass(frozen=True)
class AdaptationPlan:
    plan_id: str
    symptom: Symptom
    actions: tuple[PlannedAction, ...]
    # The peer round that decided this sub-plan, if any.
    round: str | None = None


def analyze(
    kb: KnowledgeBase,
    policies: Iterable[Policy],
    now: int,
    last_raised: Mapping[str, int] | None = None,
    blocked: list[tuple[Policy, Condition | None, int | None]] | None = None,
) -> list[Symptom]:
    """One symptom per policy whose conditions all hold and whose cooldown has
    elapsed. Evaluation follows declaration order and stops at the first
    condition that does not hold; the KB's entries are never changed.

    Conditions compare values as they stand. `validate_scenario` checks
    once that every stream holds one type and that every condition fits
    it; policies and values that skipped validation are the caller's to
    vouch for.

    If `blocked` is given, it receives `(policy, condition, until)` for every
    policy that does not fire: what stopped it and the earliest time it can
    fire while the streams it read keep their values.
    - In cooldown: `(policy, None, last + cooldown_ms)`.
    - At a condition that cannot hold while its stream's latest entry
      stands (no entry, or `holds_from` is None): `(policy, condition, None)`.
    - At an `elapsed_since` deadline still ahead: `(policy, condition,
      deadline)`."""
    last_raised = last_raised or {}
    latest = kb.latest
    symptoms: list[Symptom] = []
    for policy in policies:
        last = last_raised.get(policy.name)
        if last is not None and now - last < policy.cooldown_ms:
            if blocked is not None:
                blocked.append((policy, None, last + policy.cooldown_ms))
            continue
        base = -math.inf
        for cond in policy.when:
            entry = latest.get((cond.service, cond.parameter))
            start = None if entry is None else cond.holds_from(entry)
            if start is None or start > now:
                if blocked is not None:
                    blocked.append((policy, cond, start))
                break
            base = max(base, entry.timestamp, start)
        else:
            symptoms.append(Symptom(policy.name, base if policy.when else now))
    return symptoms


class PolicyIndex:
    """The policies of one loop that analysis must check.

    A policy sleeps once `analyze` reports it blocked. It wakes on whichever
    comes first: a new value under which its blocking condition holds, or
    the time `analyze` reported, which `due` passes on. Until then checking
    it cannot fire it: a condition's verdict depends only on its stream's
    value, of which only equality counts on a stream of one type, on
    `since`, which moves only with the value, and on the time; a cooldown
    depends only on the time. The conditions before the blocking one need
    no watch: while the blocking one cannot hold the policy cannot fire,
    and waking checks them all again. Waking a policy early is always safe,
    since analysis is pure. Only a policy that just fired stays live until
    the next analysis. `live` keeps declaration order, so
    `analyze(kb, index.due(now), ...)` returns what it would over every
    policy.

    State is keyed by policy name, which validation makes unique within a
    loop, so the index is plain data that survives a pickle. A sleeping
    policy watches at most one stream, and holds at most one pending
    `(time, name)` wake, kept sorted. `next_wake` is the earliest pending
    wake time, or `math.inf` when none is pending, so a caller learns in
    O(1) that `due(now)` can wake nothing: when `live` is empty and
    `next_wake > now`, `due` returns `[]` and changes nothing.
    """

    def __init__(self, policies: Iterable[Policy]) -> None:
        self.policies = tuple(policies)
        self.live = list(self.policies)
        self._asleep: set[str] = set()
        # Stream -> the name of each policy asleep on it, with the condition
        # a new value there must satisfy to wake it.
        self._sleepers: dict[tuple[str, str], dict[str, Condition]] = {}
        # Policy name -> the stream it watches.
        self._watching: dict[str, tuple[str, str]] = {}
        self._wakes: list[tuple[int, str]] = []
        self.next_wake: float = math.inf

    def _wake(self, names: Iterable[str]) -> None:
        for name in names:
            self._asleep.discard(name)
            key = self._watching.pop(name, None)
            if key is not None:
                del self._sleepers[key][name]
        self.live = [p for p in self.policies if p.name not in self._asleep]

    def put(self, key: tuple[str, str], before: KbEntry | None, value: Any) -> None:
        """Stream `key` took `value`; `before` is the entry it replaced."""
        if before is not None and before.value == value:
            return
        sleepers = self._sleepers.get(key)
        if sleepers:
            entry = KbEntry(value, 0, 0)
            woken = [name for name, cond in sleepers.items()
                     if cond.holds_from(entry) is not None]
            if woken:
                self._wake(woken)

    def due(self, now: int) -> list[Policy]:
        """Wake every policy whose time has come by `now`; the live policies."""
        if self.next_wake <= now:
            wakes = self._wakes
            count = bisect.bisect_right(wakes, now, key=operator.itemgetter(0))
            self._wake(name for _, name in wakes[:count])
            del wakes[:count]
            self.next_wake = wakes[0][0] if wakes else math.inf
        return self.live

    def sleep(self, blocked: list[tuple[Policy, Condition | None, int | None]]) -> None:
        """Put to sleep the live policies `analyze` reported in `blocked`."""
        names = {policy.name for policy, _, _ in blocked}
        wakes = [wake for wake in self._wakes if wake[1] not in names]
        for policy, cond, until in blocked:
            name = policy.name
            self._asleep.add(name)
            if cond is not None:
                key = self._watching[name] = (cond.service, cond.parameter)
                self._sleepers.setdefault(key, {})[name] = cond
            if until is not None:
                wakes.append((until, name))
        wakes.sort()
        self._wakes = wakes
        self.next_wake = wakes[0][0] if wakes else math.inf
        self.live = [p for p in self.policies if p.name not in self._asleep]


Reader = Callable[[], Any]


class Monitor:
    """Sensor-side touchpoint registry: read a device value, stamp the clock.

    A reading is not type-checked: validation holds every declared parameter
    to the type its device kind reads."""

    def __init__(self) -> None:
        self._readers: dict[tuple[str, str], Reader] = {}

    def register_touchpoint(self, service: str, parameter: str, reader: Reader) -> None:
        self._readers[(service, parameter)] = reader

    def sample(self, service: str, parameter: str, now: int) -> Observation:
        try:
            reader = self._readers[(service, parameter)]
        except KeyError:
            raise UnknownTouchpointError(f"{service}.{parameter} is not registered") from None
        return _observation((service, parameter, reader(), now))


class Planner:
    """Turns symptoms into adaptation plans with run-unique ids."""

    def __init__(self, prefix: str = "plan"):
        self._prefix = prefix
        self._count = 0

    def plan(self, symptom: Symptom, policies: Iterable[Policy]) -> AdaptationPlan:
        for policy in policies:
            if policy.name == symptom.policy:
                self._count += 1
                return AdaptationPlan(f"{self._prefix}-p{self._count}", symptom, policy.then)
        raise UnknownPolicyError(f"no policy named '{symptom.policy}'")


Transport = Callable[[AdaptationPlan, int, PlannedAction], Any]


@dataclass
class Executor:
    """Dispatches each plan exactly once through an actuation transport.

    The transport sends one actuation per action, in plan order, at once;
    link latency is added downstream by the network. The runtime's transport
    resolves its channel to every target when the run is built, so no
    dispatch can fail to route.
    """

    transport: Transport
    dispatched: set[str] = field(default_factory=set)

    def execute(self, plan: AdaptationPlan) -> None:
        if plan.plan_id in self.dispatched:
            raise DoubleDispatchError(f"plan '{plan.plan_id}' already dispatched")
        self.dispatched.add(plan.plan_id)
        for idx, action in enumerate(plan.actions):
            self.transport(plan, idx, action)
