"""Knowledge base, analyzer, planner, and executor tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fogloop.mape import (
    AdaptationPlan,
    Comparator,
    DoubleDispatchError,
    ElapsedSinceCondition,
    Executor,
    KnowledgeBase,
    Monitor,
    Observation,
    Planner,
    PlannedAction,
    Policy,
    PolicyIndex,
    StaleObservationError,
    Symptom,
    ThresholdCondition,
    UnknownPolicyError,
    UnknownTouchpointError,
    analyze,
)

LIGHTS_OFF_SUNNY = Policy(
    "lights-off-sunny",
    when=(
        ThresholdCondition("environment", "weather", Comparator.EQ, "sunny"),
        ThresholdCondition("office1.window", "position", Comparator.EQ, "open"),
        ThresholdCondition("office1.lamp", "power-state", Comparator.EQ, True),
    ),
    then=(PlannedAction("office1.lamp", "set-power", False),),
)


def kb_with(*observations: Observation) -> KnowledgeBase:
    kb = KnowledgeBase()
    for obs in observations:
        kb.put(obs)
    return kb


def test_put_into_empty_kb():
    kb = kb_with(Observation("office1.lamp", "power-state", True, 500))
    assert len(kb.latest) == 1
    entry = kb.get("office1.lamp", "power-state")
    assert entry is not None and entry.value is True and entry.timestamp == 500


def test_last_writer_wins_by_time():
    kb = kb_with(
        Observation("s", "p", 1, 100),
        Observation("s", "p", 2, 200),
    )
    entry = kb.get("s", "p")
    assert entry is not None and (entry.value, entry.timestamp) == (2, 200)
    assert len(kb.latest) == 1


def test_stale_put_rejected_and_kb_unchanged():
    kb = kb_with(Observation("s", "p", 1, 100))
    before = kb.get("s", "p")
    with pytest.raises(StaleObservationError):
        kb.put(Observation("s", "p", 9, 50))
    assert kb.get("s", "p") is before
    assert before.value == 1 and before.timestamp == 100
    assert kb.latest == {("s", "p"): before}


def test_since_tracks_value_change_not_refresh():
    kb = kb_with(
        Observation("door", "lock-state", "locked", 1000),
        Observation("door", "lock-state", "locked", 5000),
    )
    entry = kb.get("door", "lock-state")
    assert entry is not None and entry.since == 1000 and entry.timestamp == 5000
    kb.put(Observation("door", "lock-state", "unlocked", 6000))
    entry = kb.get("door", "lock-state")
    assert entry is not None and entry.since == 6000


def test_monitor_sample_reads_through():
    lamp_on = True
    monitor = Monitor()
    monitor.register_touchpoint("office1.lamp", "power-state", lambda: lamp_on)
    obs = monitor.sample("office1.lamp", "power-state", 500)
    assert obs == Observation("office1.lamp", "power-state", True, 500)


def test_monitor_rejects_unknown_touchpoint():
    with pytest.raises(UnknownTouchpointError):
        Monitor().sample("ghost", "x", 0)


def test_analyze_raises_symptom_when_all_conditions_hold():
    kb = kb_with(
        Observation("environment", "weather", "sunny", 300),
        Observation("office1.window", "position", "open", 200),
        Observation("office1.lamp", "power-state", True, 100),
    )
    assert analyze(kb, [LIGHTS_OFF_SUNNY], now=301) == [Symptom("lights-off-sunny", 300)]


def test_analyze_needs_every_condition():
    kb = kb_with(
        Observation("environment", "weather", "sunny", 300),
        Observation("office1.window", "position", "closed", 200),
        Observation("office1.lamp", "power-state", True, 100),
    )
    assert analyze(kb, [LIGHTS_OFF_SUNNY], now=301) == []


def test_analyze_with_no_policies_is_empty():
    assert analyze(kb_with(Observation("s", "p", 1, 0)), [], now=10) == []


def test_missing_stream_means_condition_false():
    assert analyze(KnowledgeBase(), [LIGHTS_OFF_SUNNY], now=301) == []


def test_elapsed_since_threshold():
    policy = Policy(
        "lights-off-armed",
        when=(ElapsedSinceCondition("office1.door", "lock-state", "locked", 600_000),),
        then=(PlannedAction("office1.lamp", "set-power", False),),
    )
    kb = kb_with(Observation("office1.door", "lock-state", "locked", 1000))
    assert analyze(kb, [policy], now=600_999) == []
    symptoms = analyze(kb, [policy], now=601_000)
    assert [s.policy for s in symptoms] == ["lights-off-armed"]
    # Periodic re-samples of the same value must not restart the countdown.
    kb.put(Observation("office1.door", "lock-state", "locked", 400_000))
    assert [s.policy for s in analyze(kb, [policy], now=601_000)] == ["lights-off-armed"]


def test_analyze_respects_cooldown():
    policy = Policy(
        "hot",
        when=(ThresholdCondition("s", "temp", Comparator.GE, 23.0),),
        then=(PlannedAction("heater", "set-power", False),),
        cooldown_ms=60_000,
    )
    kb = kb_with(Observation("s", "temp", 25.0, 0))
    assert len(analyze(kb, [policy], now=10, last_raised={})) == 1
    assert analyze(kb, [policy], now=10, last_raised={"hot": 10}) == []
    assert analyze(kb, [policy], now=60_009, last_raised={"hot": 10}) == []
    assert len(analyze(kb, [policy], now=60_010, last_raised={"hot": 10})) == 1


def test_analyze_is_pure_and_ordered():
    kb = kb_with(
        Observation("s", "temp", 25.0, 5),
        Observation("s", "mode", "auto", 5),
    )
    policies = [
        Policy("b-second", (ThresholdCondition("s", "mode", Comparator.EQ, "auto"),),
               (PlannedAction("s", "noop"),)),
        Policy("a-first", (ThresholdCondition("s", "temp", Comparator.GT, 20.0),),
               (PlannedAction("s", "noop"),)),
    ]
    before = dict(kb.latest)
    first = analyze(kb, policies, now=6)
    second = analyze(kb, policies, now=6)
    assert first == second
    assert [s.policy for s in first] == ["b-second", "a-first"]
    assert kb.latest == before
    assert all(kb.latest[key] is entry for key, entry in before.items())


def test_symptom_base_ts_is_the_newest_entry_its_policy_read():
    kb = kb_with(
        Observation("environment", "weather", "sunny", 100),
        Observation("office1.window", "position", "open", 400),
        Observation("office1.lamp", "power-state", True, 250),
        # Newer, but not read by the policy.
        Observation("office1.door", "lock-state", "locked", 900),
    )
    assert analyze(kb, [LIGHTS_OFF_SUNNY], now=1000) == [Symptom("lights-off-sunny", 400)]
    # A refresh of one stream moves it, whichever condition reads that stream.
    kb.put(Observation("office1.lamp", "power-state", True, 700))
    assert analyze(kb, [LIGHTS_OFF_SUNNY], now=1000) == [Symptom("lights-off-sunny", 700)]
    twice = Policy("twice", LIGHTS_OFF_SUNNY.when + LIGHTS_OFF_SUNNY.when[:1],
                   LIGHTS_OFF_SUNNY.then)
    assert analyze(kb, [twice], now=1000) == [Symptom("twice", 700)]


def test_plan_copies_policy_actions_verbatim():
    symptom = Symptom("lights-off-sunny", base_ts=301)
    planner = Planner("office1")
    plan = planner.plan(symptom, [LIGHTS_OFF_SUNNY])
    assert plan.actions == LIGHTS_OFF_SUNNY.then
    assert plan.plan_id == "office1-p1"


def test_two_action_plan_preserves_order():
    policy = Policy(
        "too-hot",
        when=(ThresholdCondition("office1.heater", "room-temp", Comparator.GE, 23.0),),
        then=(
            PlannedAction("office1.heater", "set-power", False),
            PlannedAction("office1.window", "set-position", "open"),
        ),
    )
    plan = Planner().plan(Symptom("too-hot", 0), [policy])
    assert [a.command for a in plan.actions] == ["set-power", "set-position"]


def test_replanning_gives_fresh_ids_same_actions():
    symptom = Symptom("lights-off-sunny", base_ts=301)
    planner = Planner("office1")
    first = planner.plan(symptom, [LIGHTS_OFF_SUNNY])
    second = planner.plan(symptom, [LIGHTS_OFF_SUNNY])
    assert first.plan_id != second.plan_id
    assert first.actions == second.actions


def test_planner_rejects_unknown_policy():
    with pytest.raises(UnknownPolicyError):
        Planner().plan(Symptom("ghost", 0), [LIGHTS_OFF_SUNNY])


def record_transport(log: list):
    def transport(plan: AdaptationPlan, idx: int, action: PlannedAction):
        log.append((plan.plan_id, idx, action.command))
    return transport


def test_execute_dispatches_each_action_once_in_order():
    log: list = []
    executor = Executor(record_transport(log))
    plan = AdaptationPlan(
        "p1",
        Symptom("x", 1001),
        (PlannedAction("office1.heater", "set-power", False),
         PlannedAction("office1.window", "set-position", "open"),
         PlannedAction("office1.heater", "set-power", False)),
    )
    executor.execute(plan)
    assert log == [("p1", 0, "set-power"), ("p1", 1, "set-position"), ("p1", 2, "set-power")]
    executor.execute(AdaptationPlan("p2", Symptom("x", 0),
                                    (PlannedAction("office1.lamp", "set-power", False),)))
    assert log[3:] == [("p2", 0, "set-power")]


def test_execute_dispatches_exactly_once():
    log: list = []
    executor = Executor(record_transport(log))
    plan = AdaptationPlan("p1", Symptom("x", 0), (PlannedAction("s", "c"),))
    executor.execute(plan)
    with pytest.raises(DoubleDispatchError):
        executor.execute(plan)
    assert len(log) == 1


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5)), min_size=1, max_size=60))
def test_kb_latest_is_the_newest_accepted_put(entries):
    kb = KnowledgeBase()
    newest = None
    for ts, value in entries:
        before = kb.get("s", "p")
        try:
            kb.put(Observation("s", "p", value, ts))
        except StaleObservationError:
            assert newest is not None and ts < newest[1]
            assert kb.get("s", "p") is before
            continue
        newest = (value, ts)
        entry = kb.get("s", "p")
        assert (entry.value, entry.timestamp) == newest
    assert list(kb.latest) == [("s", "p")]


@given(
    cooldown=st.integers(1, 50),
    ticks=st.lists(st.integers(1, 10), min_size=1, max_size=80),
)
def test_cooldown_spaces_symptoms(cooldown, ticks):
    policy = Policy(
        "always",
        when=(ThresholdCondition("s", "x", Comparator.GE, 0),),
        then=(PlannedAction("s", "noop"),),
        cooldown_ms=cooldown,
    )
    kb = kb_with(Observation("s", "x", 1, 0))
    last_raised: dict[str, int] = {}
    raised: list[int] = []
    now = 0
    for step in ticks:
        now += step
        for symptom in analyze(kb, [policy], now, last_raised):
            last_raised[symptom.policy] = now
            raised.append(now)
    assert all(b - a >= cooldown for a, b in zip(raised, raised[1:]))


NOOP = (PlannedAction("s", "noop"),)
# One type per stream, as validation admits: a real stream, whose values may
# be ints or floats (1 == 1.0), an enum stream and a boolean one. The real
# and enum streams take values that change without flipping a threshold's
# verdict, as a room temperature inside its band does at every sample.
STREAMS = (("s", "count"), ("s", "word"), ("s", "flag"))
VALUES = {
    "count": st.sampled_from([0, 0.5, 1, 1.0, 1.5, 2, 2.25, 2.5, 3]),
    "word": st.sampled_from(["on", "off", "idle"]),
    "flag": st.booleans(),
}
# An elapsed-time rule after the shape of `-lights-off-after-lock`: once the
# deadline passes it fires at the next put, whatever the stream.
AFTER_LOCK = Policy("after-lock", (ElapsedSinceCondition("s", "word", "on", 10),
                                   ThresholdCondition("s", "count", Comparator.EQ, 1)),
                    NOOP, cooldown_ms=100)


@st.composite
def index_policies(draw):
    """Policies validation admits: each threshold or awaited value conforms
    to its stream's type, and only the real stream has ordered comparisons."""
    conditions = []
    for _ in range(draw(st.integers(1, 6))):
        service, parameter = draw(st.sampled_from(STREAMS))
        if draw(st.booleans()):
            comparators = list(Comparator) if parameter == "count" \
                else [Comparator.EQ, Comparator.NE]
            conditions.append(ThresholdCondition(
                service, parameter, draw(st.sampled_from(comparators)),
                draw(VALUES[parameter]),
            ))
        else:
            conditions.append(ElapsedSinceCondition(
                service, parameter, draw(VALUES[parameter]), draw(st.integers(0, 40)),
            ))
    policies = []
    for index in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.sampled_from(conditions), min_size=1, max_size=3))
        policies.append(Policy(f"p{index}", tuple(picked), NOOP,
                               cooldown_ms=draw(st.integers(0, 30))))
    return policies


@st.composite
def index_steps(draw):
    """(service, parameter, value, dt, back, look_ahead, analyzed): a put
    stamped `back` ms before the clock, which is stale when it regresses its
    stream, then analysis at the clock plus `look_ahead` if `analyzed`."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        service, parameter = draw(st.sampled_from(STREAMS))
        steps.append((service, parameter, draw(VALUES[parameter]), draw(st.integers(0, 15)),
                      draw(st.sampled_from([0, 0, 0, 7])), draw(st.integers(0, 50)),
                      draw(st.booleans())))
    return steps


def indexed_outcome(kb: KnowledgeBase, index: PolicyIndex, now: int, last_raised: dict):
    blocked: list = []
    symptoms = analyze(kb, index.due(now), now, last_raised, blocked)
    index.sleep(blocked)
    return symptoms


@example(policies=[AFTER_LOCK],
         steps=[("s", "word", "on", 1, 0, 0, True), ("s", "count", 1, 1, 0, 0, True),
                ("s", "flag", False, 18, 0, 0, True)])
@example(  # analysis times that go backwards, past a deadline and a cooldown
    policies=[AFTER_LOCK, Policy("p", (ThresholdCondition("s", "count", Comparator.GE, 1),),
                                 NOOP, cooldown_ms=10)],
    steps=[("s", "count", 1, 1, 0, 0, True), ("s", "word", "on", 1, 0, 0, True),
           ("s", "flag", False, 1, 0, 40, True), ("s", "flag", True, 1, 0, 0, True),
           ("s", "flag", False, 1, 0, 43, True), ("s", "count", 2, 1, 0, 0, True),
           ("s", "word", "off", 1, 0, 0, True), ("s", "flag", True, 1, 0, 50, True)],
)
@example(  # an equal value of another type on a real stream: 1 == 1.0
    policies=[Policy("p", (ThresholdCondition("s", "count", Comparator.GE, 1),
                           ThresholdCondition("s", "word", Comparator.EQ, "on")), NOOP)],
    steps=[("s", "count", 1, 1, 0, 0, True), ("s", "word", "off", 1, 0, 0, True),
           ("s", "count", 1.0, 1, 0, 0, True), ("s", "word", "on", 1, 0, 0, True)],
)
@example(  # values that change but keep the blocking condition false, then hold it
    policies=[Policy("p", (ThresholdCondition("s", "word", Comparator.EQ, "on"),
                           ThresholdCondition("s", "count", Comparator.GE, 2)), NOOP)],
    steps=[("s", "word", "on", 1, 0, 0, True), ("s", "count", 0, 1, 0, 0, True),
           ("s", "count", 1.5, 1, 0, 0, True), ("s", "word", "idle", 1, 0, 0, True),
           ("s", "count", 2.5, 1, 0, 0, True), ("s", "word", "off", 1, 0, 0, True),
           ("s", "word", "on", 1, 0, 0, True)],
)
@given(policies=index_policies(), steps=index_steps())
def test_indexed_analysis_matches_analysis_of_every_policy(policies, steps):
    """Analysis of the index's live policies returns what analysis of every
    policy returns, over puts that are stale or not followed by analysis,
    cooldowns, deadlines and analysis ahead of the newest put."""
    kb = KnowledgeBase()
    index = PolicyIndex(policies)
    last_raised: dict[str, int] = {}
    now = 0
    for service, parameter, value, dt, back, look_ahead, analyzed in steps:
        now += dt
        key = (service, parameter)
        before = kb.latest.get(key)
        try:
            kb.put(Observation(service, parameter, value, now - back))
        except StaleObservationError:
            continue
        index.put(key, before, value)
        if not analyzed:
            continue
        at = now + look_ahead
        expected = analyze(kb, policies, at, dict(last_raised))
        assert indexed_outcome(kb, index, at, last_raised) == expected
        for symptom in expected:
            last_raised[symptom.policy] = at


def put_into(kb: KnowledgeBase, index: PolicyIndex, obs: Observation) -> None:
    key = (obs.service, obs.parameter)
    before = kb.latest.get(key)
    kb.put(obs)
    index.put(key, before, obs.value)


def test_index_sleeps_a_policy_until_its_deadline():
    """`-lights-off-after-lock`'s trap: the deadline passes with no put on
    either stream the policy reads. The policy sleeps until the deadline, and
    the first analysis at or after it fires the policy, here after a put on
    another stream."""
    kb = KnowledgeBase()
    index = PolicyIndex([AFTER_LOCK])
    for obs in (Observation("s", "count", 1, 1), Observation("s", "word", "on", 2)):
        put_into(kb, index, obs)
        assert indexed_outcome(kb, index, obs.timestamp, {}) == []
    assert index.live == []
    for now in (5, 11):
        put_into(kb, index, Observation("s", "flag", now % 2 == 0, now))
        assert index.due(now) == []
    put_into(kb, index, Observation("s", "flag", False, 14))
    assert [s.policy for s in indexed_outcome(kb, index, 14, {})] == ["after-lock"]


def test_index_sleeps_a_policy_through_its_cooldown():
    """A policy that fired is not checked before `last + cooldown_ms`, a new
    value in the meantime does not fire it, and the first analysis once the
    cooldown has passed does."""
    hot = Policy("hot", (ThresholdCondition("s", "count", Comparator.GE, 2),), NOOP,
                 cooldown_ms=30)
    kb = KnowledgeBase()
    index = PolicyIndex([hot])
    last_raised: dict[str, int] = {}
    put_into(kb, index, Observation("s", "count", 2, 0))
    assert indexed_outcome(kb, index, 0, last_raised) == [Symptom("hot", 0)]
    last_raised["hot"] = 0
    put_into(kb, index, Observation("s", "count", 3, 10))
    assert indexed_outcome(kb, index, 10, last_raised) == []
    for now, value in ((20, 2.5), (29, 3)):
        put_into(kb, index, Observation("s", "count", value, now))
        assert index.due(now) == []
        assert indexed_outcome(kb, index, now, last_raised) == []
    put_into(kb, index, Observation("s", "count", 3, 30))
    assert indexed_outcome(kb, index, 30, last_raised) == [Symptom("hot", 30)]


def test_index_holds_one_pending_wake_per_policy():
    """Slept and woken thousands of times, on streams and on time, with
    deadlines far ahead, a policy holds at most one pending wake time."""
    waiting = Policy("waiting", (ElapsedSinceCondition("s", "word", "on", 100),
                                 ThresholdCondition("s", "flag", Comparator.EQ, True)),
                     NOOP, cooldown_ms=200)
    kb = KnowledgeBase()
    index = PolicyIndex([waiting])
    last_raised: dict[str, int] = {}
    fired = 0
    rng = random.Random(0)
    for now in range(0, 50_000, 10):
        parameter = rng.choice(["word", "flag"])
        value = rng.choice(["on", "on", "off"]) if parameter == "word" else rng.random() < 0.9
        put_into(kb, index, Observation("s", parameter, value, now))
        for symptom in indexed_outcome(kb, index, now, last_raised):
            last_raised[symptom.policy] = now
            fired += 1
        assert len(index._wakes) <= 1
    assert fired > 10


def test_index_wakes_a_policy_only_when_its_blocking_condition_can_hold():
    """A new value wakes a sleeping policy only when the condition that
    blocked it holds under that value; a value that keeps it false, or a new
    value on a stream of an earlier condition, leaves the policy asleep."""
    band = Policy("too-hot", (ThresholdCondition("s", "word", Comparator.EQ, "on"),
                              ThresholdCondition("s", "count", Comparator.GE, 2)), NOOP)
    kb = KnowledgeBase()
    index = PolicyIndex([band])
    put_into(kb, index, Observation("s", "word", "on", 0))
    put_into(kb, index, Observation("s", "count", 0, 0))
    assert indexed_outcome(kb, index, 0, {}) == []
    for t, (parameter, value) in enumerate((("count", 0.5), ("count", 1.5),
                                            ("word", "off"), ("word", "on")), start=1):
        put_into(kb, index, Observation("s", parameter, value, t))
        assert index.due(t) == []
    put_into(kb, index, Observation("s", "count", 2.25, 5))
    assert index.due(5) == [band]
    assert indexed_outcome(kb, index, 5, {}) == [Symptom("too-hot", 5)]


def test_index_wakes_a_policy_only_when_a_stream_it_waits_on_changes_value():
    kb = kb_with(Observation("environment", "weather", "cloudy", 0),
                 Observation("office1.window", "position", "open", 0),
                 Observation("office1.lamp", "power-state", True, 0))
    index = PolicyIndex([LIGHTS_OFF_SUNNY])
    assert indexed_outcome(kb, index, 1, {}) == []
    assert index.live == []
    for service, parameter, value in (("office1.window", "position", "open"),
                                      ("office1.lamp", "power-state", False),
                                      ("environment", "weather", "cloudy")):
        index.put((service, parameter), kb.get(service, parameter), value)
        assert index.live == []
    index.put(("environment", "weather"), kb.get("environment", "weather"), "sunny")
    assert index.live == [LIGHTS_OFF_SUNNY]
