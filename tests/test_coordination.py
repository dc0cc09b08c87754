"""Aggregation, forwarding, delegation, and peer-round tests."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fogloop.coordination import (
    AggregationOverflowError,
    AggregationSpec,
    Combinator,
    ForwardingFilter,
    aggregate,
    decide_round,
    delegate,
)
from fogloop.mape import (
    AdaptationPlan,
    KbEntry,
    Observation,
    PlannedAction,
    Symptom,
)
from fogloop.model import ValueType

METER_INPUTS = (
    ("office1.energy_meter", "kwh-reading"),
    ("office2.energy_meter", "kwh-reading"),
    ("office3.energy_meter", "kwh-reading"),
)
NUMERIC = [Combinator.SUM, Combinator.MEAN, Combinator.MAX, Combinator.MIN]


def latest(keys, values) -> dict:
    """Knowledge-base entries holding `values` under `keys`."""
    return {key: KbEntry(value, 0, 0) for key, value in zip(keys, values)}


def meter_states(*readings: float) -> dict:
    return latest(METER_INPUTS, readings)


def test_sum_of_office_meters_is_exact():
    spec = AggregationSpec("total-kwh", METER_INPUTS, Combinator.SUM, "total-kwh")
    obs = aggregate(spec, meter_states(0.5, 0.3, 0.2), now=7, service="building")
    assert obs == Observation("building", "total-kwh", 1.0, 7)


def test_single_input_is_identity():
    inputs = (("office1.energy_meter", "kwh-reading"),)
    states = latest(inputs, [0.37])
    for combinator in (Combinator.SUM, Combinator.MEAN, Combinator.MAX, Combinator.MIN):
        spec = AggregationSpec("x", inputs, combinator, "out")
        obs = aggregate(spec, states, now=0)
        assert obs is not None and obs.value == pytest.approx(0.37)


def test_vector_preserves_declared_order():
    spec = AggregationSpec(
        "vitals",
        (
            ("sensor", "temperature"),
            ("sensor", "blood-pressure"),
            ("sensor", "blood-sugar"),
        ),
        Combinator.VECTOR,
        "vitals",
    )
    states = latest(
        [("sensor", "blood-sugar"), ("sensor", "temperature"), ("sensor", "blood-pressure")],
        [5.1, 37.2, 118],
    )
    obs = aggregate(spec, states, now=1)
    assert obs is not None and obs.value == [37.2, 118, 5.1]


def test_missing_input_stalls():
    spec = AggregationSpec("total-kwh", METER_INPUTS, Combinator.SUM, "total-kwh")
    assert aggregate(spec, meter_states(0.5, 0.3), now=0) is None


def test_mean_rounds_half_to_even_for_integer_outputs():
    spec = AggregationSpec(
        "avg", METER_INPUTS[:2], Combinator.MEAN, "avg", output_type=ValueType.INTEGER
    )
    assert aggregate(spec, meter_states(1, 2), now=0).value == 2  # 1.5 -> 2
    assert aggregate(spec, meter_states(2, 3), now=0).value == 2  # 2.5 -> 2


@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=9
    ),
    combinator=st.sampled_from(NUMERIC),
    seed=st.randoms(use_true_random=False),
)
def test_numeric_aggregation_ignores_input_order(values, combinator, seed):
    inputs = tuple(("s", f"p{i}") for i in range(len(values)))
    spec = AggregationSpec("agg", inputs, combinator, "out")
    states = latest(inputs, values)
    forward = aggregate(spec, states, now=0)
    shuffled = list(states.items())
    seed.shuffle(shuffled)
    backward = aggregate(spec, dict(shuffled), now=0)
    assert forward.value == backward.value
    if combinator is Combinator.MEAN:
        exact = sum(Fraction(v) for v in values) / len(values)
        assert forward.value == float(exact)


# Every kind of number validation lets through: big ints, subnormals, signed
# zeros, and floats whose sum overflows a float.
EXTREME_NUMBERS = st.one_of(
    st.integers(-10**400, 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308,
                     -1.7e308, 0.1, 3]),
)


def fraction_oracle(combinator: Combinator, output_type: ValueType, values: list):
    """The aggregate in `Fraction` arithmetic, or OverflowError."""
    exact = [Fraction(v) for v in values]
    if combinator is Combinator.SUM:
        result = sum(exact, Fraction(0))
    elif combinator is Combinator.MEAN:
        result = sum(exact, Fraction(0)) / len(exact)
    elif combinator is Combinator.MAX:
        result = max(exact)
    else:
        result = min(exact)
    try:
        return round(result) if output_type is ValueType.INTEGER else float(result)
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("output_type", [ValueType.INTEGER, ValueType.REAL])
@pytest.mark.parametrize("combinator", NUMERIC)
@given(values=st.lists(EXTREME_NUMBERS, min_size=1, max_size=6))
@example(values=[1.7e308, 1.7e308])  # a sum past the largest float
def test_aggregation_equals_fraction_arithmetic(combinator, output_type, values):
    inputs = tuple(("s", f"p{i}") for i in range(len(values)))
    spec = AggregationSpec("agg", inputs, combinator, "out", output_type)
    expected = fraction_oracle(combinator, output_type, values)
    try:
        value = aggregate(spec, latest(inputs, values), now=0).value
    except AggregationOverflowError:
        value = OverflowError
    assert (type(value), repr(value)) == (type(expected), repr(expected))


@pytest.mark.parametrize("combinator", [Combinator.MAX, Combinator.MIN])
def test_signed_zeros_give_one_result_in_either_order(combinator):
    spec = AggregationSpec("agg", METER_INPUTS[:2], combinator, "out")
    forward = aggregate(spec, meter_states(0.0, -0.0), now=0).value
    backward = aggregate(spec, meter_states(-0.0, 0.0), now=0).value
    assert repr(forward) == repr(backward) == "0.0"


def test_forwarding_filter_sends_only_changes():
    fltr = ForwardingFilter()
    first = Observation("office1.energy_meter", "kwh-reading", 0.50, 100)
    assert fltr.offer(first) is True
    unchanged = Observation("office1.energy_meter", "kwh-reading", 0.50, 200)
    assert fltr.offer(unchanged) is False
    changed = Observation("office1.energy_meter", "kwh-reading", 0.51, 300)
    assert fltr.offer(changed) is True
    other = Observation("office1.lamp", "power-state", True, 300)
    assert fltr.offer(other) is True


def master_plan(*pairs: tuple[str, str]) -> AdaptationPlan:
    actions = tuple(PlannedAction(svc, cmd) for svc, cmd in pairs)
    return AdaptationPlan("building-p1", Symptom("policy", 0), actions)


# An ownership table as `Scenario.owners` builds it: loops in order.
OWNERS = {
    "office1.heater": "office1",
    "office1.lamp": "office1",
    "office2.heater": "office2",
    "office2.lamp": "office2",
}


def test_delegate_partitions_by_owner():
    plan = master_plan(("office1.heater", "set-power"), ("office2.lamp", "set-power"))
    subs = delegate(plan, OWNERS)
    assert set(subs) == {"office1", "office2"}
    assert subs["office1"].plan_id == "building-p1.office1"
    assert [a.service for a in subs["office1"].actions] == ["office1.heater"]
    assert [a.service for a in subs["office2"].actions] == ["office2.lamp"]


def test_delegate_single_owner_keeps_whole_plan():
    plan = master_plan(("office1.heater", "set-power"), ("office1.lamp", "set-power"))
    subs = delegate(plan, OWNERS)
    assert list(subs) == ["office1"]
    assert subs["office1"].actions == plan.actions


def test_delegate_rejects_orphan_targets():
    with pytest.raises(KeyError):
        delegate(master_plan(("lobby.lamp", "set-power")), OWNERS)


@given(st.lists(st.sampled_from(sorted(OWNERS)), min_size=1, max_size=50))
def test_delegation_conserves_actions(targets):
    plan = master_plan(*[(svc, "set-power") for svc in targets])
    subs = delegate(plan, OWNERS)
    gathered = [a for sub in subs.values() for a in sub.actions]
    assert sorted(a.service for a in gathered) == sorted(targets)
    # Sub-plans follow the table's loop order, whatever the action order.
    assert list(subs) == [loop for loop in ("office1", "office2") if loop in subs]
    for loop_id, sub in subs.items():
        ordered = [a for a in plan.actions if OWNERS[a.service] == loop_id]
        assert list(sub.actions) == ordered


def test_identical_proposals_decide_once():
    lamp_off = ("office1.lamp", "set-power", False)
    assert decide_round({"office1": lamp_off, "office2": lamp_off}) == ("office1", lamp_off)


def test_all_abstain_decides_noop():
    assert decide_round({"office1": None, "office2": None}) == (None, None)


def test_conflicts_resolve_to_lowest_id():
    assert decide_round({"5": "theirs", "2": "mine"}) == ("2", "mine")


def test_lowest_id_abstainer_is_skipped():
    assert decide_round({"a": None, "b": "plan-b", "c": "plan-c"}) == ("b", "plan-b")
