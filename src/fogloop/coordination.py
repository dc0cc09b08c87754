"""Control-mode mechanics: interaction taxonomy, state aggregation, master-slave
delegation, and deterministic peer-coordination rounds.

Centralized control has slave loops forward changed observations to a master
whose knowledge base aggregates them into system-state parameters, summing
and comparing in exact integer arithmetic and rounding once; master plans are
delegated back as per-slave sub-plans. Decentralized control runs
leader-based rounds: peers propose, the lowest-id non-abstaining proposal is
decided, and each decided action executes exactly once at its owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping

from fogloop.errors import FogloopError
from fogloop.mape import AdaptationPlan, KbEntry, Observation
from fogloop.model import ValueType


class InteractionKind(str, Enum):
    """Who talks to whom; every simulator message carries exactly one kind."""

    MANAGER_TO_ELEMENT_SENSE = "m2e-sense"
    MANAGER_TO_ELEMENT_ACTUATE = "m2e-actuate"
    INTER_COMPONENT = "inter-component"
    INTRA_DELEGATION = "intra-delegation"
    INTRA_COORDINATION = "intra-coordination"


class Combinator(str, Enum):
    SUM = "sum"
    MEAN = "mean"
    MAX = "max"
    MIN = "min"
    VECTOR = "vector"


class AggregationOverflowError(FogloopError):
    """A numeric aggregation's exact result lies beyond the float range."""


@dataclass(frozen=True)
class AggregationSpec:
    name: str
    inputs: tuple[tuple[str, str], ...]
    combinator: Combinator
    output: str
    output_type: ValueType = ValueType.REAL


@dataclass(frozen=True)
class CentralizedControl:
    master: str
    aggregations: tuple[AggregationSpec, ...] = ()


@dataclass(frozen=True)
class DecentralizedControl:
    group: tuple[str, ...]
    coordinate: tuple[str, ...] = ("execute",)


ControlMode = CentralizedControl | DecentralizedControl

# The loop components that can hold peer rounds.
COORDINATED_COMPONENTS = ("analyze", "execute")


def aggregate(
    spec: AggregationSpec,
    latest: Mapping[tuple[str, str], KbEntry],
    now: int,
    service: str = "system",
) -> Observation | None:
    """Combine forwarded slave values into one system-state observation.

    `latest` holds them as a knowledge base's entries. Returns None while
    any input is missing: aggregation stalls until every declared input has
    been forwarded at least once. `validate_scenario` proves that every
    input of a numeric combinator is an int or a finite float. Every such
    value is an integer multiple of 2**-1074, so each is scaled by 2**1074
    to an exact integer, the combinator works on those integers, and the
    result is rounded once to the declared output type. The result is
    therefore invariant under input permutation, signed zeros included.
    Validation cannot bound a sum of stream values, so a `real` result
    beyond the float range raises `AggregationOverflowError`.
    """
    values = []
    for key in spec.inputs:
        if key not in latest:
            return None
        values.append(latest[key].value)
    combinator = spec.combinator
    if combinator is Combinator.VECTOR:
        return Observation(service, spec.output, values, now)
    scaled = []
    for value in values:
        n, d = value.as_integer_ratio()
        scaled.append(n << (1075 - d.bit_length()))
    count = 1
    if combinator is Combinator.MAX:
        total = max(scaled)
    elif combinator is Combinator.MIN:
        total = min(scaled)
    else:
        total = sum(scaled)
        if combinator is Combinator.MEAN:
            count = len(scaled)
    if spec.output_type is ValueType.INTEGER:
        # Round half to even on the exact quotient.
        value = round(Fraction(total, count << 1074))
    else:
        try:
            # Integer true division is correctly rounded.
            value = total / (count << 1074)
        except OverflowError:
            raise AggregationOverflowError(
                f"aggregation '{spec.name}' at t={now} ms: its {combinator.value} "
                f"is beyond the float range") from None
    return Observation(service, spec.output, value, now)


class ForwardingFilter:
    """Change-based forwarding: pass a value through only when it differs from
    the last forwarded one (first samples always pass)."""

    def __init__(self) -> None:
        self._last: dict[tuple[str, str], Any] = {}

    def offer(self, obs: Observation) -> bool:
        key = (obs.service, obs.parameter)
        if key in self._last and self._last[key] == obs.value:
            return False
        self._last[key] = obs.value
        return True


def delegate(plan: AdaptationPlan, owners: Mapping[str, str]) -> dict[str, AdaptationPlan]:
    """Partition a master plan into per-slave sub-plans by the owner of each
    target, as `Scenario.owners` maps them; an unowned target is a KeyError.

    Sub-plans preserve the master plan's action order; their union is exactly
    the master's action multiset. They follow the order in which their loops
    first appear in `owners`.
    """
    split: dict[str, list] = {}
    for action in plan.actions:
        split.setdefault(owners[action.service], []).append(action)
    return {
        loop_id: AdaptationPlan(f"{plan.plan_id}.{loop_id}", plan.symptom, tuple(split[loop_id]))
        for loop_id in dict.fromkeys(owners.values())
        if loop_id in split
    }


def decide_round(proposals: Mapping[str, Any]) -> tuple[str | None, Any]:
    """Leader rule: the lowest-id non-abstaining proposal wins, as
    `(member, item)`. All-abstain rounds decide a no-op, `(None, None)`."""
    for member in sorted(proposals):
        if proposals[member] is not None:
            return member, proposals[member]
    return None, None
