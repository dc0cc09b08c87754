"""Deterministic discrete-event simulator for fog-hosted IoT control loops.

Declare each device once (its kind, node and sampled readings), place
MAPE-K loops across a device/fog/cloud topology, pick a control mode, and
run scenarios to a virtual horizon; traces, metrics, and comparisons are
exact and repeatable.
"""

from fogloop.coordination import (
    AggregationSpec,
    CentralizedControl,
    Combinator,
    ControlMode,
    DecentralizedControl,
    InteractionKind,
    aggregate,
    decide_round,
    delegate,
)
from fogloop.errors import ConfigError, FogloopError
from fogloop.mape import (
    AdaptationPlan,
    Comparator,
    ElapsedSinceCondition,
    KnowledgeBase,
    Observation,
    PlannedAction,
    Policy,
    Symptom,
    ThresholdCondition,
    analyze,
)
from fogloop.metrics import (
    MetricsFold,
    RunMetrics,
    compute_metrics,
    metrics_csv,
    summary_text,
)
from fogloop.model import ValueType
from fogloop.placement import LoopSpec, Offering, Placement, place
from fogloop.runtime import RunResult, Runtime, discrete_snapshot, run_scenario
from fogloop.scenario import (
    Scenario,
    building_to_dict,
    config_digest,
    load_scenario,
    parse_scenario,
    validate_scenario,
    with_mode,
    with_offering,
)
from fogloop.simnet import EventTrace, Link, Node, Simulator, Tier, Topology
from fogloop.smartbuilding import (
    BuildingDefaults,
    BuildingParams,
    Device,
    DeviceKind,
    EnvironmentEvent,
    OfficeState,
    build_smart_building,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationPlan",
    "AggregationSpec",
    "BuildingDefaults",
    "BuildingParams",
    "CentralizedControl",
    "Combinator",
    "Comparator",
    "ConfigError",
    "ControlMode",
    "DecentralizedControl",
    "Device",
    "DeviceKind",
    "ElapsedSinceCondition",
    "EnvironmentEvent",
    "EventTrace",
    "FogloopError",
    "InteractionKind",
    "KnowledgeBase",
    "Link",
    "LoopSpec",
    "MetricsFold",
    "Node",
    "Observation",
    "Offering",
    "OfficeState",
    "Placement",
    "PlannedAction",
    "Policy",
    "RunMetrics",
    "RunResult",
    "Runtime",
    "Scenario",
    "Simulator",
    "Symptom",
    "ThresholdCondition",
    "Tier",
    "Topology",
    "ValueType",
    "aggregate",
    "analyze",
    "build_smart_building",
    "building_to_dict",
    "compute_metrics",
    "config_digest",
    "decide_round",
    "delegate",
    "discrete_snapshot",
    "load_scenario",
    "metrics_csv",
    "parse_scenario",
    "place",
    "run_scenario",
    "summary_text",
    "validate_scenario",
    "with_mode",
    "with_offering",
]
