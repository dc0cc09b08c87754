"""Metrics are exact tallies over the trace; text and delimited views agree."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogloop.metrics import (
    MetricsFold,
    compute_metrics,
    metrics_csv,
    summary_text,
)
from fogloop.runtime import Runtime, run_scenario
from fogloop.scenario import building_to_dict, load_scenario, parse_scenario, with_offering
from fogloop.simnet import EventTrace
from fogloop.smartbuilding import BuildingDefaults, BuildingParams, build_smart_building

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def one_office(**params) -> dict:
    building = build_smart_building(1, BuildingDefaults(outside_temp_c=21.0, room_temp_c=21.0),
                                    params=BuildingParams(sample_interval_ms=1000, **params))
    data = building_to_dict(building, name="metrics-1office")
    data["environment"] = [{"t": 300_000, "weather": "sunny"}]
    return data


def run(data: dict, seed: int = 42, horizon: int = 320_000):
    return run_scenario(parse_scenario(data), seed=seed, horizon=horizon)


class TestTallies:
    def test_counts_equal_trace_event_tallies(self):
        result = run(one_office())
        metrics = compute_metrics(result)
        trace = result.trace
        assert metrics.symptoms == len(trace.of_kind("symptom"))
        assert metrics.plans == len(trace.of_kind("plan"))
        assert metrics.dispatches == len(trace.of_kind("dispatch"))
        assert sum(metrics.sends.values()) == len(trace.of_kind("send"))
        assert sum(metrics.deliveries.values()) == len(trace.of_kind("deliver"))
        for kind, count in metrics.event_counts.items():
            assert count == len(trace.of_kind(kind))

    def test_latency_samples_come_from_actuations(self):
        result = run(one_office())
        metrics = compute_metrics(result)
        expected = [
            e["detail"]["latency"] for e in result.trace.of_kind("actuate-applied")
        ]
        assert metrics.latency_count == len(expected)
        assert metrics.latency_sum == sum(expected)
        assert metrics.latency_max == max(expected)
        assert metrics.latency_mean == sum(expected) / len(expected)

    def test_energy_matches_office_physics(self):
        result = run(one_office(), horizon=360_000)
        metrics = compute_metrics(result)
        assert metrics.energy_mj == {"office1": 60 * 300_002}
        assert metrics.total_energy_mj == 60 * 300_002
        assert metrics.kwh("office1") == (60 * 300_002) / 3_600_000_000

    def test_local_loop_never_crosses_the_cloud_boundary(self):
        result = run(one_office())
        metrics = compute_metrics(result)
        assert metrics.fog_to_cloud == 0
        assert metrics.boundary("fog", "cloud") == 0
        assert metrics.boundary("device", "fog") > 0

    def test_split_loop_crosses_the_cloud_boundary_both_ways(self):
        data = with_offering(one_office(), "apaas_split")
        metrics = compute_metrics(run(data))
        assert metrics.fog_to_cloud > 0
        assert metrics.hops.get("cloud->fog", 0) > 0
        assert metrics.boundary("fog", "cloud") == (
            metrics.hops["fog->cloud"] + metrics.hops["cloud->fog"]
        )


class TestViews:
    def test_csv_is_recomputable_from_the_trace(self):
        result = run(one_office())
        text = metrics_csv(compute_metrics(result))
        lines = text.splitlines()
        assert lines[0] == "metric,key,value"

        # Independent tally: re-derive every row from raw trace events.
        tiers = result.trace.header["nodes"]
        tally: dict[tuple[str, str], int] = {}

        def bump(metric: str, key: str, by: int = 1) -> None:
            tally[(metric, key)] = tally.get((metric, key), 0) + by

        latencies = []
        offices = {"office1": result.offices["office1"].energy_mj}
        # Read back from the JSONL text, independent of how the trace keeps rows.
        for line in result.trace.to_jsonl().splitlines()[1:]:
            event = json.loads(line)
            bump("events", event["kind"])
            detail = event["detail"]
            if event["kind"] == "send":
                bump("sends", detail["interaction"])
            elif event["kind"] == "deliver":
                bump("deliveries", detail["interaction"])
                path = detail["path"]
                for a, b in zip(path, path[1:]):
                    bump("hops", f"{tiers[a]}->{tiers[b]}")
            elif event["kind"] == "actuate-applied":
                latencies.append(detail["latency"])
            elif event["kind"] == "symptom":
                bump("counts", "symptoms")
            elif event["kind"] == "plan":
                bump("counts", "plans")
            elif event["kind"] == "dispatch":
                bump("counts", "dispatches")
        for pair in (("device", "fog"), ("fog", "fog"), ("fog", "cloud")):
            a, b = pair
            bump("boundary", f"{a}-{b}",
                 tally.get(("hops", f"{a}->{b}"), 0)
                 + tally.get(("hops", f"{b}->{a}"), 0))
        tally[("latency", "count")] = len(latencies)
        tally[("latency", "sum_ms")] = sum(latencies)
        tally[("latency", "max_ms")] = max(latencies, default=0)
        tally.setdefault(("counts", "symptoms"), 0)
        tally.setdefault(("counts", "plans"), 0)
        tally.setdefault(("counts", "dispatches"), 0)
        for office, mj in offices.items():
            tally[("energy_mj", office)] = mj
        tally[("energy_mj", "total")] = sum(offices.values())

        for line in lines[1:]:
            metric, key, value = line.split(",")
            assert tally[(metric, key)] == int(value), line
        assert len(lines) - 1 == len(tally)

    def test_summary_reports_latency_and_cloud_traffic(self):
        result = run(one_office())
        metrics = compute_metrics(result)
        text = summary_text(result, metrics)
        assert f"scenario: {result.scenario.name}" in text
        assert f"config digest: {result.scenario.digest}" in text
        assert "decision latency ms: mean=2.000 max=2" in text
        assert "fog->cloud messages: 0" in text
        assert "energy office1:" in text
        assert "energy total:" in text

    def test_summary_handles_runs_without_actuations(self):
        data = one_office(lamp_on=False, door_locked=False)
        data["environment"] = []
        result = run(data, horizon=5_000)
        metrics = compute_metrics(result)
        assert not result.trace.of_kind("actuate-applied")
        assert (metrics.latency_count, metrics.latency_sum, metrics.latency_max) == (0, 0, 0)
        assert metrics.latency_mean is None
        assert "mean=n/a max=n/a count=0" in summary_text(result, metrics)


NODES = {"dev1": "device", "dev2": "device", "fog1": "fog", "fog2": "fog",
         "cloud": "cloud"}


def kept_rows(interactions: tuple) -> st.SearchStrategy:
    """Rows as a run hands them to its sink, each `(method, args)`: messages
    on paths of up to four nodes, actuations with their latency, and rows of
    other kinds."""
    node, times = st.sampled_from(sorted(NODES)), st.integers(0, 10**6)
    interaction = st.sampled_from(interactions)
    return st.lists(st.one_of(
        st.tuples(st.just("sent"), st.tuples(times, node, node, times, interaction)),
        st.tuples(st.just("delivered"), st.tuples(
            times, node, node, times, interaction, times,
            st.lists(node, min_size=1, max_size=4).map(tuple))),
        st.tuples(st.just("append"), st.tuples(
            times, st.just("actuate-applied"), node, st.none(),
            st.integers(0, 10**4).map(lambda latency: {"latency": latency}))),
        st.tuples(st.just("append"), st.tuples(
            times, st.sampled_from(["symptom", "plan", "dispatch", "init"]),
            st.none(), st.none(), st.just({})))), max_size=30)


CLOUD_PATH = ("dev1", "fog1", "cloud")


class TestFold:
    # Interactions are all text or all numbers, so that `metrics_csv` can
    # sort them; 1, True and 1.0 are one key, which keeps its first spelling.
    @settings(max_examples=200, deadline=None)
    @given(rows=st.sampled_from([("read", "act", "propose"), (1, True, 1.0, 2)])
           .flatmap(kept_rows))
    @example(rows=[])
    @example(rows=[("append", (1, "symptom", None, None, {})),
                   ("append", (2, "actuate-applied", "dev1", None, {"latency": 7}))])
    @example(rows=[("sent", (1, "dev1", "cloud", 1, True)),
                   ("delivered", (3, "dev1", "cloud", 1, 1.0, 1, CLOUD_PATH)),
                   ("sent", (4, "fog1", "cloud", 2, 1)),
                   ("delivered", (5, "fog1", "cloud", 2, True, 4, CLOUD_PATH[1:])),
                   ("append", (5, "actuate-applied", "dev1", None, {"latency": 4}))])
    def test_a_kept_trace_folds_as_its_rows_fed_one_by_one(self, rows):
        header = {"kind": "header", "nodes": NODES}
        kept, fed = EventTrace(header), MetricsFold(header)
        for method, args in rows:
            getattr(kept, method)(*args)
            getattr(fed, method)(*args)
        want = compute_metrics(SimpleNamespace(trace=fed, offices={}))
        # A kept trace's message rows are counted by key, never handed over
        # one call per row.
        with patch.object(MetricsFold, "sent", side_effect=AssertionError("sent")), \
                patch.object(MetricsFold, "delivered", side_effect=AssertionError("delivered")):
            got = compute_metrics(SimpleNamespace(trace=kept, offices={}))
        assert got == want
        assert metrics_csv(got) == metrics_csv(want)
        if all(method == "append" for method, _ in rows):
            assert not {"send", "deliver"} & got.event_counts.keys()

    def test_a_tier_hop_repeated_along_a_path_counts_per_link(self):
        # A relay route over three fog nodes crosses fog->fog twice.
        header = {"kind": "header", "nodes": {**NODES, "fog3": "fog"}}
        relay = ("dev1", "fog1", "fog2", "fog3", "cloud")
        kept, fed = EventTrace(header), MetricsFold(header)
        for sink in (kept, fed):
            sink.delivered(5, "dev1", "cloud", 1, "read", 1, relay)
            sink.append(9, "deliver", "dev1", "cloud",
                        {"id": 2, "interaction": "read", "sent": 4, "path": relay})
        want = {"device->fog": 2, "fog->fog": 4, "fog->cloud": 2}
        got = [compute_metrics(SimpleNamespace(trace=trace, offices={}))
               for trace in (fed, kept)]
        assert [metrics.hops for metrics in got] == [want, want]
        assert metrics_csv(got[0]) == metrics_csv(got[1])

    def test_a_message_row_writes_no_metrics_table(self):
        # Rows bump the fold's counter cells; only reading `metrics` fills
        # the tables, so read-only ones survive every message row.
        fold = MetricsFold({"kind": "header", "nodes": NODES})
        metrics = fold.metrics
        for table in ("event_counts", "sends", "deliveries", "hops"):
            setattr(metrics, table, MappingProxyType({}))
        fold.sent(1, "dev1", "cloud", 1, "read")
        fold.delivered(3, "dev1", "cloud", 1, "read", 1, CLOUD_PATH)
        fold.append(4, "send", "dev1", "cloud", {"id": 2, "interaction": "read"})
        fold.append(6, "deliver", "dev1", "cloud",
                    {"id": 2, "interaction": "read", "sent": 4, "path": CLOUD_PATH})
        fold.counted({"read": 1}, {("read", CLOUD_PATH): 1})
        assert fold.metrics is metrics
        assert (metrics.event_counts, metrics.sends, metrics.deliveries, metrics.hops) == (
            {"send": 3, "deliver": 3}, {"read": 3}, {"read": 3},
            {"device->fog": 3, "fog->cloud": 3})

    def test_a_read_between_runs_is_current_and_the_last_is_exact(self):
        scenario = parse_scenario(with_offering(one_office(), "apaas_split"))
        runtime = Runtime(scenario, 42, sink=MetricsFold)
        fold = runtime.sim.trace
        runtime.sim.run_until(150_000)
        early = run_scenario(scenario, 42, 150_000, sink=MetricsFold).trace.metrics
        assert metrics_csv(fold.metrics) == metrics_csv(early)
        runtime.sim.run_until(320_000)
        runtime.finalize(320_000)
        result = SimpleNamespace(trace=fold, offices=runtime.offices)
        whole = compute_metrics(run_scenario(scenario, 42, 320_000, sink=MetricsFold))
        assert metrics_csv(compute_metrics(result)) == metrics_csv(whole)
        assert metrics_csv(fold.metrics) == metrics_csv(whole)

    @pytest.mark.parametrize("name, offering", [
        ("smart_building_1office", None),
        ("smart_building_1office", "apaas_split"),
        ("smart_building_3office_centralized", None),
        ("smart_building_3office_decentralized", None),
    ])
    def test_fold_matches_the_row_trace(self, name, offering):
        scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
        if offering is not None:
            scenario = parse_scenario(with_offering(scenario.raw, offering))
        rows = run_scenario(scenario, seed=42, horizon=600_000)
        folded = run_scenario(scenario, seed=42, horizon=600_000, sink=MetricsFold)
        assert rows.trace.events
        assert not folded.trace.events
        assert folded.trace.header == rows.trace.header
        row_metrics, fold_metrics = compute_metrics(rows), compute_metrics(folded)
        assert metrics_csv(fold_metrics) == metrics_csv(row_metrics)
        assert summary_text(folded, fold_metrics) == summary_text(rows, row_metrics)

    def test_fold_memory_does_not_grow_with_the_horizon(self):
        scenario = parse_scenario(one_office())

        def peak(horizon: int) -> int:
            tracemalloc.start()
            try:
                run_scenario(scenario, seed=42, horizon=horizon, sink=MetricsFold)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(480_000) <= 1.5 * peak(120_000)
