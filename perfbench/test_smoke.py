"""Smoke test of the benchmark itself, at a tiny horizon.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest

import run as bench
from checks import check_compare_rows, check_run_outputs
from tracer import LOOP, AccountingError, Tracer

TINY_MS = 20_000
CONTRACT = bench.load_contract()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_end_to_end_metrics_print_with_units_and_nothing_fails(workload, seed):
    outcome, lines = bench.measure(workload, seed, seconds=0, trace=False,
                                   horizon_ms=TINY_MS)
    result = bench.result_object(outcome, False, CONTRACT)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_ratio 0.0 failed/attempted" in lines
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    outcome, lines = bench.measure(workload, 5, seconds=0, trace=True,
                                   horizon_ms=TINY_MS)
    result = bench.result_object(outcome, True, CONTRACT)
    # A traced repetition whose span accounting does not close counts as failed.
    assert result["correct"], lines
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]
    }
    assert result["metrics"]["simnet.send.calls"]["value"] > 0


@pytest.fixture(scope="module")
def run_outputs():
    """A real `fogloop run` at a tiny horizon, written under the work directory."""
    from fogloop import cli

    session = bench.Session("run_central3", 7, TINY_MS)
    session.prepare()
    out_dir = os.path.join(session.dir, "out")
    argv = bench.command_argv(session.workload, session.scenario, 7, TINY_MS, out_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    yield out_dir, buf.getvalue()
    session.close()


def _rewrite_first(out_dir: str, kind: str, change) -> str:
    """Copy the outputs with the first `kind` event changed by `change`."""
    copy = out_dir + "-corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out_dir, copy)
    path = os.path.join(copy, "trace.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines[1:], start=1):
        event = json.loads(line)
        if event["kind"] == kind:
            change(event)
            lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            break
    else:
        raise AssertionError(f"no {kind} event to corrupt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return copy


def test_clean_outputs_pass(run_outputs):
    out_dir, stdout = run_outputs
    assert check_run_outputs(out_dir, stdout) == []


@pytest.mark.parametrize("kind, change", [
    pytest.param("deliver", lambda e: e["detail"].update(id=10**9), id="deliver-without-send"),
    pytest.param("actuate-applied", lambda e: e["detail"].update(plan="no-such-plan"),
                 id="actuation-without-dispatch"),
    pytest.param("deliver", lambda e: e.update(t=-1), id="time-goes-back"),
    pytest.param("send", lambda e: e["detail"].update(interaction="not-counted"),
                 id="csv-count-mismatch"),
])
def test_one_corrupted_trace_line_fails_the_check(run_outputs, kind, change):
    out_dir, stdout = run_outputs
    assert check_run_outputs(_rewrite_first(out_dir, kind, change), stdout) != []


def test_a_wrong_compare_row_fails_the_check():
    stdout = ("variant mean_latency_ms fog_to_cloud total_kwh\n"
              "mapeaas 10.000 3 0.500000000\n")
    row = {"variant": "mapeaas", "mean_latency_ms": 10.0, "fog_to_cloud": 3,
           "total_kwh": 0.5}
    assert check_compare_rows(stdout, [row]) == []
    assert check_compare_rows(stdout, [dict(row, fog_to_cloud=4)]) != []


def _spans(child_end_ns: int) -> Tracer:
    """A run_until span from 0 to 1000 ns with one send inside it from 100 ns."""
    tracer = Tracer()
    tracer.names = [LOOP, "simnet.send"]
    tracer.parents = [-1, 0]
    tracer.starts = [0, 100]
    tracer.ends = [1000, child_end_ns]
    return tracer


CLOCKED_1000NS = [[1e-7, 9e-7, 60_000]]  # the call inside the span: 100..900 ns


def test_closed_span_accounting_passes():
    layers = _spans(500).summary(0, CLOCKED_1000NS)
    assert layers["simnet.send.calls"] == 1
    assert layers["simnet.loop.self_s"] == 600 / 1e9


def test_a_span_that_escapes_its_parent_fails_the_accounting():
    with pytest.raises(AccountingError, match="escapes its parent"):
        _spans(1500).summary(0, CLOCKED_1000NS)


@pytest.mark.parametrize("clocked", [
    pytest.param([[0.0, 0.5, 60_000]], id="call-longer-than-its-span"),
    pytest.param([], id="call-never-clocked"),
])
def test_spans_that_disagree_with_the_run_until_clock_fail_the_accounting(clocked):
    with pytest.raises(AccountingError):
        _spans(500).summary(0, clocked)


def test_a_span_far_longer_than_its_clocked_call_fails_the_accounting():
    tracer = _spans(500)
    tracer.ends[0] = 10_000_000  # 10 ms of span around a 800 ns call
    with pytest.raises(AccountingError, match="clocked call took"):
        tracer.summary(0, CLOCKED_1000NS)
