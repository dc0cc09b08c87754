"""Span tracer that wraps fogloop's public entry points from outside.

Each wrapper records one span: name, start, end and parent, kept in memory
in flat lists until the run ends. A name is patched where it is looked up,
so ``fogloop.runtime.analyze`` is wrapped, not ``fogloop.mape.analyze``.
Callbacks passed to ``Simulator.schedule`` and handlers passed to
``Simulator.register`` are wrapped as they arrive.

Self time is a span's duration minus the durations of its direct children.
Layer metrics named ``*.self_s`` are summed self times; other ``*_s``
metrics are summed inclusive durations.

``summary`` raises ``AccountingError`` unless the spans close: every span
lies inside its parent, none is left open, and the self times under each
``run_until`` span add up to the interval an independent clock recorded for
that call, give or take the wrapper overhead between the two (at least 0,
at most ``WRAPPER_SLACK_NS``). Once spans nest, the self times under a root
sum to the root's span duration by construction; the independent clock is
what makes the sum a check.
"""

from __future__ import annotations

import functools
import time

LOOP = "simnet.loop"
# Largest allowed gap between a run_until span and the independently clocked
# call inside it: two wrapper frames, with no allocation in between.
WRAPPER_SLACK_NS = 2_000_000

# Layers reported as `<name>.calls` and `<name>.self_s`.
TIMED = ("simnet.send", "simnet.emit", "runtime.callback", "runtime.handler",
         "mape.analyze", "mape.kb_put", "mape.sample", "smartbuilding.advance",
         "coordination.aggregate")
COUNTED = ("mape.plan", "mape.execute", "smartbuilding.apply",
           "coordination.forward", "coordination.decide_round",
           "coordination.delegate")
INCLUSIVE = {
    "runtime.build_s": "runtime.build",
    "scenario.load_s": "scenario.load",
    "scenario.variant_s": "scenario.variant",
    "scenario.validate_s": "scenario.validate",
    "placement.place_s": "placement.place",
    "metrics.compute_s": "metrics.compute",
    "metrics.csv_s": "metrics.csv",
    "metrics.summary_s": "metrics.summary",
}
# Simulated outcomes, counted from the kinds passed to Simulator.emit.
MODEL_KINDS = {
    "model.symptoms": "symptom",
    "model.dispatches": "dispatch",
    "model.actuations": "actuate-applied",
    "model.stale_drops": "stale-drop",
    "model.rounds": "round-open",
    "model.round_aborts": "round-abort",
}


class AccountingError(AssertionError):
    """Span bookkeeping does not close: a span escapes its parent or stays
    open, or the self times under run_until do not match the call's
    independently clocked interval."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self.kinds: dict[str, int] = {}
        self.fog_to_cloud = 0
        self.symptoms = 0
        self.kb_changed = 0
        self.forward_passed = 0
        self.trace_rows = 0

    # --- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return spanned

    def _patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        from fogloop import cli, coordination, mape, runtime, simnet, smartbuilding

        tracer = self
        sim_cls = simnet.Simulator

        original_run_until = sim_cls.run_until

        def run_until(sim, horizon):
            trace = original_run_until(sim, horizon)
            tracer.trace_rows += len(trace.events)
            return trace

        sim_cls.run_until = run_until
        self._patch(sim_cls, "run_until", LOOP)
        self._patch(sim_cls, "send", "simnet.send")

        original_emit = self.wrap("simnet.emit", sim_cls.emit)

        def emit(sim, kind, /, *args, **detail):
            tracer.kinds[kind] = tracer.kinds.get(kind, 0) + 1
            if kind == "deliver":
                tiers = sim.trace.header["nodes"]
                path = detail["path"]
                tracer.fog_to_cloud += sum(
                    1 for a, b in zip(path, path[1:])
                    if tiers[a] == "fog" and tiers[b] == "cloud"
                )
            return original_emit(sim, kind, *args, **detail)

        sim_cls.emit = emit

        original_schedule = sim_cls.schedule

        def schedule(sim, at, fn):
            return original_schedule(sim, at, tracer.wrap("runtime.callback", fn))

        sim_cls.schedule = schedule

        original_register = sim_cls.register

        def register(sim, address, handler):
            return original_register(sim, address, tracer.wrap("runtime.handler", handler))

        sim_cls.register = register

        self._patch(simnet.EventTrace, "to_jsonl", "simnet.to_jsonl")
        self._patch(simnet.EventTrace, "write", "cli.write")

        original_analyze = self.wrap("mape.analyze", runtime.analyze)

        def analyze(*args, **kwargs):
            symptoms = original_analyze(*args, **kwargs)
            tracer.symptoms += len(symptoms)
            return symptoms

        runtime.analyze = analyze

        original_put = self.wrap("mape.kb_put", mape.KnowledgeBase.put)

        def put(kb, obs):
            entry = kb.get(obs.service, obs.parameter)
            original_put(kb, obs)
            if entry is None or entry.value != obs.value:
                tracer.kb_changed += 1

        mape.KnowledgeBase.put = put

        original_offer = self.wrap("coordination.forward",
                                   coordination.ForwardingFilter.offer)

        def offer(flt, obs):
            passed = original_offer(flt, obs)
            tracer.forward_passed += bool(passed)
            return passed

        coordination.ForwardingFilter.offer = offer

        self._patch(mape.Monitor, "sample", "mape.sample")
        self._patch(mape.Planner, "plan", "mape.plan")
        self._patch(mape.Executor, "execute", "mape.execute")
        self._patch(smartbuilding.OfficeState, "advance", "smartbuilding.advance")
        self._patch(smartbuilding.Device, "apply", "smartbuilding.apply")
        self._patch(runtime, "aggregate", "coordination.aggregate")
        self._patch(runtime, "decide_round", "coordination.decide_round")
        self._patch(runtime, "delegate", "coordination.delegate")
        self._patch(runtime.Runtime, "__init__", "runtime.build")
        self._patch(runtime, "place", "placement.place")
        self._patch(cli, "load_scenario", "scenario.load")
        for attr in ("with_mode", "with_offering", "parse_scenario"):
            self._patch(cli, attr, "scenario.variant")
        self._patch(cli, "validate_scenario", "scenario.validate")
        self._patch(cli, "compute_metrics", "metrics.compute")
        self._patch(cli, "metrics_csv", "metrics.csv")
        self._patch(cli, "summary_text", "metrics.summary")
        cli.open = self._open_for_write

    def _open_for_write(self, *args, **kwargs):
        """``open`` as the CLI sees it: the span lasts until the file closes."""
        index = self._open("cli.write")
        try:
            return _SpannedFile(self, open(*args, **kwargs), index)
        except BaseException:
            self._close(index)
            raise

    # --- aggregation ------------------------------------------------------

    def self_times(self) -> list[int]:
        selfs = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[index] - self.starts[index]
        return selfs

    def check_accounting(self, selfs: list[int], run_until: list[list]) -> None:
        """``run_until`` holds [start_s, end_s, horizon] of each call, taken
        with ``time.perf_counter`` inside the span wrapper."""
        if self._stack:
            raise AccountingError(f"{len(self._stack)} spans never closed")
        root_of: list[int] = []
        closed: dict[int, int] = {}
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            if parent >= 0 and not (self.starts[parent] <= self.starts[index]
                                    and self.ends[index] <= self.ends[parent]):
                raise AccountingError(f"span {index} ({name}) escapes its parent")
            if name == LOOP:
                root = index
            else:
                root = root_of[parent] if parent >= 0 else -1
            root_of.append(root)
            if root >= 0:
                closed[root] = closed.get(root, 0) + selfs[index]
        if len(closed) != len(run_until):
            raise AccountingError(
                f"{len(closed)} run_until spans, {len(run_until)} clocked calls")
        for (root, total), (start, end, _) in zip(sorted(closed.items()), run_until):
            gap = total - round((end - start) * 1e9)
            if not 0 <= gap <= WRAPPER_SLACK_NS:
                raise AccountingError(
                    f"self times under run_until sum to {total} ns, "
                    f"the clocked call took {round((end - start) * 1e9)} ns"
                )

    def summary(self, trace_bytes: int, run_until: list[list]) -> dict[str, float]:
        selfs = self.self_times()
        self.check_accounting(selfs, run_until)
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            total_ns[name] = total_ns.get(name, 0) + end - start

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for metric, name in INCLUSIVE.items():
            out[metric] = total_ns.get(name, 0) / 1e9
        out["simnet.loop.self_s"] = self_ns.get(LOOP, 0) / 1e9
        out["simnet.to_jsonl.self_s"] = self_ns.get("simnet.to_jsonl", 0) / 1e9
        out["cli.write_s"] = self_ns.get("cli.write", 0) / 1e9
        out["simnet.trace_rows"] = self.trace_rows
        out["simnet.trace_bytes"] = trace_bytes
        out["mape.analyze.yield"] = ratio(self.symptoms, calls.get("mape.analyze", 0))
        out["mape.kb_put.changed_ratio"] = ratio(self.kb_changed, calls.get("mape.kb_put", 0))
        out["coordination.forward.pass_ratio"] = ratio(
            self.forward_passed, calls.get("coordination.forward", 0))
        for metric, kind in MODEL_KINDS.items():
            out[metric] = self.kinds.get(kind, 0)
        out["model.fog_to_cloud"] = self.fog_to_cloud
        return out


class _SpannedFile:
    def __init__(self, tracer: Tracer, fh, index: int) -> None:
        self._tracer = tracer
        self._fh = fh
        self._index = index

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc) -> None:
        try:
            self._fh.close()
        finally:
            self._tracer._close(self._index)
