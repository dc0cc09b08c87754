"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage: python3 perfbench/rep.py '<json spec>'

The spec names a mode:

- ``plain``: run the fogloop CLI once, untraced, and report the phase split
  taken from the ``Simulator.run_until`` calls only.
- ``trace``: the same command with every layer wrapped in spans
  (see ``tracer.py``); reports the per-layer aggregates.
- ``tracemalloc``: the same command under ``tracemalloc``; reports its peak.
- ``reference``: no CLI; computes the rows ``fogloop compare`` should print
  with ``run_scenario`` + ``compute_metrics``, for the output check.
- ``probe``: no CLI and no fogloop import; times the host probe only.

The three command modes time the probe once, before fogloop is imported,
and report it as ``calib_before_s``. The probe after the command runs in a
``probe`` child of its own, so fogloop's heap, and the garbage it leaves,
cannot reach either probe.

The result is one JSON object on the last line of standard output. A
failure inside the command is reported with its traceback and exit code 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

CALIB_EVENTS = 12_000


class _Reading:
    def __init__(self, source: str, value: float, t: int) -> None:
        self.source = source
        self.value = value
        self.t = t


def calibrate() -> float:
    """Time a fixed pure-Python event loop: a heap of timed closures that
    build small objects, update a dict and append trace-like rows. It shares
    no code with fogloop and runs only where fogloop is not loaded, so only
    the host can change its time; it leans on the interpreter the way the
    simulator does."""
    start = time.perf_counter()
    queue: list = []
    latest: dict[str, tuple[float, int]] = {}
    rows: list[dict] = []

    def sample(k: int, t: int) -> None:
        reading = _Reading(f"dev{k}", (t * 7 + k) % 13 / 2, t)
        latest[reading.source] = (reading.value, reading.t)
        rows.append({"t": t, "src": f"node{k}/{reading.source}", "v": reading.value})
        heapq.heappush(queue, (t + 1000, len(rows), lambda: sample(k, t + 1000)))

    for k in range(32):
        heapq.heappush(queue, (k, -k, lambda k=k: sample(k, k)))
    for _ in range(CALIB_EVENTS):
        heapq.heappop(queue)[2]()
    return time.perf_counter() - start


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(stdout: str, out_dir: str | None) -> dict[str, str]:
    digests = {"stdout": _digest(stdout.encode("utf-8"))}
    if out_dir is not None:
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = _digest(fh.read())
    return digests


def clock_run_until(simulator_cls) -> list[list]:
    """Record [start, end, horizon] of every ``Simulator.run_until`` call.

    The slot is made before the call and only filled in after it, so no
    allocation that could set off a garbage collection falls between the
    end of the call and the end of a tracer span around it."""
    original = simulator_cls.run_until
    intervals: list[list] = []

    def run_until(sim, horizon):
        slot = [0.0, 0.0, horizon]
        intervals.append(slot)
        slot[0] = time.perf_counter()
        try:
            return original(sim, horizon)
        finally:
            slot[1] = time.perf_counter()

    simulator_cls.run_until = run_until
    return intervals


def run_command(argv: list[str], out_dir: str | None, prepare=None) -> dict:
    """Run ``fogloop.cli.main(argv)`` with stdout captured; time its phases."""
    from fogloop import cli, simnet

    intervals = clock_run_until(simnet.Simulator)
    if prepare is not None:
        prepare()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    end = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"fogloop exited {code}: {buf.getvalue()[-2000:]}")
    if not intervals:
        raise RuntimeError("the command never reached Simulator.run_until")
    first, last = intervals[0][0], intervals[-1][1]
    return {
        "total_s": end - start,
        "setup_s": first - start,
        "sim_s": sum(stop - begin for begin, stop, _ in intervals),
        "outputs_s": end - last,
        "virtual_ms": sum(horizon for _, _, horizon in intervals),
        "run_until": intervals,
        "stdout": buf.getvalue(),
        "digests": output_digests(buf.getvalue(), out_dir),
    }


def reference_rows(scenario_path: str, variants: list[str], seed: int,
                   horizon: int) -> list[dict]:
    """What each row of ``fogloop compare`` must show, from the library."""
    from fogloop import (compute_metrics, load_scenario, parse_scenario,
                         run_scenario, with_mode, with_offering)
    from fogloop.cli import OFFERING_VARIANTS

    base = load_scenario(scenario_path)
    rows = []
    for token in variants:
        transform = with_offering if token in OFFERING_VARIANTS else with_mode
        scenario = parse_scenario(transform(base.raw, token))
        metrics = compute_metrics(run_scenario(scenario, seed, horizon))
        rows.append({
            "variant": token,
            "mean_latency_ms": metrics.latency_mean,
            "fog_to_cloud": metrics.fog_to_cloud,
            "total_kwh": metrics.total_kwh,
        })
    return rows


def execute(spec: dict) -> dict:
    mode = spec["mode"]
    if mode == "reference":
        return {"rows": reference_rows(spec["scenario"], spec["variants"],
                                       spec["seed"], spec["horizon"])}
    if mode == "probe":
        return {"calib_s": calibrate()}
    calib_before = calibrate()
    out_dir = spec.get("out_dir")
    if mode == "plain":
        result = run_command(spec["argv"], out_dir)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        result = run_command(spec["argv"], out_dir, prepare=tracer.install)
        trace_bytes = os.path.getsize(os.path.join(out_dir, "trace.jsonl")) if out_dir else 0
        result["layers"] = tracer.summary(trace_bytes, result["run_until"])
    elif mode == "tracemalloc":
        import tracemalloc

        tracemalloc.start()
        result = run_command(spec["argv"], out_dir)
        result["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["calib_before_s"] = calib_before
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = execute(spec)
    except Exception:  # the boundary of one repetition: report, do not hide
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    os._exit(code)  # skip freeing the command's heap object by object
