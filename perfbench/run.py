"""Seeded benchmark of the ``fogloop run`` and ``fogloop compare`` commands.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the scenario file; the CLI receives only that file and
``--seed``. Each repetition is one command, ``fogloop.cli.main([...])``,
run in a fresh child process (``rep.py``), one child at a time. Repetitions
repeat until ``--seconds`` have passed. Every output is checked; a command
that raises, exits nonzero or fails a check counts as failed.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
untraced repetitions, with host times scaled to a reference host speed
(see ``REF_CALIB_S``). With ``--trace 1`` they are the per-layer ones, from
one traced repetition and one tracemalloc repetition beside untraced ones.
Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REP_TIMEOUT_S = 150
# Host times are reported as they would read on a host where the probe in
# rep.py takes REF_CALIB_S. Each repetition is scaled by REF_CALIB_S over its
# own probe time: the mean of one probe in the repetition's child before
# fogloop is imported and one in a fresh child just after it. On the shared
# 2-vCPU Xeon VM where the baseline was taken, host speed switched between
# states up to 1.6x apart for seconds to minutes at a time, and the probe
# followed. perfbench/README.md gives the spreads with and without scaling.
REF_CALIB_S = 0.03

sys.path[:0] = [HERE, SRC]
from checks import check_compare_rows, check_run_outputs  # noqa: E402


@dataclass(frozen=True)
class Workload:
    offices: int
    control: str
    horizon_ms: int
    variants: tuple[str, ...] = ()  # empty: `fogloop run`, else `fogloop compare`


# Why each workload was chosen is recorded in BENCHMARK.json. The two
# 3-office workloads share one generated building per seed; the 1-office
# one runs four times longer so that trace memory growth shows.
WORKLOADS = {
    "run_central3": Workload(3, "centralized", 600_000),
    "compare_modes3": Workload(3, "centralized", 600_000,
                               ("centralized", "decentralized")),
    "compare_offerings1": Workload(1, "none", 2_400_000, ("mapeaas", "apaas_split")),
}

# One weather flip and one outside-temperature step per this much virtual time.
ENV_EVENT_SPACING_MS = 60_000
# A centralized master loop gets one building-wide rule: every heater off
# while it is this warm outside. build_smart_building gives the master no
# policies, and without one it never plans or delegates. The rule reads the
# ambient stream, which every loop's knowledge holds in both control modes.
WARM_OUTSIDE_C = 20.0


def generate(workload: Workload, seed: int, horizon_ms: int) -> dict:
    """The scenario for (workload, seed): a generated smart building with
    seeded environment events and per-link jitter of 0..latency_ms."""
    from fogloop import EnvironmentEvent, build_smart_building, building_to_dict

    rng = random.Random(seed)
    count = max(1, horizon_ms // ENV_EVENT_SPACING_MS)
    flips = sorted(rng.randrange(1, horizon_ms) for _ in range(count))
    steps = sorted(rng.randrange(1, horizon_ms) for _ in range(count))
    events = [EnvironmentEvent(t, weather="sunny" if i % 2 == 0 else "not-sunny")
              for i, t in enumerate(flips)]
    events += [EnvironmentEvent(t, outside_temp_c=rng.randrange(0, 61) / 2)
               for t in steps]
    events.sort(key=lambda event: event.t)
    building = build_smart_building(workload.offices, control=workload.control,
                                    environment_events=events)
    data = building_to_dict(building, f"perfbench-{workload.offices}office-seed{seed}")
    for link in data["topology"]["links"]:
        link["jitter_ms"] = rng.randint(0, link["latency_ms"])
    if workload.control == "centralized":
        master = data["control"]["master"]
        data["policies"].append({
            "name": "building-heat-off-when-warm",
            "when": [{"service": "environment", "parameter": "outside-temp",
                      "op": ">=", "value": WARM_OUTSIDE_C}],
            "then": [{"service": f"office{i}.heater", "command": "set-power", "arg": False}
                     for i in range(1, workload.offices + 1)],
            "cooldown_ms": 60_000,
        })
        for loop in data["loops"]:
            if loop["id"] == master["loop"]:
                loop["policies"].append("building-heat-off-when-warm")
    return data


def command_argv(workload: Workload, scenario: str, seed: int, horizon_ms: int,
                 out_dir: str | None) -> list[str]:
    common = ["--scenario", scenario, "--seed", str(seed), "--until-ms", str(horizon_ms)]
    if workload.variants:
        return ["compare", *common, "--variants", ",".join(workload.variants)]
    return ["run", *common, "--out", out_dir]


def child(spec: dict) -> tuple[dict | None, str | None]:
    """Run one repetition in a fresh interpreter; (result, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {REP_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}, no result: {proc.stderr.strip()[-2000:]}"
    if proc.returncode != 0 or "error" in result:
        return None, result.get("error") or f"exit {proc.returncode}"
    return result, None


class Session:
    """One benchmark invocation: its scenario file, repetitions and checks."""

    def __init__(self, name: str, seed: int, horizon_ms: int | None = None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.horizon_ms = horizon_ms or self.workload.horizon_ms
        self.dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] | None = None
        self.verdict: str | None = None
        self.reference: list[dict] | None = None

    def prepare(self) -> str:
        from fogloop.scenario import config_digest

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        data = generate(self.workload, self.seed, self.horizon_ms)
        self.scenario = os.path.join(self.dir, "scenario.json")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, sort_keys=True, indent=1) + "\n")
        if self.workload.variants:
            result, error = child({
                "mode": "reference", "scenario": self.scenario,
                "variants": list(self.workload.variants),
                "seed": self.seed, "horizon": self.horizon_ms,
            })
            if error:
                raise RuntimeError(f"reference run failed: {error}")
            self.reference = result["rows"]
        return config_digest(data)

    def repetition(self, mode: str) -> dict | None:
        """One command; returns its result, or None when it failed."""
        out_dir = None if self.workload.variants else os.path.join(self.dir, "out")
        argv = command_argv(self.workload, self.scenario, self.seed,
                            self.horizon_ms, out_dir)
        self.attempted += 1
        result, error = child({"mode": mode, "argv": argv, "out_dir": out_dir})
        probe, probe_error = child({"mode": "probe"})
        if probe_error:
            raise RuntimeError(f"host probe failed: {probe_error}")
        if result is not None:
            result["calib_s"] = (result["calib_before_s"] + probe["calib_s"]) / 2
            error = self._check(result, out_dir)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        if error:
            self.errors.append(f"{mode}: {error}")
            return None
        return result

    def _check(self, result: dict, out_dir: str | None) -> str | None:
        """Check the first outputs in full; later ones must match their digests,
        so they share the first verdict."""
        if self.digests is None:
            self.digests = result["digests"]
            if out_dir is not None:
                problems = check_run_outputs(out_dir, result["stdout"])
            else:
                problems = check_compare_rows(result["stdout"], self.reference)
            self.verdict = "; ".join(problems[:5]) or None
        elif result["digests"] != self.digests:
            return f"outputs differ from the first repetition: {result['digests']}"
        return self.verdict

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool,
            horizon_ms: int | None = None) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns (metrics by name, report lines)."""
    session = Session(name, seed, horizon_ms)
    try:
        lines = [f"workload {name} seed {seed} horizon_ms {session.horizon_ms}",
                 f"config_digest {session.prepare()}"]
        traced = malloc = None
        start = time.perf_counter()
        if trace:
            traced = session.repetition("trace")
            malloc = session.repetition("tracemalloc")
        plain: list[dict] = []
        last = 0.0  # wall time of the latest repetition: start none that would overrun
        while not plain or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            result = session.repetition("plain")
            last = time.perf_counter() - began
            if result is not None:
                plain.append(result)
            elif len(session.errors) >= 3:
                break
    finally:
        session.close()

    lines.extend(f"digest {key} {value[:16]}"
                 for key, value in sorted((session.digests or {}).items()))
    failed = len(session.errors)
    lines.append(f"repetitions {len(plain)} untraced, attempted {session.attempted}, "
                 f"failed {failed}")
    lines.append(f"fail_ratio {failed / session.attempted} failed/attempted")
    lines.extend(f"error {error.strip().splitlines()[-1]}" for error in session.errors)

    metrics: dict[str, float] = {}
    if plain:
        def med(key, scaled=True):
            return statistics.median(
                r[key] * (REF_CALIB_S / r["calib_s"] if scaled else 1) for r in plain)

        lines.extend(f"raw.{key} {med(key, scaled=False)} s"
                     for key in ("setup_s", "sim_s", "outputs_s", "total_s", "calib_s"))
        metrics.update(
            setup_s=med("setup_s"),
            sim_vms_per_s=statistics.median(
                r["virtual_ms"] / (r["sim_s"] * REF_CALIB_S / r["calib_s"]) for r in plain),
            outputs_s=med("outputs_s"),
            total_s=med("total_s"),
            peak_rss_mb=med("peak_rss_mb", scaled=False),
            **{"host.calib_s": med("calib_s", scaled=False)},
        )
        if traced is not None:
            scale = REF_CALIB_S / traced["calib_s"]
            metrics.update({name: value * scale if name.endswith("_s") else value
                            for name, value in traced["layers"].items()})
            metrics["bench.trace_overhead_s"] = traced["total_s"] * scale - metrics["total_s"]
        if malloc is not None:
            metrics["bench.tracemalloc_peak_mb"] = malloc["tracemalloc_peak_mb"]
    return {"attempted": session.attempted, "failed": failed, "metrics": metrics}, lines


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_object(outcome: dict, trace: bool, contract: dict) -> dict:
    """The contract's result line: exactly the metrics BENCHMARK.json names."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
    return {
        "correct": outcome["failed"] == 0 and not missing,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in outcome["metrics"]
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fogloop", "cli.py")):
        print(f"no fogloop sources under {SRC}", file=sys.stderr)
        return 2
    contract = load_contract()
    outcome, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_object(outcome, bool(args.trace), contract)
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']} {metric['unit']}")
    print("\n".join(lines))
    if not result["metrics"]:
        print("no repetition succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
