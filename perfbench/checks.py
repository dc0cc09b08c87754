"""Output checks for the benchmark. Each returns a list of problems; an
empty list means the outputs are correct."""

from __future__ import annotations

import csv
import json
import os

# Rows of metrics.csv that must equal tallies recomputed from the trace.
RECOUNTED = ("events", "sends", "deliveries")


def check_run_outputs(out_dir: str, stdout: str) -> list[str]:
    """Read back what ``fogloop run`` wrote and check it against itself.

    - ``t`` never decreases.
    - Every ``deliver`` matches exactly one earlier ``send`` by id; sends
      still in flight at the horizon are allowed.
    - Every ``actuate-applied`` matches exactly one earlier ``dispatch`` by
      (plan, idx).
    - The events, sends and deliveries rows of metrics.csv equal the counts
      recomputed from the trace lines.
    - summary.txt is what the command printed.
    """
    problems: list[str] = []
    tallies: dict[str, dict[str, int]] = {name: {} for name in RECOUNTED}
    in_flight: set[int] = set()
    seen_sends: set[int] = set()
    dispatched: set[tuple[str, int]] = set()
    applied: set[tuple[str, int]] = set()
    last_t = None
    with open(os.path.join(out_dir, "trace.jsonl"), encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "header":
            problems.append("trace.jsonl: first line is not the header")
        for lineno, line in enumerate(fh, start=2):
            where = f"trace.jsonl:{lineno}"
            try:
                event = json.loads(line)
                t, kind, detail = event["t"], event["kind"], event["detail"]
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{where}: unreadable event ({exc})")
                continue
            if last_t is not None and t < last_t:
                problems.append(f"{where}: t={t} after t={last_t}")
            last_t = t
            tallies["events"][kind] = tallies["events"].get(kind, 0) + 1
            if kind == "send":
                msg = detail["id"]
                if msg in seen_sends:
                    problems.append(f"{where}: send id {msg} reused")
                seen_sends.add(msg)
                in_flight.add(msg)
                key = detail["interaction"]
                tallies["sends"][key] = tallies["sends"].get(key, 0) + 1
            elif kind == "deliver":
                msg = detail["id"]
                if msg not in in_flight:
                    problems.append(f"{where}: deliver id {msg} has no open send")
                in_flight.discard(msg)
                key = detail["interaction"]
                tallies["deliveries"][key] = tallies["deliveries"].get(key, 0) + 1
            elif kind == "dispatch":
                key = (detail["plan"], detail["idx"])
                if key in dispatched:
                    problems.append(f"{where}: dispatch {key} repeated")
                dispatched.add(key)
            elif kind == "actuate-applied":
                key = (detail["plan"], detail["idx"])
                if key not in dispatched or key in applied:
                    problems.append(f"{where}: actuation {key} matches no single dispatch")
                applied.add(key)

    with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name in RECOUNTED:
        written = {row["key"]: int(row["value"]) for row in rows if row["metric"] == name}
        if written != tallies[name]:
            problems.append(f"metrics.csv: {name} rows {written} != trace {tallies[name]}")

    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        if fh.read() != stdout:
            problems.append("summary.txt differs from the printed summary")
    return problems


def check_compare_rows(stdout: str, expected: list[dict]) -> list[str]:
    """Every printed ``fogloop compare`` row equals the library's row."""
    lines = stdout.splitlines()
    if not lines or lines[0].split() != ["variant", "mean_latency_ms",
                                         "fog_to_cloud", "total_kwh"]:
        return ["compare: missing table header"]
    body = [line.split() for line in lines[1:]]
    if len(body) != len(expected):
        return [f"compare: {len(body)} rows printed, {len(expected)} expected"]
    problems = []
    for fields, want in zip(body, expected):
        if len(fields) != 4:
            problems.append(f"compare: malformed row {fields}")
            continue
        name, mean, fog_to_cloud, kwh = fields
        mean_ok = (mean == "n/a" if want["mean_latency_ms"] is None
                   else abs(float(mean) - want["mean_latency_ms"]) <= 5e-4)
        if (name != want["variant"] or not mean_ok
                or int(fog_to_cloud) != want["fog_to_cloud"]
                or abs(float(kwh) - want["total_kwh"]) > 5e-10):
            problems.append(f"compare: row {fields} != reference {want}")
    return problems
