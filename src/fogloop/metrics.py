"""Run reporting: tallies over the event trace plus delimited and text views.

Every count is a pure function of the trace, so an external script can
recompute the delimited output line by line and match it exactly.
`MetricsFold` computes the tallies as events arrive; a run that uses it as
its trace sink keeps no rows. It counts message rows in counter cells
resolved once per (interaction, path) and copies them into `RunMetrics`
when its `metrics` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from fogloop.coordination import CentralizedControl
from fogloop.runtime import RunResult
from fogloop.smartbuilding import MJ_PER_KWH


@dataclass
class RunMetrics:
    event_counts: dict[str, int] = field(default_factory=dict)
    sends: dict[str, int] = field(default_factory=dict)
    deliveries: dict[str, int] = field(default_factory=dict)
    hops: dict[str, int] = field(default_factory=dict)
    latency_sum: int = 0
    latency_max: int = 0
    energy_mj: dict[str, int] = field(default_factory=dict)

    # Each actuation row carries one latency.
    @property
    def latency_count(self) -> int:
        return self.event_counts.get("actuate-applied", 0)

    @property
    def symptoms(self) -> int:
        return self.event_counts.get("symptom", 0)

    @property
    def plans(self) -> int:
        return self.event_counts.get("plan", 0)

    @property
    def dispatches(self) -> int:
        return self.event_counts.get("dispatch", 0)

    @property
    def fog_to_cloud(self) -> int:
        return self.hops.get("fog->cloud", 0)

    def boundary(self, tier_a: str, tier_b: str) -> int:
        return (self.hops.get(f"{tier_a}->{tier_b}", 0)
                + self.hops.get(f"{tier_b}->{tier_a}", 0))

    @property
    def latency_mean(self) -> float | None:
        if not self.latency_count:
            return None
        return self.latency_sum / self.latency_count

    def kwh(self, office: str) -> float:
        return self.energy_mj[office] / MJ_PER_KWH

    @property
    def total_energy_mj(self) -> int:
        return sum(self.energy_mj.values())

    @property
    def total_kwh(self) -> float:
        return self.total_energy_mj / MJ_PER_KWH


class MetricsFold:
    """A trace sink that folds each event into `RunMetrics` and keeps no
    rows; `events` stays empty. Energy is not an event: `compute_metrics`
    adds it from the offices after the run.

    A message row bumps counter cells, one-element lists: the first
    delivery of an (interaction, path) key resolves the cells every
    delivery of that key bumps, its interaction's and one per tier hop along
    the path. Reading `metrics` copies the cells into `RunMetrics`, work in
    proportion to the distinct interactions, hop names and event kinds."""

    events: tuple[()] = ()

    def __init__(self, header: dict[str, Any]):
        self.header = header
        self._metrics = RunMetrics()
        self._tiers: dict[str, str] = header["nodes"]
        self._counts: dict[str, int] = {}  # every kind but `send` and `deliver`
        # Cells by interaction and by hop name, and the cells one delivery
        # of each (interaction, path) key bumps.
        self._sends: dict[Any, list[int]] = {}
        self._deliveries: dict[Any, list[int]] = {}
        self._hops: dict[str, list[int]] = {}
        self._cells: dict[tuple[Any, Any], tuple[list[int], ...]] = {}

    @property
    def metrics(self) -> RunMetrics:
        """The fold's `RunMetrics`, its tables copied from the counts now."""
        metrics, counts = self._metrics, dict(self._counts)
        metrics.sends = {key: cell[0] for key, cell in self._sends.items()}
        metrics.deliveries = {key: cell[0] for key, cell in self._deliveries.items()}
        metrics.hops = {hop: cell[0] for hop, cell in self._hops.items()}
        for kind, table in (("send", metrics.sends), ("deliver", metrics.deliveries)):
            if table:
                counts[kind] = sum(table.values())
        metrics.event_counts = counts
        return metrics

    def sent(self, t: int, src: str, dst: str, id: int, interaction: str) -> None:
        try:
            self._sends[interaction][0] += 1
        except KeyError:
            self._sends[interaction] = [1]

    def delivered(self, t: int, src: str, dst: str, id: int, interaction: str,
                  sent: int, path: tuple[str, ...]) -> None:
        for cell in self._cells.get((interaction, path)) or self._resolve(interaction, path):
            cell[0] += 1

    def counted(self, sends: dict[Any, int], delivers: dict[tuple[Any, Any], int]) -> None:
        """Fold message rows `n` at a time, from the counts per interaction
        and per (interaction, path) that `EventTrace.tally` returns."""
        for interaction, n in sends.items():
            self._sends.setdefault(interaction, [0])[0] += n
        for (interaction, path), n in delivers.items():
            for cell in self._cells.get((interaction, path)) or self._resolve(interaction, path):
                cell[0] += n

    def _resolve(self, interaction: Any, path: tuple[str, ...]) -> tuple[list[int], ...]:
        """The cells a delivery of (interaction, path) bumps, built once per key."""
        tiers, hops = self._tiers, self._hops
        cells = self._cells[interaction, path] = (
            self._deliveries.setdefault(interaction, [0]),
            *(hops.setdefault(f"{tiers[a]}->{tiers[b]}", [0]) for a, b in zip(path, path[1:])))
        return cells

    def append(self, t: int, kind: str, src: str | None, dst: str | None,
               detail: dict[str, Any]) -> None:
        # `Simulator._deliver` emits its row through `emit`. Once ROADMAP
        # item 1 counts from the sink, it calls `delivered` directly.
        if kind == "deliver":
            key = detail["interaction"], detail["path"]
            for cell in self._cells.get(key) or self._resolve(*key):
                cell[0] += 1
            return
        if kind == "send":
            self.sent(t, src, dst, detail["id"], detail["interaction"])
            return
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "actuate-applied":
            metrics, latency = self._metrics, detail["latency"]
            metrics.latency_sum += latency
            metrics.latency_max = max(metrics.latency_max, latency)


def compute_metrics(result: RunResult) -> RunMetrics:
    """The run's metrics: the fold's own when the run used a `MetricsFold`,
    else a new fold's over the kept rows, its message rows counted by key."""
    trace = result.trace
    if isinstance(trace, MetricsFold):
        fold = trace
    else:
        fold = MetricsFold(trace.header)
        fold.counted(*trace.tally(fold.append))
    metrics = fold.metrics
    metrics.energy_mj = {
        office_id: office.energy_mj for office_id, office in sorted(result.offices.items())
    }
    return metrics


def metrics_csv(metrics: RunMetrics) -> str:
    """Fixed row order: events, sends, deliveries, hops, boundaries,
    latency tallies, pipeline counts, energy. All values are integers."""
    rows: list[tuple[str, str, int]] = []
    for kind in sorted(metrics.event_counts):
        rows.append(("events", kind, metrics.event_counts[kind]))
    for key in sorted(metrics.sends):
        rows.append(("sends", key, metrics.sends[key]))
    for key in sorted(metrics.deliveries):
        rows.append(("deliveries", key, metrics.deliveries[key]))
    for key in sorted(metrics.hops):
        rows.append(("hops", key, metrics.hops[key]))
    for pair in (("device", "fog"), ("fog", "fog"), ("fog", "cloud")):
        rows.append(("boundary", "-".join(pair), metrics.boundary(*pair)))
    rows.append(("latency", "count", metrics.latency_count))
    rows.append(("latency", "sum_ms", metrics.latency_sum))
    rows.append(("latency", "max_ms", metrics.latency_max))
    rows.append(("counts", "symptoms", metrics.symptoms))
    rows.append(("counts", "plans", metrics.plans))
    rows.append(("counts", "dispatches", metrics.dispatches))
    for office in sorted(metrics.energy_mj):
        rows.append(("energy_mj", office, metrics.energy_mj[office]))
    rows.append(("energy_mj", "total", metrics.total_energy_mj))
    lines = ["metric,key,value"]
    lines.extend(f"{metric},{key},{value}" for metric, key, value in rows)
    return "\n".join(lines) + "\n"


def summary_text(result: RunResult, metrics: RunMetrics) -> str:
    mode = result.scenario.control
    if mode is None:
        mode_name = "none"
    else:
        mode_name = ("centralized" if isinstance(mode, CentralizedControl)
                     else "decentralized")
    if metrics.latency_count:
        latency = (f"mean={metrics.latency_mean:.3f} "
                   f"max={metrics.latency_max} count={metrics.latency_count}")
    else:
        latency = "mean=n/a max=n/a count=0"
    lines = [
        f"scenario: {result.scenario.name}",
        f"config digest: {result.scenario.digest}",
        f"seed: {result.seed}",
        f"horizon ms: {result.horizon}",
        f"control mode: {mode_name}",
        f"trace events: {sum(metrics.event_counts.values())}",
        f"decision latency ms: {latency}",
        f"fog->cloud messages: {metrics.fog_to_cloud}",
    ]
    for office in sorted(metrics.energy_mj):
        lines.append(
            f"energy {office}: {metrics.kwh(office):.9f} kWh"
            f" ({metrics.energy_mj[office]} mJ)"
        )
    lines.append(
        f"energy total: {metrics.total_kwh:.9f} kWh"
        f" ({metrics.total_energy_mj} mJ)"
    )
    return "\n".join(lines) + "\n"

