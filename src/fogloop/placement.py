"""Assigns control-loop components to topology nodes.

Two offerings exist: a full loop hosted on a fog node near its devices,
and a split offering that keeps monitor and execute at the fog while
analyze, plan, and knowledge run on the cloud. "Near" is made concrete
as the fog node minimizing the summed shortest-path latency from the
scope devices' host nodes, ties broken by lexicographic node id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from fogloop.errors import ConfigError, FogloopError
from fogloop.mape import Policy
from fogloop.model import ValidationReport
from fogloop.simnet import Tier, Topology

COMPONENTS = ("monitor", "analyze", "plan", "execute", "knowledge")


class Offering(str, Enum):
    MAPEAAS = "mapeaas"
    APAAS_SPLIT = "apaas_split"


class NoFogNodeError(FogloopError):
    """No fog node is reachable from a loop's scope devices."""


@dataclass(frozen=True)
class LoopSpec:
    id: str
    scope: tuple[str, ...]
    offering: Offering
    policies: tuple[Policy, ...] = ()
    node: str | None = None
    components: tuple[tuple[str, str], ...] = ()


@dataclass
class Placement:
    assignments: dict[tuple[str, str], str]

    def node_of(self, loop_id: str, component: str) -> str | None:
        return self.assignments.get((loop_id, component))


def _scope_hosts(loop: LoopSpec, topology: Topology) -> list[str]:
    hosts: list[str] = []
    for service in loop.scope:
        node = topology.host_of(service)
        if node is not None:
            hosts.append(node)
    return hosts


def _nearest_fog(loop: LoopSpec, topology: Topology) -> str:
    hosts = _scope_hosts(loop, topology)
    best: tuple[int, str] | None = None
    for node in topology.nodes:
        if node.tier is not Tier.FOG:
            continue
        total = 0
        reachable = True
        for host in hosts:
            route = topology.route(host, node.id)
            if route is None:
                reachable = False
                break
            total += route[1]
        if reachable and (best is None or (total, node.id) < best):
            best = (total, node.id)
    if best is None:
        raise NoFogNodeError(f"loop '{loop.id}': no fog node reaches its scope devices")
    return best[1]


def _cloud_node(topology: Topology) -> str:
    clouds = [n.id for n in topology.nodes if n.tier is Tier.CLOUD]
    if len(clouds) != 1:
        raise ConfigError(f"expected exactly one cloud node, found {len(clouds)}")
    return clouds[0]


def place(loops: Iterable[LoopSpec], topology: Topology) -> Placement:
    """Pick nodes for every loop component, honoring explicit overrides."""
    assignments: dict[tuple[str, str], str] = {}
    for loop in loops:
        if loop.node is not None:
            if loop.node not in topology.by_id:
                raise ConfigError(f"loop '{loop.id}': unknown node '{loop.node}'")
            fog = loop.node
        else:
            fog = _nearest_fog(loop, topology)
        if loop.offering is Offering.MAPEAAS:
            chosen = {comp: fog for comp in COMPONENTS}
        else:
            cloud = _cloud_node(topology)
            chosen = {
                "monitor": fog,
                "execute": fog,
                "analyze": cloud,
                "plan": cloud,
                "knowledge": cloud,
            }
        for comp, node in loop.components:
            if node not in topology.by_id:
                raise ConfigError(f"loop '{loop.id}': unknown node '{node}' for {comp}")
            chosen[comp] = node
        for comp in COMPONENTS:
            assignments[(loop.id, comp)] = chosen[comp]
    return Placement(assignments)


def validate_placement(
    placement: Placement, loops: Iterable[LoopSpec], topology: Topology
) -> ValidationReport:
    report = ValidationReport()
    try:
        cloud = _cloud_node(topology)
    except ConfigError:
        cloud = None
        report.add("topology", "exactly one cloud node required")
    known: set[tuple[str, str]] = set()
    for loop in loops:
        for comp in COMPONENTS:
            key = (loop.id, comp)
            known.add(key)
            path = f"{loop.id}.{comp}"
            node_id = placement.assignments.get(key)
            if node_id is None:
                report.add(path, "placement not total")
                continue
            node = topology.by_id.get(node_id)
            if node is None:
                report.add(path, f"unknown node '{node_id}'")
                continue
            if loop.offering is Offering.MAPEAAS:
                if node.tier is not Tier.FOG:
                    report.add(path, f"{comp} must live on a fog node, got '{node_id}'")
            else:
                if comp in ("monitor", "execute"):
                    if node.tier is not Tier.FOG:
                        report.add(path, f"{comp} must remain at fog, got '{node_id}'")
                elif cloud is not None and node_id != cloud:
                    report.add(path, f"{comp} must live on the cloud node, got '{node_id}'")
    for key in placement.assignments:
        if key not in known:
            report.add(f"{key[0]}.{key[1]}", "assignment for unknown loop")
    return report

