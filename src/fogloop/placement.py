"""Assigns control-loop components to topology nodes.

The offering alone decides where a loop's components run, so every
placement rule holds by construction. Two offerings exist: a full loop
hosted on a fog node near its devices, and a split offering that keeps
monitor and execute at the fog while analyze, plan, and knowledge run on
the cloud. "Near" is made concrete as the fog node minimizing the summed
shortest-path latency from the scope devices' host nodes, ties broken by
lexicographic node id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from fogloop.errors import ConfigError
from fogloop.mape import Policy
from fogloop.simnet import Tier, Topology

COMPONENTS = ("monitor", "analyze", "plan", "execute", "knowledge")


class Offering(str, Enum):
    MAPEAAS = "mapeaas"
    APAAS_SPLIT = "apaas_split"


class NoFogNodeError(ConfigError):
    """No fog node is reachable from a loop's scope devices."""


@dataclass(frozen=True)
class LoopSpec:
    id: str
    scope: tuple[str, ...]
    offering: Offering
    policies: tuple[Policy, ...] = ()


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
    """Pick nodes for every loop component from its offering alone:
    monitor and execute at the loop's nearest fog node, analyze, plan and
    knowledge there too under `mapeaas` and on the cloud under
    `apaas_split`. Analyze and knowledge therefore always share a node."""
    assignments: dict[tuple[str, str], str] = {}
    for loop in loops:
        fog = _nearest_fog(loop, topology)
        core = fog if loop.offering is Offering.MAPEAAS else _cloud_node(topology)
        for comp in COMPONENTS:
            assignments[(loop.id, comp)] = fog if comp in ("monitor", "execute") else core
    return Placement(assignments)
