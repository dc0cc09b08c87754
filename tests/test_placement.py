"""Loop placement tests."""

from __future__ import annotations

import pytest

from fogloop.placement import (
    COMPONENTS,
    LoopSpec,
    NoFogNodeError,
    Offering,
    place,
)
from fogloop.simnet import Link, Node, Tier, Topology


# Each device runs on a node of its own name.
HOSTS = {"office1.lamp": "office1.lamp", "office1.window": "office1.window"}


def office_topology(fogs: int = 1) -> Topology:
    nodes = [
        Node("office1.lamp", Tier.DEVICE),
        Node("office1.window", Tier.DEVICE),
        Node("cloud", Tier.CLOUD),
    ]
    links = []
    for i in range(1, fogs + 1):
        nodes.append(Node(f"fog{i}", Tier.FOG))
        links.append(Link("office1.lamp", f"fog{i}", 1))
        links.append(Link("office1.window", f"fog{i}", 1))
        links.append(Link(f"fog{i}", "cloud", 50))
    return Topology(tuple(nodes), tuple(links), HOSTS)


def loop(offering: Offering = Offering.MAPEAAS, **overrides) -> LoopSpec:
    fields = {
        "id": "office1",
        "scope": ("office1.lamp", "office1.window"),
        "offering": offering,
        "policies": (),
    }
    fields.update(overrides)
    return LoopSpec(**fields)


def test_full_loop_lands_on_the_one_fog_node():
    placement = place([loop()], office_topology())
    assert placement.assignments == {("office1", comp): "fog1" for comp in COMPONENTS}


def test_split_offering_keeps_monitor_and_execute_at_fog():
    placement = place([loop(Offering.APAAS_SPLIT)], office_topology())
    assert {comp: placement.node_of("office1", comp) for comp in COMPONENTS} == {
        "monitor": "fog1",
        "execute": "fog1",
        "analyze": "cloud",
        "plan": "cloud",
        "knowledge": "cloud",
    }


def test_equidistant_fog_tie_breaks_lexicographically():
    placement = place([loop()], office_topology(fogs=2))
    assert placement.node_of("office1", "monitor") == "fog1"


def test_nearer_fog_wins_over_lexicographic_order():
    topo = Topology(
        nodes=(
            Node("office1.lamp", Tier.DEVICE),
            Node("office1.window", Tier.DEVICE),
            Node("fog1", Tier.FOG),
            Node("fog2", Tier.FOG),
            Node("cloud", Tier.CLOUD),
        ),
        links=(
            Link("office1.lamp", "fog1", 5),
            Link("office1.window", "fog1", 5),
            Link("office1.lamp", "fog2", 1),
            Link("office1.window", "fog2", 1),
            Link("fog1", "cloud", 50),
            Link("fog2", "cloud", 50),
        ),
        hosts=HOSTS,
    )
    assert place([loop()], topo).node_of("office1", "analyze") == "fog2"


def test_unreachable_scope_raises_no_fog_node():
    topo = Topology(
        nodes=(
            Node("office1.lamp", Tier.DEVICE),
            Node("office1.window", Tier.DEVICE),
            Node("fog1", Tier.FOG),
            Node("cloud", Tier.CLOUD),
        ),
        links=(Link("fog1", "cloud", 50),),
        hosts=HOSTS,
    )
    with pytest.raises(NoFogNodeError):
        place([loop()], topo)


def test_place_output_validates_clean():
    # Each loop follows its own offering, whatever the other loops use.
    placement = place([loop(), loop(Offering.APAAS_SPLIT, id="office1x")],
                      office_topology(fogs=2))
    assert placement.assignments == {
        **{("office1", comp): "fog1" for comp in COMPONENTS},
        **{("office1x", comp): "fog1" if comp in ("monitor", "execute") else "cloud"
           for comp in COMPONENTS},
    }


def test_scope_minimality_against_alternatives():
    topo = office_topology(fogs=3)
    placement = place([loop()], topo)
    chosen = placement.node_of("office1", "monitor")
    for device in ("office1.lamp", "office1.window"):
        to_chosen = topo.route(device, chosen)[1]
        for other in ("fog1", "fog2", "fog3"):
            to_other = topo.route(device, other)[1]
            assert to_chosen <= to_other
