"""Shared fixtures: scenarios that sample a stream their source never
produces."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ONE_OFFICE = Path(__file__).resolve().parent.parent / "scenarios" / "smart_building_1office.json"


def _clock_armed_at(data: dict) -> None:
    data["devices"]["office1.clock"]["samples"]["armed-at"] = 1000


# name -> (change to the 1-office scenario, path of the violation it causes).
# A device's kind fixes the type of every reading it takes, so the one gap a
# file can still open is a reading its kind cannot take.
TYPE_GAPS = {
    "clock-armed-at": (_clock_armed_at, "devices.office1.clock"),
}


@pytest.fixture(params=sorted(TYPE_GAPS))
def type_gap(request) -> tuple[dict, str]:
    """(scenario data, violation path) for a device that samples a reading
    its kind cannot read."""
    change, path = TYPE_GAPS[request.param]
    data = json.loads(ONE_OFFICE.read_text())
    change(data)
    return data, path
