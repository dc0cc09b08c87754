"""Shared fixtures: scenarios that declare a stream with a type its source
never produces."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ONE_OFFICE = Path(__file__).resolve().parent.parent / "scenarios" / "smart_building_1office.json"


def _parameter(data: dict, service: str, name: str) -> dict:
    return next(param for task in data["domain"]["tasks"] for svc in task["services"]
                if svc["name"] == service for param in svc["parameters"]
                if param["name"] == name)


def _conditions_on(data: dict, parameter: str) -> list[dict]:
    return [cond.get("elapsed_since", cond) for policy in data["policies"]
            for cond in policy["when"]
            if cond.get("elapsed_since", cond)["parameter"] == parameter]


def _door_lock_state_boolean(data: dict) -> None:
    _parameter(data, "office1.door", "lock-state")["value_type"] = "boolean"
    data["devices"]["office1.door"]["initial"] = {}
    for cond in _conditions_on(data, "lock-state"):
        cond["value"] = True


def _heater_room_temp_integer(data: dict) -> None:
    _parameter(data, "office1.heater", "room-temp")["value_type"] = "integer"
    for cond in _conditions_on(data, "room-temp"):
        cond["value"] = int(cond["value"])


def _clock_armed_at(data: dict) -> None:
    clock = next(svc for svc in data["domain"]["tasks"][0]["services"]
                 if svc["name"] == "office1.clock")
    clock["parameters"].append({"name": "armed-at", "value_type": "integer",
                                "sample_interval_ms": 1000})


def _weather_boolean(data: dict) -> None:
    _parameter(data, "environment", "weather")["value_type"] = "boolean"
    for cond in _conditions_on(data, "weather"):
        cond["value"] = True


# name -> (change to the 1-office scenario, path of the violation it causes).
# Each change is consistent within the file, so only the source's type
# can reject it.
TYPE_GAPS = {
    "door-lock-state-boolean": (_door_lock_state_boolean, "devices.office1.door"),
    "heater-room-temp-integer": (_heater_room_temp_integer, "devices.office1.heater"),
    "clock-armed-at": (_clock_armed_at, "devices.office1.clock"),
    "environment-weather-boolean": (_weather_boolean, "environment"),
}


@pytest.fixture(params=sorted(TYPE_GAPS))
def type_gap(request) -> tuple[dict, str]:
    """(scenario data, violation path) for a stream declared with a type
    other than the one its device or the environment reads."""
    change, path = TYPE_GAPS[request.param]
    data = json.loads(ONE_OFFICE.read_text())
    change(data)
    return data, path
