"""Domain metamodel and validation tests."""

from __future__ import annotations

import dataclasses
import sys

from fogloop.model import (
    CommandSpec,
    Composite,
    Domain,
    ParameterSpec,
    Service,
    ServiceKind,
    Task,
    ValueType,
    validate_domain,
    value_conforms,
)


def office_task(name: str = "office1") -> Task:
    """A single-office task with the six usual devices and two composites."""
    prefix = name
    door = Service(
        f"{prefix}.door",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(ParameterSpec("lock-state", ValueType.ENUM_OF_STRINGS),),
        commands=(CommandSpec("lock"), CommandSpec("unlock")),
    )
    window = Service(
        f"{prefix}.window",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(ParameterSpec("position", ValueType.ENUM_OF_STRINGS),),
        commands=(CommandSpec("set-position", ValueType.ENUM_OF_STRINGS),),
    )
    heater = Service(
        f"{prefix}.heater",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(
            ParameterSpec("power-state", ValueType.BOOLEAN),
            ParameterSpec("room-temp", ValueType.REAL, unit="celsius"),
        ),
        commands=(CommandSpec("set-power", ValueType.BOOLEAN),),
    )
    meter = Service(
        f"{prefix}.energy_meter",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(ParameterSpec("kwh-reading", ValueType.REAL, unit="kWh"),),
    )
    lamp = Service(
        f"{prefix}.lamp",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(ParameterSpec("power-state", ValueType.BOOLEAN),),
        commands=(CommandSpec("set-power", ValueType.BOOLEAN),),
    )
    clock = Service(
        f"{prefix}.clock",
        ServiceKind.PHYSICAL_DEVICE,
        parameters=(ParameterSpec("armed", ValueType.BOOLEAN),),
        commands=(CommandSpec("arm", ValueType.INTEGER), CommandSpec("disarm")),
    )
    return Task(
        name,
        services=(door, window, heater, meter, lamp, clock),
        composites=(
            Composite("climate", (heater.name, window.name), goal="hold room temperature"),
            Composite(
                "lighting",
                (lamp.name, window.name, clock.name, door.name),
                goal="light only when useful",
            ),
        ),
    )


def test_office_domain_validates_clean():
    domain = Domain("smart-building", tasks=(office_task(),))
    report = validate_domain(domain)
    assert report.ok
    assert report.lines() == []


def test_empty_domain_flags_missing_tasks():
    report = validate_domain(Domain("empty"))
    assert not report.ok
    assert any("at least one task" in str(v) for v in report.violations)
    assert report.violations[0].path == "tasks"


def test_unknown_composite_member_is_located():
    task = office_task()
    # Drop the heater; the climate composite now dangles.
    without_heater = dataclasses.replace(
        task, services=tuple(s for s in task.services if not s.name.endswith(".heater"))
    )
    report = validate_domain(Domain("d", tasks=(without_heater,)))
    assert not report.ok
    offending = [v for v in report.violations if "unknown member" in v.message]
    assert len(offending) == 1
    assert offending[0].path == "tasks[0].composites[0]"
    assert "office1.heater" in offending[0].message


def test_duplicate_names_are_violations():
    svc = Service("twin", ServiceKind.VIRTUAL, parameters=(ParameterSpec("x", ValueType.REAL),))
    task = Task("t", services=(svc, svc))
    report = validate_domain(Domain("d", tasks=(task,)))
    assert any("duplicate service name 'twin'" in v.message for v in report.violations)

    report = validate_domain(Domain("d", tasks=(Task("t"), Task("t"))))
    assert any("duplicate task name 't'" in v.message for v in report.violations)

    task = office_task()
    redundant = Composite("redundant", ("office1.lamp", "office1.door", "office1.lamp"))
    task = dataclasses.replace(task, composites=task.composites + (redundant,))
    report = validate_domain(Domain("d", tasks=(task,)))
    assert [(v.path, v.message) for v in report.violations] == [
        (f"tasks[0].composites[{len(task.composites) - 1}]",
         "duplicate member 'office1.lamp'"),
    ]


def test_device_without_surface_is_flagged():
    bare = Service("mute", ServiceKind.PHYSICAL_DEVICE)
    report = validate_domain(Domain("d", tasks=(Task("t", services=(bare,)),)))
    assert any("at least one parameter or command" in v.message for v in report.violations)


def test_nonpositive_sample_interval_is_flagged():
    svc = Service(
        "s",
        ServiceKind.VIRTUAL,
        parameters=(ParameterSpec("x", ValueType.REAL, sample_interval_ms=0),),
    )
    report = validate_domain(Domain("d", tasks=(Task("t", services=(svc,)),)))
    assert any("sample interval" in v.message for v in report.violations)


def test_validation_is_pure():
    domain = Domain("smart-building", tasks=(office_task(),))
    first = validate_domain(domain)
    second = validate_domain(domain)
    assert first.lines() == second.lines()


def test_value_conformance_separates_bool_from_int():
    assert value_conforms(True, ValueType.BOOLEAN)
    assert not value_conforms(True, ValueType.INTEGER)
    assert not value_conforms(True, ValueType.REAL)
    assert value_conforms(3, ValueType.INTEGER)
    assert value_conforms(3, ValueType.REAL)
    assert value_conforms(3.5, ValueType.REAL)
    assert not value_conforms(3.5, ValueType.INTEGER)
    assert value_conforms("sunny", ValueType.ENUM_OF_STRINGS)
    assert not value_conforms("sunny", ValueType.REAL)


def test_real_integer_must_convert_to_a_finite_float():
    largest = int(sys.float_info.max)
    assert value_conforms(largest, ValueType.REAL)
    assert value_conforms(-largest, ValueType.REAL)
    assert not value_conforms(10**400, ValueType.REAL)
    assert not value_conforms(-10**400, ValueType.REAL)
    assert value_conforms(10**400, ValueType.INTEGER)


def test_lookups_by_name():
    task = office_task()
    domain = Domain("d", tasks=(task,))
    assert domain.find_service("office1.lamp") is task.service("office1.lamp")
    assert domain.find_service("missing") is None
    lamp = task.service("office1.lamp")
    assert lamp is not None
    assert lamp.command("set-power") is not None
    assert lamp.command("explode") is None
    assert len(domain.all_services()) == 6
