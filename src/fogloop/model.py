"""Managed-system metamodel: domains, tasks, services, composites.

A Domain describes the application under control as a set of Tasks, each
task bundling the Services (device or virtual entities) that realize it.
Services expose monitorable parameters (sensor touchpoints) and commands
(effector touchpoints). Composites group cooperating services; they carry
no behavior of their own. All types are immutable after construction and
safe to share across concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_SAMPLE_INTERVAL_MS = 1000


class ValueType(str, Enum):
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    ENUM_OF_STRINGS = "enum_of_strings"


class ServiceKind(str, Enum):
    PHYSICAL_DEVICE = "physical_device"
    VIRTUAL = "virtual"


def value_conforms(value: object, value_type: ValueType) -> bool:
    """True if a raw value is acceptable for the declared value type. A real
    is an int or float that converts to a finite float."""
    if value_type is ValueType.BOOLEAN:
        return isinstance(value, bool)
    if value_type is ValueType.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    if value_type is ValueType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, str)


@dataclass(frozen=True)
class ParameterSpec:
    """A monitorable parameter a service exposes."""

    name: str
    value_type: ValueType
    unit: str | None = None
    sample_interval_ms: int = DEFAULT_SAMPLE_INTERVAL_MS


@dataclass(frozen=True)
class CommandSpec:
    """An effector command a service accepts; argument_type None means no argument."""

    name: str
    argument_type: ValueType | None = None


@dataclass(frozen=True)
class Service:
    name: str
    kind: ServiceKind
    parameters: tuple[ParameterSpec, ...] = ()
    commands: tuple[CommandSpec, ...] = ()

    def command(self, name: str) -> CommandSpec | None:
        for c in self.commands:
            if c.name == name:
                return c
        return None


@dataclass(frozen=True)
class Composite:
    """Grouping of services cooperating toward a task goal. Grouping only."""

    name: str
    members: tuple[str, ...]
    goal: str = ""


@dataclass(frozen=True)
class Task:
    name: str
    services: tuple[Service, ...] = ()
    composites: tuple[Composite, ...] = ()

    def service(self, name: str) -> Service | None:
        for s in self.services:
            if s.name == name:
                return s
        return None


@dataclass(frozen=True)
class Domain:
    name: str
    tasks: tuple[Task, ...] = ()

    def find_service(self, name: str) -> Service | None:
        for task in self.tasks:
            svc = task.service(name)
            if svc is not None:
                return svc
        return None

    def all_services(self) -> tuple[Service, ...]:
        return tuple(s for task in self.tasks for s in task.services)


@dataclass(frozen=True)
class Violation:
    """One invariant violation, located by a path into the offending structure."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    def extend(self, other: ValidationReport) -> None:
        self.violations.extend(other.violations)

    def lines(self) -> list[str]:
        return [str(v) for v in self.violations]


def validate_domain(domain: Domain) -> ValidationReport:
    """Check every structural invariant of a domain.

    Violations are data, not failures: a valid domain yields an empty report,
    and the function is pure, so repeated calls on equal inputs agree.
    """
    report = ValidationReport()
    if not domain.name:
        report.add("name", "domain name must be non-empty")
    if not domain.tasks:
        report.add("tasks", "at least one task")

    seen_tasks: set[str] = set()
    # Service names are unique across tasks: a name is one set of streams.
    seen_services: set[str] = set()
    for ti, task in enumerate(domain.tasks):
        tpath = f"tasks[{ti}]"
        if not task.name:
            report.add(tpath, "task name must be non-empty")
        if task.name in seen_tasks:
            report.add(tpath, f"duplicate task name '{task.name}'")
        seen_tasks.add(task.name)

        declared: set[str] = set()
        for si, svc in enumerate(task.services):
            spath = f"{tpath}.services[{si}]"
            if not svc.name:
                report.add(spath, "service name must be non-empty")
            if svc.name in seen_services:
                report.add(spath, f"duplicate service name '{svc.name}'")
            declared.add(svc.name)
            seen_services.add(svc.name)
            if svc.kind is ServiceKind.PHYSICAL_DEVICE and not (svc.parameters or svc.commands):
                report.add(spath, "physical device must expose at least one parameter or command")
            pnames: set[str] = set()
            for pi, p in enumerate(svc.parameters):
                ppath = f"{spath}.parameters[{pi}]"
                if p.name in pnames:
                    report.add(ppath, f"duplicate parameter name '{p.name}'")
                pnames.add(p.name)
                if p.sample_interval_ms <= 0:
                    report.add(ppath, "sample interval must be positive")
            cnames: set[str] = set()
            for ci, c in enumerate(svc.commands):
                cpath = f"{spath}.commands[{ci}]"
                if c.name in cnames:
                    report.add(cpath, f"duplicate command name '{c.name}'")
                cnames.add(c.name)

        for ci, comp in enumerate(task.composites):
            cpath = f"{tpath}.composites[{ci}]"
            if not comp.members:
                report.add(cpath, "composite members must be non-empty")
            seen_members: set[str] = set()
            for member in comp.members:
                if member not in declared:
                    report.add(cpath, f"unknown member '{member}'")
                if member in seen_members:
                    report.add(cpath, f"duplicate member '{member}'")
                seen_members.add(member)
    return report

