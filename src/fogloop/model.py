"""Value types of the managed system's streams, and validation reports.

A device kind fixes the type of every reading it takes and every command
argument it accepts (`smartbuilding.READINGS` and `COMMANDS`); a scenario
names a device's kind and which readings it samples, not their types.
Validation checks each value against its type once, and reports every
problem as a located violation rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class ValueType(str, Enum):
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    ENUM_OF_STRINGS = "enum_of_strings"


def value_conforms(value: object, value_type: ValueType) -> bool:
    """True if a raw value is acceptable for the value type. A real
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
