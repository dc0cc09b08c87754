"""Value types: what each accepts."""

from __future__ import annotations

import sys

from fogloop.model import ValueType, value_conforms


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
