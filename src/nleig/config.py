"""The one reader of JSON config objects.  A fields table maps each key of an
object to (parse, default), and a default of REQUIRED makes the key
mandatory; read_fields checks an object's type, keys and values by it.
fields_table and keyword_table take the defaults from the dataclass or the
function the values go to, so each is declared once.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, fields

REQUIRED = object()


def as_number(value) -> float:
    """A JSON number (int or float) as a float; a bool, a numeric string or
    a NaN (which Python's json reads, though JSON has none) is not one.
    Infinity is, as an unbounded slack."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and math.isnan(value)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{value} is out of the float range") from None


def integer(value, least: int = -2**53) -> int:
    """A JSON integer, or a float with an integral value, of magnitude at
    most 2**53 (beyond it no float is exact) and at least `least`; a bool is
    not one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    if abs(value) > 2**53:
        raise ValueError("expected an integer of magnitude at most 2**53")
    if value < least:
        raise ValueError(f"expected an integer of at least {least}, got {int(value)}")
    return int(value)


def optional_number(value):
    return None if value is None else as_number(value)


def flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def read_fields(section, table: dict, where: str) -> dict:
    """The values of the object `section`, defaults filled in; a ValueError
    names `where` and, for a bad value, the key."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be an object")
    extra = set(section) - set(table)
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where}")
    values = {}
    for key, (parse, default) in table.items():
        if key in section:
            try:
                values[key] = parse(section[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key} in {where}: {exc}") from None
        elif default is REQUIRED:
            raise ValueError(f"{where} requires {key}")
        else:
            values[key] = default
    return values


_PARSES = {"float": as_number, "int": integer, "float | None": optional_number,
           "str": string}


def fields_table(cls, *omit) -> dict:
    """The fields table of a dataclass less the fields in omit: each key
    parses by its annotation (a string, as the defining modules postpone
    annotations) and defaults to the field's default, or is required."""
    return {f.name: (_PARSES[f.type], REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls) if f.name not in omit}


def keyword_table(function, **parses) -> dict:
    """The fields table of some keyword parameters of a function, each of
    which has a default: each key of parses parses by its value and
    defaults to the parameter's own default."""
    parameters = inspect.signature(function).parameters
    return {name: (parse, parameters[name].default) for name, parse in parses.items()}
