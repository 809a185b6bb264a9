"""Declared domains of the numeric and string-choice config fields.

Each such field declares once the values it accepts, as
``batch_size: int = domain(POSITIVE_INT)`` or ``on_failure: str =
domain(Choice(("degrade", "raise")), "degrade")``, and ``check_fields(self)``
opens the class's ``__post_init__``: a value outside its domain raises
``ValueError("{field} must be {phrase}, got {value!r} ({Class})")``.
Rules relating two fields stay hand-written and run after it.  A bool is
never a count or a number; numpy integers and floats are ints and reals;
an int field refuses a float, even a whole one (DESIGN.md §2).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral, Real
from typing import NamedTuple, Optional, Tuple

__all__ = [
    "AT_LEAST_ONE", "Choice", "Domain", "NON_NEGATIVE", "NON_NEGATIVE_INT",
    "POSITIVE", "POSITIVE_INT", "UNIT", "check_block_map", "check_fields",
    "declarations", "domain", "domain_of",
]

_KEY = "domain"

# Phrases of the half-open domains [low, inf) and (low, inf), by
# (kind, low, low_open).
_NAMES = {
    (int, 1, False): "a positive integer",
    (int, 0, False): "a non-negative integer",
    (float, 0, True): "positive and finite",
    (float, 0, False): "non-negative and finite",
}


class Domain(NamedTuple):
    """The ints (``kind=int``) or reals between ``low`` and ``high``, each
    bound closed or open, plus ``None`` when ``optional``."""

    kind: type
    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = True
    optional: bool = False

    def contains(self, value) -> bool:
        if value is None:
            return self.optional
        if isinstance(value, bool) or not isinstance(
            value, Integral if self.kind is int else Real
        ):
            return False
        # Each comparison is false for NaN, so NaN is never contained.
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def phrase(self) -> str:
        """What a contained value is, as the message after "must be"."""
        if self.high == math.inf and self.high_open:
            text = _NAMES.get((self.kind, self.low, self.low_open)) or (
                f"finite and {'>' if self.low_open else '>='} {self.low:g}"
            )
        else:
            text = (f"in {'(' if self.low_open else '['}{self.low:g}, "
                    f"{self.high:g}{')' if self.high_open else ']'}")
        return f"None or {text}" if self.optional else text

    def or_none(self) -> "Domain":
        return self._replace(optional=True)

    def check(self, name: str, value, owner: str = "") -> None:
        """Raise ``ValueError`` naming ``name`` (and the ``owner`` class)
        unless ``value`` lies in the domain."""
        if not self.contains(value):
            where = f" ({owner})" if owner else ""
            raise ValueError(
                f"{name} must be {self.phrase()}, got {value!r}{where}"
            )


class Choice(NamedTuple):
    """The strings ``values``: one field's named choices, such as a
    topology or a fault policy.  ``kind`` converts a spec string's text,
    as a :class:`Domain`'s does."""

    values: Tuple[str, ...]

    kind = str
    check = Domain.check

    def contains(self, value) -> bool:
        return isinstance(value, str) and value in self.values

    def phrase(self) -> str:
        return "one of " + ", ".join(map(repr, self.values))


POSITIVE_INT = Domain(int, 1)
NON_NEGATIVE_INT = Domain(int, 0)
POSITIVE = Domain(float, 0, low_open=True)
NON_NEGATIVE = Domain(float, 0)
UNIT = Domain(float, 0, 1, high_open=False)
AT_LEAST_ONE = Domain(float, 1)


def domain(accepts: Domain | Choice, default=MISSING):
    """A dataclass field whose values must lie in ``accepts``."""
    return field(default=default, metadata={_KEY: accepts})


def declarations(cls) -> dict:
    """Field name -> declared domain of each field of the dataclass (or
    instance) ``cls`` that declares one, in field order."""
    return {item.name: item.metadata[_KEY]
            for item in fields(cls) if _KEY in item.metadata}


def domain_of(cls, name: str) -> Optional[Domain | Choice]:
    """The domain the field ``name`` of the dataclass ``cls`` declares,
    ``None`` when it declares none."""
    return {item.name: item.metadata.get(_KEY) for item in fields(cls)}[name]


def check_fields(spec) -> None:
    """Refuse any field of the dataclass ``spec`` outside its domain."""
    owner = type(spec).__name__
    for name, accepts in declarations(spec).items():
        accepts.check(name, getattr(spec, name), owner)


def check_block_map(spec, name: str, pairs) -> None:
    """Refuse a ``(block index, count)`` pair of ``spec``'s field ``name``
    unless the index is a non-negative integer and the count a positive
    one."""
    owner = type(spec).__name__
    for block, count in pairs:
        NON_NEGATIVE_INT.check(f"{name} index", block, owner)
        POSITIVE_INT.check(f"{name}[{block!r}]", count, owner)
