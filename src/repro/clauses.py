"""The ``;``-separated ``field=value`` grammar of the CLI spec strings.

``--drift``, ``--control`` and ``--trace`` each parse into a frozen
dataclass through :func:`parse_clauses`; only ``--faults`` has a grammar
of its own (:meth:`repro.faults.FaultPlan.parse`).
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Mapping, Optional, Sequence, TypeVar

__all__ = ["parse_clauses"]

Spec = TypeVar("Spec")

# Field annotation -> literal conversion (the spec modules use postponed
# annotations, so dataclass field types are strings).  Fields of any
# other type are not settable by ``field=value``.
_LITERALS = {"int": int, "float": float, "str": str}


def parse_clauses(
    spec: Spec,
    text: str,
    noun: str,
    kinds: Sequence[str] = (),
    flags: Optional[Mapping[str, str]] = None,
    ignore: str = "",
) -> Spec:
    """Apply the clauses of ``text`` to ``spec``, left to right.

    A clause is ``field=value`` for a field of ``spec`` with an ``int``,
    ``float`` or ``str`` annotation (``-`` in a name reads as ``_``), or
    ``flag=on|off`` for a key of ``flags``, which names the boolean field
    it sets.  The first clause may be a bare name from ``kinds``, which
    sets ``kind``; the bare word ``ignore`` is skipped anywhere.  The
    spec's ``__post_init__`` checks each value (a number against its
    field's declared domain).  Every problem raises ``ValueError`` whose
    message names the ``noun``.
    """
    flags = flags or {}
    literals = {
        field.name: _LITERALS[field.type]
        for field in fields(spec) if field.type in _LITERALS
    }
    for position, clause in enumerate(text.split(";")):
        clause = clause.strip()
        if not clause or clause == ignore:
            continue
        if "=" not in clause:
            if position == 0 and clause in kinds:
                spec = replace(spec, kind=clause)
                continue
            raise ValueError(f"malformed {noun} clause {clause!r}")
        key, _, value = clause.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in flags:
            if value not in ("on", "off"):
                raise ValueError(
                    f"{noun} flag {key!r} must be on/off, got {value!r}"
                )
            spec = replace(spec, **{flags[key]: value == "on"})
        elif key in literals:
            try:
                spec = replace(spec, **{key: literals[key](value)})
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {noun} field {key!r}: {value!r}"
                ) from exc
        else:
            raise ValueError(f"unknown {noun} field {key!r}")
    return spec
