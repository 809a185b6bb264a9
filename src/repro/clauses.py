"""The ``;``-separated ``field=value`` grammar of the CLI spec strings.

``--drift``, ``--control`` and ``--trace`` each parse into a frozen
dataclass through :func:`parse_clauses`; only ``--faults`` has a grammar
of its own (:meth:`repro.faults.FaultPlan.parse`).  The grammar reads
the spec's field declarations (:mod:`repro.domains`): a field is
settable when it declares a domain or a choice, whose ``kind`` converts
the text, and a bare first clause names one of the declared choices of
``kind``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, TypeVar

from .domains import declarations

__all__ = ["parse_clauses"]

Spec = TypeVar("Spec")


def parse_clauses(
    spec: Spec,
    text: str,
    noun: str,
    flags: Optional[Mapping[str, str]] = None,
    ignore: str = "",
) -> Spec:
    """Apply the clauses of ``text`` to ``spec``, left to right.

    A clause is ``field=value`` for a field of ``spec`` that declares a
    domain or a choice (``-`` in a name reads as ``_``), or
    ``flag=on|off`` for a key of ``flags``, which names the boolean field
    it sets.  The first clause may be a bare value of the ``kind`` field's
    declared choice, which sets ``kind``; the bare word ``ignore`` is
    skipped anywhere.  The spec's ``__post_init__`` checks each value
    against its field's declaration.  Every problem raises ``ValueError``
    whose message names the ``noun``.
    """
    flags = flags or {}
    declared = declarations(spec)
    kind = declared.get("kind")
    for position, clause in enumerate(text.split(";")):
        clause = clause.strip()
        if not clause or clause == ignore:
            continue
        if "=" not in clause:
            if position == 0 and kind is not None and kind.contains(clause):
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
        elif key in declared:
            try:
                spec = replace(spec, **{key: declared[key].kind(value)})
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {noun} field {key!r}: {value!r}"
                ) from exc
        else:
            raise ValueError(f"unknown {noun} field {key!r}")
    return spec
