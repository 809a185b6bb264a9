"""Every numeric and string config field declares its domain, and the
domain holds.

By introspection over ``src/repro``, every public dataclass with a field
annotated ``int`` or ``float`` (or ``Optional`` of one) is either a
config, whose every such field declares a :class:`repro.domains.Domain`,
or a record in :data:`RECORDS`, one reason per group.  Every ``str``
field of a config declares a :class:`repro.domains.Choice`, or is free
text listed in :data:`FREE_FORM` with a reason.  A new field of a
config, or a new config, is covered with no edit here.

For each declared numeric field: the kind matches the annotation, the
default lies inside the domain, and NaN, ±inf, ``True``, a fraction where
an int is meant, ``None`` (unless optional) and the value just past each
bound raise ``ValueError`` at construction, naming the field and the
class.  For each declared choice: the default is one of its values; a
value in the wrong case, ``""``, ``None``, a number and ``bytes`` are
refused the same way; and each CLI flag that sets the field offers the
declared values.  This covers construction only: that every accepted
value also runs a simulation to a finite end is not checked here.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import argparse
import math
import pkgutil
import re

import numpy as np
import pytest

import repro
from repro.cli import build_parser
from repro.cluster import LinkSpec
from repro.config import moe_gpt
from repro.core import JanusFeatures
from repro.domains import Choice, domain_of
from repro.faults import ComputeSlowdown, FaultPlan, LinkFault, ServerOutage
from repro.runtime.layout import ExpertPlacement, RankLayout
from repro.serving import ServingConfig, TraceSpec
from repro.workloads import DriftSpec

# Public dataclasses whose numbers the program computes, or derives from
# checked configs; no caller hands them in.
RECORDS = {
    "a run's results, counters and traffic rows": (
        "CommRecord", "FaultStats", "GoodputResult", "Histogram",
        "IterationResult", "MemoryEstimate", "ServingResult", "StepMetrics",
        "TrafficRow",
    ),
    "derived by the engine and planners from checked configs": (
        "BlockCommProfile", "BlockWorkload", "CostModel", "IterationWorkload",
        "PcieCopyStep", "TensorParallelPlan",
    ),
    "control-plane signals, decisions and chunk plans": (
        "BlockLoadSignals", "ChunkPlan", "ControlDecision", "ControlSignals",
    ),
    "task-graph and trace nodes the engine builds": (
        "Lane", "ResourceClaim", "Span", "Task",
    ),
}
RECORD_NAMES = {name for names in RECORDS.values() for name in names}

# ``str`` fields of configs that are free text, not a choice.
FREE_FORM = {
    "ModelConfig.name": "a display label, printed and never compared",
    "LinkFault.selector": "a link-kind prefix and an optional machine, "
                          "checked by LinkFault itself",
}

# A valid instance of each config whose fields are not all defaulted.
SAMPLES = {
    "ComputeSlowdown": lambda: ComputeSlowdown(machine=0, speed=0.5),
    "ExpertPlacement": lambda: ExpertPlacement(num_experts=4, world_size=2),
    "LinkFault": lambda: LinkFault(selector="nic", factor=0.5),
    "LinkSpec": lambda: LinkSpec(bandwidth=1e9, latency=1e-6),
    "ModelConfig": moe_gpt,
    "RankLayout": lambda: RankLayout(num_machines=2, workers_per_machine=2),
    "ServerOutage": lambda: ServerOutage(machine=0),
}

_NUMERIC = re.compile(r"(?:typing\.)?(Optional\[)?(int|float)\]?")


def _annotation(item) -> str:
    return (item.type if isinstance(item.type, str)
            else getattr(item.type, "__name__", repr(item.type)))


def numeric_fields(cls):
    """``(field, kind name, optional)`` of each ``int``/``float`` field."""
    for item in dataclasses.fields(cls):
        match = _NUMERIC.fullmatch(_annotation(item))
        if match:
            yield item, match.group(2), bool(match.group(1))


def string_fields(cls):
    """Each field of ``cls`` annotated ``str``."""
    return [item for item in dataclasses.fields(cls)
            if _annotation(item) == "str"]


def public_dataclasses():
    """Every public dataclass of ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__" or "._" in info.name:
            continue
        module = importlib.import_module(info.name)
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and not name.startswith("_")):
                found[name] = cls
    return found


DATACLASSES = public_dataclasses()
CLASSES = {name: cls for name, cls in DATACLASSES.items()
           if any(numeric_fields(cls))}
CONFIGS = {name: cls for name, cls in CLASSES.items()
           if name not in RECORD_NAMES}
STRING_CONFIGS = {name: cls for name, cls in DATACLASSES.items()
                  if string_fields(cls) and name not in RECORD_NAMES}
DECLARED = [
    (cls, item.name, domain_of(cls, item.name))
    for name, cls in sorted(CONFIGS.items())
    for item, _, _ in numeric_fields(cls)
    if domain_of(cls, item.name) is not None
]


def sample(cls):
    return SAMPLES.get(cls.__name__, cls)()


def outside(accepts):
    """Values just outside ``accepts``, plus the ones no domain holds."""
    low, high = accepts.low, accepts.high
    below = (low if accepts.low_open else
             low - 1 if accepts.kind is int else math.nextafter(low, -math.inf))
    values = [math.nan, -math.inf, True, "1", below]
    if not (high == math.inf and not accepts.high_open):
        values.append(math.inf)
    if high != math.inf:
        values.append(high if accepts.high_open
                      else math.nextafter(high, math.inf))
    if accepts.kind is int:
        values += [low + 0.5, float(low + 1)]
    if not accepts.optional:
        values.append(None)
    return values


def test_every_known_config_is_found():
    assert {
        "ModelConfig", "JanusFeatures", "LinkSpec", "GpuSpec", "MachineSpec",
        "ServingConfig", "TraceSpec", "DriftSpec", "ControlConfig",
        "ResilienceConfig", "DegradationPolicy", "LinkFault", "MessageLoss",
        "ServerOutage", "ComputeSlowdown", "FaultPlan",
    } <= set(CONFIGS)


def test_every_numeric_config_field_declares_a_domain():
    missing = sorted(
        f"{name}.{item.name}"
        for name, cls in CONFIGS.items()
        for item, _, _ in numeric_fields(cls)
        if domain_of(cls, item.name) is None
    )
    assert missing == [], (
        "declare a domain (repro.domains) on each, or list the class in "
        f"RECORDS with a reason: {missing}"
    )


def test_records_are_live_numeric_dataclasses_without_domains():
    assert sorted(RECORD_NAMES - set(CLASSES)) == []
    declared = sorted(
        name for name in RECORD_NAMES
        for item, _, _ in numeric_fields(CLASSES[name])
        if domain_of(CLASSES[name], item.name) is not None
    )
    assert declared == []


@pytest.mark.parametrize(
    "cls, name, accepts", DECLARED,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in DECLARED],
)
def test_the_declaration_matches_the_annotation_and_the_default(
    cls, name, accepts
):
    (item, kind, optional), = [
        entry for entry in numeric_fields(cls) if entry[0].name == name
    ]
    assert accepts.kind.__name__ == kind
    assert accepts.optional == optional
    if item.default is not dataclasses.MISSING:
        assert accepts.contains(item.default)
    assert accepts.contains(getattr(sample(cls), name))


BAD = [
    (cls, name, value)
    for cls, name, accepts in DECLARED for value in outside(accepts)
]


@pytest.mark.parametrize(
    "cls, name, value", BAD,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in BAD],
)
def test_a_value_outside_the_domain_is_refused_by_name(cls, name, value):
    pattern = rf"^{name} must be .*, got .* \({cls.__name__}\)$"
    with pytest.raises(ValueError, match=pattern):
        dataclasses.replace(sample(cls), **{name: value})


def test_numpy_numbers_are_ints_and_reals():
    assert moe_gpt().scaled(batch_size=np.int64(8)).batch_size == 8
    assert LinkSpec(np.float32(1e9), np.float64(0.0)).latency == 0.0
    with pytest.raises(ValueError, match=r"^batch_size must be"):
        moe_gpt().scaled(batch_size=np.float64(8.0))


@pytest.mark.parametrize("parse, text", [
    (FaultPlan.parse, "seed=-1"),
    (DriftSpec.parse, "flip;seed=-1"),
    (TraceSpec.parse, "poisson;seed=-1"),
], ids=["faults", "drift", "trace"])
def test_the_spec_grammars_refuse_through_the_declarations(parse, text):
    """The ``--faults``, ``--drift`` and ``--trace`` grammars build their
    spec through its constructor, so a negative seed, which numpy refused
    only mid-run, fails when the text is parsed, naming the field."""
    with pytest.raises(ValueError, match="seed"):
        parse(text)


# -- string choices ----------------------------------------------------------

CHOICES = [
    (cls, item.name, domain_of(cls, item.name))
    for name, cls in sorted(STRING_CONFIGS.items())
    for item in string_fields(cls)
    if isinstance(domain_of(cls, item.name), Choice)
]


def test_every_string_config_field_declares_a_choice():
    undeclared = sorted(
        f"{name}.{item.name}" for name, cls in STRING_CONFIGS.items()
        for item in string_fields(cls)
        if not isinstance(domain_of(cls, item.name), Choice)
        and f"{name}.{item.name}" not in FREE_FORM
    )
    assert undeclared == [], (
        "declare a Choice (repro.domains) on each, or list it in FREE_FORM "
        f"with a reason: {undeclared}"
    )
    assert {f"{cls.__name__}.{name}" for cls, name, _ in CHOICES} >= {
        "JanusFeatures.a2a_stagger", "JanusFeatures.grad_allreduce",
        "ResilienceConfig.on_failure", "DriftSpec.kind", "TraceSpec.kind",
        "ServingConfig.topology", "ServingConfig.prefill_paradigm",
        "ServingConfig.decode_paradigm",
    }


def test_free_form_names_live_undeclared_string_fields():
    live = {
        f"{name}.{item.name}" for name, cls in STRING_CONFIGS.items()
        for item in string_fields(cls) if domain_of(cls, item.name) is None
    }
    assert sorted(set(FREE_FORM) - live) == []


@pytest.mark.parametrize(
    "cls, name, accepts", CHOICES,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in CHOICES],
)
def test_the_choice_holds_the_default(cls, name, accepts):
    (item,) = [item for item in string_fields(cls) if item.name == name]
    assert accepts.contains(item.default)
    assert accepts.contains(getattr(sample(cls), name))


def not_chosen(accepts):
    """A declared value in the wrong case, and the values no choice holds."""
    first = accepts.values[0]
    assert first.upper() not in accepts.values
    return [first.upper(), "", None, 1, first.encode()]


BAD_CHOICES = [
    (cls, name, value)
    for cls, name, accepts in CHOICES for value in not_chosen(accepts)
]


@pytest.mark.parametrize(
    "cls, name, value", BAD_CHOICES,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in BAD_CHOICES],
)
def test_a_value_outside_the_choice_is_refused_by_name(cls, name, value):
    pattern = rf"^{name} must be one of .*, got .* \({cls.__name__}\)$"
    with pytest.raises(ValueError, match=pattern):
        dataclasses.replace(sample(cls), **{name: value})


def _option(command: str, flag: str) -> argparse.Action:
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (action,) = [action for action in commands.choices[command]._actions
                 if flag in action.option_strings]
    return action


# Each CLI flag that sets a declared choice, and the values it adds.
CHOICE_FLAGS = [
    ("simulate", "--stagger-a2a", JanusFeatures, "a2a_stagger", ()),
    ("serve", "--topology", ServingConfig, "topology", ("both",)),
    ("serve", "--prefill-paradigm", ServingConfig, "prefill_paradigm", ()),
    ("serve", "--decode-paradigm", ServingConfig, "decode_paradigm", ()),
]


@pytest.mark.parametrize(
    "command, flag, cls, name, extra", CHOICE_FLAGS,
    ids=[flag for _, flag, _, _, _ in CHOICE_FLAGS],
)
def test_each_cli_flag_offers_the_declared_choice(command, flag, cls, name,
                                                  extra):
    declared = domain_of(cls, name).values
    assert sorted(_option(command, flag).choices) == sorted(
        (*declared, *extra)
    )


@pytest.mark.parametrize("parse", [DriftSpec.parse, TraceSpec.parse],
                         ids=["drift", "trace"])
def test_the_spec_grammars_take_each_declared_kind_bare(parse):
    """``--drift`` and ``--trace`` set ``kind`` from a bare first clause;
    the words they accept are the declared choice."""
    cls = type(parse(""))
    for kind in domain_of(cls, "kind").values:
        assert parse(kind).kind == kind
    with pytest.raises(ValueError, match="malformed"):
        parse("Flip")
