"""The static per-block selectors replay a frozen table exactly.

``fixtures/block_maps.json`` is golden ``block-maps`` of
:mod:`tests.goldens`: the maps of :func:`strategy_map` and
:func:`auto_schedule_map`, frozen before both were rebuilt on the shared
:class:`~repro.core.paradigm.CostModel`.
"""

from tests.goldens import GOLDENS, mismatches


def test_maps_replay_the_frozen_table():
    golden = GOLDENS["block-maps"]
    assert sorted(golden.frozen()) == sorted(golden.cases())
    changed = mismatches(golden)
    assert not changed, f"{len(changed)} shape(s) changed: {changed}"


def test_table_exercises_both_sides_of_every_test():
    """Each rule must decide both ways somewhere in the table, or a
    flipped comparison could replay unnoticed."""
    frozen = GOLDENS["block-maps"].frozen()
    static = {row[0] for row in frozen.values()} - {"ValueError"}
    auto = {code for row in frozen.values() for code in row[1:]}
    assert set("DE") <= set("".join(static))
    assert set("DEM") <= set("".join(auto - {"ValueError"}))
