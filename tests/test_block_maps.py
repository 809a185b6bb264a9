"""The static per-block selectors replay a frozen table exactly.

``fixtures/block_maps.json`` froze the maps of :func:`strategy_map`
(Eq. 1 against a threshold) and :func:`auto_schedule_map` (Eq. 1 plus the
micro-batch profitability test on low-R blocks) before both were rebuilt
on the shared :class:`~repro.core.paradigm.CostModel`.  The grid:

* every Table 1 model at 8-1024 experts on 1-128 machines of 8 GPUs;
* PR-MoE-Transformer-xl at scale 1 and 2 on 1-128 machines;
* the ``analysis.sweep`` R grid (B in 8..512, S in 64..4096) for every
  Table 1 model at 32 experts on 2 and 4 machines;

each at threshold 1 and 1e9, and ``auto`` at 2, 4 and 8 micro-batches.
A map is one letter per MoE block in block order (``E`` expert-centric,
``D`` data-centric, ``M`` microbatch-ec); a selector that rejects the
shape (uneven expert split, or no cross-node traffic on one machine) is
recorded as ``ValueError``.

Regenerate (only when a selector is *meant* to change):
``PYTHONPATH=src python tests/test_block_maps.py``.
"""

import json
from pathlib import Path

from repro.cluster import Cluster
from repro.config import TABLE1_MODELS, pr_moe_transformer_xl
from repro.core import auto_schedule_map, strategy_map

FIXTURE = Path(__file__).parent / "fixtures" / "block_maps.json"

CODES = {"expert-centric": "E", "data-centric": "D", "microbatch-ec": "M"}
EXPERTS = tuple(2 ** p for p in range(3, 11))       # 8 .. 1024
MACHINES = tuple(2 ** p for p in range(8))          # 1 .. 128
THRESHOLDS = (1.0, 1e9)
MICRO_BATCHES = (2, 4, 8)
SWEEP_BATCHES = (8, 32, 128, 512)
SWEEP_SEQS = (64, 256, 1024, 4096)
SWEEP_MACHINES = (2, 4)


def _shapes():
    """(key, config, machines) for every row of the table."""
    for name, factory in TABLE1_MODELS.items():
        for experts in EXPERTS:
            config = factory(experts)
            for machines in MACHINES:
                yield f"{name}/{experts}e/{machines}m", config, machines
    for scale in (1, 2):
        config = pr_moe_transformer_xl(scale)
        for machines in MACHINES:
            yield f"PR-MoE-x{scale}/{machines}m", config, machines
    for name, factory in TABLE1_MODELS.items():
        for batch in SWEEP_BATCHES:
            for seq in SWEEP_SEQS:
                config = factory(32).scaled(batch_size=batch, seq_len=seq)
                for machines in SWEEP_MACHINES:
                    key = f"{name}/B{batch}/S{seq}/{machines}m"
                    yield key, config, machines


def _encode(config, select) -> str:
    try:
        mapping = select()
    except ValueError:
        return "ValueError"
    blocks = list(config.moe_block_indices)
    assert sorted(mapping) == sorted(blocks)
    return "".join(CODES[mapping[index]] for index in blocks)


def block_maps() -> dict:
    """Key -> [strategy_map, auto at each of MICRO_BATCHES] codes."""
    table = {}
    for key, config, machines in _shapes():
        cluster = Cluster(machines)
        for threshold in THRESHOLDS:
            row = [_encode(config, lambda: strategy_map(
                config, cluster, threshold=threshold,
            ))]
            for micro in MICRO_BATCHES:
                row.append(_encode(config, lambda: auto_schedule_map(
                    config, cluster, threshold=threshold,
                    micro_batches=micro,
                )))
            table[f"{key}/t{threshold:g}"] = row
    return table


def test_maps_replay_the_frozen_table():
    frozen = json.loads(FIXTURE.read_text())["maps"]
    replay = block_maps()
    assert sorted(replay) == sorted(frozen)
    changed = {
        key: (frozen[key], replay[key])
        for key in frozen
        if replay[key] != frozen[key]
    }
    assert not changed, f"{len(changed)} shape(s) changed: {changed}"


def test_table_exercises_both_sides_of_every_test():
    """Each rule must decide both ways somewhere in the table, or a
    flipped comparison could replay unnoticed."""
    frozen = json.loads(FIXTURE.read_text())["maps"]
    static = {row[0] for row in frozen.values()} - {"ValueError"}
    auto = {code for row in frozen.values() for code in row[1:]}
    assert set("DE") <= set("".join(static))
    assert set("DEM") <= set("".join(auto - {"ValueError"}))


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({"maps": block_maps()}, indent=0, sort_keys=True) + "\n"
    )
