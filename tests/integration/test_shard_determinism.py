"""Cross-process determinism of the sharded connscale runs.

Two properties hold by construction (see ``connscale.py`` beside this file):

* merged *semantic* counters are a function of the global plan only —
  shards=1 and shards=4 produce identical merged counters;
* each shard's simulation is a pure function of (seed, shard, n) —
  repeating a run, in fresh worker processes, reproduces every shard's
  wire digest byte-for-byte.
"""

from tests.integration.connscale import (
    SHARD_GROUPS,
    group_of_ordinal,
    owner_of_group,
    run_connscale,
    shard_seed,
)

PLAN = dict(total_conns=400, actives=4, n_requests=3, seed=11)


def strip_shard_locals(merged):
    """Merged view minus per-shard quantities (events, digests, RSS)."""
    return {
        "counters": merged["counters"],
        "bulk_conns": merged["bulk_conns"],
    }


def test_merged_counters_invariant_to_shard_count():
    one = run_connscale(shards=1, in_process=True, **PLAN)
    four = run_connscale(shards=4, in_process=True, **PLAN)
    assert strip_shard_locals(one) == strip_shard_locals(four)
    # Every flow group got its share: round-robin by ordinal.
    by_group = four["counters"]["bulk_by_group"]
    assert sum(by_group.values()) == PLAN["total_conns"]
    assert len(by_group) == SHARD_GROUPS


def test_repeated_runs_are_byte_identical_across_processes():
    first = run_connscale(shards=4, **PLAN)
    second = run_connscale(shards=4, **PLAN)
    assert first["wire_digests"] == second["wire_digests"]
    assert first["counters"] == second["counters"]
    assert first["events"] == second["events"]
    assert first["sim_ns"] == second["sim_ns"]
    per_shard = [
        (entry["shard"], entry["events"], entry["sim_ns"], entry["wire_frames"])
        for entry in first["shards"]
    ]
    assert per_shard == [
        (entry["shard"], entry["events"], entry["sim_ns"], entry["wire_frames"])
        for entry in second["shards"]
    ]


def test_ownership_is_total_and_disjoint():
    for n_shards in (1, 2, 4, 8, 16):
        owners = {}
        for ordinal in range(200):
            group = group_of_ordinal(ordinal)
            owner = owner_of_group(group, n_shards)
            assert 0 <= owner < n_shards
            # Ownership is per-group, hence consistent per ordinal class.
            assert owners.setdefault(group, owner) == owner
        assert set(owners) == set(range(SHARD_GROUPS))


def test_shard_seeds_are_distinct():
    seeds = {shard_seed(11, k) for k in range(16)}
    assert len(seeds) == 16
    assert shard_seed(11, 0) != shard_seed(12, 0)
