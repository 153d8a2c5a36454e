"""Tests for the deterministic ``--shard I/N`` partition (``repro.exp.shard``)."""

from __future__ import annotations

import pytest

from repro.exp import TransferSpec
from repro.exp.shard import Shard, parse_shard, shard_items
from repro.sim.config import DesignPoint
from repro.transfer.descriptor import TransferDirection

KIB = 1024
D2P = TransferDirection.DRAM_TO_PIM


def small_spec(
    point: DesignPoint = DesignPoint.BASELINE,
    direction: TransferDirection = D2P,
) -> TransferSpec:
    return TransferSpec(point, direction, 64 * KIB, sim_cap_bytes=64 * KIB)


def spec_grid():
    return [
        small_spec(DesignPoint.BASELINE),
        small_spec(DesignPoint.BASE_D),
        small_spec(DesignPoint.BASE_DH),
        small_spec(DesignPoint.BASE_DHP),
        small_spec(DesignPoint.BASE_DHP, direction=TransferDirection.PIM_TO_DRAM),
    ]


def test_parse_shard():
    assert parse_shard("2/3") == Shard(index=2, count=3)
    assert parse_shard(" 1/1 ") == Shard(index=1, count=1)
    for bad in ("0/3", "4/3", "a/b", "3", "1/0", "1/2/3"):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_shards_are_disjoint_and_exhaustive():
    specs = spec_grid()
    shards = [shard_items(specs, Shard(i, 3), key=repr) for i in (1, 2, 3)]
    assert sorted(len(shard) for shard in shards) == [1, 2, 2]
    seen = [repr(spec) for shard in shards for spec in shard]
    assert sorted(seen) == sorted(repr(spec) for spec in specs)
    assert len(set(seen)) == len(specs)


def test_shard_partition_ignores_enumeration_order():
    specs = spec_grid()
    forward = shard_items(specs, Shard(1, 2), key=repr)
    backward = shard_items(list(reversed(specs)), Shard(1, 2), key=repr)
    assert sorted(map(repr, forward)) == sorted(map(repr, backward))


def test_shard_selection_preserves_caller_order():
    specs = spec_grid()
    selected = shard_items(specs, Shard(1, 2), key=repr)
    positions = [specs.index(spec) for spec in selected]
    assert positions == sorted(positions)


def test_shard_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        shard_items(["a", "a"], Shard(1, 2), key=str)


def test_single_shard_is_identity():
    specs = spec_grid()
    assert shard_items(specs, Shard(1, 1), key=repr) == specs
