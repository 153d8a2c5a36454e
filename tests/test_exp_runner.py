"""Tests for the experiment-orchestration subsystem (``repro.exp``).

Covers the declarative specs, the on-disk result cache (hit/miss and
invalidation on config or code-version change), parallel-vs-serial runner
equivalence, the extrapolation path that serves oversized transfer
requests from a cached steady-state window, and what a failing or
interrupted batch leaves in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exp import (
    MISS,
    ContentionSpec,
    ExperimentProvider,
    ResultCache,
    Sweep,
    TransferSpec,
    generate_figures,
    run_specs,
    select_figures,
    spec_key,
)
from repro.sim.config import DesignPoint
from repro.transfer.descriptor import TransferDirection
from repro.workloads.microbench import run_transfer_experiment

KIB = 1024

D2P = TransferDirection.DRAM_TO_PIM
P2D = TransferDirection.PIM_TO_DRAM


def small_spec(
    point: DesignPoint = DesignPoint.BASELINE,
    direction: TransferDirection = D2P,
    total_bytes: int = 64 * KIB,
    sim_cap_bytes: int = 64 * KIB,
) -> TransferSpec:
    return TransferSpec(point, direction, total_bytes, sim_cap_bytes=sim_cap_bytes)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


def test_transfer_spec_window_canonicalisation(small_config):
    spec = small_spec(total_bytes=4096 * KIB, sim_cap_bytes=64 * KIB)
    window = spec.window(small_config)
    # 32 PIM cores at 2 KiB per core -> a 64 KiB simulated window.
    assert window.total_bytes == 64 * KIB
    assert window.sim_cap_bytes == spec.sim_cap_bytes
    # Canonicalisation is idempotent, and sub-cap requests are their own window.
    assert window.window(small_config) == window
    small = small_spec(total_bytes=64 * KIB)
    assert small.window(small_config) == small


def test_contention_spec_validation():
    with pytest.raises(ValueError):
        ContentionSpec("weird", 2)
    with pytest.raises(ValueError):
        ContentionSpec("compute", -1)
    with pytest.raises(ValueError):
        ContentionSpec("memory", 2)  # memory contention needs an intensity
    assert ContentionSpec("memory", 2, "high").label == "memory x2 (high)"


def test_sweep_enumerates_full_grid():
    sweep = Sweep(
        design_points=(DesignPoint.BASELINE, DesignPoint.BASE_DHP),
        directions=(D2P,),
        sizes=(64 * KIB, 128 * KIB),
        sim_cap_bytes=64 * KIB,
    )
    specs = sweep.specs()
    assert len(sweep) == len(specs) == 4
    assert [spec.design_point for spec in specs] == [
        DesignPoint.BASELINE,
        DesignPoint.BASELINE,
        DesignPoint.BASE_DHP,
        DesignPoint.BASE_DHP,
    ]
    assert all(spec.sim_cap_bytes == 64 * KIB for spec in specs)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path, small_config):
    cache = ResultCache(tmp_path / "cache")
    spec = small_spec()
    assert cache.get(small_config, spec) is MISS
    cache.put(small_config, spec, {"answer": 42})
    assert cache.get(small_config, spec) == {"answer": 42}
    assert len(cache) == 1


def test_cache_key_depends_on_config_and_spec(small_config, paper_config):
    spec = small_spec()
    assert spec_key(small_config, spec) == spec_key(small_config, small_spec())
    assert spec_key(small_config, spec) != spec_key(paper_config, spec)
    assert spec_key(small_config, spec) != spec_key(
        small_config, small_spec(direction=P2D)
    )


def test_cache_invalidated_on_config_change(tmp_path, small_config, paper_config):
    cache = ResultCache(tmp_path / "cache")
    spec = small_spec()
    cache.put(small_config, spec, "small-result")
    assert cache.get(paper_config, spec) is MISS
    assert cache.get(small_config, spec) == "small-result"


def test_cache_invalidated_on_code_version_change(tmp_path, small_config):
    spec = small_spec()
    old = ResultCache(tmp_path / "cache", version="0" * 16)
    old.put(small_config, spec, "stale")
    current = ResultCache(tmp_path / "cache", version="1" * 16)
    assert current.get(small_config, spec) is MISS
    # Sweeping removes the stale version directory entirely.
    assert current.prune_stale_versions() == 1
    assert old.get(small_config, spec) is MISS


def test_cache_tolerates_corrupt_entries(tmp_path, small_config):
    cache = ResultCache(tmp_path / "cache")
    spec = small_spec()
    cache.put(small_config, spec, "fine")
    path = cache.path_for(small_config, spec)
    path.write_bytes(b"not a pickle")
    assert cache.get(small_config, spec) is MISS
    assert not path.exists()  # corrupt entries are swept out


# ---------------------------------------------------------------------------
# Provider: memo, disk cache, extrapolation
# ---------------------------------------------------------------------------


def test_provider_executes_once_then_memoises(tmp_path, small_config):
    provider = ExperimentProvider(small_config, cache=ResultCache(tmp_path / "c"))
    first = provider.run(small_spec())
    second = provider.run(small_spec())
    assert provider.stats.executed == 1
    assert provider.stats.memo_hits == 1
    assert first == second


def test_provider_serves_disk_cache_across_instances(tmp_path, small_config):
    cache_root = tmp_path / "c"
    hot = ExperimentProvider(small_config, cache=ResultCache(cache_root))
    expected = hot.run(small_spec())
    cold = ExperimentProvider(small_config, cache=ResultCache(cache_root))
    result = cold.run(small_spec())
    assert cold.stats.executed == 0
    assert cold.stats.disk_hits == 1
    assert result == expected


def test_provider_extrapolates_oversized_requests(tmp_path, small_config):
    """A request beyond the sim cap is served from the cached window and is
    bit-identical to running the experiment directly."""
    provider = ExperimentProvider(small_config, cache=ResultCache(tmp_path / "c"))
    big = small_spec(total_bytes=1024 * KIB, sim_cap_bytes=64 * KIB)
    derived = provider.run(big)
    assert provider.stats.executed == 1  # only the 64 KiB window was simulated
    assert provider.stats.derived == 1
    direct = run_transfer_experiment(
        big.design_point,
        big.direction,
        total_bytes=big.total_bytes,
        config=small_config,
        sim_cap_bytes=big.sim_cap_bytes,
    )
    assert derived == direct
    # A second size reuses the same window without re-simulating.
    bigger = small_spec(total_bytes=2048 * KIB, sim_cap_bytes=64 * KIB)
    provider.run(bigger)
    assert provider.stats.executed == 1


def test_provider_get_matches_spec_run(small_config):
    provider = ExperimentProvider(small_config)
    via_get = provider.get(DesignPoint.BASELINE, D2P, 64 * KIB, sim_cap_bytes=64 * KIB)
    via_spec = provider.run(small_spec())
    assert via_get == via_spec
    assert provider.stats.executed == 1


# ---------------------------------------------------------------------------
# Runner: parallel == serial, failures and interrupts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaisingSpec:
    """A spec whose run raises ``error`` (module level, so it pickles)."""

    KIND = "raising"
    error: type = RuntimeError

    def run(self, config):
        raise self.error("injected failure")


def test_parallel_and_serial_runners_agree(small_config):
    specs = [
        small_spec(DesignPoint.BASELINE),
        small_spec(DesignPoint.BASE_DHP),
        small_spec(DesignPoint.BASE_DHP, direction=P2D),
    ]
    serial = dict(run_specs(small_config, specs, jobs=1))
    parallel = dict(run_specs(small_config, specs, jobs=2))
    assert set(serial) == set(parallel) == set(specs)
    for spec in specs:
        assert serial[spec] == parallel[spec]


def design_point_grid():
    return [
        small_spec(DesignPoint.BASELINE),
        small_spec(DesignPoint.BASE_D),
        small_spec(DesignPoint.BASE_DH),
        small_spec(DesignPoint.BASE_DHP),
        small_spec(DesignPoint.BASE_DHP, direction=P2D),
    ]


def test_provider_parallel_matches_serial(small_config):
    """A provider prefetching the design-point grid through worker
    processes serves exactly the outcomes a serial provider computes."""
    specs = design_point_grid()
    serial = ExperimentProvider(small_config, jobs=1)
    parallel = ExperimentProvider(small_config, jobs=2)
    assert serial.prefetch(specs) == parallel.prefetch(specs) == len(specs)
    for spec in specs:
        assert serial.run(spec) == parallel.run(spec)


def test_cache_rerun_skips_finished_work(tmp_path, small_config):
    """A second parallel provider on a filled cache simulates nothing and
    serves every spec from disk, equal to the first run's outcomes."""
    specs = design_point_grid()
    cache = ResultCache(tmp_path / "cache")
    first = ExperimentProvider(small_config, cache=cache, jobs=2)
    first.prefetch(specs)
    expected = {spec: first.run(spec) for spec in specs}

    second = ExperimentProvider(small_config, cache=cache, jobs=2)
    assert second.prefetch(specs) == 0
    assert second.stats.executed == 0
    assert second.stats.disk_hits == len(specs)
    for spec in specs:
        assert second.run(spec) == expected[spec]


def test_runner_deduplicates_specs(small_config):
    outcomes = dict(run_specs(small_config, [small_spec(), small_spec()], jobs=1))
    assert len(outcomes) == 1


def test_runner_rejects_bad_job_count(small_config):
    with pytest.raises(ValueError):
        list(run_specs(small_config, [small_spec()], jobs=0))


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_spec_raises_after_the_batch_completes(small_config, jobs):
    """The error is re-raised unchanged, after every other spec was yielded."""
    good = [small_spec(DesignPoint.BASELINE), small_spec(DesignPoint.BASE_DHP)]
    yielded = []
    with pytest.raises(RuntimeError, match="injected failure"):
        for spec, _ in run_specs(small_config, [RaisingSpec(), *good], jobs=jobs):
            yielded.append(spec)
    assert sorted(map(repr, yielded)) == sorted(map(repr, good))


@pytest.mark.parametrize("jobs", [1, 2])
def test_provider_prefetch_caches_completed_work_on_failure(
    tmp_path, small_config, jobs
):
    """One failing spec leaves every other spec in the disk cache (and is
    not cached itself), so a fixed rerun simulates only what failed."""
    cache = ResultCache(tmp_path / "cache")
    provider = ExperimentProvider(small_config, cache=cache, jobs=jobs)
    good = [small_spec(DesignPoint.BASELINE), small_spec(DesignPoint.BASE_DHP)]
    with pytest.raises(RuntimeError, match="injected failure"):
        provider.prefetch([RaisingSpec(), *good])
    assert provider.stats.executed == len(good)
    for spec in good:
        assert cache.get(small_config, spec) is not MISS
    assert cache.get(small_config, RaisingSpec()) is MISS


def test_interrupt_keeps_finished_specs_cached(tmp_path, small_config):
    """Ctrl-C in the second spec of a serial prefetch: the first spec is
    already in the disk cache, so the rerun does not simulate it again."""
    cache = ResultCache(tmp_path / "cache")
    provider = ExperimentProvider(small_config, cache=cache, jobs=1)
    finished = small_spec()
    with pytest.raises(KeyboardInterrupt):
        provider.prefetch([finished, RaisingSpec(KeyboardInterrupt)])
    assert cache.get(small_config, finished) is not MISS
    assert len(cache) == 1


def test_prefetch_then_compute_hits_memo(tmp_path, small_config):
    provider = ExperimentProvider(
        small_config, cache=ResultCache(tmp_path / "c"), jobs=1
    )
    specs = [small_spec(DesignPoint.BASELINE), small_spec(DesignPoint.BASE_DHP)]
    executed = provider.prefetch(specs)
    assert executed == 2
    provider.run(specs[0])
    provider.run(specs[1])
    assert provider.stats.executed == 2
    assert provider.stats.memo_hits == 2
    # A second prefetch over the same grid is a no-op.
    assert provider.prefetch(specs) == 0


FIGURE_SUBSET = ("table1", "fig04", "fig06")


def _generate(provider, results_dir):
    paths = generate_figures(provider, select_figures(FIGURE_SUBSET), results_dir)
    return {path.name: path.read_bytes() for path in paths}


def test_interrupted_sweep_resumes_byte_identical(tmp_path, small_config):
    """A figure sweep that cached half its specs before stopping, rerun on
    the same cache, simulates only the other half and writes tables
    byte-identical to an uninterrupted run."""
    uninterrupted = ExperimentProvider(small_config, jobs=2)
    expected = _generate(uninterrupted, tmp_path / "uninterrupted")

    specs = [
        spec
        for figure in select_figures(FIGURE_SUBSET)
        for spec in figure.specs(small_config)
    ]
    cache = ResultCache(tmp_path / "cache")
    cached = ExperimentProvider(small_config, cache=cache, jobs=2).prefetch(
        specs[: len(specs) // 2]
    )
    assert 0 < cached < uninterrupted.stats.executed

    rerun = ExperimentProvider(small_config, cache=cache, jobs=2)
    assert _generate(rerun, tmp_path / "rerun") == expected
    assert rerun.stats.executed == uninterrupted.stats.executed - cached
