"""``RunResult`` v2 ``request_records`` through the result cache and shards.

The result cache pickles whatever a spec's ``run`` returns; the shard
partition splits the spec list across jobs.  Neither layer knows (or should
know) about the v2 request-record payload -- but the LLM serving family
depends on both carrying it faithfully: SLO tables are derived from the
records of results that routinely arrive from the cache after an
interrupted sweep, or via an N-way CI shard fan-in.  These tests pin that
path: a serving ``RunResult`` full of
:class:`~repro.api.results.RequestRecord` rows must come back
**byte-identical** (same serialized form, not merely equal) from

* a cache written by one run and served to another,
* a half-filled cache (an interrupted sweep) rerun to completion, and
* a 2-way shard split merged back together,

always matching an undisturbed serial reference run.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import RunResult, Session
from repro.exp import ExperimentProvider, ResultCache, run_specs
from repro.exp.shard import Shard, shard_items
from repro.sim.config import SystemConfig
from repro.workloads.llm import LlmTenantSpec, ModelSpec

KIB = 1024


class ServeSpec:
    """Picklable spec that returns a ``RunResult`` with request records."""

    KIND = "serve-records"

    def __init__(self, token: str, seed: int) -> None:
        self.token = token
        self.seed = seed

    def __repr__(self) -> str:
        return f"ServeSpec({self.token!r}, seed={self.seed})"

    def __hash__(self) -> int:
        return hash((self.KIND, self.token, self.seed))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.token == self.token
            and other.seed == self.seed
        )

    def run(self, config) -> RunResult:
        # Deliberately tiny token counts: prefill cost scales with
        # prompt_tokens x weight bytes, and these tests need many runs.
        tenants = (
            LlmTenantSpec.open_loop(
                "interactive",
                num_requests=4,
                mean_gap_ns=4_000.0,
                prompt_tokens=(4, 8),
                output_tokens=(2, 4),
                seed=self.seed,
            ),
            LlmTenantSpec.closed_loop(
                "batch",
                num_requests=2,
                clients=1,
                prompt_tokens=(8, 12),
                output_tokens=(2, 3),
                think_ns=500.0,
                seed=self.seed + 1,
            ),
        )
        with Session.open(config=config) as session:
            return session.serve_llm(
                ModelSpec.tiny(),
                tenants,
                max_batch_size=4,
                kv_pool_bytes=64 * KIB,
                name=f"serve-{self.token}",
            )


SPECS = (ServeSpec("a", seed=1), ServeSpec("b", seed=7), ServeSpec("c", seed=13))


@pytest.fixture(scope="module")
def reference():
    """One undisturbed serial run of every spec, shared by the module."""
    return dict(run_specs(SystemConfig.small_test(), SPECS, jobs=1))


def serialized(result: RunResult) -> bytes:
    """The result's canonical wire form (v2 dict as sorted JSON bytes)."""
    return json.dumps(result.to_dict(), sort_keys=True).encode()


def assert_byte_identical(outcomes, reference) -> None:
    for spec in SPECS:
        result = outcomes[spec]
        expected = reference[spec]
        assert result.schema_version == 2
        assert result.request_records, f"{spec!r} lost its request records"
        assert result.request_records == expected.request_records
        assert serialized(result) == serialized(expected)


def prefetched(provider: ExperimentProvider, specs) -> dict:
    provider.prefetch(specs)
    return {spec: provider.run(spec) for spec in specs}


def test_request_records_survive_cache_rerun(tmp_path, small_config, reference):
    cache = ResultCache(tmp_path)
    first = ExperimentProvider(small_config, cache=cache, jobs=2)
    assert_byte_identical(prefetched(first, SPECS), reference)

    second = ExperimentProvider(small_config, cache=cache, jobs=2)
    outcomes = prefetched(second, SPECS)
    # Everything came back from the cache's pickles, nothing re-ran -- and
    # the unpickled records are byte-for-byte the live run's.
    assert second.stats.executed == 0
    assert second.stats.disk_hits == len(SPECS)
    assert_byte_identical(outcomes, reference)


def test_request_records_survive_interrupted_rerun(
    tmp_path, small_config, reference
):
    """A sweep that cached half its specs before stopping reruns only the
    missing specs and still merges to a byte-identical result set."""
    cache = ResultCache(tmp_path)
    half = SPECS[: len(SPECS) // 2]
    ExperimentProvider(small_config, cache=cache, jobs=1).prefetch(half)

    rerun = ExperimentProvider(small_config, cache=cache, jobs=2)
    outcomes = prefetched(rerun, SPECS)
    assert rerun.stats.disk_hits == len(half)
    assert rerun.stats.executed == len(SPECS) - len(half)
    assert_byte_identical(outcomes, reference)


def test_request_records_survive_shard_merge(small_config, reference):
    merged = {}
    for index in (1, 2):
        mine = shard_items(SPECS, Shard(index, 2), key=repr)
        outcomes = dict(run_specs(small_config, mine, jobs=1))
        assert not set(outcomes) & set(merged), "shards must be disjoint"
        merged.update(outcomes)
    assert set(merged) == set(SPECS), "shard union must cover the sweep"
    assert_byte_identical(merged, reference)


def test_cache_pickle_layer_preserves_records(tmp_path, small_config, reference):
    """Unit-level: one v2 result written and re-read through the cache is
    equal under pickle round-trip semantics, records and all."""
    spec = SPECS[0]
    result = reference[spec]
    cache = ResultCache(tmp_path)
    cache.put(small_config, spec, result)
    loaded = cache.get(small_config, spec)
    assert isinstance(loaded, RunResult)
    assert loaded == result  # dataclass equality (raw excluded by design)
    assert loaded.request_records == result.request_records
    assert serialized(loaded) == serialized(result)
    # The schema-stable wire form is byte-stable under a second pickle
    # round-trip (``raw`` is deliberately NOT byte-compared: pickle memo
    # ordering inside the engine-specific outcome is not part of the
    # contract).
    again = pickle.loads(pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL))
    assert serialized(again) == serialized(result)
    assert again.request_records == result.request_records
