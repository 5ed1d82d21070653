"""Pipeline engine: futures, batched execution, fusion, parity.

The engine contract (docs/pipeline.md): a pipelined op runs through the
same runner a direct ``ds_*`` call uses, on one shared stream — so with
``fuse=False`` the batch matches the sequential calls byte for byte,
counters included, on both backends.  With fusion on, a compact→unique
chain collapses to a single launch whose output still matches.
"""

import warnings

import numpy as np
import pytest

from repro import DSConfig, Pipeline
from repro.core.predicates import is_even, less_than
from repro.errors import LaunchError
from repro.pipeline import PlanCache
from repro.primitives import (
    ds_partition,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
)
from repro.primitives.common import resolve_stream
from repro.reference import compact_ref, unique_ref

BACKENDS = ["simulated", "vectorized"]


def _cfg(backend, **kw):
    return DSConfig(wg_size=32, coarsening=2, backend=backend, **kw)


class TestFutures:
    def test_enqueue_returns_pending_future(self, rng):
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(rng.integers(0, 5, 100).astype(np.float32), 0)
        assert not f.done
        assert p.num_pending == 1

    def test_output_access_runs_the_batch(self, rng):
        a = rng.integers(0, 5, 400).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(a, 0)
        out = f.output  # implicit run()
        assert f.done
        assert p.num_pending == 0
        assert np.array_equal(out, compact_ref(a, 0))

    def test_chained_future_is_a_dependency(self, rng):
        a = rng.integers(0, 5, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=False)
        f1 = p.compact(a, 0)
        f2 = p.unique(f1)
        p.run()
        assert np.array_equal(f2.output, unique_ref(compact_ref(a, 0)))

    def test_full_names_and_enqueue_spelling(self, rng):
        a = rng.integers(0, 5, 200).astype(np.float32)
        p = Pipeline(config=_cfg("vectorized"))
        f1 = p.ds_stream_compact(a.copy(), 0)
        f2 = p.enqueue("compact", a.copy(), 0)
        results = p.run()
        assert len(results) == 2
        assert np.array_equal(f1.output, f2.output)

    def test_unknown_op_name_raises(self):
        p = Pipeline()
        with pytest.raises(AttributeError):
            p.sort_by_key

    def test_run_empty_is_noop(self):
        assert Pipeline().run() == []

    def test_legacy_tuning_kwargs_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = Pipeline(wg_size=32)
        dep = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(dep) == 1
        assert "Pipeline" in str(dep[0].message)
        assert p.config.wg_size == 32

    def test_conflicting_legacy_kwarg_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(LaunchError, match="conflict"):
                Pipeline(config=DSConfig(wg_size=64), wg_size=32)


class TestForeignFutures:
    """A future from another pipeline is materialized at enqueue time —
    its batch-local index means nothing in the consuming batch, so it
    must never be recorded as a local dependency edge."""

    def test_colliding_foreign_index_is_not_aliased(self, rng):
        a = np.array([0, 1, 1, 2, 2, 3], dtype=np.int64)
        b = rng.integers(4, 9, 300).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        f1 = p1.compact(a.copy(), 0)  # index 0 of p1's batch
        p2 = Pipeline(config=_cfg("simulated"))
        g0 = p2.compact(b.copy(), 0)  # index 0 of p2's batch: collides
        g1 = p2.unique(f1)
        p2.run()
        assert np.array_equal(g1.output, unique_ref(compact_ref(a, 0)))
        assert np.array_equal(g0.output, compact_ref(b, 0))

    def test_out_of_range_foreign_index(self, rng):
        """A foreign index past the consuming batch's op count used to
        KeyError inside planning."""
        a = rng.integers(0, 5, 200).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        p1.compact(rng.integers(0, 5, 100).astype(np.int64), 0)
        f1 = p1.compact(a.copy(), 0)  # index 1 of p1's batch
        p2 = Pipeline(config=_cfg("simulated"))
        g = p2.unique(f1)  # p2's batch only has index 0
        assert np.array_equal(g.output, unique_ref(compact_ref(a, 0)))

    def test_enqueue_runs_the_foreign_batch(self, rng):
        a = rng.integers(0, 5, 150).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        f1 = p1.compact(a, 0)
        p2 = Pipeline(config=_cfg("simulated"))
        p2.unique(f1)
        assert f1.done
        assert p1.num_pending == 0


class TestKeywordSpelling:
    """Data params passed by keyword plan and fuse exactly like the
    positional spelling (review: ``p.remove_if(x, predicate=...)``
    crashed plan_key with IndexError)."""

    def test_data_params_by_keyword(self, rng):
        a = rng.integers(0, 9, 400).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"))
        f1 = p.remove_if(a.copy(), predicate=is_even())
        f2 = p.compact(a.copy(), remove_value=0)
        p.run()
        assert np.array_equal(f1.output, a[a % 2 != 0])
        assert np.array_equal(f2.output, compact_ref(a, 0))

    def test_keyword_spelling_shares_the_plan_entry(self, rng):
        a = rng.integers(0, 9, 300).astype(np.int64)
        cache = PlanCache()
        p = Pipeline(config=_cfg("simulated"), plan_cache=cache)
        p.remove_if(a.copy(), is_even())
        p.run()
        p.remove_if(a.copy(), predicate=is_even())
        p.run()
        assert cache.hits == 1
        assert cache.misses == 1

    def test_keyword_args_still_fuse(self, rng):
        a = rng.integers(0, 9, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=True)
        f1 = p.compact(a.copy(), remove_value=0)
        f2 = p.remove_if(f1, predicate=is_even())
        p.run()
        assert p.stream.num_launches == 1
        expected = compact_ref(a, 0)
        assert np.array_equal(f2.output, expected[expected % 2 != 0])


class TestSequentialParity:
    """fuse=False: the batch is observationally the sequential program."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain_counters_match_sequential(self, rng, backend):
        a = rng.integers(0, 5, 1200).astype(np.int64)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=False)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        p.run()

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)

        assert np.array_equal(f1.output, r1.output)
        assert np.array_equal(f2.output, r2.output)
        for rf, rs in ((f1.result(), r1), (f2.result(), r2)):
            assert len(rf.counters) == len(rs.counters)
            for cf, cs in zip(rf.counters, rs.counters):
                assert cf == cs  # full equality, spins and steps included

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_independent_chains_interleave(self, rng, backend):
        """Two chains round-robin: a1, b1, a2, b2 — the launch order a
        multi-stream driver would overlap — and the results still match
        the sequential program run in that order."""
        a = rng.integers(0, 5, 900).astype(np.int64)
        b = rng.integers(0, 9, 700).astype(np.float32)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=False)
        fa1 = p.compact(a.copy(), 0)
        fa2 = p.unique(fa1)
        fb1 = p.partition(b.copy(), is_even())
        p.run()

        order = [i for step in p.last_plan.steps for i in step.op_indices]
        assert order == [0, 2, 1]

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r3 = ds_partition(b.copy(), is_even(), s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)
        for rf, rs in ((fa1.result(), r1), (fa2.result(), r2),
                       (fb1.result(), r3)):
            assert np.array_equal(rf.output, rs.output)
            assert [c for c in rf.counters] == [c for c in rs.counters]

    def test_per_op_config_override(self, rng):
        a = rng.integers(0, 5, 300).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(a, 0, config=DSConfig(wg_size=64, coarsening=1,
                                            backend="simulated"))
        assert f.result().counters[0].wg_size == 64


class TestFusedExecution:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compact_unique_fuses_to_one_launch(self, rng, backend):
        a = np.repeat(rng.integers(0, 6, 400), rng.integers(1, 4, 400))
        a = a.astype(np.int64)
        cfg = _cfg(backend)

        fused = Pipeline(config=cfg, fuse=True)
        g1 = fused.compact(a.copy(), 0)
        g2 = fused.unique(g1)
        fused.run()

        unfused = Pipeline(config=cfg, fuse=False)
        h1 = unfused.compact(a.copy(), 0)
        h2 = unfused.unique(h1)
        unfused.run()

        assert fused.stream.num_launches == 1
        assert unfused.stream.num_launches == 2
        assert np.array_equal(g2.output, h2.output)
        assert np.array_equal(g2.output, unique_ref(compact_ref(a, 0)))
        # The intermediate future still resolves, launch-free.
        assert np.array_equal(g1.output, h1.output)
        assert g1.result().counters == []
        assert g1.result().extras["fused"] is True
        assert g1.result().extras["fused_into"] == "ds_unique"
        assert g2.result().extras["fused_stages"] == \
            ["not_equal_to(0)", "unique"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_three_stage_chain(self, rng, backend):
        a = rng.integers(0, 9, 1000).astype(np.int64)
        p = Pipeline(config=_cfg(backend), fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.remove_if(f2, is_even())
        p.run()
        assert p.stream.num_launches == 1
        expected = unique_ref(compact_ref(a, 0))
        expected = expected[expected % 2 != 0]
        assert np.array_equal(f3.output, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_extras_match_sequential(self, rng, backend):
        """Each fused op's n_kept/n_removed is measured against its
        *own* input (the previous stage's survivors), exactly like the
        sequential calls the fusion replaces."""
        a = np.repeat(rng.integers(0, 6, 300), rng.integers(1, 4, 300))
        a = a.astype(np.int64)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.remove_if(f2, is_even())
        p.run()
        assert p.last_plan.n_fused_groups == 1

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)
        r3 = ds_remove_if(r2.output, is_even(), s, config=cfg)
        for rf, rs in ((f1.result(), r1), (f2.result(), r2),
                       (f3.result(), r3)):
            assert rf.extras["n_kept"] == rs.extras["n_kept"]
            assert rf.extras["n_removed"] == rs.extras["n_removed"]

    def test_shared_intermediate_blocks_fusion(self, rng):
        """If something else reads the intermediate, it must really be
        materialized — the run cannot fuse."""
        a = rng.integers(0, 5, 600).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.partition(f1, less_than(3))  # second consumer of f1
        p.run()
        assert p.last_plan.n_fused_groups == 0
        assert np.array_equal(f2.output, unique_ref(compact_ref(a, 0)))
        assert f3.result().extras["n_true"] == int(
            (compact_ref(a, 0) < 3).sum())

    def test_race_tracking_blocks_fusion(self, rng):
        a = rng.integers(0, 5, 400).astype(np.int64)
        p = Pipeline(config=_cfg("simulated", race_tracking=True), fuse=True)
        f1 = p.compact(a.copy(), 0)
        p.unique(f1)
        p.run()
        assert p.last_plan.n_fused_groups == 0
        assert p.stream.num_launches == 2

    def test_empty_input_matches_sequential_result(self):
        """A fusable chain over an empty input returns what the direct
        ds_* calls return: the reference result, with no launch."""
        p = Pipeline(config=_cfg("simulated"), fuse=True)
        f1 = p.compact(np.array([], dtype=np.int64), 0)
        f2 = p.unique(f1)
        p.run()
        assert p.last_plan.n_fused_groups == 1
        assert p.stream.num_launches == 0
        for fut in (f1, f2):
            res = fut.result()
            assert res.output.shape == (0,)
            assert res.output.dtype == np.int64
            assert res.extras == {"n_kept": 0, "n_removed": 0}
            assert res.counters == []


class TestBatchObservability:
    def test_batch_record_and_events(self, rng):
        a = rng.integers(0, 5, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=False)
        f1 = p.compact(a, 0)
        p.unique(f1)
        p.run()
        assert len(p.stream.batches) == 1
        batch = p.stream.batches[0]
        assert batch.label == "pipeline.batch#1"
        assert batch.num_launches == 2
        assert [e.label for e in batch.events] == \
            ["ds_stream_compact", "ds_unique"]
        # unique waited on compact's event: edge from launch 1 to launch 1.
        assert (1, 1) in p.stream.dependencies

    def test_second_run_is_a_second_batch(self, rng):
        a = rng.integers(0, 5, 300).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        p.compact(a.copy(), 0)
        p.run()
        p.compact(a.copy(), 0)
        p.run()
        assert [b.label for b in p.stream.batches] == \
            ["pipeline.batch#1", "pipeline.batch#2"]


class TestPlanWithoutRun:
    def test_plan_populates_cache_and_keeps_ops_pending(self, rng):
        a = rng.integers(0, 5, 400).astype(np.int64)
        cache = PlanCache()
        p = Pipeline(config=_cfg("simulated"), plan_cache=cache)
        f1 = p.compact(a, 0)
        p.unique(f1)
        assert p.plan() is not None
        assert (cache.misses, cache.hits) == (1, 0)
        assert not f1.done  # planning executed nothing
        results = p.run()   # the run is then a pure cache hit
        assert len(results) == 2
        assert (cache.misses, cache.hits) == (1, 1)

    def test_plan_on_empty_pipeline_is_none(self):
        p = Pipeline(config=_cfg("simulated"), plan_cache=PlanCache())
        assert p.plan() is None


class TestSignatureCache:
    def test_runner_signature_cache_is_bounded(self):
        from repro.pipeline import engine

        def probe(values, stream, *, config):  # mimics a runner
            return values

        baseline = dict(engine._signature_cache)
        try:
            fillers = []
            for i in range(engine._SIGNATURE_CACHE_MAX + 16):
                def filler(values, stream, *, config, _i=i):
                    return values
                fillers.append(filler)
                engine._data_param_names(filler)
            assert len(engine._signature_cache) <= \
                engine._SIGNATURE_CACHE_MAX
            # Lookups still work at the bound, hot entries stay cached.
            assert engine._data_param_names(probe) == ("values",)
            assert engine._data_param_names(probe) == ("values",)
            assert probe in engine._signature_cache
        finally:
            with engine._signature_lock:
                engine._signature_cache.clear()
                engine._signature_cache.update(baseline)

    def test_signature_cache_metrics_under_tracing(self, rng):
        from repro import obs

        a = rng.integers(0, 5, 200).astype(np.int64)
        with obs.tracing("spans") as tracer:
            p = Pipeline(config=_cfg("simulated"), plan_cache=PlanCache())
            p.compact(a.copy(), 0)
            p.run()
            p.compact(a.copy(), 0)
            p.run()
        counters = {c.name: c.value for c in tracer.metrics
                    if c.name.startswith("pipeline.signature_cache")}
        # The second enqueue of the same runner must be a cache hit.
        assert counters.get("pipeline.signature_cache.hits", 0) >= 1
