"""End-to-end fleet smoke: a small real worker pool serving requests
through the hash router, sticky placement, health rollup and drain.

Kept deliberately small (2 workers, short chains) — the heavyweight
acceptance path lives in ``python -m repro fleet --check``.
"""

import numpy as np
import pytest

from repro.fleet import Fleet, FleetConfig
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_shape
from repro.fleet.fleet import fork_unavailable_reason

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        fork_unavailable_reason() is not None,
        reason=f"fork start method unavailable: {fork_unavailable_reason()}"),
]


def _config(**kw):
    base = dict(n_workers=2, min_workers=1, max_workers=3,
                tick_interval_s=0.0,
                serve=ServeConfig(max_wait_ms=1.0))
    base.update(kw)
    return FleetConfig(**base)


@pytest.fixture
def fleet():
    f = Fleet(_config()).start()
    try:
        yield f
    finally:
        f.close()


class TestFleetEndToEnd:
    def test_results_match_reference_and_routing_is_sticky(self, fleet):
        spec = make_shape("chain", 255, seed=42)
        futures = [fleet.submit_chain(list(spec.ops), spec.array)
                   for _ in range(4)]
        results = [f.result(timeout=60.0) for f in futures]
        for res in results:
            assert np.array_equal(res.output, spec.expected)
        # Identical batch keys must pin to one worker (warm plan cache).
        assert len({f.worker_id for f in futures}) == 1

    def test_distinct_shapes_spread_and_stats_roll_up(self, fleet):
        for name, n in (("compact", 128), ("unique", 128),
                        ("chain", 64), ("remove_if", 96)):
            spec = make_shape(name, n, seed=7)
            res = fleet.submit_chain(list(spec.ops),
                                     spec.array).result(timeout=60.0)
            assert np.array_equal(res.output, spec.expected)
        stats = fleet.stats()
        assert stats["kind"] == "repro-fleet-stats"
        assert stats["n_workers"] == 2
        assert stats["rollup"]["serve.completed"] >= 4
        assert stats["ring"]["keys"] >= 4
        assert sum(stats["routing"].values()) >= 4
        assert set(stats["workers"]) == set(stats["ring"]["loads"])

    def test_drain_hands_keys_over_and_serving_continues(self, fleet):
        spec = make_shape("compact", 128, seed=3)
        first = fleet.submit_chain(list(spec.ops), spec.array)
        assert np.array_equal(first.result(timeout=60.0).output,
                              spec.expected)
        drained = fleet.drain(first.worker_id)
        assert drained["worker_id"] == first.worker_id
        after = fleet.submit_chain(list(spec.ops), spec.array)
        assert after.worker_id != first.worker_id
        assert np.array_equal(after.result(timeout=60.0).output,
                              spec.expected)
        assert fleet.stats()["n_workers"] == 1
