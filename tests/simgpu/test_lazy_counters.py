"""Deferred counter derivation on the fast paths.

Vectorized launches attach a derivation instead of computing their byte
and transaction fields.  Whenever those fields are finally read, they
must equal what the launch would have reported on the spot — even after
later launches on the same stream rewrote the launch's buffers, because
the derivation captures per-round counts and access specs, never the
live buffers.
"""

import pickle

import numpy as np
import pytest

from repro.config import DSConfig
from repro.core.fused import FuseStage, run_fused_irregular
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import is_even, less_than
from repro.primitives import ds_partition
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import DERIVED_FIELDS, LaunchCounters
from repro.simgpu.stream import Stream

GEOMETRY = {"wg_size": 32, "coarsening": 2}


def _compact(stream, buf, n):
    return run_irregular_ds(buf, is_even(), stream, total=n,
                            backend="vectorized", **GEOMETRY).counters


def _unique_chain(stream, buf, n):
    stages = [FuseStage("pred", less_than(20)), FuseStage("stencil")]
    return run_fused_irregular(buf, stages, stream, total=n,
                               backend="vectorized", **GEOMETRY).counters


def _partition(stream, buf, n):
    # In-place partition: the irregular launch plus its copy-back.
    return ds_partition(buf.data[:n], less_than(10), stream,
                        config=DSConfig(backend="vectorized",
                                        **GEOMETRY)).counters[-1]


def _pending(c: LaunchCounters) -> bool:
    return "_derivation" in c.__dict__


@pytest.mark.parametrize("launch", [_compact, _unique_chain, _partition])
def test_late_read_equals_immediate_read(rng, maxwell, launch):
    data = np.sort(rng.integers(0, 30, 1500)).astype(np.int64)
    eager_stream, lazy_stream = Stream(maxwell), Stream(maxwell)
    eager_buf, lazy_buf = Buffer(data), Buffer(data)

    eager = launch(eager_stream, eager_buf, 1500)
    immediate = eager.to_dict()
    lazy = launch(lazy_stream, lazy_buf, 1500)
    assert _pending(lazy), "the fast path derived its counters eagerly"

    # Later launches on the same stream rewrite the buffer with other
    # data and sizes, and stop it counting transactions.
    lazy_buf.data[:] = rng.integers(0, 30, 1500)
    launch(lazy_stream, lazy_buf, 700)
    lazy_buf.count_transactions = False
    launch(lazy_stream, lazy_buf, 1100)

    assert _pending(lazy)
    assert lazy.to_dict() == immediate
    assert not _pending(lazy)
    assert all(name in lazy.__dict__ for name in DERIVED_FIELDS)


def test_merge_and_round_trips_match_eager(rng, maxwell):
    data = rng.integers(0, 30, 2000).astype(np.int64)
    records = []
    for _ in range(2):
        stream = Stream(maxwell)
        buf = Buffer(data)
        records.append((_compact(stream, buf, 2000),
                        _unique_chain(stream, buf, 1200)))
    (eager_a, eager_b), (lazy_a, lazy_b) = records
    eager_merged = eager_a.merge(eager_b).to_dict()  # read at once
    assert _pending(lazy_a) and _pending(lazy_b)
    assert lazy_a.merge(lazy_b).to_dict() == eager_merged
    assert LaunchCounters.from_dict(lazy_a.to_dict()) == eager_a

    # A pickled record (pool results cross processes) carries values.
    stream = Stream(maxwell)
    fresh = _compact(stream, Buffer(data), 2000)
    assert _pending(fresh)
    clone = pickle.loads(pickle.dumps(fresh))
    assert not _pending(clone)
    assert clone == eager_a


def test_buffer_stats_settle_to_eager_totals(rng, maxwell):
    data = rng.integers(0, 30, 1500).astype(np.int64)
    eager_buf, lazy_buf = Buffer(data), Buffer(data)
    eager_stream, lazy_stream = Stream(maxwell), Stream(maxwell)
    for n in (1500, 900, 400):
        _compact(eager_stream, eager_buf, n)
        # Reading after every launch settles the eager side each time.
        eager_totals = (eager_buf.stats.load_transactions,
                        eager_buf.stats.store_transactions)
        _compact(lazy_stream, lazy_buf, n)
    assert eager_totals[0] > 0
    assert (lazy_buf.stats.load_transactions,
            lazy_buf.stats.store_transactions) == eager_totals
    assert lazy_buf.stats.loads_elems == eager_buf.stats.loads_elems
    lazy_buf.stats.reset()
    assert lazy_buf.stats.load_transactions == 0
