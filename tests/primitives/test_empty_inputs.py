"""Empty inputs return the reference result with no launch.

The guard lives in one place, :meth:`OpDescriptor.run`, and every front
door that invokes an op goes through it: ``repro.ds``, a ``Pipeline``
(fused or not), the streaming engine and, through the pipeline, a
``Server``.  An empty request is valid input, so the serve layer must
neither retry it nor count it against a breaker.
"""

import numpy as np
import pytest

import repro
from repro import DSConfig, Pipeline
from repro.core.predicates import less_than
from repro.reference import (compact_ref, partition_ref, remove_if_ref,
                             unique_ref)
from repro.serve import ServeConfig, Server
from repro.stream import ArraySource, stream_run

PRED = less_than(2.0)

#: op name, extra args, reference function, zero extras.
CASES = [
    ("compact", (0.0,), lambda v: compact_ref(v, 0.0),
     {"n_kept": 0, "n_removed": 0}),
    ("remove_if", (PRED,), lambda v: remove_if_ref(v, PRED),
     {"n_kept": 0, "n_removed": 0}),
    ("unique", (), unique_ref, {"n_kept": 0, "n_removed": 0}),
    ("partition", (PRED,), lambda v: partition_ref(v, PRED)[0],
     {"n_true": 0, "n_false": 0}),
]
BACKENDS = ["simulated", "vectorized"]


def _assert_reference(res, ref, extras):
    assert res.output.dtype == ref.dtype
    assert res.output.tobytes() == ref.tobytes()
    assert res.counters == []
    for key, value in extras.items():
        assert res.extras[key] == value


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op,args,ref,extras", CASES,
                         ids=[c[0] for c in CASES])
class TestEmptyInput:
    def test_ds(self, backend, op, args, ref, extras):
        empty = np.array([], dtype=np.float32)
        res = repro.ds(op, empty, *args, config=DSConfig(backend=backend))
        _assert_reference(res, ref(empty), extras)

    def test_pipeline(self, backend, op, args, ref, extras):
        empty = np.array([], dtype=np.float32)
        p = Pipeline(config=DSConfig(backend=backend))
        fut = p.enqueue(op, empty, *args)
        p.run()
        assert p.stream.num_launches == 0
        _assert_reference(fut.result(), ref(empty), extras)

    def test_stream(self, backend, op, args, ref, extras):
        empty = np.array([], dtype=np.float32)
        res = stream_run([(op, *args)], ArraySource(empty),
                         config=DSConfig(backend=backend, shard_elems=64))
        _assert_reference(res, ref(empty), extras)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stage_emptied_mid_chain_streams(backend):
    # compact removes every element of the second shard; unique then
    # sees an empty stage input there and must not launch on it.
    values = np.concatenate([np.arange(1, 65, dtype=np.float32),
                             np.zeros(64, dtype=np.float32)])
    res = stream_run([("compact", 0.0), "unique"], ArraySource(values),
                     config=DSConfig(backend=backend, shard_elems=64))
    assert res.output.tobytes() == \
        unique_ref(compact_ref(values, 0.0)).tobytes()


def test_empty_requests_leave_the_breaker_closed():
    cfg = ServeConfig(max_wait_ms=0.0, num_workers=1, breaker_threshold=1)
    data = np.array([3.0, 0.0, 3.0, 1.0], dtype=np.float32)
    with Server(cfg, ds_config=DSConfig(backend="vectorized")) as srv:
        for _ in range(3):  # one client sends empty arrays
            res = srv.submit_chain([("compact", 0.0), "unique"],
                                   np.array([], dtype=np.float32)).result(
                                       timeout=30.0)
            assert res.output.size == 0
            assert res.extras["degraded"] is False
        assert srv.breaker.state(("ds_stream_compact",)) == "closed"
        assert srv.breaker.state(("ds_stream_compact", "ds_unique")) \
            == "closed"
        # Another client's next request is served on the DS path.
        res = srv.submit_chain([("compact", 0.0), "unique"],
                               data).result(timeout=30.0)
    assert res.extras["degraded"] is False
    assert res.output.tobytes() == \
        unique_ref(compact_ref(data, 0.0)).tobytes()
