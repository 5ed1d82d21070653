"""Cross-process transport: op-chain freezing with probe-verified
predicates, and request/response payloads that ride the worker queues
by value (out-of-core inputs by path or segment name)."""

import os
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import predicates
from repro.core.predicates import Predicate
from repro.errors import FleetError
from repro.fleet import Fleet, FleetConfig
from repro.fleet.fleet import fork_unavailable_reason
from repro.fleet.transport import (PROBE, attach_payload, freeze_ops,
                                   revive_ops, stage_payload)
from repro.reference import compact_ref, unique_ref
from repro.serve.config import ServeConfig
from repro.stream.source import (DSSource, MemmapSource, ShardIterSource,
                                 SharedMemorySource, as_source)

SRC = Path(__file__).resolve().parents[2] / "src"

fork_only = pytest.mark.skipif(
    fork_unavailable_reason() is not None,
    reason=f"fork start method unavailable: {fork_unavailable_reason()}")


def _config(**kw):
    base = dict(n_workers=2, min_workers=1, max_workers=2,
                tick_interval_s=0.0, serve=ServeConfig(max_wait_ms=1.0))
    base.update(kw)
    return FleetConfig(**base)


@pytest.fixture(scope="module")
def fleet():
    if fork_unavailable_reason() is not None:
        pytest.skip(f"fork start method unavailable: "
                    f"{fork_unavailable_reason()}")
    f = Fleet(_config()).start()
    try:
        yield f
    finally:
        f.close()




class TestFreezeRevive:
    def test_roundtrip_preserves_chain_shape(self):
        ops = [("compact", 0.0), "unique",
               ("remove_if", predicates.is_even())]
        revived = revive_ops(freeze_ops(ops))
        assert revived[0] == ("compact", 0.0)
        assert revived[1] == ("unique",)
        name, pred = revived[2]
        assert name == "remove_if"
        assert isinstance(pred, Predicate)
        assert np.array_equal(pred(PROBE), predicates.is_even()(PROBE))

    def test_frozen_form_is_plain_picklable_data(self):
        import pickle

        frozen = freeze_ops([("remove_if", predicates.less_than(0.5))])
        assert frozen == [["remove_if", ["__pred__", "less_than(0.5)"]]]
        assert pickle.loads(pickle.dumps(frozen)) == frozen

    def test_numpy_scalars_cross_as_python_scalars(self):
        frozen = freeze_ops([("compact", np.float64(0.5))])
        assert frozen == [["compact", 0.5]]
        assert type(frozen[0][1]) is float

    def test_kwargs_dict_roundtrips(self):
        ops = [("compact", 0.0, {"threshold": 1.5})]
        assert revive_ops(freeze_ops(ops)) == \
            [("compact", 0.0, {"threshold": 1.5})]

    def test_lying_predicate_rejected_at_freeze(self):
        # The name claims is_even, the closure computes something else:
        # probe verification in the router must catch it before a
        # worker silently computes the wrong answer.
        liar = Predicate(lambda x: x > 100, "is_even")
        with pytest.raises(FleetError, match="probe"):
            freeze_ops([("remove_if", liar)])

    def test_unnameable_predicate_rejected_at_freeze(self):
        custom = Predicate(lambda x: x > 0, "my_custom_thing")
        with pytest.raises(FleetError, match="vocabulary"):
            freeze_ops([("remove_if", custom)])

    def test_array_argument_is_not_transportable(self):
        with pytest.raises(FleetError, match="not.*transportable"):
            freeze_ops([("compact", np.array([1.0, 2.0]))])

    def test_empty_chain_rejected(self):
        with pytest.raises(FleetError):
            freeze_ops([])


class _PathlessSource(DSSource):
    """A sized out-of-core source with no backing file or segment."""

    def __init__(self, values):
        self._values = values

    @property
    def n_elems(self):
        return int(self._values.size)

    @property
    def dtype(self):
        return self._values.dtype

    def read(self, lo, hi):
        return self._values[lo:hi]


def _through_queue(desc):
    """What a worker unpickles off its inbox."""
    return pickle.loads(pickle.dumps(desc))


class TestPayloads:
    def test_in_core_payload_is_a_snapshot(self):
        data = np.arange(257, dtype=np.float64)
        desc = stage_payload(as_source(data))
        assert desc[0] == "array"
        data[:] = -1.0  # the caller mutates after submit
        values = attach_payload(_through_queue(desc))
        assert isinstance(values, np.ndarray)
        assert np.array_equal(values, np.arange(257, dtype=np.float64))

    def test_worker_receives_a_writable_array(self):
        data = np.arange(64, dtype=np.float32)
        data.setflags(write=False)
        values = attach_payload(_through_queue(stage_payload(
            as_source(data))))
        assert values.flags.writeable
        values[0] = 5.0  # the kernels slide data in place

    def test_out_of_core_memmap_payload_stays_streamed(self, tmp_path):
        path = tmp_path / "payload.bin"
        data = np.arange(129, dtype=np.float64)
        mm = np.memmap(path, dtype=np.float64, mode="w+",
                       shape=data.shape)
        mm[:] = data
        mm.flush()
        desc = stage_payload(MemmapSource(mm))
        assert desc[0] == "memmap"
        source = attach_payload(_through_queue(desc))
        assert isinstance(source, MemmapSource)
        assert not source.in_core
        assert np.array_equal(source.materialize(), data)

    def test_pathless_source_crosses_by_value_and_streams(self):
        data = np.arange(300, dtype=np.float32)
        desc = stage_payload(_PathlessSource(data))
        assert desc[0] == "stream"
        source = attach_payload(_through_queue(desc))
        assert isinstance(source, ShardIterSource)
        assert not source.in_core
        assert np.array_equal(source.materialize(), data)

    def test_caller_segment_crosses_by_name(self):
        from multiprocessing import shared_memory

        data = np.arange(32, dtype=np.int32)
        seg = shared_memory.SharedMemory(create=True, size=data.nbytes)
        try:
            np.ndarray(data.shape, data.dtype, buffer=seg.buf)[:] = data
            desc = stage_payload(SharedMemorySource(seg, np.int32))
            assert desc[:2] == ("shm", seg.name)
            source = attach_payload(_through_queue(desc))
            assert isinstance(source, SharedMemorySource)
            assert np.array_equal(source.materialize(), data)
            del source
        finally:
            seg.close()
            seg.unlink()

    def test_empty_result_roundtrips(self, fleet):
        res = fleet.submit_chain([("compact", 0.0)],
                                 np.array([], dtype=np.float64)).result(
                                     timeout=60.0)
        assert res.output.shape == (0,)
        assert res.output.dtype == np.float64
        assert res.extras["n_kept"] == 0

    def test_result_roundtrips_by_value(self, fleet):
        data = np.linspace(-2.0, 2.0, 63)
        res = fleet.submit_chain([("compact", 0.0)], data).result(
            timeout=60.0)
        assert res.output.dtype == data.dtype
        assert res.output.tobytes() == compact_ref(data, 0.0).tobytes()


@fork_only
class TestFleetPayloads:
    def test_mutation_after_submit_cannot_change_the_request(self, fleet):
        data = np.tile(np.arange(8, dtype=np.float32), 512)
        expected = compact_ref(data, 0.0)
        futures = []
        for _ in range(8):
            futures.append(fleet.submit_chain([("compact", 0.0)], data))
            data[:] = 0.0  # would empty every later request if shared
            data[:] = np.tile(np.arange(8, dtype=np.float32), 512)
        data[:] = 0.0
        for fut in futures:
            assert np.array_equal(fut.result(timeout=60.0).output,
                                  expected)

    def test_list_input_warns_once(self, fleet):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fleet.submit_chain([("compact", 0.0)],
                               [1.0, 0.0, 2.0]).result(timeout=60.0)
            fleet.prime([("compact", 0.0)], [3.0, 0.0])
        deprecations = [str(w.message) for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 2, deprecations
        assert "Fleet.submit" in deprecations[0]
        assert "Fleet.prime" in deprecations[1]

    @pytest.mark.parametrize("created", ["before_fleet", "after_fleet"])
    def test_caller_segment_outlives_the_fleet(self, created):
        from multiprocessing import shared_memory

        data = np.tile(np.array([0.0, 1.0, 1.0, 2.0], dtype=np.float32),
                       1024)

        def make_segment():
            seg = shared_memory.SharedMemory(create=True,
                                             size=data.nbytes)
            np.ndarray(data.shape, data.dtype, buffer=seg.buf)[:] = data
            return seg

        seg = make_segment() if created == "before_fleet" else None
        fleet = Fleet(_config()).start()
        try:
            if seg is None:
                seg = make_segment()
            res = fleet.submit_chain(
                [("compact", 0.0), "unique"],
                SharedMemorySource(seg, np.float32)).result(timeout=60.0)
            assert np.array_equal(res.output,
                                  unique_ref(compact_ref(data, 0.0)))
        finally:
            fleet.close()
        try:
            # No worker tracker reported the segment or unlinked it.
            again = shared_memory.SharedMemory(name=seg.name)
            assert np.array_equal(
                np.ndarray(data.shape, data.dtype, buffer=again.buf), data)
            again.close()
        finally:
            seg.close()
            seg.unlink()


_FLEET_SCRIPT = """
import os, signal, sys, time
import numpy as np
from repro.fleet import Fleet, FleetConfig
from repro.serve.config import ServeConfig

fleet = Fleet(FleetConfig(n_workers=2, min_workers=1, max_workers=2,
                          tick_interval_s=0.0, drain_timeout_s=2.0,
                          serve=ServeConfig(max_wait_ms=0.0)))
rng = np.random.default_rng(0)
if sys.argv[1] == "requests":
    for i in range(50):
        data = rng.integers(0, 4, 64 + 37 * i).astype(np.float32)
        out = fleet.submit_chain([("compact", 0.0), "unique"],
                                 data).result(timeout=60).output
        assert out.size <= data.size
else:
    # Stop every worker so the 4 MB payload is still in flight (the
    # pipe holds 64 KB), then kill the one it routed to.
    pids = [h.process.pid for h in fleet._workers.values()]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    data = rng.integers(0, 4, 1 << 20).astype(np.float32)
    fut = fleet.submit_chain([("compact", 0.0), "unique"], data)
    time.sleep(0.2)
    victim = fleet._workers[fut.worker_id].process.pid
    os.kill(victim, signal.SIGKILL)
    for pid in pids:
        if pid != victim:
            os.kill(pid, signal.SIGCONT)
fleet.close()
print("closed")
"""


@fork_only
class TestNothingLeftBehind:
    """The fleet owns no shared-memory segment, so neither a clean run
    nor a killed worker leaves one behind or a tracker warning."""

    @staticmethod
    def _run(mode):
        def segments():
            shm = Path("/dev/shm")
            return set(shm.glob("psm_*")) if shm.is_dir() else set()

        before = segments()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _FLEET_SCRIPT, mode],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        new = segments() - before
        if new:
            # Another process on the host may own a short-lived segment;
            # a leftover of this run is still there a second later.
            time.sleep(1.0)
            new &= segments()
        assert proc.returncode == 0, proc.stderr
        assert "closed" in proc.stdout
        return proc.stderr, new

    def test_fifty_requests_leave_no_tracker_warning(self):
        stderr, new_segments = self._run("requests")
        assert "resource_tracker" not in stderr, stderr
        assert not new_segments

    def test_killed_worker_leaves_no_segment(self):
        # Also: the router still exits although a payload was stuck in
        # the dead worker's inbox pipe.
        stderr, new_segments = self._run("kill")
        assert not new_segments
        assert "resource_tracker" not in stderr, stderr
