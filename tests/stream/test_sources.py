"""The DSSource input protocol: one front door for every input kind.

``as_source`` is the single coercion point the three entry surfaces
(:func:`repro.ds`, ``Pipeline.enqueue``, ``Server.submit``) share: an
ndarray stays in-core, a memmap / shared-memory handle / shard iterator
becomes an out-of-core source, and anything else coerces with one
deprecation warning naming the call site (mirroring the DSConfig
legacy-kwarg pattern).
"""

import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import ReproError
from repro.stream import (
    ArraySource,
    DSSource,
    MemmapSource,
    ShardIterSource,
    SharedMemorySource,
    as_source,
)


@pytest.fixture
def mm(tmp_path):
    data = np.arange(1000, dtype=np.float32)
    path = tmp_path / "in.dat"
    data.tofile(path)
    return np.memmap(path, dtype=np.float32, mode="r")


class TestArraySource:
    def test_in_core_and_materialize_identity(self):
        arr = np.arange(10.0)
        src = as_source(arr)
        assert isinstance(src, ArraySource)
        assert src.in_core and src.kind == "array"
        assert src.materialize() is arr
        assert src.n_elems == 10 and str(src.dtype) == "float64"

    def test_read_slices(self):
        src = ArraySource(np.arange(20.0))
        np.testing.assert_array_equal(src.read(5, 9), [5.0, 6.0, 7.0, 8.0])

    def test_signature(self):
        n, dt = as_source(np.zeros(7, dtype=np.int64)).signature()
        assert n == 7 and dt == "int64"


class TestMemmapSource:
    def test_out_of_core(self, mm):
        src = as_source(mm)
        assert isinstance(src, MemmapSource)
        assert not src.in_core and src.kind == "memmap"
        assert src.n_elems == 1000

    def test_read_returns_plain_array(self, mm):
        chunk = as_source(mm).read(10, 20)
        assert type(chunk) is np.ndarray
        np.testing.assert_array_equal(chunk, np.arange(10, 20, dtype=np.float32))

    def test_materialize(self, mm):
        np.testing.assert_array_equal(
            as_source(mm).materialize(), np.arange(1000, dtype=np.float32))


class TestSharedMemorySource:
    def test_roundtrip(self):
        shm = shared_memory.SharedMemory(create=True, size=8 * 16)
        try:
            np.ndarray(16, dtype=np.float64, buffer=shm.buf)[:] = \
                np.arange(16.0)
            src = as_source(shm, dtype=np.float64)
            assert isinstance(src, SharedMemorySource)
            assert not src.in_core and src.n_elems == 16
            np.testing.assert_array_equal(src.read(2, 5), [2.0, 3.0, 4.0])
        finally:
            shm.close()
            shm.unlink()

    def test_requires_dtype(self):
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ReproError, match="dtype"):
                as_source(shm)
        finally:
            shm.close()
            shm.unlink()


class TestShardIterSource:
    def test_forward_only_stream(self):
        chunks = iter([np.arange(5.0), np.arange(5.0, 8.0)])
        src = as_source(chunks)
        assert isinstance(src, ShardIterSource)
        assert not src.in_core
        assert src.n_elems is None  # unsized until exhausted
        first = src.next_shard(5)
        np.testing.assert_array_equal(first, np.arange(5.0))
        rest = src.next_shard(100)
        np.testing.assert_array_equal(rest, [5.0, 6.0, 7.0])
        assert src.next_shard(100) is None
        assert src.n_elems == 8

    def test_materialize_drains(self):
        src = as_source(iter([np.arange(4.0), np.arange(4.0, 6.0)]))
        np.testing.assert_array_equal(src.materialize(), np.arange(6.0))


class TestAsSourceCoercion:
    def test_source_passthrough(self, mm):
        src = MemmapSource(mm)
        assert as_source(src) is src

    def test_list_warns_naming_site(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            src = as_source([1.0, 2.0], site="repro.ds")
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DeprecationWarning)]
        assert any("repro.ds" in m for m in messages), messages
        assert isinstance(src, ArraySource)
        np.testing.assert_array_equal(src.materialize(), [1.0, 2.0])

    def test_ndarray_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            as_source(np.arange(3.0), site="repro.ds")

    def test_every_source_is_a_dssource(self, mm):
        for value in (np.arange(4.0), mm, iter([np.arange(2.0)])):
            assert isinstance(as_source(value), DSSource)


class TestDeprecationStacklevel:
    def test_warning_names_this_file_on_a_direct_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            as_source([1.0, 2.0], site="repro.ds")
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations, "expected a legacy-coercion warning"
        assert deprecations[0].filename == __file__

    def test_warning_skips_repro_internals_on_an_indirect_call(self):
        # Pipeline.enqueue -> as_source adds repro-internal frames; the
        # warning must still blame this test file, not the dispatch
        # internals between the user and as_source.
        from repro import Pipeline

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Pipeline().enqueue("compact", [1.0, 0.0, 3.0], 0.0)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations, "expected a legacy-coercion warning"
        assert deprecations[0].filename == __file__
