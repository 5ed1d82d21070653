"""What the execution backends' span trees share, and what they do not.

Both backends emit one labelled ``primitive`` root per call and the same
number of ``launch`` spans, and their tracer metrics agree with the
launch counters — the tracing analogue of the counter-equivalence
contract.  The per-work-group timeline is different: only the simulated
scheduler has one, so only it writes ``wg:`` tracks with ``phase`` and
``sched`` spans.  A fast-path launch moves the whole array in one call
and traces as exactly one measured ``launch`` span.
"""

from collections import Counter as Multiset

import numpy as np
import pytest

from repro import obs
from repro.config import DSConfig
from repro.primitives import (
    ds_copy_if,
    ds_pad,
    ds_partition,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
    ds_unique_by_key,
    ds_unpad,
)
from repro.workloads import (
    compaction_array,
    padding_matrix,
    predicate_fraction_array,
    runs_array,
)

N = 4096
WG = 64


def phase_tree(span):
    """Nested ``(name, children)`` shape of one span, phases only."""
    return (span.name, tuple(phase_tree(c) for c in span.children
                             if c.cat == "phase"))


def wg_phase_forest(tracer):
    """Multiset of per-work-group-track phase trees."""
    forest = Multiset()
    for track in tracer.tracks:
        if not track.startswith("wg:"):
            continue
        trees = tuple(phase_tree(sp) for sp in tracer.roots(track)
                      if sp.cat == "phase")
        forest[trees] += 1
    return forest


def traced(run):
    tracers = {}
    for backend in ("simulated", "vectorized"):
        with obs.tracing("spans") as t:
            run(backend)
        tracers[backend] = t
    return tracers


def assert_span_parity(run, primitive_name):
    tracers = traced(run)
    sim, vec = tracers["simulated"], tracers["vectorized"]

    # One root primitive span per call, on both backends, labelled.
    for name, t in tracers.items():
        roots = t.find_spans(primitive_name, cat="primitive")
        assert roots, f"{name}: no {primitive_name} primitive span"
        for sp in roots:
            assert sp.args["backend"] == name
            assert sp.end_us is not None

    # Same number of launch spans.
    assert len(sim.find_spans(cat="launch")) == \
        len(vec.find_spans(cat="launch"))

    # Only the simulated backend has a work-group timeline.
    assert wg_phase_forest(sim), f"{primitive_name}: no simulated phases"
    assert not vec.find_spans(cat="phase")
    assert not [tr for tr in vec.tracks if tr.startswith("wg:")]


def simulated_forest(run):
    with obs.tracing("spans") as t:
        run("simulated")
    forest = wg_phase_forest(t)
    assert forest, "simulated trace has no work-group phase trees"
    return forest


class TestRegularPrimitives:
    def test_pad(self):
        matrix = padding_matrix(64, 31)
        assert_span_parity(
            lambda b: ds_pad(matrix, 1,
                             config=DSConfig(wg_size=WG, seed=3, backend=b)),
            "ds_pad")

    def test_unpad(self):
        matrix = padding_matrix(64, 32)
        assert_span_parity(
            lambda b: ds_unpad(matrix, 1,
                               config=DSConfig(wg_size=WG, seed=3, backend=b)),
            "ds_unpad")

    def test_regular_tree_shape(self):
        """Regular DS phases are load -> sync -> store, no reduce."""
        matrix = padding_matrix(64, 31)
        forest = simulated_forest(
            lambda b: ds_pad(matrix, 1,
                             config=DSConfig(wg_size=WG, seed=3, backend=b)))
        for trees in forest:
            assert [name for name, _ in trees] == ["load", "sync", "store"]


class TestIrregularPrimitives:
    def test_stream_compact(self):
        values = compaction_array(N, 0.5, seed=8)
        assert_span_parity(
            lambda b: ds_stream_compact(values, 0.0,
                                        config=DSConfig(
                                            wg_size=WG, seed=8, backend=b)),
            "ds_stream_compact")

    def test_remove_if(self):
        values, pred = predicate_fraction_array(N, 0.5, seed=12)
        assert_span_parity(
            lambda b: ds_remove_if(values, pred,
                                   config=DSConfig(
                                       wg_size=WG, seed=12, backend=b)),
            "ds_remove_if")

    def test_copy_if(self):
        values, pred = predicate_fraction_array(N, 0.25, seed=5)
        assert_span_parity(
            lambda b: ds_copy_if(values, pred,
                                 config=DSConfig(
                                     wg_size=WG, seed=5, backend=b)),
            "ds_copy_if")

    def test_unique(self):
        values = runs_array(N, 0.25, seed=16)
        assert_span_parity(
            lambda b: ds_unique(values,
                                config=DSConfig(
                                    wg_size=WG, seed=16, backend=b)),
            "ds_unique")

    def test_partition(self):
        values, pred = predicate_fraction_array(N, 0.5, seed=19)
        assert_span_parity(
            lambda b: ds_partition(values, pred,
                                   config=DSConfig(
                                       wg_size=WG, seed=19, backend=b)),
            "ds_partition")

    def test_irregular_tree_shape(self):
        """Irregular DS phases are load -> reduce -> sync -> store,
        with the flag-round scans nested inside store."""
        values = compaction_array(N, 0.5, seed=8)
        forest = simulated_forest(
            lambda b: ds_stream_compact(values, 0.0,
                                        config=DSConfig(
                                            wg_size=WG, seed=8, backend=b)))
        saw_scan = False
        for trees in forest:
            for name, children in trees:
                assert name in ("load", "reduce", "sync", "store")
                if name == "store" and children:
                    assert {c for c, _ in children} == {"scan"}
                    saw_scan = True
        assert saw_scan

    def test_sync_wait_only_on_simulated(self):
        values = compaction_array(N, 0.5, seed=8)
        tracers = traced(
            lambda b: ds_stream_compact(values, 0.0,
                                        config=DSConfig(
                                            wg_size=WG, seed=8, backend=b)))
        assert tracers["simulated"].find_spans("sync_wait", cat="sched")
        assert not tracers["vectorized"].find_spans("sync_wait")


class TestKeyedPrimitives:
    def test_unique_by_key(self):
        keys = runs_array(N, 0.25, seed=21)
        vals = np.arange(N, dtype=np.float32)
        assert_span_parity(
            lambda b: ds_unique_by_key(keys, vals,
                                       config=DSConfig(
                                           wg_size=WG, seed=21, backend=b)),
            "ds_unique_by_key")


class TestWholeArrayLaunches:
    @pytest.mark.parametrize("n", [4096, 1 << 20])
    def test_vectorized_span_count_is_constant(self, n):
        """Two spans per launch (primitive root + launch), however many
        work-groups the geometry has."""
        values = compaction_array(n, 0.5, seed=8).astype(np.float32)
        with obs.tracing("spans") as t:
            ds_stream_compact(values, 0.0,
                              config=DSConfig(backend="vectorized"))
        assert len(t.find_spans(cat="launch")) == 1
        assert sum(1 for _ in t.iter_spans()) == 2
        assert t.tracks == [obs.HOST_TRACK]


class TestMetricsParity:
    def test_stream_counters_match_launch_counters(self):
        values = compaction_array(N, 0.5, seed=8)
        results = {}
        tracers = {}
        for backend in ("simulated", "vectorized"):
            with obs.tracing("spans") as t:
                results[backend] = ds_stream_compact(values, 0.0,
                                                     config=DSConfig(
                                                         wg_size=WG, seed=8, backend=backend))
            tracers[backend] = t
        for backend, t in tracers.items():
            c = results[backend].counters[0]
            m = t.metrics
            assert m.counter("stream.launches").value == 1
            assert m.counter("stream.bytes_loaded").value == c.bytes_loaded
            assert m.counter("stream.bytes_stored").value == c.bytes_stored
            assert m.counter("stream.atomics").value == c.n_atomics
            assert m.gauge("sched.peak_resident").value == c.peak_resident
        sim_m, vec_m = tracers["simulated"].metrics, \
            tracers["vectorized"].metrics
        for name in ("stream.bytes_loaded", "stream.bytes_stored",
                     "stream.atomics", "stream.barriers"):
            assert sim_m.counter(name).value == vec_m.counter(name).value

    @pytest.mark.slow
    def test_spin_wait_histograms_cover_waiting_groups(self):
        values = compaction_array(N, 0.5, seed=8)
        with obs.tracing("spans") as t:
            result = ds_stream_compact(values, 0.0,
                                       config=DSConfig(
                                           wg_size=WG, seed=8, backend="simulated"))
        n_wgs = result.extras["n_workgroups"]
        hists = t.metrics.instruments("sched.spin_wait_us")
        assert 0 < len(hists) <= n_wgs
        waits = t.find_spans("sync_wait", cat="sched")
        assert sum(h.count for h in hists) == len(waits)
        for h in hists:
            assert h.count > 0 and h.min >= 0.0
