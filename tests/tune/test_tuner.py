"""The staged-sweep autotuner: guarantees, persistence, observability,
and the serve-layer tuned-warmup loop."""

import numpy as np
import pytest

from repro import obs as _obs
from repro.config import DSConfig
from repro.errors import ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, Server
from repro.tune.db import TuningDB, kernel_key
from repro.tune.objective import ServeScore, TrialScore, better
from repro.tune.space import KnobSpace
from repro.tune.tuner import make_fig_workload, tune_kernel, tune_serve

#: A deliberately tiny space so a full staged sweep stays fast.
SMALL = KnobSpace(wg_sizes=(64, 128), coarsenings=(None, 2),
                  scan_variants=("tree", "lookback"),
                  max_batch_sizes=(1, 2), max_waits_ms=(0.0,))


@pytest.fixture
def array(rng):
    return rng.integers(0, 4, 1024).astype(np.float64)


class TestObjective:
    def test_lower_wall_wins_outside_margin(self):
        a = TrialScore(wall_ms=1.0, spin_idle_share=0.9)
        b = TrialScore(wall_ms=2.0, spin_idle_share=0.1)
        assert better(a, b) and not better(b, a)

    def test_tie_broken_by_spin_idle_share(self):
        a = TrialScore(wall_ms=1.000, spin_idle_share=0.10)
        b = TrialScore(wall_ms=1.001, spin_idle_share=0.30)
        assert better(a, b) and not better(b, a)

    def test_serve_tie_broken_by_throughput(self):
        a = ServeScore(p95_ms=5.00, throughput_rps=900.0)
        b = ServeScore(p95_ms=5.01, throughput_rps=400.0)
        assert better(a, b) and not better(b, a)

    def test_none_incumbent_always_loses(self):
        assert better(TrialScore(wall_ms=9.0, spin_idle_share=1.0), None)


class TestTuneKernel:
    def test_winner_never_slower_than_baseline(self, array):
        result = tune_kernel((("compact", 0.0),), array,
                             backend="vectorized", space=SMALL,
                             budget=20, samples=1)
        assert result.kind == "kernel"
        assert result.trials[0].knobs == {}  # baseline is trial #1
        assert result.best_score.wall_ms <= result.baseline_score.wall_ms
        assert SMALL.valid_kernel_knobs(result.best_knobs)
        assert result.budget_used <= 20

    def test_budget_one_keeps_static_default(self, array):
        result = tune_kernel((("compact", 0.0),), array,
                             backend="vectorized", space=SMALL,
                             budget=1, samples=1)
        assert result.budget_used == 1
        assert not result.improved and result.best_knobs == {}

    def test_budget_must_be_positive(self, array):
        with pytest.raises(ReproError):
            tune_kernel((("compact", 0.0),), array, budget=0)

    def test_chain_gets_fusion_probe(self, array):
        result = tune_kernel((("compact", 0.0), "unique"), array,
                             backend="vectorized", space=SMALL,
                             budget=20, samples=1)
        assert any("fuse" in t.knobs for t in result.trials)

    def test_persists_with_provenance(self, tmp_path, array):
        db = TuningDB(tmp_path / "db.json")
        result = tune_kernel((("compact", 0.0),), array,
                             backend="vectorized", space=SMALL,
                             budget=20, samples=2, db=db,
                             timestamp=1754600000.0, set_default=True)
        reloaded = TuningDB.load(db.path)
        entry = reloaded.get(result.key)
        assert entry is not None and entry["kind"] == "kernel"
        assert entry["backend"] == "vectorized"
        assert entry["samples"] == 2 and entry["timestamp"] == 1754600000.0
        assert entry["knobs"] == result.best_knobs
        assert entry["baseline"]["wall_ms"] >= entry["objective"]["wall_ms"]
        # The default| entry only carries DSConfig fields, never fuse.
        default = reloaded.default_knobs("vectorized")
        assert default is not None and "fuse" not in default

    def test_emits_metrics_and_flight_events(self, array):
        metrics = MetricsRegistry()
        flight = FlightRecorder(256)
        result = tune_kernel((("compact", 0.0),), array,
                             backend="vectorized", space=SMALL,
                             budget=20, samples=1, metrics=metrics,
                             flight=flight)
        assert metrics.counter("tune.trials").value == result.budget_used
        assert metrics.histogram("tune.trial_wall_ms").count \
            == result.budget_used
        assert metrics.gauge("tune.best_wall_ms").value \
            == result.best_score.wall_ms
        names = [e["event"] for e in flight.events()]
        assert names.count("tune.trial") == result.budget_used
        assert "tune.sweep_done" in names

    def test_sweep_span_tree_on_outer_tracer(self, array):
        with _obs.tracing("spans") as tracer:
            tune_kernel((("compact", 0.0),), array, backend="vectorized",
                        space=SMALL, budget=4, samples=1)
        assert len(tracer.find_spans("tune.sweep")) == 1
        assert len(tracer.find_spans("tune.trial")) == 4

    def test_tie_break_trace_only_on_simulated(self, array, monkeypatch):
        from repro.tune import objective
        analyzed = []
        real = objective.analyze_tracer

        def counting(tracer, **kwargs):
            analyzed.append(tracer)
            return real(tracer, **kwargs)

        monkeypatch.setattr(objective, "analyze_tracer", counting)
        result = tune_kernel((("compact", 0.0),), array,
                             backend="vectorized", space=SMALL,
                             budget=3, samples=1)
        assert analyzed == []
        assert all(t.score.spin_idle_share == 0.0 for t in result.trials)

        result = tune_kernel((("compact", 0.0),), array[:256],
                             backend="simulated", space=SMALL,
                             budget=2, samples=1)
        assert len(analyzed) == result.budget_used == 2

    def test_fig_workloads(self):
        ops, array, config = make_fig_workload("fig13", n=2048)
        assert array.size == 2048 and config.seed == 8
        result = tune_kernel(ops, array, config=config,
                             backend="vectorized", space=SMALL,
                             budget=3, samples=1)
        assert result.budget_used == 3
        with pytest.raises(ReproError):
            make_fig_workload("fig99")


class TestTuneServe:
    def test_grid_sweep_baseline_first(self):
        result = tune_serve("compact", n=128, clients=2,
                            requests_per_client=3,
                            ds_config=DSConfig(backend="vectorized"),
                            space=SMALL, budget=3)
        assert result.kind == "serve"
        assert result.trials[0].knobs == {}  # ServeConfig defaults
        assert result.budget_used <= 3
        assert result.best_score.p95_ms <= result.baseline_score.p95_ms
        assert result.best_score.completed == result.best_score.requests


class TestServerTunedWarmup:
    def test_prime_tuned_applies_db_knobs(self, tmp_path, array):
        cfg = DSConfig(backend="vectorized")
        db = TuningDB(tmp_path / "db.json")
        tune_kernel((("compact", 0.0),), array, config=cfg, space=SMALL,
                    budget=20, samples=1, db=db)
        assert len(db) == 1

        srv = Server(ServeConfig(num_workers=1), tuning_db=db,
                     autostart=False)
        srv.prime((("compact", 0.0),), array, config=cfg, tuned=True)
        stats = srv.stats()
        assert len(stats["tuned"]) == 1
        (label, knobs), = stats["tuned"].items()
        assert label == "compact|n=1024|float64"
        assert knobs == db.knobs(kernel_key((("compact", 0.0),), array,
                                            cfg, "vectorized"))

        # The tuned config must not change answers, only speed.
        srv.start()
        out = srv.submit_chain((("compact", 0.0),), array,
                               config=cfg).result(timeout=30).output
        assert np.array_equal(out, array[array != 0.0])
        srv.close()

    def test_prime_without_db_is_untuned(self, array):
        srv = Server(ServeConfig(num_workers=1), autostart=False)
        srv.prime((("compact", 0.0),), array, tuned=True)
        assert srv.stats()["tuned"] == {}
        srv.close(drain=False)
