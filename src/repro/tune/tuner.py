"""The staged-sweep autotuner over the bounded knob space.

``tune_kernel`` runs **staged coordinate descent** instead of the full
grid: one baseline trial of the caller's untouched config first (so the
winner can never be slower than the static default — the baseline *is*
a candidate), then a coarsening sweep at the default work-group size,
then a wg_size sweep at the best coarsening, then scan variants, then a
fusion-off probe for multi-op chains.  With the default
:class:`~repro.tune.space.KnobSpace` that is ~15 trials — inside the
CLI's default ``--budget 20`` — versus 192 for the grid, and it mirrors
how the paper's own figures explore the space (Figure 6 sweeps
coarsening at a fixed wg_size).

``tune_serve`` is a plain bounded grid over (max_batch_size,
max_wait_ms) — the serve knob space is small and its objective (loadgen
p95) is noisy enough that coordinate descent saves nothing.

Every trial emits ``tune.*`` metrics, a ``tune.trial`` span on any
tracer active *outside* the trial (trials themselves run under a scoped
tracer for the decomposition measurement), and flight-recorder/event-log
records — the tuner's decisions are as observable as the kernels it
tunes.  Winners (and their full provenance) persist via
:class:`~repro.tune.db.TuningDB`; timestamps are injected by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.config import DSConfig
from repro.errors import ReproError
from repro.obs import log as _obslog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.engine import Pipeline
from repro.pipeline.plan import PlanCache
from repro.primitives.common import DEFAULT_DEVICE
from repro.serve.server import _chain_spec
from repro.simgpu.stream import Stream
from repro.tune.db import KERNEL_CONFIG_KNOBS, TuningDB, kernel_key, serve_key
from repro.tune.objective import (
    ServeScore,
    TrialScore,
    better,
    measure_kernel_trial,
)
from repro.tune.space import KnobSpace

__all__ = ["Trial", "TuneResult", "tune_kernel", "tune_serve",
           "TUNABLE_FIGS", "make_fig_workload"]


@dataclass(frozen=True)
class Trial:
    """One evaluated knob set."""

    knobs: dict
    score: object  # TrialScore | ServeScore

    def to_dict(self) -> dict:
        return {"knobs": dict(self.knobs), "score": self.score.to_dict()}


@dataclass
class TuneResult:
    """Everything one sweep produced, ready for the DB and the report."""

    key: str
    kind: str
    backend: str
    best_knobs: dict
    best_score: object
    baseline_score: object
    trials: List[Trial] = field(default_factory=list)
    budget: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        """Did any non-baseline knob set beat the static default?"""
        return bool(self.best_knobs)

    @property
    def budget_used(self) -> int:
        return len(self.trials)

    def to_dict(self) -> dict:
        return {
            "key": self.key, "kind": self.kind, "backend": self.backend,
            "best_knobs": dict(self.best_knobs),
            "best_score": self.best_score.to_dict(),
            "baseline_score": self.baseline_score.to_dict(),
            "improved": self.improved,
            "budget": self.budget, "budget_used": self.budget_used,
            "trials": [t.to_dict() for t in self.trials],
            "meta": dict(self.meta),
        }

    def summary(self) -> str:
        if self.kind == "serve":
            base = f"p95 {self.baseline_score.p95_ms:.2f}ms"
            best = f"p95 {self.best_score.p95_ms:.2f}ms"
        else:
            base = (f"wall {self.baseline_score.wall_ms:.3f}ms "
                    f"(spin+idle {self.baseline_score.spin_idle_share:.1%})")
            best = (f"wall {self.best_score.wall_ms:.3f}ms "
                    f"(spin+idle {self.best_score.spin_idle_share:.1%})")
        verdict = (f"tuned {self.best_knobs}" if self.improved
                   else "static default kept")
        return (f"tune[{self.kind}/{self.backend}]: {self.budget_used} "
                f"trials; baseline {base} -> {verdict} ({best})")


class _TrialRecorder:
    """Shared observability plumbing for both sweep kinds: ``tune.*``
    metrics, explicit-timestamp spans on the *outer* tracer, and
    flight/event-log records."""

    def __init__(self, kind: str, metrics: Optional[MetricsRegistry],
                 flight: Optional[FlightRecorder]) -> None:
        self.kind = kind
        outer = _obs.active()
        self.tracer = outer
        self.metrics = (metrics if metrics is not None
                        else outer.metrics if outer is not None
                        else MetricsRegistry())
        self.flight = flight
        self.spans: List[dict] = []
        self.t0_us = outer.now_us() if outer is not None else None

    def event(self, name: str, **fields) -> None:
        if self.flight is not None:
            self.flight.record_event(name, **fields)
        _obslog.emit(name, **fields)

    def now_us(self) -> Optional[float]:
        return self.tracer.now_us() if self.tracer is not None else None

    def trial_done(self, knobs: dict, score, start_us: Optional[float],
                   improved: bool) -> None:
        self.metrics.counter("tune.trials").inc()
        if improved:
            self.metrics.counter("tune.improved").inc()
        if isinstance(score, ServeScore):
            self.metrics.histogram("tune.trial_p95_ms").record(score.p95_ms)
        else:
            self.metrics.histogram("tune.trial_wall_ms").record(score.wall_ms)
        args = {"kind": self.kind, "knobs": repr(knobs), "improved": improved}
        args.update(score.to_dict())
        args.pop("wall_samples_ms", None)
        self.event("tune.trial", **args)
        if self.tracer is not None and start_us is not None:
            self.spans.append({"start_us": start_us,
                               "end_us": self.tracer.now_us(),
                               "args": args})

    def finish(self, result: TuneResult) -> None:
        if isinstance(result.best_score, ServeScore):
            self.metrics.gauge("tune.best_p95_ms").set(
                result.best_score.p95_ms)
        else:
            self.metrics.gauge("tune.best_wall_ms").set(
                result.best_score.wall_ms)
        self.event("tune.sweep_done", kind=self.kind, key=result.key,
                   backend=result.backend, trials=result.budget_used,
                   best_knobs=repr(result.best_knobs),
                   improved=result.improved)
        # The sweep's span tree goes on whatever tracer was active
        # around the tune call: one tune.sweep root, one tune.trial
        # child per evaluated knob set.
        if self.tracer is None or self.t0_us is None or not self.spans:
            return
        root = self.tracer.add_span(
            "tune.sweep", track="tune", cat="tune",
            start_us=self.t0_us, end_us=self.tracer.now_us(),
            args={"kind": self.kind, "key": result.key,
                  "trials": result.budget_used,
                  "best_knobs": repr(result.best_knobs)})
        for rec in self.spans:
            self.tracer.add_span("tune.trial", track="tune", cat="tune",
                                 start_us=rec["start_us"],
                                 end_us=rec["end_us"], args=rec["args"],
                                 parent=root)


def _persist(db: Optional[TuningDB], result: TuneResult, *,
             samples: int, timestamp: Optional[float],
             set_default: bool) -> None:
    if db is None:
        return
    db.set(result.key, kind=result.kind, knobs=result.best_knobs,
           objective=result.best_score.to_dict(),
           baseline=result.baseline_score.to_dict(),
           samples=samples, trials=result.budget_used,
           backend=result.backend, timestamp=timestamp, meta=result.meta)
    if set_default and result.kind == "kernel":
        config_knobs = {k: v for k, v in result.best_knobs.items()
                        if k in KERNEL_CONFIG_KNOBS}
        db.set_default(result.backend, config_knobs,
                       baseline=result.baseline_score.to_dict(),
                       objective=result.best_score.to_dict(),
                       samples=samples, trials=result.budget_used,
                       timestamp=timestamp, meta=result.meta)
    if db.path is not None:
        db.save()


def tune_kernel(
    ops,
    array: np.ndarray,
    *,
    config: Optional[DSConfig] = None,
    backend: Optional[str] = None,
    space: Optional[KnobSpace] = None,
    budget: int = 20,
    samples: int = 3,
    db: Optional[TuningDB] = None,
    metrics: Optional[MetricsRegistry] = None,
    flight: Optional[FlightRecorder] = None,
    device=DEFAULT_DEVICE,
    timestamp: Optional[float] = None,
    set_default: bool = False,
) -> TuneResult:
    """Sweep the kernel knob space for one op chain over one input.

    ``ops`` uses the loadgen spelling (``(("compact", 0.0), "unique")``);
    ``budget`` bounds the number of *trials* (each trial runs the
    workload ``samples`` untimed-median times, plus one traced run for
    the spin+idle tie-break on the simulated backend only).
    The baseline (the caller's config untouched) is always trial #1, so
    ``best_score.wall_ms <= baseline_score.wall_ms`` by construction.
    When ``db`` is given the winner persists under the plan-cache-style
    key (and, with ``set_default=True``, as the per-backend
    ``default|`` entry too); a DB with a configured path is saved.
    """
    if budget < 1:
        raise ReproError(f"tune budget must be >= 1, got {budget}")
    space = space if space is not None else KnobSpace()
    base = config if config is not None else DSConfig()
    if backend is not None:
        base = base.replace(backend=backend)
    resolved = base.resolved_backend()
    base = base.replace(backend=resolved)
    spec = _chain_spec(list(ops) if not isinstance(ops, str) else [ops])
    array = np.asarray(array)
    key = kernel_key(ops, array, base, resolved)
    rec = _TrialRecorder("kernel", metrics, flight)
    plan_cache = PlanCache()

    def run_once(cfg: DSConfig, fuse: bool):
        p = Pipeline(Stream(device, seed=cfg.seed), config=cfg,
                     fuse=fuse, plan_cache=plan_cache)
        prev: object = array
        for desc, args, kwargs in spec:
            prev = p.enqueue(desc, prev, *args, config=cfg, **kwargs)
        p.run()
        return prev

    # Only the simulated backend has a work-group timeline for the
    # tie-break to read; elsewhere every trial's share would be 0.0.
    traced = resolved == "simulated"
    tried = set()
    trials: List[Trial] = []
    best: Optional[Trial] = None

    def trial(knobs: dict) -> Optional[Trial]:
        nonlocal best
        marker = tuple(sorted(knobs.items()))
        if marker in tried or len(trials) >= budget:
            return None
        tried.add(marker)
        config_knobs = {k: v for k, v in knobs.items()
                        if k in KERNEL_CONFIG_KNOBS}
        fuse = knobs.get("fuse", True)
        cfg = base.replace(**config_knobs) if config_knobs else base
        start_us = rec.now_us()
        score = measure_kernel_trial(lambda: run_once(cfg, fuse),
                                     samples=samples, trace=traced)
        t = Trial(dict(knobs), score)
        trials.append(t)
        improved = best is not None and better(score, best.score)
        if best is None or improved:
            best = t
        rec.trial_done(knobs, score, start_us, improved)
        return t

    baseline = trial({})
    # Stage 1: coarsening at the base wg_size.
    for c in space.coarsenings:
        if c != base.coarsening:
            trial({"coarsening": c})
    best_knobs = dict(best.knobs)
    # Stage 2: wg_size at the best coarsening so far.
    for w in space.wg_sizes:
        if w != base.wg_size:
            trial({**best_knobs, "wg_size": w})
    best_knobs = dict(best.knobs)
    # Stage 3: scan variant at the best geometry.
    for v in space.scan_variants:
        if v != base.scan_variant:
            trial({**best_knobs, "scan_variant": v})
    # Stage 4: fusion-off probe (chains only — a single op has nothing
    # to fuse, the flag would only pollute the knob dict).
    if len(spec) > 1 and False in space.fusion:
        trial({**dict(best.knobs), "fuse": False})

    result = TuneResult(
        key=key, kind="kernel", backend=resolved,
        best_knobs=dict(best.knobs), best_score=best.score,
        baseline_score=baseline.score, trials=trials, budget=budget,
        meta={"ops": "+".join(d.short for d, _, _ in spec),
              "n": int(array.size), "dtype": str(array.dtype),
              "samples": samples})
    rec.finish(result)
    _persist(db, result, samples=samples, timestamp=timestamp,
             set_default=set_default)
    return result


def tune_serve(
    shape: str = "compact",
    *,
    n: int = 512,
    clients: int = 4,
    requests_per_client: int = 10,
    ds_config: Optional[DSConfig] = None,
    space: Optional[KnobSpace] = None,
    budget: int = 20,
    db: Optional[TuningDB] = None,
    metrics: Optional[MetricsRegistry] = None,
    flight: Optional[FlightRecorder] = None,
    timestamp: Optional[float] = None,
    seed: int = 1234,
) -> TuneResult:
    """Grid-sweep the serve batching knobs for one loadgen shape.

    Each trial is one full :func:`repro.serve.loadgen.run_load` run
    under a candidate (max_batch_size, max_wait_ms); when the space's
    ``worker_counts`` reaches past 1, those grid points instead drive
    a whole multi-process :class:`repro.fleet.Fleet` of that size via
    :func:`repro.fleet.loadgen.run_fleet_load` (both drive their door
    through :func:`repro.serve.loadgen.drive`), and the winning knob
    dict carries ``n_workers``.  The first grid point evaluated with
    the *current* ServeConfig defaults is the baseline.  ``budget``
    bounds the number of grid points tried.
    """
    from repro.serve.config import ServeConfig
    from repro.serve.loadgen import make_shape, run_load
    from repro.fleet.fleet import fork_unavailable_reason

    if budget < 1:
        raise ReproError(f"tune budget must be >= 1, got {budget}")
    space = space if space is not None else KnobSpace()
    cfg = ds_config if ds_config is not None else DSConfig()
    resolved = cfg.resolved_backend()
    spec = make_shape(shape, n, seed)
    key = serve_key(spec.ops, spec.array, cfg, resolved)
    rec = _TrialRecorder("serve", metrics, flight)
    defaults = ServeConfig()

    trials: List[Trial] = []
    best: Optional[Trial] = None
    baseline: Optional[Trial] = None

    # Baseline first: the static ServeConfig defaults (single process),
    # whether or not they lie on the grid.  Fleet-sized points drop out
    # when the platform cannot fork workers.
    fork_blocked = fork_unavailable_reason() is not None
    grid = [(defaults.max_batch_size, defaults.max_wait_ms, 1)]
    grid += [p for p in space.serve_grid()
             if p != grid[0] and not (fork_blocked and p[2] > 1)]
    for batch_size, wait_ms, n_workers in grid[:max(1, budget)]:
        knobs = {"max_batch_size": batch_size, "max_wait_ms": wait_ms}
        if n_workers > 1:
            knobs["n_workers"] = n_workers
        start_us = rec.now_us()
        if n_workers > 1:
            from repro.fleet.config import FleetConfig
            from repro.fleet.loadgen import run_fleet_load

            report = run_fleet_load(
                shapes=[shape], sizes=[n], clients=clients,
                requests_per_client=requests_per_client,
                fleet_config=FleetConfig(
                    n_workers=n_workers, min_workers=n_workers,
                    max_workers=n_workers,
                    serve=defaults.replace(
                        max_batch_size=batch_size, max_wait_ms=wait_ms,
                        seed=seed)),
                ds_config=ds_config, seed=seed)
        else:
            report = run_load(
                shape=shape, clients=clients,
                requests_per_client=requests_per_client, n=n,
                serve_config=defaults.replace(
                    max_batch_size=batch_size, max_wait_ms=wait_ms),
                ds_config=ds_config, seed=seed)
        score = ServeScore(p95_ms=report.latency_p95_ms,
                           throughput_rps=report.throughput_rps,
                           completed=report.completed,
                           requests=report.requests)
        shown = {} if baseline is None else knobs
        t = Trial(shown, score)
        trials.append(t)
        if baseline is None:
            baseline = t
        improved = best is not None and better(score, best.score)
        if best is None or improved:
            best = t
        rec.trial_done(shown, score, start_us, improved)

    result = TuneResult(
        key=key, kind="serve", backend=resolved,
        best_knobs=dict(best.knobs), best_score=best.score,
        baseline_score=baseline.score, trials=trials, budget=budget,
        meta={"shape": shape, "ops": "+".join(
                  s if isinstance(s, str) else s[0] for s in spec.ops),
              "n": n, "clients": clients,
              "requests_per_client": requests_per_client})
    rec.finish(result)
    _persist(db, result, samples=1, timestamp=timestamp, set_default=False)
    return result


# -- canonical figure workloads for the CLI ---------------------------------


def make_fig_workload(fig: str, *, n: Optional[int] = None):
    """The op chain + input + base config for a tunable figure id.

    Mirrors the geometry/seed of the corresponding benchmark case
    (:data:`repro.obs.benchrun.CASES`) at a tuner-tractable default
    size, so a ``tune --fig`` winner describes the same workload the
    bench trajectory times.
    """
    if fig == "fig13":
        from repro.workloads import compaction_array

        n = n if n is not None else 64 * 1024
        return ((("compact", 0.0),), compaction_array(n, 0.5, seed=8),
                DSConfig(seed=8))
    if fig == "fig08":
        from repro.workloads import padding_matrix

        cols = 1023
        rows = max(2, (n if n is not None else 64 * 1024) // cols)
        return ((("pad", 1),), padding_matrix(rows, cols), DSConfig(seed=3))
    raise ReproError(
        f"unknown tunable figure {fig!r}; known: {sorted(TUNABLE_FIGS)}")


TUNABLE_FIGS = ("fig08", "fig13")
