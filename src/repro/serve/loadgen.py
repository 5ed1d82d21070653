"""Closed-loop load generation for every serving front door.

:func:`drive` is the one traffic loop.  It runs *C* client threads,
each submitting ``requests_per_client`` requests in a closed loop
(submit → wait → verify → repeat), so offered concurrency is exactly
*C* and the batcher sees realistic arrival bursts.  A door is anything
with ``submit_chain(ops, values, deadline_ms=...)``: :func:`run_load`
drives a fresh :class:`repro.serve.Server` through it, and
:mod:`repro.fleet.loadgen` drives a :class:`repro.fleet.Fleet` through
the same loop.  Every response is checked byte-for-byte against the
NumPy reference semantics — a serving layer that batches, retries,
sheds or degrades is only interesting if it stays *correct* under all
of that, so correctness is part of the report, not a separate test.

Fault injection (``fault="always"`` or a 0..1 rate) raises transient
:class:`~repro.errors.LaunchError` from the server's fast path, driving
the retry/breaker/degradation machinery; the acceptance bar is that
every request still completes with the right bytes.

:func:`paired_overhead` is the one estimator behind both overhead
guards (the flight recorder here, fleet tracing in
:mod:`repro.fleet.cli`): the median of interleaved off/on throughput
ratios.

Run it directly::

    PYTHONPATH=src python -m repro.serve.loadgen --shape chain --clients 4

or through the CLI front end ``python -m repro serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DSConfig
from repro.core.predicates import less_than
from repro.errors import DeadlineExceeded, LaunchError, Overloaded, \
    ServeError
from repro.primitives.common import DEFAULT_DEVICE
from repro.reference import partition_ref, remove_if_ref, unique_ref
from repro.serve.config import ServeConfig
from repro.serve.server import Server
from repro.simgpu.counters import launch_backend

__all__ = ["LoadReport", "ShapeSpec", "SHAPES", "make_shape", "drive",
           "fold_server_stats", "run_load", "check_report",
           "PairedVerdict", "paired_overhead", "flight_overhead_check",
           "main"]


@dataclass(frozen=True)
class ShapeSpec:
    """One traffic shape: an op chain, its fixed input and the expected
    output (computed once from the reference semantics)."""

    name: str
    ops: tuple
    array: np.ndarray
    expected: np.ndarray


def _shape_compact(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.integers(0, 4, n).astype(np.float64)
    return ShapeSpec("compact", (("compact", 0.0),), x,
                     x[x != 0.0].copy())


def _shape_unique(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = np.repeat(rng.integers(0, 50, (n + 3) // 4), 4)[:n].astype(np.float64)
    return ShapeSpec("unique", ("unique",), x, unique_ref(x))


def _shape_remove_if(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.random(n)
    pred = less_than(0.5)
    return ShapeSpec("remove_if", (("remove_if", pred),), x,
                     remove_if_ref(x, pred))


def _shape_partition(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.random(n)
    pred = less_than(0.5)
    out, _ = partition_ref(x, pred)
    return ShapeSpec("partition", (("partition", pred),), x, out)


def _shape_chain(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.integers(0, 4, n).astype(np.float64)
    return ShapeSpec("chain", (("compact", 0.0), "unique"), x,
                     unique_ref(x[x != 0.0]))


SHAPES = {
    "compact": _shape_compact,
    "unique": _shape_unique,
    "remove_if": _shape_remove_if,
    "partition": _shape_partition,
    "chain": _shape_chain,
}


def make_shape(name: str, n: int, seed: int = 1234) -> ShapeSpec:
    """Build the named traffic shape over an ``n``-element input."""
    try:
        builder = SHAPES[name]
    except KeyError:
        raise ServeError(
            f"unknown load shape {name!r} (choose from "
            f"{', '.join(sorted(SHAPES))})") from None
    return builder(np.random.default_rng(seed), n)


class _FaultInjector:
    """Server ``fault_hook``: raise a transient LaunchError always or at
    a fixed per-batch probability (deterministic given the seed)."""

    def __init__(self, mode, seed: int) -> None:
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.injected = 0

    def __call__(self, batch) -> None:
        with self._lock:
            if self.mode == "always":
                hit = True
            else:
                hit = bool(self._rng.random() < float(self.mode))
            if hit:
                self.injected += 1
        if hit:
            raise LaunchError(
                f"injected fault #{self.injected} (loadgen chaos hook)")


@dataclass
class LoadReport:
    """What :func:`drive` and the serve metrics measured on one door.

    Every field is one that both front doors measure: a :class:`Server`
    reads the serve-side ones from its own :meth:`Server.stats`, a fleet
    from the rollup of its workers' snapshots."""

    door: ClassVar[str] = "serve"

    shape: str
    clients: int
    requests: int
    completed: int = 0
    wrong: int = 0
    failed: int = 0
    expired: int = 0
    shed_retries: int = 0
    degraded: int = 0
    retries: int = 0
    faults_injected: int = 0
    slo_breaches: int = 0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    backend: Optional[str] = None
    batches: int = 0
    batch_size_mean: float = 0.0
    batch_size_max: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_hit_rate: float = 0.0
    errors: List[str] = field(default_factory=list)
    incidents: List[str] = field(default_factory=list)
    stats: Optional[Dict] = None

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["errors"] = list(self.errors[:5])
        return out

    def summary(self) -> str:
        lines = [
            f"{self.door} loadgen: shape={self.shape} clients={self.clients} "
            f"requests={self.requests}",
            f"  completed {self.completed} ({self.wrong} wrong, "
            f"{self.failed} failed, {self.expired} expired, "
            f"{self.shed_retries} shed-then-retried)",
            f"  throughput {self.throughput_rps:.1f} req/s over "
            f"{self.wall_s * 1e3:.1f} ms (kernel backend: "
            f"{self.backend or 'none'})",
            f"  latency p50 {self.latency_p50_ms:.2f} ms, "
            f"p95 {self.latency_p95_ms:.2f} ms, "
            f"p99 {self.latency_p99_ms:.2f} ms, "
            f"mean {self.latency_mean_ms:.2f} ms",
            f"  batches {self.batches} (mean size "
            f"{self.batch_size_mean:.2f}, max {self.batch_size_max:.0f})",
            f"  plan cache {self.plan_hits} hits / {self.plan_misses} "
            f"misses (hit rate {self.plan_hit_rate * 100:.1f}%)",
            f"  robustness: {self.retries} retries, {self.degraded} "
            f"degraded, {self.faults_injected} faults injected",
        ]
        if self.slo_breaches:
            lines.append(f"  SLO breaches: {self.slo_breaches}")
        if self.incidents:
            lines.append("  incident bundles:")
            lines.extend(f"    {p}" for p in self.incidents)
        if self.errors:
            lines.append(f"  first errors: {self.errors[:3]}")
        return "\n".join(lines)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _same_bytes(output, expected: np.ndarray) -> bool:
    out = np.asarray(output)
    return (out.dtype == expected.dtype and out.shape == expected.shape
            and out.tobytes() == expected.tobytes())


# Pause between resubmissions of a shed request.  Fixed, so a door
# with a zero batch window cannot turn the retry loop into a spin.
_SHED_BACKOFF_S = 0.001


def drive(door, specs: Sequence[ShapeSpec], *, clients: int,
          requests_per_client: int, timeout_s: float,
          deadline_ms: Optional[float] = None,
          report: Optional[LoadReport] = None) -> LoadReport:
    """The closed-loop traffic loop every front door runs through.

    ``door`` is anything with ``submit_chain(ops, values, deadline_ms=)``
    returning a future with ``result(timeout=)`` — a started
    :class:`Server` or a :class:`~repro.fleet.Fleet`.  Each of
    ``clients`` threads submits ``requests_per_client`` requests, one at
    a time, round-robining over ``specs``, and checks every output
    byte-for-byte against the spec's expected array.

    Each request has ``timeout_s`` from its first submission: a shed
    (:class:`~repro.errors.Overloaded`) request is resubmitted after a
    fixed 1 ms pause until then and counts as ``expired`` when the time
    runs out, as does a :class:`~repro.errors.DeadlineExceeded`
    response.  Any other error counts as ``failed``.

    Fills ``report`` (a fresh :class:`LoadReport` when ``None``) with the
    counts, the wall time of the whole loop, throughput, latency
    percentiles over the completed requests and the kernel backend the
    responses report, and returns it.
    """
    if report is None:
        report = LoadReport(
            shape="+".join(dict.fromkeys(s.name for s in specs)),
            clients=clients, requests=clients * requests_per_client)
    latencies: List[float] = []
    backends = set()
    lock = threading.Lock()

    def request(spec: ShapeSpec, give_up: float):
        while True:
            try:
                fut = door.submit_chain(spec.ops, spec.array,
                                        deadline_ms=deadline_ms)
                break
            except Overloaded:
                with lock:
                    report.shed_retries += 1
                if time.perf_counter() >= give_up:
                    raise DeadlineExceeded(
                        f"shed for the whole {timeout_s}s timeout") from None
                time.sleep(_SHED_BACKOFF_S)
        return fut.result(timeout=max(0.0, give_up - time.perf_counter()))

    def client(cid: int) -> None:
        for k in range(requests_per_client):
            spec = specs[(cid + k) % len(specs)]
            t0 = time.perf_counter()
            try:
                result = request(spec, t0 + timeout_s)
            except DeadlineExceeded:
                with lock:
                    report.expired += 1
                continue
            except Exception as exc:
                with lock:
                    report.failed += 1
                    report.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            ok = _same_bytes(result.output, spec.expected)
            backend = ((result.extras or {}).get("backend")
                       or launch_backend(result.counters))
            with lock:
                report.completed += 1
                latencies.append(elapsed_ms)
                if backend is not None:
                    backends.add(backend)
                if not ok:
                    report.wrong += 1
                    report.errors.append(
                        f"client {cid}: wrong output for "
                        f"{spec.name}/n={spec.array.size}")

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"loadgen-client-{i}")
               for i in range(clients)]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_s = time.perf_counter() - t_start

    latencies.sort()
    report.latency_p50_ms = _percentile(latencies, 0.50)
    report.latency_p95_ms = _percentile(latencies, 0.95)
    report.latency_p99_ms = _percentile(latencies, 0.99)
    report.latency_mean_ms = (sum(latencies) / len(latencies)
                              if latencies else 0.0)
    report.throughput_rps = (report.completed / report.wall_s
                             if report.wall_s > 0 else 0.0)
    report.backend = "+".join(sorted(backends)) or None
    return report


def fold_server_stats(report: LoadReport, before: dict,
                      after: dict) -> None:
    """Fold two :meth:`Server.stats`-shaped snapshots taken around
    :func:`drive` (for a fleet, its workers' rollup) into ``report``:
    the plan-cache hit rate over the window between them (priming fills
    the caches with deliberate misses, so a cumulative rate would
    punish the warmup), and the batch, robustness and incident facts
    as of ``after``."""
    hits = after["plan_cache.hits"] - before["plan_cache.hits"]
    misses = after["plan_cache.misses"] - before["plan_cache.misses"]
    report.plan_hits, report.plan_misses = hits, misses
    report.plan_hit_rate = hits / (hits + misses) if hits + misses else 1.0
    batch_hist = after.get("serve.batch_size") or {}
    report.batches = int(batch_hist.get("count", 0))
    report.batch_size_mean = float(batch_hist.get("mean") or 0.0)
    report.batch_size_max = float(batch_hist.get("max") or 0.0)
    report.degraded = int(after.get("serve.degraded", 0))
    report.retries = int(after.get("serve.retries", 0))
    report.slo_breaches = int(after.get("serve.slo_breaches", 0))
    report.incidents = list((after.get("flight") or {}).get("incidents")
                            or [])


def run_load(
    *,
    shape: str = "chain",
    clients: int = 4,
    requests_per_client: int = 25,
    n: int = 512,
    serve_config: Optional[ServeConfig] = None,
    ds_config: Optional[DSConfig] = None,
    device=DEFAULT_DEVICE,
    fault=None,
    prime: bool = True,
    deadline_ms: Optional[float] = None,
    seed: int = 1234,
    timeout_s: float = 60.0,
    collect_stats: bool = False,
    tuning_db=None,
) -> LoadReport:
    """Drive a fresh :class:`Server` through :func:`drive`.

    Parameters mirror the CLI flags; ``fault`` is ``None`` (healthy),
    ``"always"`` (every fast-path batch fails → breaker opens →
    degradation serves everything) or a 0..1 per-batch probability.
    ``collect_stats=True`` keeps the final :meth:`Server.stats`
    snapshot in ``report.stats``.  ``tuning_db`` (a
    :class:`~repro.tune.db.TuningDB`) hands the server persisted
    autotuner winners; the prime step then warms from it
    (``tuned=True``) and stats are always collected so the report shows
    which tuned knobs were active.

    The whole run executes inside ``metrics.scoped("serve.")``, so
    back-to-back runs against a shared registry (the active tracer's)
    each start their ``serve.*`` instruments from zero and leave the
    registry as they found it — no counter bleed between runs.
    """
    spec = make_shape(shape, n, seed)
    cfg = serve_config if serve_config is not None else ServeConfig()
    injector = _FaultInjector(fault, seed) if fault is not None else None
    server = Server(cfg, ds_config=ds_config, device=device,
                    fault_hook=injector, tuning_db=tuning_db,
                    autostart=False)
    if server.flight is not None:
        # The replay contract: every incident bundle this run dumps
        # carries the full traffic profile in its manifest events, so
        # ``python -m repro replay <bundle>`` can regenerate the exact
        # load (shape, concurrency, seed, fault schedule) that tripped
        # the trigger.
        server.flight.record_event(
            "loadgen.profile", shape=shape, n=int(n),
            clients=int(clients),
            requests_per_client=int(requests_per_client),
            seed=int(seed),
            fault=None if fault is None else str(fault),
            deadline_ms=deadline_ms, prime=bool(prime))
    with server.metrics.scoped("serve."):
        if prime:
            server.prime(spec.ops, spec.array,
                         tuned=tuning_db is not None)
        before = server.stats()
        server.start()
        report = drive(server, [spec], clients=clients,
                       requests_per_client=requests_per_client,
                       timeout_s=timeout_s, deadline_ms=deadline_ms)
        server.close(drain=True)
        after = server.stats()
        fold_server_stats(report, before, after)
    if collect_stats or tuning_db is not None:
        report.stats = after
    if injector is not None:
        report.faults_injected = injector.injected
    return report


def check_report(report: LoadReport, *, faulted: bool = False) -> None:
    """Assert the acceptance bar on a loadgen run; raises
    :class:`~repro.errors.ServeError` with the failures listed.

    ``faulted=True`` means the fast path was *forced* to fail
    (``fault="always"``), so the run must have served through
    degradation; plan-cache expectations are waived for it."""
    problems = []
    if report.completed != report.requests:
        problems.append(
            f"completed {report.completed}/{report.requests} requests "
            f"({report.failed} failed, {report.expired} expired)")
    if report.wrong:
        problems.append(f"{report.wrong} responses had wrong outputs")
    if report.batch_size_max < 2:
        problems.append(
            f"no multi-request batches formed (max batch size "
            f"{report.batch_size_max:.0f}); batching is not engaging")
    if faulted:
        if report.degraded <= 0:
            problems.append("fault-injected run never degraded "
                            "(serve.degraded == 0)")
    elif report.plan_hit_rate <= 0.90:
        problems.append(
            f"plan-cache hit rate {report.plan_hit_rate * 100:.1f}% "
            f"<= 90% after warmup")
    if problems:
        raise ServeError("loadgen acceptance failed: "
                         + "; ".join(problems))


@dataclass(frozen=True)
class PairedVerdict:
    """The paired overhead estimate: one on/off throughput ratio per
    pair, their median (the verdict) and quartiles, and the bound the
    median must reach."""

    ratios: List[float]
    median: float
    q1: float
    q3: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.median >= self.bound

    def line(self, label: str) -> str:
        return (f"{label}: median on/off throughput ratio "
                f"{self.median:.3f} (quartiles {self.q1:.3f}..{self.q3:.3f})"
                f" over {len(self.ratios)} pairs ["
                + " ".join(f"{r:.3f}" for r in self.ratios)
                + f"], bound {self.bound:.2f}: "
                + ("OK" if self.ok else "FAILED"))


# The paired estimator's design: timed off/on pairs per verdict, and
# the least median on/off throughput ratio a guard accepts.
OVERHEAD_PAIRS = 6
OVERHEAD_BOUND = 0.90

# Per-client request floor of an overhead-guard run.  Shorter runs last
# a few tens of milliseconds, where one scheduler stall on a shared box
# swings a pair ratio more than the feature under test does.
OVERHEAD_MIN_REQUESTS = 64


def paired_overhead(run: Callable[[bool], float]) -> PairedVerdict:
    """Estimate what switching a feature on costs in throughput.

    ``run(on)`` performs one load run with the feature off or on and
    returns its throughput.  One untimed warmup pair goes first, then
    :data:`OVERHEAD_PAIRS` off/on pairs whose order alternates each
    pair, so slow drift on a shared box lands on both sides equally.
    The verdict is the median of the per-pair ``on / off`` ratios
    against :data:`OVERHEAD_BOUND`: a real slowdown drags most pairs
    down and fails it, while one lucky pair cannot pass it.  A pair
    whose baseline completed nothing scores 0.
    """
    run(False)
    run(True)
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        rps = {on: run(on) for on in order}
        ratios.append(rps[True] / rps[False] if rps[False] > 0 else 0.0)
    q1, median, q3 = (float(v) for v in np.percentile(ratios, [25, 50, 75]))
    return PairedVerdict(ratios, median, q1, q3, OVERHEAD_BOUND)


def flight_overhead_check(**run_kwargs) -> PairedVerdict:
    """Measure the flight recorder's serving overhead with
    :func:`paired_overhead`: the same :func:`run_load` with the recorder
    on and off (``flight_capacity=0``), each client sending at least
    :data:`OVERHEAD_MIN_REQUESTS` requests.  Returns the verdict."""
    cfg = run_kwargs.pop("serve_config", None) or ServeConfig.from_env()
    capacity = cfg.flight_capacity or 4096
    run_kwargs["requests_per_client"] = max(
        run_kwargs.get("requests_per_client", 25), OVERHEAD_MIN_REQUESTS)

    def run(on: bool) -> float:
        return run_load(
            serve_config=cfg.replace(flight_capacity=capacity if on else 0),
            **run_kwargs).throughput_rps

    return paired_overhead(run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="Closed-loop load generator for the repro serve layer.")
    parser.add_argument("--shape", default="chain",
                        choices=sorted(SHAPES),
                        help="traffic shape (op chain) to generate")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop clients")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client")
    parser.add_argument("--n", type=int, default=512,
                        help="input array length")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override ServeConfig.max_batch_size")
    parser.add_argument("--wait-ms", type=float, default=None,
                        help="override ServeConfig.max_wait_ms")
    parser.add_argument("--workers", type=int, default=None,
                        help="override ServeConfig.num_workers")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="override ServeConfig.max_queue_depth")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline")
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="latency objective; slower completions fire "
                             "the slo_breach incident trigger")
    parser.add_argument("--fault", default=None,
                        help="'always' or a 0..1 per-batch fault rate")
    parser.add_argument("--incident-dir", default=None,
                        help="write flight-recorder incident bundles here "
                             "on breaker-open/deadline/launch-error/SLO "
                             "triggers")
    parser.add_argument("--event-log", default=None,
                        help="append the structured JSONL event log to "
                             "this file")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--tuning-db", default=None,
                        help="warm the server from this autotuner DB "
                             "(Server.prime(tuned=True)); active tuned "
                             "knobs show up under stats['tuned']")
    parser.add_argument("--no-prime", action="store_true",
                        help="skip plan-cache pre-warming")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance bar on the report")
    parser.add_argument("--stats", action="store_true",
                        help="print the live Server.stats() snapshot "
                             "(queue depth, latency percentiles, cache "
                             "hit rates, breaker + flight state)")
    parser.add_argument("--flight-overhead-check", action="store_true",
                        help="run the load in a warmup pair plus 6 "
                             "interleaved recorder-off/on pairs and fail "
                             "unless the median of the paired on/off "
                             "throughput ratios is >= 0.90")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    return parser


def _config_from_args(args) -> ServeConfig:
    cfg = ServeConfig.from_env()
    overrides = {}
    if args.batch_size is not None:
        overrides["max_batch_size"] = args.batch_size
    if args.wait_ms is not None:
        overrides["max_wait_ms"] = args.wait_ms
    if args.workers is not None:
        overrides["num_workers"] = args.workers
    if args.queue_depth is not None:
        overrides["max_queue_depth"] = args.queue_depth
    if args.slo_ms is not None:
        overrides["slo_ms"] = args.slo_ms
    if args.incident_dir is not None:
        overrides["incident_dir"] = args.incident_dir
    if args.event_log is not None:
        overrides["event_log"] = args.event_log
    return cfg.replace(**overrides) if overrides else cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    fault = args.fault
    if fault is not None and fault != "always":
        fault = float(fault)
    if args.flight_overhead_check:
        verdict = flight_overhead_check(
            shape=args.shape, clients=args.clients,
            requests_per_client=args.requests, n=args.n,
            serve_config=_config_from_args(args),
            fault=fault, prime=not args.no_prime,
            deadline_ms=args.deadline_ms, seed=args.seed)
        print(verdict.line("flight recorder overhead"))
        return 0 if verdict.ok else 1
    tuning_db = None
    if args.tuning_db is not None:
        from repro.tune.db import TuningDB

        tuning_db = TuningDB.load(args.tuning_db)
    report = run_load(
        shape=args.shape, clients=args.clients,
        requests_per_client=args.requests, n=args.n,
        serve_config=_config_from_args(args),
        fault=fault, prime=not args.no_prime,
        deadline_ms=args.deadline_ms, seed=args.seed,
        collect_stats=args.stats, tuning_db=tuning_db)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        if report.stats is not None and (report.stats.get("tuned")
                                         or tuning_db is not None):
            print("tuned knobs active: "
                  + json.dumps(report.stats.get("tuned", {}),
                               sort_keys=True))
        if args.stats and report.stats is not None:
            print("server stats:")
            print(json.dumps(report.stats, indent=2, sort_keys=True))
    if args.check:
        if tuning_db is not None and len(tuning_db):
            from repro.tune.db import kernel_key

            spec = make_shape(args.shape, args.n, args.seed)
            if kernel_key(spec.ops, spec.array) in tuning_db and not (
                    report.stats or {}).get("tuned"):
                raise ServeError(
                    "loadgen acceptance failed: tuning DB has a matching "
                    "kernel entry but stats['tuned'] is empty — tuned "
                    "knobs never activated")
        # Only a forced-failure run ("always") is guaranteed to
        # degrade; at a partial fault rate retries may absorb every
        # fault, which is a pass, not a miss.
        check_report(report, faulted=fault == "always")
        if fault is not None and fault != "always":
            if report.retries + report.degraded <= 0 < report.faults_injected:
                raise ServeError(
                    "loadgen acceptance failed: faults were injected "
                    "but neither retries nor degradation engaged")
        print("loadgen acceptance: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
