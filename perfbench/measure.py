"""Run one workload in this process; print its result as the last line.

``run.py`` starts this file in a child process (so the run's stderr,
including the multiprocessing resource tracker's warnings, can be
counted) and prints the final JSON.  Usage::

    python3 perfbench/measure.py --workload serve_small --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` replays the workload with the benchmark's own spans and
walks the layer ladder for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.errors import Overloaded
from repro.fleet import Fleet, FleetConfig
from repro.serve import Server, ServeConfig

import traffic
from doors import (BulkDoor, DsDoor, FleetDoor, NumpyDoor, PipelineDoor,
                   ServerDoor, StreamDoor)
from oracle import PINNED_BACKEND, Tally, reported_backend, same_bytes
from spans import Spans, format_table

OUT_DIR = Path(__file__).resolve().parent / "out"
PIN = repro.DSConfig(backend=PINNED_BACKEND)
SEGMENTS = 10
OVERHEAD_PAIRS = 2
STREAM_REPEATS = 3
JOIN_SLACK_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "melem_per_s": "Melem/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "client.latency_p99_ms": "ms",
    "reference.us_p50": "us",
    "reference.ns_per_elem": "ns/elem",
    "ds.us_p50": "us",
    "ds.ns_per_elem": "ns/elem",
    "ds.vs_reference": "ratio",
    "ds.launches_per_op": "count",
    "ds.bytes_moved_per_elem": "B/elem",
    "ds.raised_on_empty": "count",
    "pipeline.us_p50": "us",
    "pipeline.ns_per_elem": "ns/elem",
    "pipeline.launches_per_chain": "count",
    "pipeline.plan_hit_rate": "share",
    "pipeline.raised_on_empty": "count",
    "serve.added_us_p50": "us",
    "serve.batch_wait_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.degraded_share": "share",
    "serve.retries": "count",
    "serve.shed": "count",
    "fleet.added_ms_p50": "ms",
    "fleet.worker_latency_ms_p50": "ms",
    "fleet.outside_worker_ms_p50": "ms",
    "fleet.route_skew": "ratio",
    "fleet.leaked_shm_segments": "count",
    "fleet.live_children_after_close": "count",
    "fleet.tracker_warnings_per_request": "count",
    "stream.shards": "count",
    "stream.ms_per_shard": "ms",
    "stream.vs_incore": "ratio",
    "stream.melem_per_s": "Melem/s",
    "incore.melem_per_s": "Melem/s",
    "obs.trace_overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    closed_loop: bool          # client threads vs one batch thread
    serve: ServeConfig         # Server config, or the fleet workers'
    pass_requests: int         # requests per overhead pass (closed loop)
    ladder_sample: int         # requests replayed per ladder rung


WORKLOADS = {
    "serve_small": Workload("serve_small", True,
                            ServeConfig(max_wait_ms=0.0), 600, 150),
    "fleet_small": Workload("fleet_small", True, ServeConfig(), 400, 150),
    "bulk_chain": Workload("bulk_chain", False, ServeConfig(), 0, 0),
}


def n_clients() -> int:
    return len(os.sched_getaffinity(0))


def fleet_config(serve: ServeConfig) -> FleetConfig:
    return FleetConfig(n_workers=min(FleetConfig().n_workers, n_clients()),
                       serve=serve)


def psm_segments() -> set:
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("psm_*")} if shm.is_dir() else set()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def pct(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


# -- one request ----------------------------------------------------------

def attempt(door, req, tally: Tally, tr=None):
    """Send ``req`` through ``door``, time it and check it byte-exactly."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        resp = door.start(req, tr)()
    except Overloaded:
        tally.refused += 1
        return None
    except Exception as exc:  # a raised response is a counted failure
        tally.raised += 1
        tally.errors[f"{type(exc).__name__}: {exc}"[:160]] += 1
        return None
    tally.latencies_s.append(time.perf_counter() - t0)
    tally.elements += req.size
    backend = reported_backend(resp.results)
    tally.backends[backend] += 1
    if backend == "degraded":
        tally.degraded += 1
    if not same_bytes(resp.output, req.expected):
        tally.wrong += 1
    return resp


def _traced(spans: Optional[Spans], name: str, parent, rid,
            fn: Callable[[Optional[tuple]], object]):
    if spans is None:
        return fn(None)
    with spans.span(name, parent, rid) as sid:
        return fn((spans, sid, rid))


# -- drivers --------------------------------------------------------------

def closed_loop(door, pool, clients: int, seed: tuple, *,
                seconds: Optional[float] = None,
                per_client: Optional[int] = None,
                spans: Optional[Spans] = None):
    """``clients`` threads, each sending its next request only after the
    previous one completed.  Returns (tally, wall seconds)."""
    tallies = [Tally() for _ in range(clients)]
    orders = [np.random.default_rng([*seed, 10, c]).permutation(len(pool))
              for c in range(clients)]
    stop_at = [0.0]

    def client(c: int) -> None:
        tally, order, i = tallies[c], orders[c], 0
        while (per_client is None or i < per_client) and \
                (seconds is None or time.perf_counter() < stop_at[0]):
            req = pool[order[i % len(order)]]
            rid = c * 1_000_000_000 + i
            _traced(spans, "request", None, rid,
                    lambda tr: attempt(door, req, tally, tr))
            i += 1

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(clients)]
    t0 = time.perf_counter()
    stop_at[0] = t0 + (seconds or 0.0)
    for t in threads:
        t.start()
    for t in threads:
        t.join((seconds or 0.0) + JOIN_SLACK_S)
    elapsed = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client thread did not finish")
    total = Tally()
    for t in tallies:
        total += t
    return total, elapsed


@dataclass
class BatchResult:
    incore: Tally = field(default_factory=Tally)
    stream: Tally = field(default_factory=Tally)
    incore_s: float = 0.0
    stream_s: float = 0.0
    wall_s: float = 0.0

    @property
    def total(self) -> Tally:
        t = Tally()
        t += self.incore
        t += self.stream
        return t


def batch_loop(door, stream_door, jobs, sjob, *,
               seconds: Optional[float] = None, rounds: Optional[int] = None,
               spans: Optional[Spans] = None) -> BatchResult:
    """Whole rounds (every resident job, then one streamed pass) until
    ``seconds`` have passed or ``rounds`` are done."""
    out = BatchResult()
    t0 = time.perf_counter()
    done = 0
    while (rounds is None or done < rounds) and \
            (seconds is None or time.perf_counter() - t0 < seconds):
        for req in jobs:
            t = time.perf_counter()
            _traced(spans, "request", None, req.rid,
                    lambda tr: attempt(door, req, out.incore, tr))
            out.incore_s += time.perf_counter() - t
        t = time.perf_counter()
        _traced(spans, "request", None, -1,
                lambda tr: attempt(stream_door, sjob, out.stream, tr))
        out.stream_s += time.perf_counter() - t
        done += 1
    out.wall_s = time.perf_counter() - t0
    return out


# -- front doors and set-up -----------------------------------------------

class Bench:
    """One workload's inputs, front door and bookkeeping for one run."""

    def __init__(self, wl: Workload, seed: int, scale: traffic.Scale,
                 wrap: Optional[Callable] = None) -> None:
        self.wl, self.seed, self.scale = wl, seed, scale
        self.wrap = wrap or (lambda door: door)
        self.clients = n_clients() if wl.closed_loop else 1
        self.all = Tally()            # every response the run checked
        self.fleet_requests = 0
        # The benchmark streams with the default config; only the
        # self-test's tiny scale needs smaller shards.
        self.stream_config = PIN if scale is traffic.FULL else \
            PIN.replace(shard_elems=scale.shard_elems)
        if wl.closed_loop:
            self.requests = traffic.small_traffic(seed, scale)
            self.sjob = None
        else:
            self.requests = traffic.bulk_jobs(seed, scale)
            self.sjob = traffic.stream_job(seed, OUT_DIR, scale)

    def cleanup(self) -> None:
        if self.sjob is not None:
            self.sjob.source = None
            self.sjob.path.unlink(missing_ok=True)

    def identity(self) -> dict:
        wl = self.wl
        if wl.name == "serve_small":
            front = {"Server": repr(wl.serve)}
        elif wl.name == "fleet_small":
            front = {"Fleet": repr(fleet_config(wl.serve))}
        else:
            front = {"Pipeline": "fuse=True, shared PlanCache",
                     "ds": "eager", "stream_run": repr(self.stream_config)}
        chains = sorted({r.chain for r in self.requests})
        if self.sjob is not None:
            chains = sorted(set(chains) | {self.sjob.chain})
        return {
            "workload": wl.name,
            "seed": self.seed,
            "sizes": sorted({r.size for r in self.requests}),
            "stream_elems": self.sjob.n if self.sjob else 0,
            "requests_in_pool": len(self.requests),
            "op_chains": {c: repr(traffic.CHAINS[c]) for c in chains},
            "dtype": "float32",
            "clients": self.clients,
            "loop": "closed" if wl.closed_loop else "batch",
            "front_door": front,
            "ds_config": repr(PIN),
            "backends_reported": dict(self.all.backends),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": n_clients(),
        }

    def open_front(self):
        wl = self.wl
        if wl.name == "serve_small":
            return ServerDoor(Server(wl.serve, ds_config=PIN))
        if wl.name == "fleet_small":
            return self.open_fleet(wl.serve)
        return BulkDoor(PIN, repro.PlanCache())

    def open_fleet(self, serve: ServeConfig) -> FleetDoor:
        return FleetDoor(Fleet(fleet_config(serve), ds_config=PIN))

    def warm(self, door, requests) -> None:
        """One cold request per distinct shape."""
        seen = set()
        tally = Tally()
        for req in requests:
            if req.shape not in seen:
                seen.add(req.shape)
                attempt(door, req, tally)
        self.note(door, tally)

    def note(self, door, tally: Tally) -> None:
        self.all += tally
        if isinstance(door, FleetDoor):
            self.fleet_requests += tally.attempted

    def setup(self):
        """Construct the front door and warm it.  Returns (door, stream
        door or None, seconds)."""
        t0 = time.perf_counter()
        door = self.open_front()
        self.warm(door, self.requests)
        stream_door = None
        if self.sjob is not None:
            stream_door = StreamDoor(self.stream_config)
            self.warm(stream_door, [self.sjob])
        return self.wrap(door), stream_door, time.perf_counter() - t0

    def drive(self, door, stream_door, *, seconds=None, passes=None,
              spans=None, segment: int = 0):
        """One measured stretch of the workload on its own front door.
        Returns (tally, wall seconds, BatchResult or None)."""
        if self.wl.closed_loop:
            per_client = (None if passes is None else
                          passes * self.wl.pass_requests // self.clients)
            tally, wall = closed_loop(door, self.requests, self.clients,
                                      (self.seed, segment), seconds=seconds,
                                      per_client=per_client, spans=spans)
            self.note(door, tally)
            return tally, wall, None
        res = batch_loop(door, stream_door, self.requests, self.sjob,
                         seconds=seconds, rounds=passes, spans=spans)
        tally = res.total
        self.note(door, tally)
        return tally, res.wall_s, res


def close(door) -> None:
    closer = getattr(door, "close", None)
    if closer is not None:
        closer()


def front_stats(door) -> Optional[dict]:
    """Server.stats(), or the Fleet.stats() rollup with ring skew."""
    front = getattr(door, "front", None)
    if isinstance(front, Server):
        return front.stats()
    if isinstance(front, Fleet):
        stats = front.stats()
        return dict(stats["rollup"], route_skew=stats["ring"]["skew"])
    return None


# -- trace 0: end-to-end --------------------------------------------------

def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    """SEGMENTS stretches, each on a freshly set-up front door.  The
    throughput of a serve front door drifts with its thread interleaving
    (per instance and per second), so every rate and percentile is the
    median of its per-segment values.  The p99 is printed but not
    returned: on a shared host it tracks the host's scheduling more than
    the program, so it is a per-layer metric (``client.latency_p99_ms``)."""
    setups, rates, melems, p50s, p99s, samples = [], [], [], [], [], 0
    for i in range(SEGMENTS):
        door, stream_door, setup_s = bench.setup()
        try:
            tally, wall, _ = bench.drive(door, stream_door,
                                         seconds=seconds / SEGMENTS,
                                         segment=i)
        finally:
            close(door)
        lat_ms = [s * 1e3 for s in tally.latencies_s]
        setups.append(setup_s)
        rates.append(tally.completed / wall)
        melems.append(tally.elements / wall / 1e6)
        p50s.append(pct(lat_ms, 50))
        p99s.append(pct(lat_ms, 99))
        samples += len(lat_ms)
        print(f"segment {i}: {tally.attempted} requests, {tally.completed} "
              f"completed in {wall:.2f} s after {setup_s:.3f} s set-up; "
              f"failed {tally.failed} (raised {tally.raised}, refused "
              f"{tally.refused}, wrong {tally.wrong}); degraded "
              f"{tally.degraded}")
    print(f"latency samples: {samples} over {SEGMENTS} segments; "
          f"median segment p99 {statistics.median(p99s):.3f} ms "
          f"(not bounded, see client.latency_p99_ms)")
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s),
        "melem_per_s": statistics.median(melems),
        "ok_share": 1.0 - bench.all.failed / max(1, bench.all.attempted),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- trace 1: per-layer ---------------------------------------------------

@dataclass
class Rung:
    name: str
    calls_ns: List[int] = field(default_factory=list)
    elements: int = 0
    launches: int = 0
    bytes_moved: int = 0
    ops: int = 0
    tally: Tally = field(default_factory=Tally)
    empty: Tally = field(default_factory=Tally)

    def p50_us(self) -> float:
        return statistics.median(self.calls_ns) / 1e3 if self.calls_ns \
            else 0.0

    def ns_per_elem(self) -> float:
        return sum(self.calls_ns) / self.elements if self.elements else 0.0


def run_rung(bench: Bench, door, sample, spans: Spans) -> Rung:
    """Warm ``door`` on every shape, then replay ``sample`` one request
    at a time inside spans; a request's cost is its layer calls'."""
    rung = Rung(door.name)
    # repro.ds and Pipeline reject empty inputs with LaunchError today;
    # those raises are reported as <rung>.raised_on_empty, not failures.
    rejects_empty = door.name in ("ds", "pipeline")

    def tally_for(req) -> Tally:
        return rung.empty if rejects_empty and req.size == 0 else rung.tally

    seen = set()
    for req in sample:
        if req.shape not in seen:
            seen.add(req.shape)
            attempt(door, req, tally_for(req))
    rows = []
    with spans.span(f"ladder.{door.name}") as root:
        for req in sample:
            rows.append(_traced(
                spans, "request", root, req.rid,
                lambda tr: (tr[1], req, attempt(door, req, tally_for(req),
                                                tr))))
    bench.note(door, rung.tally)
    bench.note(door, replace(rung.empty, raised=0))
    children = spans.children_ns()
    for sid, req, resp in rows:
        if resp is None or req.size == 0:
            continue
        rung.calls_ns.append(children.get(sid, 0))
        rung.elements += req.size
        rung.launches += resp.launches
        rung.bytes_moved += resp.bytes_moved
        rung.ops += len(req.ops)
    return rung


def ladder(bench: Bench, spans: Spans):
    """NumPy -> ds -> Pipeline -> Server -> Fleet over a fixed sample.
    The Server rung and the Fleet's workers use the workload's
    ServeConfig, so each rung adds exactly one layer."""
    wl = bench.wl
    sample = (bench.requests[:wl.ladder_sample] if wl.closed_loop
              else bench.requests)
    rungs = {}
    plan_cache = repro.PlanCache()
    for door in (NumpyDoor(), DsDoor(PIN), PipelineDoor(PIN, plan_cache)):
        rungs[door.name] = run_rung(bench, door, sample, spans)
    server = ServerDoor(Server(wl.serve, ds_config=PIN))
    try:
        rungs["serve"] = run_rung(bench, server, sample, spans)
        server_stats = front_stats(server)
    finally:
        close(server)
    fleet = bench.open_fleet(wl.serve)
    try:
        rungs["fleet"] = run_rung(bench, fleet, sample, spans)
        fleet_stats = front_stats(fleet)
    finally:
        close(fleet)
    return rungs, server_stats, fleet_stats


def stream_probe(bench: Bench, stream_door, spans: Spans) -> Dict[str, float]:
    """The streamed chain against the same chain as consecutive in-core
    ``repro.ds`` calls on the same (materialized) data."""
    sjob = bench.sjob
    if sjob is None:
        return {"stream.shards": 0, "stream.ms_per_shard": 0.0,
                "stream.vs_incore": 0.0, "stream.melem_per_s": 0.0}
    resident = traffic.Request(-2, sjob.chain, np.array(sjob.open()),
                               sjob.expected)
    ds_door = DsDoor(PIN)
    rows, tally = [], Tally()
    for _ in range(STREAM_REPEATS):
        for name, door, req in (("stream", stream_door, sjob),
                                ("incore", ds_door, resident)):
            rows.append(_traced(
                spans, f"stream.{name}_request", None, -1,
                lambda tr: (tr[1], name, attempt(door, req, tally, tr))))
    bench.note(stream_door, tally)
    children = spans.children_ns()
    stream_s = [children[sid] / 1e9 for sid, k, _ in rows if k == "stream"]
    incore_s = [children[sid] / 1e9 for sid, k, _ in rows if k == "incore"]
    shards = max((int(resp.results[0].extras.get("shards", 0))
                  for _, k, resp in rows if k == "stream" and resp), default=0)
    s, i = statistics.median(stream_s), statistics.median(incore_s)
    return {"stream.shards": shards,
            "stream.ms_per_shard": s * 1e3 / shards if shards else 0.0,
            "stream.vs_incore": s / i,
            "stream.melem_per_s": sjob.n / s / 1e6}


def per_layer(bench: Bench, spans: Spans) -> Dict[str, float]:
    shm_before = psm_segments()
    door, stream_door, _ = bench.setup()
    ratios, plain = [], []
    try:
        for _ in range(OVERHEAD_PAIRS):
            a = bench.drive(door, stream_door, passes=1)
            b = bench.drive(door, stream_door, passes=1, spans=spans)
            ratios.append(b[1] / a[1])
            plain.append(a)
        own_stats = front_stats(door)
        plan = getattr(getattr(door, "pipeline", None), "plan_cache", None)
    finally:
        close(door)
    rungs, server_stats, fleet_stats = ladder(bench, spans)
    m = stream_probe(bench, stream_door, spans)
    live_children = len(multiprocessing.active_children())
    leaked = len(psm_segments() - shm_before)

    plain_tally = Tally()
    for tally, _, _ in plain:
        plain_tally += tally
    if bench.wl.closed_loop:
        incore = plain_tally.elements / sum(w for _, w, _ in plain)
    else:
        incore = (sum(r.incore.elements for _, _, r in plain)
                  / sum(r.incore_s for _, _, r in plain))
    # serve.* and fleet.* come from the workload's own front door when it
    # is a Server or a Fleet, else from the ladder's rung of that layer.
    serve_src = own_stats or server_stats
    if isinstance(door, FleetDoor):
        fleet_src = own_stats
        client_p50 = pct([s * 1e3 for s in plain_tally.latencies_s], 50)
    else:
        fleet_src = fleet_stats
        client_p50 = rungs["fleet"].p50_us() / 1e3
    if plan is not None:
        hits, misses = plan.stats()
        plan_hit_rate = hits / (hits + misses) if hits + misses else 0.0
    else:
        plan_hit_rate = float(serve_src.get("plan_cache.hit_rate", 0.0))
    worker_p50 = _hist(fleet_src, "serve.latency_ms", "p50")
    completed = float(serve_src.get("serve.completed", 0) or 0)
    ref, ds_, pipe = rungs["numpy"], rungs["ds"], rungs["pipeline"]
    m.update({
        "client.latency_p99_ms": pct([s * 1e3 for s in
                                      plain_tally.latencies_s], 99),
        "reference.us_p50": ref.p50_us(),
        "reference.ns_per_elem": ref.ns_per_elem(),
        "ds.us_p50": ds_.p50_us(),
        "ds.ns_per_elem": ds_.ns_per_elem(),
        "ds.vs_reference": (sum(ds_.calls_ns) / sum(ref.calls_ns)
                            if ref.calls_ns else 0.0),
        "ds.launches_per_op": ds_.launches / ds_.ops if ds_.ops else 0.0,
        "ds.bytes_moved_per_elem": (ds_.bytes_moved / ds_.elements
                                    if ds_.elements else 0.0),
        "ds.raised_on_empty": ds_.empty.raised,
        "pipeline.us_p50": pipe.p50_us(),
        "pipeline.ns_per_elem": pipe.ns_per_elem(),
        "pipeline.launches_per_chain": (pipe.launches / len(pipe.calls_ns)
                                        if pipe.calls_ns else 0.0),
        "pipeline.plan_hit_rate": plan_hit_rate,
        "pipeline.raised_on_empty": pipe.empty.raised,
        "serve.added_us_p50": rungs["serve"].p50_us() - pipe.p50_us(),
        "serve.batch_wait_ms_p50": _hist(serve_src, "serve.batch_wait_ms",
                                         "p50"),
        "serve.batch_size_mean": _hist(serve_src, "serve.batch_size",
                                       "mean"),
        "serve.degraded_share": (float(serve_src.get("serve.degraded", 0)
                                       or 0) / completed
                                 if completed else 0.0),
        "serve.retries": float(serve_src.get("serve.retries", 0) or 0),
        "serve.shed": float(serve_src.get("serve.shed", 0) or 0),
        "fleet.added_ms_p50": (rungs["fleet"].p50_us()
                               - rungs["serve"].p50_us()) / 1e3,
        "fleet.worker_latency_ms_p50": worker_p50,
        "fleet.outside_worker_ms_p50": client_p50 - worker_p50,
        "fleet.route_skew": float(fleet_src.get("route_skew", 0.0)),
        "fleet.leaked_shm_segments": leaked,
        "fleet.live_children_after_close": live_children,
        "fleet.tracker_warnings_per_request": 0.0,  # counted by run.py
        "incore.melem_per_s": incore / 1e6,
        "obs.trace_overhead_ratio": statistics.median(ratios),
    })
    print(f"ladder sample: {len(rungs['numpy'].calls_ns)} non-empty "
          f"requests per rung; raised per rung (non-empty/empty input): "
          + ", ".join(f"{k}={r.tally.raised}/{r.empty.raised}"
                      for k, r in rungs.items()))
    for k, r in rungs.items():
        for err, n in (r.tally.errors + r.empty.errors).items():
            print(f"  {k} raised {n}x: {err}")
    return m


def _hist(stats: dict, name: str, key: str) -> float:
    hist = stats.get(name)
    return float(hist.get(key, 0.0) or 0.0) if isinstance(hist, dict) \
        else 0.0


# -- entry point ----------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: traffic.Scale = traffic.FULL,
        wrap: Optional[Callable] = None) -> dict:
    """Run one workload; return the result object (plus the count of
    fleet requests, which ``run.py`` needs for the tracker warnings)."""
    bench = Bench(WORKLOADS[workload], seed, scale, wrap)
    spans = Spans()
    try:
        if trace:
            values, units = per_layer(bench, spans), LAYER_UNITS
        else:
            values, units = end_to_end(bench, seconds), E2E_UNITS
    finally:
        bench.cleanup()
    foreign = bench.all.foreign_backends()
    identity = bench.identity()
    print("identity: " + json.dumps(identity, sort_keys=True))
    if foreign:
        raise SystemExit(f"responses reported backends {foreign}; the run "
                         f"is pinned to {PINNED_BACKEND!r}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    if trace:
        print(format_table(spans.table()))
    out = {"correct": bench.all.failed == 0,
           "attempted": bench.all.attempted,
           "failed": bench.all.failed,
           "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"identity": identity, "result": out,
         "errors": dict(bench.all.errors),
         "span_table": spans.table()}, indent=1, sort_keys=True))
    if trace:
        spans.write(OUT_DIR / f"{stem}.spans.json")
    return dict(out, fleet_requests=bench.fleet_requests)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
