"""The fleet worker process: one full :class:`repro.serve.Server` per
forked child, driven by a control-message loop.

Workers are forked (never spawned) so they inherit the parent's
imports; requests still arrive *by value* through the transport layer
— frozen op chains plus payload descriptors whose in-core arrays ride
the queue itself — because a long-lived worker must serve requests
submitted long after the fork, which inheritance cannot deliver.

The inbox protocol (one ``multiprocessing`` queue per worker; all
workers share one outbox back to the router):

========================  ==============================================
message                   effect
========================  ==============================================
``("req", rid, ops,       revive + attach, submit to the server, answer
desc, meta)``             asynchronously via ``ServeFuture.
                          add_done_callback`` → ``("res", rid, "ok",
                          output, extras, timing)`` (``meta["trace"]``
                          carries the router's trace context when fleet
                          tracing is on; ``timing`` holds worker-clock
                          ``recv_us``/``respond_us``)
``("prime", token, ops,   :meth:`Server.prime` the shape (plan-cache
desc)``                   warmup) → ``("ack", wid, token, plans)``
``("stats", token)``      → ``("stats", wid, token, stats, warm_keys)``
``("fault", token, m)``   set the chaos injector mode → ack
``("profile", token,      record a ``loadgen.profile`` event into the
fields)``                 flight ring (makes worker bundles replayable)
``("clock", token, t)``   clock-calibration probe → ``("ack", wid,
                          token, (recv_us, send_us))`` on the worker
                          clock (NTP-style; see repro.obs.distrib)
``("trace", token)``      → ``("ack", wid, token, span_ring_snapshot)``
``("bundle", token)``     → ``("ack", wid, token, {"spans": ...,
                          "events": ..., "incidents": ...})`` — this
                          worker's flight ring for a fleet-wide
                          incident bundle
``("drain", token)``      stop taking requests, finish in-flight work,
                          → ``("drained", wid, token, stats, warm_keys,
                          spans)`` and exit the loop
========================  ==============================================

Responses carry the result array through the shared outbox.  The
callback fires on the server's worker thread — micro-batching inside
each fleet worker keeps working exactly as in the single-process serve
tier.

When fleet tracing is on (``FleetConfig.trace != "off"``), the worker
captures ``t0_ns`` as its very first act, installs a tracer sharing
that epoch (so every span, control timestamp and clock-probe reply sits
on **one** worker clock) plus a bounded :class:`~repro.obs.distrib.
SpanRing`, and the worker's flight recorder notifies the router of
every local incident dump via ``("incident", wid, trigger, path,
reason)`` so the front door can gather a fleet-wide bundle.
"""

from __future__ import annotations

import threading
import time
import traceback

import numpy as np

from repro.errors import LaunchError
from repro.simgpu.counters import launch_backend

__all__ = ["worker_main", "MutableFaultInjector"]


class MutableFaultInjector:
    """Server ``fault_hook`` whose mode can be flipped at runtime by a
    ``("fault", ...)`` control message: ``None`` (healthy), ``"always"``
    or a 0..1 per-batch probability (deterministic given the seed)."""

    def __init__(self, mode=None, seed: int = 0) -> None:
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.injected = 0

    def __call__(self, batch) -> None:
        with self._lock:
            mode = self.mode
            if mode is None:
                return
            if mode == "always":
                hit = True
            else:
                hit = bool(self._rng.random() < float(mode))
            if hit:
                self.injected += 1
                count = self.injected
        if hit:
            raise LaunchError(
                f"injected fault #{count} (fleet chaos hook)")


def _respond(outbox, rid: int, future, recv_us, now_us) -> None:
    """Done-callback body: post the result (or the error)."""
    timing = {"recv_us": recv_us, "respond_us": now_us()}
    err = future.exception()
    if err is not None:
        outbox.put(("res", rid, "err", type(err).__name__, str(err),
                    timing))
        return
    result = future.result(timeout=0)
    extras = {k: v for k, v in (result.extras or {}).items()
              if isinstance(v, (str, int, float, bool, type(None)))}
    # The launch records stay in the worker; the backend they ran on
    # rides back in the extras.
    extras["backend"] = launch_backend(result.counters)
    outbox.put(("res", rid, "ok", np.asarray(result.output), extras,
                timing))


def worker_main(worker_id: str, inbox, outbox, serve_config, ds_config,
                device=None, trace_mode=None,
                trace_capacity: int = 4096) -> None:
    """Run one fleet worker until drained.  This is the forked child's
    entire life; it never returns control to the caller's code."""
    # The worker clock epoch: captured before anything else so the
    # tracer, the span ring and every control-message timestamp share
    # one microsecond origin — the thing the router calibrates against.
    t0_ns = time.perf_counter_ns()

    def now_us() -> float:
        return (time.perf_counter_ns() - t0_ns) / 1e3

    from repro.fleet.transport import attach_payload, revive_ops
    from repro.serve.server import Server

    ring = None
    if trace_mode and trace_mode != "off":
        from repro import obs as _obs
        from repro.obs.distrib import SpanRing, TraceContext
        from repro.obs.tracer import Tracer

        # retain=False: the ring is the only span consumer, so the
        # tracer must not also accumulate every span for the life of
        # the worker — that is both unbounded memory on a long-running
        # server and measurable GC pressure on the traced hot path.
        _obs.install(Tracer(trace_mode, t0_ns=t0_ns, retain=False))
        ring = SpanRing(trace_capacity).install()
    else:
        TraceContext = None  # noqa: N806 - sentinel for the req path

    injector = MutableFaultInjector(seed=serve_config.seed or 0)
    kwargs = {"ds_config": ds_config, "fault_hook": injector,
              "autostart": True}
    if device is not None:
        kwargs["device"] = device
    server = Server(serve_config, **kwargs)
    if server.flight is not None:
        # Local incident dumps escalate to the front door, which then
        # gathers every worker's flight ring into one fleet-wide bundle.
        server.flight.on_dump = (
            lambda trigger, bundle, reason:
            outbox.put(("incident", worker_id, trigger, str(bundle),
                        reason)))
    outbox.put(("up", worker_id, server.config.num_workers))

    def ring_snapshot():
        if ring is not None:
            return ring.snapshot()
        if server.flight is not None:
            return server.flight.span_dicts()
        return []

    draining = False
    while not draining:
        msg = inbox.get()
        recv_us = now_us()
        tag = msg[0]
        try:
            if tag == "req":
                _, rid, frozen, desc, meta = msg
                trace = (TraceContext.from_dict(meta.get("trace"))
                         if TraceContext is not None else None)
                fut = server.submit_chain(
                    revive_ops(frozen), attach_payload(desc),
                    deadline_ms=meta.get("deadline_ms"), trace=trace)
                fut.add_done_callback(
                    lambda f, _rid=rid, _recv=recv_us:
                    _respond(outbox, _rid, f, _recv, now_us))
            elif tag == "prime":
                _, token, frozen, desc = msg
                plans = server.prime(revive_ops(frozen),
                                     attach_payload(desc))
                outbox.put(("ack", worker_id, token, plans))
            elif tag == "stats":
                _, token = msg
                outbox.put(("stats", worker_id, token, server.stats(),
                            server.warm_keys()))
            elif tag == "fault":
                _, token, mode = msg
                injector.mode = mode
                outbox.put(("ack", worker_id, token, injector.injected))
            elif tag == "profile":
                # The router pushes its traffic profile into this
                # worker's flight ring, so any incident bundle dumped
                # here carries enough to reconstruct the load
                # (repro.fleet.replay needs the loadgen.profile event).
                _, token, fields = msg
                if server.flight is not None:
                    server.flight.record_event("loadgen.profile",
                                               **fields)
                outbox.put(("ack", worker_id, token, None))
            elif tag == "clock":
                # NTP-style probe: both timestamps on the worker clock;
                # ``recv_us`` was taken the moment the message left the
                # queue, ``send_us`` as the reply is posted.
                _, token, _t_router_send = msg
                outbox.put(("ack", worker_id, token,
                            (recv_us, now_us())))
            elif tag == "trace":
                _, token = msg
                outbox.put(("ack", worker_id, token, ring_snapshot()))
            elif tag == "bundle":
                _, token = msg
                incidents = ([str(p) for p in server.flight.dumps]
                             if server.flight is not None else [])
                events = (server.flight.events()
                          if server.flight is not None else [])
                outbox.put(("ack", worker_id, token,
                            {"spans": ring_snapshot(), "events": events,
                             "incidents": incidents}))
            elif tag == "drain":
                _, token = msg
                draining = True
                server.close(drain=True)
                outbox.put(("drained", worker_id, token, server.stats(),
                            server.warm_keys(), ring_snapshot()))
            else:  # pragma: no cover - protocol bug guard
                outbox.put(("err", worker_id,
                            f"unknown control message {tag!r}"))
        except Exception as exc:
            # A poisoned message must not kill the worker: requests get
            # an error response, control messages get an error ack.
            if tag == "req":
                outbox.put(("res", msg[1], "err", type(exc).__name__,
                            f"{exc} ({traceback.format_exc(limit=2)})",
                            {"recv_us": recv_us, "respond_us": now_us()}))
            elif tag in ("prime", "stats", "fault", "clock", "trace",
                         "bundle", "drain"):
                outbox.put(("err", worker_id,
                            f"{tag} failed: {type(exc).__name__}: {exc}",
                            msg[1]))
                if tag == "drain":  # still honour the exit request
                    draining = True
