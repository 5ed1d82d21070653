"""Front doors the benchmark drives, one adapter per layer.

Each adapter's ``start(req, tr)`` submits one request and returns a
``wait()`` callable that yields a :class:`Response`.  ``tr`` is
``None`` (untraced) or ``(spans, parent_span_id, request_id)``; when it
is given, every call into the layer's public functions runs inside a
span named after that function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro
from traffic import Request, reference

RESULT_TIMEOUT_S = 60.0


@dataclass
class Response:
    output: np.ndarray
    results: list = field(default_factory=list)  # PrimitiveResults seen

    @property
    def launches(self) -> int:
        return sum(len(r.counters) for r in self.results)

    @property
    def bytes_moved(self) -> int:
        return sum(r.bytes_moved for r in self.results)


def _call(tr, name: str, fn: Callable, *args, **kwargs):
    if tr is None:
        return fn(*args, **kwargs)
    spans, parent, rid = tr
    with spans.span(name, parent, rid):
        return fn(*args, **kwargs)


def _split(item):
    name, *args = (item,) if isinstance(item, str) else item
    return name, args


def _done(resp: Response) -> Callable[[], Response]:
    return lambda: resp


class NumpyDoor:
    """The floor: the plain NumPy reference expression."""

    name = "numpy"

    def start(self, req: Request, tr=None):
        out = _call(tr, f"reference.{req.chain}", reference, req.chain,
                    req.values)
        return _done(Response(out))


class DsDoor:
    """Consecutive eager ``repro.ds`` calls, one per op in the chain."""

    name = "ds"

    def __init__(self, config: repro.DSConfig) -> None:
        self.config = config

    def start(self, req: Request, tr=None):
        out, results = req.values, []
        for item in req.ops:
            op, args = _split(item)
            res = _call(tr, f"ds.{op}", repro.ds, op, out, *args,
                        config=self.config)
            results.append(res)
            out = res.output
        return _done(Response(out, results))


class PipelineDoor:
    """One ``Pipeline`` per request over a shared plan cache (fused by
    default)."""

    name = "pipeline"

    def __init__(self, config: repro.DSConfig,
                 plan_cache: repro.PlanCache) -> None:
        self.config = config
        self.plan_cache = plan_cache

    def start(self, req: Request, tr=None):
        pipe = repro.Pipeline(config=self.config, plan_cache=self.plan_cache)
        prev, futures = req.values, []
        for item in req.ops:
            op, args = _split(item)
            prev = _call(tr, "pipeline.enqueue", pipe.enqueue, op, prev,
                         *args)
            futures.append(prev)
        _call(tr, "pipeline.run", pipe.run)
        results = [f.result() for f in futures]
        return _done(Response(results[-1].output, results))


class BulkDoor:
    """``bulk_chain``'s resident front doors: chains through
    ``Pipeline``, single ops through ``repro.ds``."""

    name = "bulk"

    def __init__(self, config: repro.DSConfig,
                 plan_cache: repro.PlanCache) -> None:
        self.pipeline = PipelineDoor(config, plan_cache)
        self.ds = DsDoor(config)

    def start(self, req: Request, tr=None):
        door = self.ds if req.kind == "ds" else self.pipeline
        return door.start(req, tr)


class _FutureDoor:
    """Server and Fleet: ``submit_chain`` now, ``result`` on wait."""

    def __init__(self, front) -> None:
        self.front = front

    def start(self, req: Request, tr=None):
        fut = _call(tr, f"{self.name}.submit_chain",
                    self.front.submit_chain, req.ops, req.values)

        def wait() -> Response:
            res = _call(tr, f"{self.name}.result", fut.result,
                        RESULT_TIMEOUT_S)
            return Response(res.output, [res])

        return wait

    def close(self) -> None:
        self.front.close()


class ServerDoor(_FutureDoor):
    name = "serve"


class FleetDoor(_FutureDoor):
    name = "fleet"


class StreamDoor:
    """``stream_run`` over the memmapped source."""

    name = "stream"

    def __init__(self, config: repro.DSConfig) -> None:
        self.config = config

    def start(self, job, tr=None):
        res = _call(tr, "stream.stream_run", repro.stream_run, job.ops,
                    job.open(), config=self.config)
        return _done(Response(res.output, [res]))
