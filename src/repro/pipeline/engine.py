"""The Pipeline execution engine: enqueue, plan once, execute as a batch.

Usage::

    from repro import Pipeline, DSConfig
    from repro.core.predicates import less_than

    p = Pipeline(config=DSConfig(wg_size=128))
    a = p.compact(x, 0)          # futures, nothing runs yet
    b = p.unique(a)              #   chained: consumes a's future
    c = p.partition(z, less_than(5))
    p.run()                      # plan + execute the whole batch
    b.output, c.result().extras["n_true"]

Every op short name (``compact``, ``unique``, ``remove_if``, ``pad``,
...) and full name (``ds_stream_compact``, ...) from the op registry is
available as an enqueue method; each returns a :class:`DSFuture`.
Passing a future as an input expresses a dependency; the planner
(:mod:`repro.pipeline.plan`) interleaves independent chains and fuses
back-to-back in-place filters into single launches.  Reading
``future.result()`` (or ``.output``) runs the pipeline on demand.

A pipelined op executes through the *same runner* a direct ``ds_*``
call uses, on one shared stream, under one root span per batch — so
``Pipeline(fuse=False)`` output **and counters** match the sequential
calls exactly, which the parity tests assert.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs as _obs
from repro.config import DSConfig, UNSET, resolve_config
from repro.core.fused import fused_select, run_fused_irregular
from repro.errors import LaunchError
from repro.futures import Future
from repro.primitives.common import (
    PrimitiveResult,
    primitive_span,
    resolve_stream,
)
from repro.primitives.opspec import OpDescriptor, get_op
from repro.pipeline.plan import (
    GLOBAL_PLAN_CACHE,
    BatchPlan,
    OpCall,
    PlanCache,
    plan_batch,
    plan_key,
)
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["Pipeline", "DSFuture", "signature_cache_stats"]


class DSFuture(Future):
    """Handle to one enqueued op's eventual :class:`PrimitiveResult`.

    Futures are created by the pipeline's enqueue methods and resolve
    when the batch runs.  Passing a pending future as an input to a
    later op makes that op depend on this one.  Accessing
    :meth:`result` or :attr:`output` on a pending future runs the
    owning pipeline's outstanding batch first.

    Implements the unified :class:`repro.Future` contract; ``timeout``
    is accepted for interface parity but unused — resolving a pipeline
    future runs its batch synchronously in the calling thread.
    """

    __slots__ = ("_pipeline", "index", "op_name", "_result")

    def __init__(self, pipeline: "Pipeline", index: int, op_name: str) -> None:
        self._pipeline = pipeline
        self.index = index
        self.op_name = op_name
        self._result: Optional[PrimitiveResult] = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: Optional[float] = None) -> PrimitiveResult:
        if self._result is None:
            self._pipeline.run()
        if self._result is None:  # pragma: no cover - defensive
            raise LaunchError(
                f"future of {self.op_name} (op #{self.index}) did not resolve")
        return self._result

    @property
    def output(self) -> np.ndarray:
        return self.result().output

    def _resolve(self, result: PrimitiveResult) -> None:
        self._result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"DSFuture(#{self.index} {self.op_name}, {state})"


def _walk_deps(value, out: set, owner: "Pipeline") -> None:
    """Collect the batch-local dep indices in an argument tree.

    A pending future from *another* pipeline is materialized on the
    spot (running its owner's outstanding batch): its index numbers
    that pipeline's batch, not this one, so recording it would alias
    an unrelated local op and silently order/fuse against the wrong
    producer.  Once resolved it enters this batch as a plain array.
    """
    if isinstance(value, DSFuture):
        if value._pipeline is not owner:
            value.result()
        elif not value.done:
            out.add(value.index)
    elif isinstance(value, dict):
        for v in value.values():
            _walk_deps(v, out, owner)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _walk_deps(v, out, owner)


# Signature memoization is bounded (same default as PlanCache): a
# long-running server enqueueing through many distinct runner objects
# must not leak, and hit/miss counts surface through repro.obs as
# pipeline.signature_cache.{hits,misses}.
_SIGNATURE_CACHE_MAX = 256
_signature_cache: "OrderedDict[object, Tuple[str, ...]]" = OrderedDict()
_signature_lock = threading.Lock()
_signature_stats = {"hits": 0, "misses": 0}


def _signature_metric(outcome: str) -> None:
    _signature_stats[outcome] += 1  # caller holds _signature_lock
    tracer = _obs.active()
    if tracer is not None:
        tracer.metrics.counter(f"pipeline.signature_cache.{outcome}").inc()


def signature_cache_stats() -> dict:
    """Hit/miss/size snapshot of the signature cache — available with
    or without a tracer (``Server.stats()`` reads it on demand)."""
    with _signature_lock:
        hits = _signature_stats["hits"]
        misses = _signature_stats["misses"]
        size = len(_signature_cache)
    total = hits + misses
    return {"hits": hits, "misses": misses, "size": size,
            "hit_rate": (hits / total) if total else 0.0}


def _data_param_names(runner) -> Tuple[str, ...]:
    """The runner's leading data-parameter names, in declaration order,
    stopping at ``stream`` (which the engine supplies itself)."""
    with _signature_lock:
        names = _signature_cache.get(runner)
        if names is not None:
            _signature_cache.move_to_end(runner)
            _signature_metric("hits")
            return names
    names = []
    for p in inspect.signature(runner).parameters.values():
        if (p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                or p.name == "stream"):
            break
        names.append(p.name)
    names = tuple(names)
    with _signature_lock:
        _signature_metric("misses")
        _signature_cache[runner] = names
        while len(_signature_cache) > _SIGNATURE_CACHE_MAX:
            _signature_cache.popitem(last=False)
    return names


def _normalize_call(desc: OpDescriptor, args: tuple, kwargs: dict):
    """Shift data parameters passed by keyword into their positional
    slots, so descriptor lambdas (``params_signature``/``fuse_stage``)
    that index ``args`` see one canonical shape regardless of how the
    caller spelled the call (``p.remove_if(x, predicate=...)``)."""
    names = _data_param_names(desc.runner)
    if not any(name in kwargs for name in names[len(args):]):
        return args, kwargs
    args = list(args)
    kwargs = dict(kwargs)
    for name in names[len(args):]:
        if name not in kwargs:
            break  # a hole: the rest stay keyword-passed
        args.append(kwargs.pop(name))
    return tuple(args), kwargs


def _materialize(value):
    """Replace resolved futures in an argument tree with their outputs."""
    if isinstance(value, DSFuture):
        return value.result().output
    if isinstance(value, dict):
        return {k: _materialize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_materialize(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_materialize(v) for v in value)
    return value


class Pipeline:
    """Batch several DS primitives: plan once, execute on one stream.

    Parameters
    ----------
    stream:
        A :class:`~repro.simgpu.stream.Stream`, device name/spec, or
        ``None`` (a fresh stream on the paper's primary device).  All
        batch launches share it.
    config:
        Default :class:`~repro.config.DSConfig` for every enqueued op
        (each enqueue method also accepts a per-op ``config=``
        override).  The per-kwarg tuning spellings are accepted as
        deprecated aliases, exactly like the ``ds_*`` entry points.
    fuse:
        Allow collapsing chained in-place filters into fused launches.
        ``fuse=False`` keeps one launch per op — byte-for-byte counter
        parity with sequential calls.
    plan_cache:
        A :class:`~repro.pipeline.plan.PlanCache`; defaults to the
        process-global cache so repeated identical batches (the steady
        state of iterative workloads) skip planning entirely.
    """

    def __init__(
        self,
        stream: Optional[Union[Stream, DeviceSpec, str]] = None,
        *,
        config: Optional[DSConfig] = None,
        fuse: bool = True,
        plan_cache: Optional[PlanCache] = None,
        wg_size=UNSET,
        coarsening=UNSET,
        reduction_variant=UNSET,
        scan_variant=UNSET,
        race_tracking=UNSET,
        backend=UNSET,
        seed=UNSET,
    ) -> None:
        self.config = resolve_config(
            "Pipeline", config, wg_size=wg_size, coarsening=coarsening,
            reduction_variant=reduction_variant, scan_variant=scan_variant,
            race_tracking=race_tracking, backend=backend, seed=seed)
        self.fuse = bool(fuse)
        self.plan_cache = plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
        self.stream = resolve_stream(stream, seed=self.config.seed)
        self._pending: List[OpCall] = []
        self._futures: List[DSFuture] = []
        self._batch_count = 0
        self.last_plan: Optional[BatchPlan] = None

    # -- enqueue -------------------------------------------------------

    def enqueue(self, op: Union[str, OpDescriptor], *args,
                config: Optional[DSConfig] = None, **kwargs) -> DSFuture:
        """Queue one op (by registry name or descriptor); returns its
        future.  Nothing executes until :meth:`run`.

        The primary input goes through the unified
        :class:`~repro.stream.source.DSSource` protocol: chained
        futures and in-core arrays execute exactly as before, while an
        out-of-core source (memmap, shared memory, shard iterator, or
        explicit ``DSSource``) marks the call *streamed* — it executes
        through :func:`repro.stream.engine.stream_run` and is excluded
        from fusion.
        """
        desc = get_op(op) if isinstance(op, str) else op
        args, kwargs = _normalize_call(desc, args, kwargs)
        streamed = False
        if args and not isinstance(args[0], DSFuture):
            from repro.stream.engine import is_out_of_core
            from repro.stream.source import as_source

            source = as_source(args[0], site="Pipeline.enqueue")
            if is_out_of_core(source):
                streamed = True
                args = (source,) + args[1:]
            else:
                args = (source.materialize(),) + args[1:]
        deps: set = set()
        _walk_deps(args, deps, self)
        _walk_deps(kwargs, deps, self)
        index = len(self._futures)
        future = DSFuture(self, index, desc.name)
        call = OpCall(
            index=index,
            desc=desc,
            args=args,
            kwargs=kwargs,
            config=config if config is not None else self.config,
            deps=tuple(sorted(deps)),
            streamed=streamed,
        )
        self._pending.append(call)
        self._futures.append(future)
        return future

    def __getattr__(self, name: str):
        # Only called for missing attributes: expose every registered op
        # (short and full name) as an enqueue method.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            desc = get_op(name)
        except LaunchError:
            raise AttributeError(
                f"Pipeline has no attribute or DS op named {name!r}") from None
        return functools.partial(self.enqueue, desc)

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    # -- execution -----------------------------------------------------

    def _plan_calls(self, calls: List[OpCall]) -> BatchPlan:
        """Plan ``calls`` through the plan cache (lookup, else plan and
        store) without executing anything."""
        backend = self.config.resolved_backend()
        key = plan_key(calls, device_name=self.stream.device.name,
                       api=self.stream.api, backend=backend, fuse=self.fuse)
        plan = self.plan_cache.lookup(key)
        if plan is None:
            plan = self.plan_cache.store(key, plan_batch(calls, fuse=self.fuse))
        return plan

    def plan(self) -> Optional[BatchPlan]:
        """Plan the pending batch *without executing it*.

        The plan lands in the plan cache under the exact key :meth:`run`
        would use, so a later identical batch starts with a cache hit —
        this is how :meth:`repro.serve.Server.prime` pre-warms a serving
        process.  Pending ops stay enqueued; returns ``None`` when
        nothing is pending.
        """
        if not self._pending:
            return None
        plan = self._plan_calls(self._pending)
        self.last_plan = plan
        return plan

    def run(self) -> List[PrimitiveResult]:
        """Plan and execute every pending op; returns their results in
        enqueue order.  Running an empty pipeline is a no-op."""
        calls, self._pending = self._pending, []
        if not calls:
            return []
        futures = {c.index: self._futures[c.index] for c in calls}
        # Future indices restart at 0 each batch (enqueue numbers off
        # this list), keeping plan step indices and cache keys
        # batch-relative — a cached plan must apply to a later batch.
        self._futures = []
        tracer = _obs.active()
        if tracer is not None:
            # A dedicated plan span makes "how much of this batch was
            # planning vs executing" a first-class question in traces.
            hits_before, _ = self.plan_cache.stats()
            with tracer.span("pipeline.plan", cat="pipeline",
                             args={"n_ops": len(calls)}) as plan_sp:
                plan = self._plan_calls(calls)
                hits_after, _ = self.plan_cache.stats()
                plan_sp.set(n_steps=len(plan.steps),
                            n_fused_groups=plan.n_fused_groups,
                            cache_hit=hits_after > hits_before)
        else:
            plan = self._plan_calls(calls)
        self.last_plan = plan
        by_index = {c.index: c for c in calls}
        self._batch_count += 1

        with primitive_span(
            "pipeline.batch", backend=self.config.backend,
            n_ops=plan.n_ops, n_steps=len(plan.steps),
            n_fused_groups=plan.n_fused_groups, fuse=self.fuse,
        ):
            with self.stream.batch(f"pipeline.batch#{self._batch_count}"):
                events = {}
                for step in plan.steps:
                    group = [by_index[i] for i in step.op_indices]
                    for dep in group[0].deps:
                        if dep in events:
                            self.stream.wait_event(events[dep])
                    values = (_materialize(group[0].args[0])
                              if step.fused else None)
                    if step.fused and np.size(values):
                        self._run_fused_step(group, values, futures)
                    else:
                        # An empty input has nothing to fuse: each op
                        # returns its reference result without a launch.
                        for call in group:
                            self._run_single(call, futures)
                    for idx in step.op_indices:
                        events[idx] = self.stream.record_event(
                            by_index[idx].desc.name)
        return [futures[c.index].result() for c in calls]

    def _run_single(self, call: OpCall, futures) -> None:
        args = _materialize(call.args)
        kwargs = _materialize(call.kwargs)
        if call.streamed:
            from repro.stream.engine import stream_run

            result = stream_run(
                [(call.desc, tuple(args[1:]), dict(kwargs))], args[0],
                stream=self.stream, config=call.config)
        else:
            result = call.desc.run(*args, stream=self.stream,
                                   config=call.config, **kwargs)
        futures[call.index]._resolve(result)

    def _run_fused_step(self, calls: List[OpCall], values,
                        futures) -> None:
        values = np.asarray(values).reshape(-1)
        stages = [c.desc.fuse_stage(c.args, c.kwargs) for c in calls]
        cfg = calls[0].config
        labels = [s.label for s in stages]
        selection = fused_select(values, stages)
        buf = Buffer(values, "pipeline_fused")
        fused = run_fused_irregular(
            buf, stages, self.stream, total=int(values.size),
            wg_size=cfg.wg_size, coarsening=cfg.coarsening,
            reduction_variant=cfg.reduction_variant,
            scan_variant=cfg.scan_variant, backend=cfg.backend,
            selection=selection,
        )
        # Intermediate futures: their arrays were never materialized on
        # the device — the fused launch skipped them — so they resolve
        # to the reference-computed prefix with no launch records.
        # n_removed stays relative to each op's *own* input (the
        # previous stage's survivor count), matching the sequential
        # calls the fusion replaces.
        prev_kept = int(values.size)
        for call, kept in zip(calls[:-1], selection.outputs[:-1]):
            n_kept = int(kept.size)
            futures[call.index]._resolve(PrimitiveResult(
                output=kept,
                counters=[],
                device=self.stream.device,
                extras={"n_kept": n_kept,
                        "n_removed": prev_kept - n_kept,
                        "in_place": True, "fused": True,
                        "fused_into": calls[-1].desc.name},
            ))
            prev_kept = n_kept
        last = calls[-1]
        futures[last.index]._resolve(PrimitiveResult(
            output=buf.data[: fused.n_true].copy(),
            counters=[fused.counters],
            device=self.stream.device,
            extras={"n_kept": fused.n_true,
                    "n_removed": prev_kept - fused.n_true,
                    "in_place": True, "fused": True,
                    "fused_stages": labels,
                    "coarsening": fused.geometry.coarsening,
                    "n_workgroups": fused.geometry.n_workgroups},
        ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Pipeline(device={self.stream.device.name!r}, "
                f"pending={self.num_pending}, fuse={self.fuse})")
