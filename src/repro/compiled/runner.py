"""Launch drivers for the compiled backend.

Each driver here is the compiled twin of one fast path in
:mod:`repro.core.fastpath` / :mod:`repro.core.fused`: it lowers the
predicate chain (:mod:`repro.compiled.lowering`), runs the single
native loop of :func:`repro.compiled.kernels.chain_select_kernel`, and
derives the event-level :class:`~repro.simgpu.counters.LaunchCounters`
from the per-round tallies the kernel produced — the **same**
closed-form arithmetic the vectorized backend uses, so counter parity
with the simulated scheduler holds by construction.

Drivers return ``None`` instead of raising when a chain cannot lower
(opaque predicate, lying name): the dispatch sites in
:mod:`repro.core.irregular` / :mod:`repro.core.fused` then fall back to
the vectorized path for that launch, counted by the
``backend.lowering_fallback`` metric.

JIT compilation is **warmed explicitly**: the first launch per element
dtype (per process) runs a tiny warmup call inside a ``cat="compile"``
tracer span *before* the launch span opens, so ``python -m repro
analyze`` attributes JIT cost separately from kernel wall time.
:func:`warmup` pre-pays that cost for a set of dtypes — this is what
``Server.prime()`` calls so serve warm paths never see a compile stall.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.compiled.jit import (
    callable_kernel,
    compiled_available,
    numba_available,
    pure_python_compiled,
)
from repro.compiled.kernels import chain_select_kernel
from repro.compiled.lowering import (
    OP_ALWAYS_TRUE,
    ChainProgram,
    lower_chain,
)
from repro.core.coarsening import LaunchGeometry
from repro.core.fastpath import (
    _base_counters,
    _defer_tile_accounting,
    _finalize_sync_structures,
    _finish,
    _trace_begin,
    _trace_finish,
)
from repro.core.fused import FuseStage, _defer_fused_accounting
from repro.core.predicates import Predicate
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.stream import Stream

__all__ = [
    "compiled_irregular_launch",
    "compiled_fused_launch",
    "ensure_warm",
    "warmup",
    "reset_warm_state",
    "DEFAULT_WARM_DTYPES",
]

DEFAULT_WARM_DTYPES = ("float32", "float64", "int32", "int64")
"""Dtypes :func:`warmup` precompiles by default — the element types the
benchmarks and the serve layer actually move."""

_warmed: set = set()


def _mode() -> str:
    return "numba" if (numba_available() and not pure_python_compiled()) \
        else "python"


def reset_warm_state() -> None:
    """Forget which (dtype, mode) kernels were warmed (test hook)."""
    _warmed.clear()


def _warm_call(dtype: np.dtype) -> None:
    """A tiny full-featured kernel call: with Numba this triggers (and
    therefore pays) compilation for this dtype's signature."""
    kernel = callable_kernel(chain_select_kernel)
    n = 8
    vals = np.arange(n).astype(dtype)
    out = np.zeros(n, dtype=dtype)
    false_arr = np.zeros(n, dtype=dtype)
    ops = np.array([OP_ALWAYS_TRUE], dtype=np.int64)
    negs = np.zeros(1, dtype=np.uint8)
    operands = np.zeros(1, dtype=np.float64)
    kernel(
        vals, out, false_arr, True,
        ops, negs, operands, True, ops, negs, operands,
        4, 4, 2, n,
        np.zeros(2, dtype=np.int8), np.zeros(2, dtype=np.int64),
        np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64),
        np.zeros(3, dtype=dtype), np.zeros(3, dtype=np.int64),
    )


def ensure_warm(dtype) -> float:
    """Warm the kernel for ``dtype`` (once per process and mode) inside
    a ``cat="compile"`` span; returns the seconds spent (0.0 when
    already warm)."""
    dtype = np.dtype(dtype)
    key = (dtype.str, _mode())
    if key in _warmed:
        return 0.0
    tracer = _obs.active()
    cm = (
        tracer.span("jit.compile[chain_select]", cat="compile",
                    args={"dtype": dtype.str, "mode": key[1]})
        if tracer is not None else nullcontext()
    )
    t0 = time.perf_counter()
    with cm:
        _warm_call(dtype)
    _warmed.add(key)
    return time.perf_counter() - t0


def warmup(dtypes: Optional[Sequence] = None) -> Dict[str, float]:
    """Pre-pay JIT compilation for ``dtypes`` (default
    :data:`DEFAULT_WARM_DTYPES`).  Returns ``{dtype: seconds}``; empty
    when the compiled tier is unavailable (nothing to warm)."""
    if not compiled_available():
        return {}
    report: Dict[str, float] = {}
    for dt in (dtypes if dtypes is not None else DEFAULT_WARM_DTYPES):
        report[np.dtype(dt).str] = ensure_warm(dt)
    return report


def _lowering_fallback() -> None:
    tracer = _obs.active()
    if tracer is not None:
        tracer.metrics.counter("backend.lowering_fallback").inc()


def _run_kernel(
    program: ChainProgram,
    vals: np.ndarray,
    out_arr: np.ndarray,
    false_arr: Optional[np.ndarray],
    geometry: LaunchGeometry,
    total: int,
    carry_val: np.ndarray,
    carry_valid: np.ndarray,
):
    """Invoke the chain kernel; returns ``(n_true, round_kept,
    tile_prefix)``."""
    grid, W = geometry.n_workgroups, geometry.wg_size
    n_rounds = (total + W - 1) // W
    tile_state = np.zeros(grid, dtype=np.int8)
    tile_agg = np.zeros(grid, dtype=np.int64)
    tile_prefix = np.zeros(grid, dtype=np.int64)
    round_kept = np.zeros(n_rounds, dtype=np.int64)
    has_false = false_arr is not None
    if false_arr is None:
        false_arr = np.empty(0, dtype=vals.dtype)
    kernel = callable_kernel(chain_select_kernel)
    n_true = kernel(
        vals, out_arr, false_arr, has_false,
        program.pre_ops, program.pre_negs, program.pre_operands,
        program.has_stencil,
        program.post_ops, program.post_negs, program.post_operands,
        W, geometry.tile_size, grid, total,
        tile_state, tile_agg, tile_prefix, round_kept,
        carry_val, carry_valid,
    )
    return int(n_true), round_kept, tile_prefix


def _finish_compiled(c: LaunchCounters) -> LaunchCounters:
    _finish(c)
    c.extras.pop("vectorized", None)
    c.extras["compiled"] = 1.0
    return c


def compiled_irregular_launch(
    array: Buffer,
    out: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    predicate: Optional[Predicate],
    geometry: LaunchGeometry,
    total: int,
    stream: Stream,
    *,
    false_out: Optional[Buffer] = None,
    stencil_unique: bool = False,
    kernel_name: str = "irregular_ds",
) -> Optional[LaunchCounters]:
    """Compiled twin of
    :func:`repro.core.fastpath.vectorized_irregular_launch`.  Returns
    ``None`` when the predicate cannot lower (caller falls back)."""
    stages = (
        [FuseStage("stencil")] if stencil_unique
        else [FuseStage("pred", predicate)]
    )
    program = lower_chain(stages, array.data.dtype)
    if program is None:
        _lowering_fallback()
        return None
    ensure_warm(array.data.dtype)

    grid, W = geometry.n_workgroups, geometry.wg_size
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream,
                                       backend="compiled")
    carry_val = np.zeros(grid + 1, dtype=array.data.dtype)
    carry_valid = np.zeros(grid + 1, dtype=np.int64)
    _, kt, tile_prefix = _run_kernel(
        program, array.data, out.data,
        false_out.data if false_out is not None else None,
        geometry, n, carry_val, carry_valid,
    )

    c = _base_counters(kernel_name, grid, W, stream)
    _defer_tile_accounting(
        c, kt, geometry, n, loads=[array], kept=[out],
        false=[false_out] if false_out is not None else [],
        stencil_unique=stencil_unique)

    _finalize_sync_structures(flags, wg_counter, grid, tile_prefix + 1)
    rec = stream.record(_finish_compiled(c))
    _trace_finish(tracer, launch_span, c)
    return rec


def compiled_fused_launch(
    array: Buffer,
    stages: Sequence[FuseStage],
    carry: Buffer,
    carry_valid: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    geometry: LaunchGeometry,
    total: int,
    stream: Stream,
    kernel_name: str,
) -> Optional[LaunchCounters]:
    """Compiled twin of the vectorized fused-chain launch.  Returns
    ``None`` when any stage fails to lower (caller falls back)."""
    program = lower_chain(stages, array.data.dtype)
    if program is None:
        _lowering_fallback()
        return None
    ensure_warm(array.data.dtype)

    grid, W = geometry.n_workgroups, geometry.wg_size
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream,
                                       backend="compiled")
    _, kt, tile_prefix = _run_kernel(
        program, array.data, array.data, None, geometry, n,
        carry.data, carry_valid.data,
    )

    c = _base_counters(kernel_name, grid, W, stream)
    _defer_fused_accounting(c, array, kt, geometry, n, carry.itemsize)
    for buf in (carry, carry_valid):
        buf.stats.loads_elems += grid
        buf.stats.stores_elems += grid
        if buf.count_transactions:
            buf.stats.load_transactions += grid
            buf.stats.store_transactions += grid

    _finalize_sync_structures(flags, wg_counter, grid, tile_prefix + 1)
    rec = stream.record(_finish_compiled(c))
    _trace_finish(tracer, launch_span, c)
    return rec
