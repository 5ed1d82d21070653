"""Vectorized (tile-granularity) executors for the DS kernels.

Each function here is the fast-path twin of one generator kernel in
:mod:`repro.core.regular`, :mod:`repro.core.irregular`,
:mod:`repro.core.keyed` or :mod:`repro.simgpu.kernels`: it performs the
same in-place data movement as one pass of whole-array NumPy work plus
O(n / wg_size) bookkeeping, and reports the
:class:`~repro.simgpu.counters.LaunchCounters` the event-level
scheduler would have produced (see :mod:`repro.simgpu.vectorized` for
the arithmetic and its justification).  The side structures of a
launch — the flag chain and the dynamic-ID cursor — are left in their
post-kernel state, so host code that reads the compacted size back
from the flags works unchanged.  (The fused chain's carry chain is not
among them: it exists only on the simulated and compiled backends; see
:mod:`repro.core.fused`.)

**Counters are derived on first read.**  Event, atomic and barrier
counts are set at launch; the byte and transaction fields of the
irregular, keyed, fused and copy launches, and the transaction totals
of the buffers' access statistics, come from a memoized
:class:`~repro.simgpu.counters.Derivation` over the per-round kept
counts and the buffers' access specs.  Nothing reads them on the serve
path, so it never pays for them; every reader sees the eager values.
(The regular launch prices its remapped stores from the kept positions
themselves, so it stays eager rather than hold n-length state.)

Correctness of the batched movement relies on two properties of the DS
algorithms themselves:

* adjacent synchronization guarantees every work-group's loads observe
  *pristine* input, so evaluating predicates/remaps on the untouched
  array is exactly what the simulated kernels compute;
* a NumPy fancy-index or boolean gather copies, so gather-then-store
  tolerates the overlapping source/destination ranges of in-place
  slides without a snapshot of the input.

Schedule-dependent quantities (``n_spins``, ``steps``,
``peak_resident``) are reported for the idealized schedule: zero failed
polls and maximal admission.  Everything else — bytes, transactions,
event, atomic and barrier counts — is schedule-invariant and matches
the simulated backend exactly (asserted by
``tests/primitives/test_backend_parity.py``).

**Tracing records only what was measured.**  A traced fast-path launch
emits one ``launch`` span covering the whole-array operation and
nothing else: there is no per-work-group schedule to observe, so no
``wg:`` track and no ``phase`` span.  The work-group timeline of
Figure 7 belongs to the simulated scheduler alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.coarsening import LaunchGeometry
from repro.core.flags import FLAG_SET
from repro.core.offsets import RegularRemap
from repro.core.predicates import Predicate
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import Derivation, LaunchCounters
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import (
    AccessSpec,
    contiguous_round_txns,
    copy_accounting,
    kept_per_tile,
    remapped_store_txns,
    round_kept_counts,
    tile_launch_accounting,
)

__all__ = [
    "vectorized_regular_launch",
    "vectorized_irregular_launch",
    "vectorized_keyed_launch",
    "vectorized_copy_launch",
]


def _trace_begin(kernel_name: str, grid: int, wg_size: int, stream: Stream,
                 backend: str = "vectorized"):
    """Open the launch span for a fast-path launch (or ``(None, None)``
    when tracing is off — the entire per-launch tracing cost)."""
    tracer = _obs.active()
    if tracer is None:
        return None, None
    span_args = {"backend": backend, "grid_size": grid,
                 "wg_size": wg_size, "device": stream.device.name}
    # Correlation attributes (request_id, batch_id) from obs.annotate.
    annotations = _obs.current_annotations()
    if annotations:
        span_args.update(annotations)
    sp = tracer.span(kernel_name, cat="launch", args=span_args)
    return tracer, sp


def _trace_finish(tracer, launch_span, c: LaunchCounters) -> None:
    if tracer is not None:
        launch_span.set(
            steps=c.steps, n_spins=c.n_spins, peak_resident=c.peak_resident,
        ).finish()


def _base_counters(
    kernel_name: str, grid: int, wg_size: int, stream: Stream
) -> LaunchCounters:
    c = LaunchCounters(kernel_name=kernel_name, grid_size=grid, wg_size=wg_size)
    limit = (
        stream.resident_limit
        if stream.resident_limit is not None
        else stream.device.max_resident_wgs
    )
    c.peak_resident = min(limit, grid)
    c.completed_wgs = grid
    return c


def _finish(c: LaunchCounters) -> LaunchCounters:
    # One scheduler step per event plus the StopIteration step that
    # retires each work-group; the vectorized schedule has no spins.
    c.steps = c.n_loads + c.n_stores + c.n_atomics + c.n_barriers + c.grid_size
    c.extras["vectorized"] = 1.0
    return c


def _finalize_sync_structures(
    flags: Buffer, wg_counter: Buffer, grid: int, flag_values: np.ndarray
) -> None:
    """Leave the flag chain and ID cursor as the kernel would."""
    flags.data[1 : grid + 1] = flag_values
    # Minimum atomic traffic of the sync protocol: one successful poll
    # and one flag set per group.  (The simulated count additionally
    # includes schedule-dependent failed polls.)
    flags.stats.atomic_ops += 2 * grid
    wg_counter.data[0] = grid
    wg_counter.stats.atomic_ops += grid


def vectorized_regular_launch(
    array: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    remap: RegularRemap,
    geometry: LaunchGeometry,
    stream: Stream,
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.core.regular.regular_ds_kernel`."""
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    total = remap.total_in
    tracer, launch_span = _trace_begin(
        f"regular_ds[{remap.name}]", grid, W, stream)
    positions = np.arange(total, dtype=np.int64)
    keep, out_pos = remap(positions)
    kept_pos = positions[keep]
    dest = out_pos[keep]
    array.data[dest] = array.data[kept_pos]  # gather copies: overlap-safe

    c = _base_counters(f"regular_ds[{remap.name}]", grid, W, stream)
    itemsize, txb = array.itemsize, array.transaction_bytes
    c.n_loads = grid * cf
    c.bytes_loaded = total * itemsize
    c.n_stores = (total + W - 1) // W  # one store per non-empty round
    c.bytes_stored = int(kept_pos.size) * itemsize
    if array.count_transactions:
        c.load_transactions = contiguous_round_txns(total, W, itemsize, txb)
        c.store_transactions = remapped_store_txns(kept_pos, dest, W, itemsize, txb)
    c.n_atomics = 3 * grid  # ID claim + successful poll + flag set
    c.n_barriers = 3 * grid  # ID broadcast + sync local + sync global

    array.stats.loads_elems += total
    array.stats.load_transactions += c.load_transactions
    array.stats.stores_elems += int(kept_pos.size)
    array.stats.store_transactions += c.store_transactions
    _finalize_sync_structures(
        flags, wg_counter, grid, np.full(grid, FLAG_SET, dtype=flags.data.dtype)
    )
    rec = stream.record(_finish(c))
    _trace_finish(tracer, launch_span, c)
    return rec


def _evaluate_keep(
    vals: np.ndarray, predicate: Optional[Predicate], stencil_unique: bool
) -> np.ndarray:
    if stencil_unique:
        keep = np.empty(vals.shape, dtype=bool)
        if vals.size:
            keep[0] = True
            keep[1:] = vals[1:] != vals[:-1]
        return keep
    return np.asarray(predicate(vals), dtype=bool)


def _spec(buf: Buffer) -> AccessSpec:
    return (buf.itemsize, buf.transaction_bytes, buf.count_transactions)


def _defer_tile_accounting(
    c: LaunchCounters,
    kt: np.ndarray,
    geometry: LaunchGeometry,
    total: int,
    *,
    loads: Sequence[Buffer],
    kept: Sequence[Buffer],
    false: Sequence[Buffer] = (),
    stencil_unique: bool = False,
) -> None:
    """Fill ``c`` for an irregular-family launch from the per-round kept
    counts ``kt``: event, atomic and barrier counts now, the byte and
    transaction fields (and the buffers' transaction statistics) on
    first read, from a :class:`~repro.simgpu.counters.Derivation` that
    holds only ``kt`` and the buffers' access specs.

    ``loads`` are read in coarsened tile rounds (the first also pays the
    unique stencil's neighbour loads), ``kept`` receive the survivors
    and ``false`` the predicate-false elements, as in
    :func:`repro.simgpu.vectorized.tile_launch_accounting`.
    """
    grid, cf = geometry.n_workgroups, geometry.coarsening
    n, W = int(total), geometry.wg_size
    n_true = int(kt.sum())
    stencil_loads = grid - 1 if stencil_unique else 0
    n_act = kt.size  # ceil(n / W): rounds with any active lane
    c.n_loads = grid * cf * len(loads) + stencil_loads
    # The kept-store event fires even for empty rounds; false stores
    # only when the round has a false element.
    c.n_stores = n_act * len(kept)
    if false:
        round_sizes = np.minimum(W, n - np.arange(n_act) * W)
        c.n_stores += int(np.count_nonzero(round_sizes - kt)) * len(false)
    c.n_atomics = 3 * grid  # ID claim + successful poll + flag set
    c.n_barriers = 3 * grid  # ID broadcast + sync local + sync global
    derivation = Derivation(
        tile_launch_accounting, n, kt, W,
        loads=[_spec(b) for b in loads], kept=[_spec(b) for b in kept],
        false=[_spec(b) for b in false], stencil_loads=stencil_loads)
    c.defer(derivation)
    for i, buf in enumerate(loads):
        buf.stats.loads_elems += n + (stencil_loads if i == 0 else 0)
        buf.stats.defer(derivation, load=("load", i))
    for kind, bufs, elems in (("kept", kept, n_true),
                              ("false", false, n - n_true)):
        for i, buf in enumerate(bufs):
            buf.stats.stores_elems += elems
            buf.stats.defer(derivation, store=(kind, i))


def vectorized_irregular_launch(
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
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.core.irregular.irregular_ds_kernel`."""
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream)
    vals = array.data[:n]
    keep = _evaluate_keep(vals, predicate, stencil_unique)
    kt = round_kept_counts(keep, W)  # kept per global round
    # Both gathers copy before either store: an in-place partition
    # overwrites the input its false gather reads.  (compress gathers
    # through the nonzero indices, several times faster than boolean
    # indexing on the mixed masks real predicates produce.)
    kept = vals.compress(keep)
    rejected = vals.compress(~keep) if false_out is not None else None
    out.data[: kept.size] = kept
    if rejected is not None:
        false_out.data[: rejected.size] = rejected

    c = _base_counters(kernel_name, grid, W, stream)
    _defer_tile_accounting(
        c, kt, geometry, n, loads=[array], kept=[out],
        false=[false_out] if false_out is not None else [],
        stencil_unique=stencil_unique)
    _finalize_sync_structures(
        flags, wg_counter, grid,
        np.cumsum(kept_per_tile(kt, cf, grid)) + 1,  # encode_count, vector-wide
    )
    rec = stream.record(_finish(c))
    _trace_finish(tracer, launch_span, c)
    return rec


def vectorized_keyed_launch(
    keys: Buffer,
    payloads: Sequence[Buffer],
    flags: Buffer,
    wg_counter: Buffer,
    predicate: Optional[Predicate],
    geometry: LaunchGeometry,
    total: int,
    stream: Stream,
    *,
    stencil_unique: bool = False,
    kernel_name: str = "keyed_ds",
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.core.keyed.keyed_irregular_ds_kernel`."""
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream)
    columns = [keys, *payloads]
    keep = _evaluate_keep(keys.data[:n], predicate, stencil_unique)
    kt = round_kept_counts(keep, W)
    # Every gather copies before any store, so columns sharing storage
    # still read pristine input.
    gathered = [buf.data[:n].compress(keep) for buf in columns]
    for buf, vals in zip(columns, gathered):
        buf.data[: vals.size] = vals

    c = _base_counters(kernel_name, grid, W, stream)
    _defer_tile_accounting(c, kt, geometry, n, loads=columns, kept=columns,
                           stencil_unique=stencil_unique)
    _finalize_sync_structures(
        flags, wg_counter, grid,
        np.cumsum(kept_per_tile(kt, cf, grid)) + 1,  # encode_count, vector-wide
    )
    rec = stream.record(_finish(c))
    _trace_finish(tracer, launch_span, c)
    return rec


def vectorized_copy_launch(
    src: Buffer,
    dst: Buffer,
    n: int,
    src_base: int,
    dst_base: int,
    wg_size: int,
    coarsening: int,
    stream: Stream,
    *,
    kernel_name: str = "copy",
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.simgpu.kernels.copy_kernel` (used
    by the in-place partition's false-tail copy-back)."""
    tile = wg_size * coarsening
    grid = (n + tile - 1) // tile
    tracer, launch_span = _trace_begin(kernel_name, grid, wg_size, stream)
    dst.data[dst_base : dst_base + n] = src.data[src_base : src_base + n]

    c = _base_counters(kernel_name, grid, wg_size, stream)
    n_act = (n + wg_size - 1) // wg_size
    c.n_loads = c.n_stores = n_act  # copy rounds skip empty tiles entirely
    derivation = Derivation(copy_accounting, n, wg_size, _spec(src),
                            _spec(dst), src_base, dst_base)
    c.defer(derivation)
    src.stats.loads_elems += n
    src.stats.defer(derivation, load="load_transactions")
    dst.stats.stores_elems += n
    dst.stats.defer(derivation, store="store_transactions")
    rec = stream.record(_finish(c))
    _trace_finish(tracer, launch_span, c)
    return rec
