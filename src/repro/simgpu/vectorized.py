"""Closed-form accounting for the vectorized execution backend.

The simulated scheduler executes every work-group as a generator and
prices memory traffic one event at a time; for large inputs the Python
interpreter, not the algorithm, dominates the wall clock.  The
vectorized backend (see :mod:`repro.core.fastpath`) performs each DS
primitive as a handful of whole-array NumPy operations and *derives*
the :class:`~repro.simgpu.counters.LaunchCounters` the simulated
scheduler would have produced, using the arithmetic in this module —
for the byte and transaction fields, on first read (see
:class:`~repro.simgpu.counters.Derivation`).

The derivations rest on structural facts of the DS kernels that do not
depend on the schedule:

* every work-group issues exactly ``coarsening`` tile-round loads, and
  one store per non-empty round, over *contiguous* index ranges
  ``[k * wg_size, min((k+1) * wg_size, total))`` for the global round
  ``k`` (coalescing of a contiguous range is a two-term formula);
* adjacent synchronization and dynamic ID allocation contribute a fixed
  three atomics and three barriers per work-group;
* spin iterations, interleaving steps and residency are the *only*
  schedule-dependent quantities, and the backend reports the idealized
  schedule (zero failed polls, maximal admission).

This module also owns backend *selection*: it sits below both
``repro.core`` and ``repro.primitives``, so either layer can resolve
the ``backend=`` argument (and the ``REPRO_BACKEND`` environment
override) without import cycles.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import LaunchError

__all__ = [
    "resolve_backend",
    "compiled_available",
    "numba_available",
    "pure_python_compiled",
    "fallback_count",
    "reset_fallback_state",
    "BACKENDS",
    "contiguous_round_txns",
    "contiguous_range_txns",
    "remapped_store_txns",
    "round_kept_counts",
    "chain_round_counts",
    "kept_per_tile",
    "tile_launch_accounting",
    "fused_chain_accounting",
    "copy_accounting",
]

BACKENDS = ("simulated", "vectorized", "compiled")
"""The three execution tiers every DS primitive accepts."""

_ALIASES = {
    "simulated": "simulated",
    "sim": "simulated",
    "vectorized": "vectorized",
    "vec": "vectorized",
    "compiled": "compiled",
    "jit": "compiled",
    "numba": "compiled",
}

ENV_VAR = "REPRO_BACKEND"

PURE_PYTHON_ENV_VAR = "REPRO_COMPILED_PYTHON"
"""Set to 1 to run the compiled tier's kernels as plain Python loops —
the test mode that exercises the lowering and kernel logic on machines
without Numba (slow, but byte-identical)."""

_TRUTHY = ("1", "true", "yes", "on")

# Fallback bookkeeping: compiled requested but unavailable.  The warning
# fires once per process; the count (and the ``backend.fallback`` metric
# when a tracer is active) tracks every fallback resolution.
_fallback_warned = False
_fallback_count = 0


def numba_available() -> bool:
    """True when Numba is importable and JIT is not disabled via
    ``NUMBA_DISABLE_JIT``.  Import is attempted lazily — an absent or
    broken Numba never raises here."""
    raw = os.environ.get("NUMBA_DISABLE_JIT", "").strip()
    if raw and raw != "0":
        return False
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def pure_python_compiled() -> bool:
    """True when ``REPRO_COMPILED_PYTHON`` forces the compiled tier's
    kernels to run as plain Python (the no-Numba test mode)."""
    return os.environ.get(PURE_PYTHON_ENV_VAR, "").strip().lower() in _TRUTHY


def compiled_available() -> bool:
    """True when ``backend="compiled"`` can actually execute — either
    Numba is usable or the pure-Python test mode is forced."""
    return pure_python_compiled() or numba_available()


def _record_fallback() -> None:
    global _fallback_warned, _fallback_count
    _fallback_count += 1
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "backend='compiled' requested but Numba is not available "
            "(not installed, or NUMBA_DISABLE_JIT is set); falling back "
            "to the vectorized backend.  Install the 'numba' extra "
            "(pip install repro-ds[numba]) for the JIT tier.",
            RuntimeWarning,
            stacklevel=3,
        )
    try:  # lazy: repro.obs must stay importable without this module
        from repro import obs as _obs
    except Exception:  # pragma: no cover - defensive
        return
    tracer = _obs.active()
    if tracer is not None:
        tracer.metrics.counter("backend.fallback").inc()


def fallback_count() -> int:
    """Number of compiled→vectorized fallback resolutions so far."""
    return _fallback_count


def reset_fallback_state() -> None:
    """Reset the warn-once flag and count (test isolation hook)."""
    global _fallback_warned, _fallback_count
    _fallback_warned = False
    _fallback_count = 0


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a ``backend=`` argument to one of :data:`BACKENDS`.

    ``None`` defers to the ``REPRO_BACKEND`` environment variable and
    falls back to ``"simulated"``.  ``"sim"``, ``"vec"``, ``"jit"`` and
    ``"numba"`` are accepted as shorthand.  ``"compiled"`` degrades to
    ``"vectorized"`` (one warning per process, ``backend.fallback``
    metric) when Numba is unusable, so requesting the JIT tier is always
    safe.  Unknown spellings raise :class:`~repro.errors.LaunchError`
    when passed explicitly and :class:`ValueError` naming
    ``REPRO_BACKEND`` when they came from the environment.  Callers
    apply their own forcing rules on top (race tracking and
    fault-injection hooks require the event-level simulator).
    """
    from_env = False
    if backend is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw:
            backend, from_env = raw, True
        else:
            backend = "simulated"
    resolved = _ALIASES.get(str(backend).lower())
    if resolved is None:
        detail = (
            f"expected one of {BACKENDS} (or the "
            f"'sim'/'vec'/'jit'/'numba' shorthands)"
        )
        if from_env:
            raise ValueError(
                f"{ENV_VAR}={backend!r}: unknown backend; {detail}")
        raise LaunchError(f"unknown backend {backend!r}; {detail}")
    if resolved == "compiled" and not compiled_available():
        _record_fallback()
        return "vectorized"
    return resolved


def _per_txn(itemsize: int, transaction_bytes: int) -> int:
    return max(1, int(transaction_bytes) // int(itemsize))


def contiguous_round_txns(
    total: int, wg_size: int, itemsize: int, transaction_bytes: int, base: int = 0
) -> int:
    """Transactions for the DS loading pattern over ``total`` elements.

    Global round ``k`` touches the contiguous range
    ``[base + k * wg_size, base + min((k+1) * wg_size, total))``; a
    contiguous range costs ``last_segment - first_segment + 1``
    transactions.  Empty rounds cost nothing.
    """
    if total <= 0:
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    n_rounds = (total + wg_size - 1) // wg_size
    lo = base + np.arange(n_rounds, dtype=np.int64) * wg_size
    hi = np.minimum(lo + wg_size, base + total)
    return int(((hi - 1) // per - lo // per + 1).sum())


def contiguous_range_txns(
    lo: np.ndarray, hi: np.ndarray, itemsize: int, transaction_bytes: int
) -> int:
    """Transactions for per-round stores to contiguous ranges
    ``[lo[k], hi[k])`` (the irregular kernels' output pattern).  Empty
    ranges (``hi <= lo``) are skipped — they emit a store event but
    touch no segment."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    mask = hi > lo
    if not mask.any():
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    lo = lo[mask]
    hi = hi[mask]
    return int(((hi - 1) // per - lo // per + 1).sum())


def remapped_store_txns(
    kept_pos: np.ndarray,
    out_pos: np.ndarray,
    wg_size: int,
    itemsize: int,
    transaction_bytes: int,
) -> int:
    """Transactions for the regular kernel's storing stage.

    ``kept_pos`` are the surviving input positions (ascending) and
    ``out_pos`` their remapped destinations.  The simulated kernel
    issues one store per round (``round = kept_pos // wg_size``) and
    each store costs the number of distinct ``transaction_bytes``
    segments it touches, so the total is the number of distinct
    ``(round, segment)`` pairs.  All shipped remaps are monotonic
    within a round, making the pairs lexicographically sorted and the
    count a boundary sum; a non-monotonic remap falls back to an
    explicit lexicographic sort.
    """
    kept_pos = np.asarray(kept_pos, dtype=np.int64)
    if kept_pos.size == 0:
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    rid = kept_pos // wg_size
    seg = np.asarray(out_pos, dtype=np.int64) // per
    dr = np.diff(rid)
    ds = np.diff(seg)
    if (ds[dr == 0] < 0).any():  # non-monotonic remap within a round
        order = np.lexsort((seg, rid))
        rid = rid[order]
        seg = seg[order]
        dr = np.diff(rid)
        ds = np.diff(seg)
    return int(((dr != 0) | (ds != 0)).sum()) + 1


def round_kept_counts(keep: np.ndarray, wg_size: int) -> np.ndarray:
    """Predicate-true elements per global round, for the irregular
    kernels' contiguous output ranges.  One pass over the bool mask: the
    whole rounds reduce as a ``(rounds, wg_size)`` byte view into 32-bit
    sums (a round holds at most ``wg_size`` survivors), with no n-length
    integer scratch."""
    keep = np.asarray(keep, dtype=bool)
    full = keep.size // wg_size
    kt = np.empty(-(-keep.size // wg_size), dtype=np.int64)
    kt[:full] = keep[: full * wg_size].view(np.uint8).reshape(
        full, wg_size).sum(axis=1, dtype=np.uint32)
    if full < kt.size:
        kt[full] = np.count_nonzero(keep[full * wg_size:])
    return kt


def chain_round_counts(masks: Sequence[np.ndarray], wg_size: int) -> np.ndarray:
    """Per-round survivor counts of a filter chain evaluated over
    compacted survivors (:func:`repro.core.fused.fused_select`).

    ``masks[0]`` covers the input; each later mask covers the previous
    stage's survivors, which lie in round order, round ``k``'s as one
    contiguous run of ``kt[k]`` elements.  Each later stage therefore
    costs one segmented sum over its mask, and nothing n-length is
    built beyond the masks themselves.
    """
    kt = round_kept_counts(masks[0], wg_size)
    for mask in masks[1:]:
        nonempty = kt > 0
        starts = (np.cumsum(kt) - kt)[nonempty]
        kt = np.zeros_like(kt)
        if starts.size:
            kt[nonempty] = np.add.reduceat(
                np.asarray(mask, dtype=bool).view(np.uint8), starts,
                dtype=np.uint32)
    return kt


def kept_per_tile(kt: np.ndarray, coarsening: int, grid: int) -> np.ndarray:
    """Kept elements per work-group tile: ``kt`` summed over each tile's
    ``coarsening`` rounds (work-group ``g`` owns rounds
    ``[g * coarsening, (g + 1) * coarsening)``)."""
    padded = np.zeros(grid * coarsening, dtype=np.int64)
    padded[: kt.size] = kt
    return padded.reshape(grid, coarsening).sum(axis=1)


AccessSpec = Tuple[int, int, bool]
"""``(itemsize, transaction_bytes, count_transactions)`` of one buffer
access stream — the only buffer state the accounting needs."""


def tile_launch_accounting(
    total: int,
    kt: np.ndarray,
    wg_size: int,
    *,
    loads: Sequence[AccessSpec],
    kept: Sequence[AccessSpec],
    false: Sequence[AccessSpec] = (),
    stencil_loads: int = 0,
) -> dict:
    """Byte and transaction fields of one irregular-family launch.

    Every access in ``loads`` reads ``total`` elements in coarsened tile
    rounds; the first also issues ``stencil_loads`` single-element
    neighbour loads (one transaction each).  Every access in ``kept``
    stores round ``k``'s ``kt[k]`` survivors as one contiguous range
    after the survivors of earlier rounds; every access in ``false``
    stores the round's predicate-false elements the same way.

    Returns the four derived :class:`~repro.simgpu.counters.
    LaunchCounters` fields plus each access's own transactions under
    ``("load", i)``, ``("kept", i)`` and ``("false", i)``, which the
    buffers' access statistics read.
    """
    n = int(total)
    kt = np.asarray(kt, dtype=np.int64)
    n_true = int(kt.sum())
    per_round = {"kept": kt}
    if false:
        round_sizes = np.minimum(wg_size, n - np.arange(kt.size) * wg_size)
        per_round["false"] = round_sizes - kt

    def txns(kind: str, spec: AccessSpec) -> int:
        itemsize, transaction_bytes, counted = spec
        if not counted:
            return 0
        if kind == "load":
            return contiguous_round_txns(n, wg_size, itemsize,
                                         transaction_bytes)
        counts = per_round[kind]
        before = np.cumsum(counts) - counts
        return contiguous_range_txns(before, before + counts, itemsize,
                                     transaction_bytes)

    out: dict = {}
    for kind, specs in (("load", loads), ("kept", kept), ("false", false)):
        for i, spec in enumerate(specs):
            out[(kind, i)] = txns(kind, spec)
    if loads[0][2]:
        out[("load", 0)] += stencil_loads  # one transaction each
    out["bytes_loaded"] = (n * sum(s[0] for s in loads)
                           + stencil_loads * loads[0][0])
    out["bytes_stored"] = (n_true * sum(s[0] for s in kept)
                           + (n - n_true) * sum(s[0] for s in false))
    out["load_transactions"] = sum(
        out[("load", i)] for i in range(len(loads)))
    out["store_transactions"] = sum(
        out[(kind, i)] for kind, specs in (("kept", kept), ("false", false))
        for i in range(len(specs)))
    return out


def fused_chain_accounting(
    total: int,
    kt: np.ndarray,
    wg_size: int,
    grid: int,
    *,
    itemsize: int,
    carry_itemsize: int,
    valid_itemsize: int,
    transaction_bytes: int,
    count_transactions: bool,
) -> dict:
    """Byte and transaction fields of one fused irregular chain launch.

    A fused launch (:mod:`repro.core.fused`) behaves like one in-place
    irregular DS launch — coarsened tile loads, per-round contiguous
    kept stores — plus the carry chain: every work-group loads its
    predecessor's ``(carry, carry_valid)`` pair and stores its own, four
    single-element accesses per group, each touching one transaction
    segment.  ``kt`` holds the final survivors per global round; the
    vectorized and compiled backends both derive it without the carry
    chain, so only the itemsizes of the carry structures enter here.
    Keys are those of :func:`tile_launch_accounting`.
    """
    spec = (itemsize, transaction_bytes, count_transactions)
    out = tile_launch_accounting(total, kt, wg_size, loads=[spec],
                                 kept=[spec])
    side_bytes = grid * (carry_itemsize + valid_itemsize)
    out["bytes_loaded"] += side_bytes
    out["bytes_stored"] += side_bytes
    if count_transactions:
        out["load_transactions"] += 2 * grid
        out["store_transactions"] += 2 * grid
    return out


def copy_accounting(
    n: int, wg_size: int, src: AccessSpec, dst: AccessSpec,
    src_base: int, dst_base: int,
) -> dict:
    """Byte and transaction fields of the contiguous copy kernel
    (``n`` elements, one load and one store per round)."""
    out = {"bytes_loaded": n * src[0], "bytes_stored": n * dst[0]}
    for kind, (itemsize, transaction_bytes, counted), base in (
            ("load", src, src_base), ("store", dst, dst_base)):
        out[f"{kind}_transactions"] = (
            contiguous_round_txns(n, wg_size, itemsize, transaction_bytes,
                                  base=base) if counted else 0)
    return out
