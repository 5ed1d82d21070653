"""Cross-process request/response transport for the fleet tier.

Two problems stand between a router process and a worker process:

1. **Op chains are not picklable.**  The predicate ops
   (``remove_if``, ``partition``, ...) carry
   :class:`~repro.core.predicates.Predicate` closures, and closures do
   not pickle.  The factory predicates carry *parseable names*
   (``"less_than(0.5)"``, ``"not(is_even)"``), so the chain crosses the
   boundary as data: :func:`freeze_ops` replaces each predicate with a
   ``["__pred__", name]`` marker and — because a hand-built predicate's
   name could lie about its behaviour — **probe-verifies** the revived
   predicate against the original on a fixed probe vector *in the
   router*, where the original still exists.  An unrevivable or
   lying predicate is rejected at submit with
   :class:`~repro.errors.FleetError`; it never reaches a worker.
   :func:`revive_ops` is the worker-side inverse.

2. **Payloads must not change after submit.**  An in-core request
   array crosses the worker's inbox by value, like every other message:
   at the sizes the fleet serves, pickling through the queue costs less
   than creating, attaching and unlinking a shared-memory segment per
   request, and leaves nothing for the resource tracker to report.  The
   queue's feeder thread pickles lazily, so :func:`stage_payload`
   snapshots the array first; a caller that mutates its array after
   ``submit_chain`` returns cannot change the request.  Responses come
   back through the shared outbox the same way.  Out-of-core sources
   cross by descriptor and keep streaming on the worker: a file-backed
   memmap by path, a caller-owned shared-memory segment by name (the
   caller keeps owning it), anything else read once at submit and
   re-wrapped as a :class:`~repro.stream.source.ShardIterSource`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.predicates import Predicate, from_name
from repro.errors import FleetError
from repro.stream.source import (DSSource, MemmapSource, ShardIterSource,
                                 SharedMemorySource)

__all__ = ["freeze_ops", "revive_ops", "stage_payload", "attach_payload",
           "PROBE"]

#: Fixed probe vector for predicate verification: negatives, zero,
#: fractions, integer-valued floats — enough to distinguish every
#: predicate the name vocabulary can express.
PROBE = np.array([-3.0, -1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.5])

_SCALARS = (str, int, float, bool, type(None))


def _freeze_value(value, *, op: str):
    if isinstance(value, Predicate):
        revived = from_name(value.name)
        if revived is None:
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} cannot cross the "
                f"process boundary — its name is outside the "
                f"repro.core.predicates.from_name vocabulary")
        if not np.array_equal(value(PROBE), revived(PROBE)):
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} failed probe "
                f"verification — the name does not describe its "
                f"behaviour, so a revived copy would compute different "
                f"results")
        return ["__pred__", value.name]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _SCALARS):
        return value
    raise FleetError(
        f"op {op!r}: argument {value!r} ({type(value).__name__}) is not "
        f"transportable to a fleet worker (scalars and named predicates "
        f"only)")


def _revive_value(value):
    if isinstance(value, list) and len(value) == 2 and value[0] == "__pred__":
        pred = from_name(value[1])
        if pred is None:  # the router verified; a miss here is a bug
            raise FleetError(
                f"worker could not revive predicate {value[1]!r}")
        return pred
    return value


def freeze_ops(ops) -> List[list]:
    """A picklable form of a ``submit_chain`` op spec.

    Accepts the same shapes :meth:`repro.serve.Server.submit_chain`
    does — each entry a name string or a ``(name, *args[, kwargs])``
    tuple — and returns nested plain lists with predicates replaced by
    verified ``["__pred__", name]`` markers.
    """
    frozen = []
    for item in ops:
        if isinstance(item, str):
            item = (item,)
        if not item:
            raise FleetError("empty op spec in chain")
        name, *args = item
        kwargs = {}
        if args and isinstance(args[-1], dict):
            kwargs = args.pop()
        entry = [str(name)]
        entry.extend(_freeze_value(a, op=str(name)) for a in args)
        if kwargs:
            entry.append({k: _freeze_value(v, op=str(name))
                          for k, v in kwargs.items()})
        frozen.append(entry)
    if not frozen:
        raise FleetError("a fleet request needs at least one op")
    return frozen


def revive_ops(frozen: List[list]) -> List[tuple]:
    """Worker-side inverse of :func:`freeze_ops`."""
    ops = []
    for entry in frozen:
        name, *rest = entry
        kwargs = None
        if rest and isinstance(rest[-1], dict):
            kwargs = rest.pop()
        parts = [name] + [_revive_value(v) for v in rest]
        if kwargs:
            parts.append({k: _revive_value(v) for k, v in kwargs.items()})
        ops.append(tuple(parts))
    return ops


# -- payloads ------------------------------------------------------------


def stage_payload(source: DSSource) -> tuple:
    """Router-side: the descriptor one resolved request input crosses
    the boundary as.

    * ``("array", snapshot)`` — an in-core input, copied now;
    * ``("memmap", path, dtype, offset, shape)`` — a file-backed memmap;
    * ``("shm", name, dtype, shape)`` — a caller-owned segment;
    * ``("stream", values)`` — any other out-of-core source, read once
      now and streamed again on the worker.
    """
    if source.in_core:
        return ("array", np.array(source.materialize()))
    if isinstance(source, MemmapSource) and source.path:
        return ("memmap", source.path, str(source.dtype),
                source.offset_bytes, source.shape)
    if isinstance(source, SharedMemorySource):
        return ("shm", source.name, str(source.dtype), source.shape)
    return ("stream", np.array(source.materialize()))


def attach_payload(desc: tuple):
    """Worker-side: the submittable input for a staged payload — a
    writable ndarray for an in-core request, an out-of-core source
    otherwise (so the worker's server streams it)."""
    kind = desc[0]
    if kind == "array":
        return desc[1]
    if kind == "stream":
        return ShardIterSource(iter([desc[1]]), dtype=desc[1].dtype)
    if kind == "memmap":
        _, path, dtype, offset, shape = desc
        return MemmapSource(np.memmap(path, dtype=np.dtype(dtype), mode="r",
                                      offset=offset, shape=shape))
    from multiprocessing import shared_memory

    _, name, dtype, shape = desc
    # The router started the resource tracker before forking, so this
    # attach re-registers a name the caller's own handle already
    # registered with that same tracker: a no-op.  The worker never
    # unregisters or unlinks the segment; it stays the caller's.
    return SharedMemorySource(shared_memory.SharedMemory(name=name), dtype,
                              shape=shape)
