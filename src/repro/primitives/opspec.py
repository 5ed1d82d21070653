"""The shared op-descriptor layer behind every DS primitive.

Each ``ds_*`` entry point is a thin wrapper over an
:class:`OpDescriptor` registered here: the wrapper resolves the
``config``/deprecated-kwarg surface (:func:`repro.config.resolve_config`)
and delegates to the descriptor's *runner* — the function that prepares
device buffers, launches the kernels and assembles the
:class:`~repro.primitives.common.PrimitiveResult`.

The registry is what makes the batch surfaces possible without
duplicating any primitive logic:

* :func:`repro.dispatch.ds` dispatches ``repro.ds("compact", ...)`` by
  name through :func:`get_op`;
* :class:`repro.pipeline.Pipeline` enqueues ``(descriptor, args)``
  pairs, plans them as a batch, and executes each op through the same
  runner the direct call would have used — so a pipelined op and a
  direct call are *the same code path*, which is what the
  pipeline-vs-sequential parity tests assert;
* descriptors of fusable irregular ops expose a
  :class:`~repro.core.fused.FuseStage` factory, letting the planner
  collapse chained in-place filters into one fused launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.fused import FuseStage
from repro.errors import LaunchError

__all__ = [
    "FILTER_EMPTY",
    "PARTITION_EMPTY",
    "OpDescriptor",
    "register_op",
    "get_op",
    "list_ops",
    "array_signature",
]


def array_signature(values) -> Tuple[Optional[int], str]:
    """The (element count, dtype) plan-cache signature of an array or
    :class:`~repro.stream.source.DSSource` (an unsized source
    signatures with ``None`` elements)."""
    sig = getattr(values, "signature", None)
    if callable(sig):
        return sig()
    arr = np.asarray(values)
    return int(arr.size), str(arr.dtype)


#: :attr:`OpDescriptor.empty_extras` of the filters and of partition.
FILTER_EMPTY = {"n_kept": 0, "n_removed": 0}
PARTITION_EMPTY = {"n_true": 0, "n_false": 0}


@dataclass(frozen=True)
class OpDescriptor:
    """Static description of one DS primitive.

    Attributes
    ----------
    name / short:
        The public ``ds_*`` name and its short alias (``"compact"``),
        both accepted by :func:`get_op`.
    kind:
        ``"regular"`` (data-independent remap), ``"irregular"``
        (predicate/stencil filter), ``"keyed"`` (multi-column), or
        ``"meta"`` (composes other primitives).
    runner:
        ``runner(*args, stream=..., config=..., **kwargs)`` executing
        the primitive and returning a ``PrimitiveResult``.  Positional
        ``args`` are the user's data arguments (no stream).
    params_signature:
        ``(args, kwargs) -> hashable`` — the op's non-array parameters
        as they affect planning/caching (predicate names, pad widths,
        flags).  The primary input's geometry is added by the planner.
    fuse_stage:
        For fusable in-place irregular ops: ``(args, kwargs) ->``
        :class:`~repro.core.fused.FuseStage`.  ``None`` marks the op
        non-fusable.
    empty_extras:
        The extras of the op's reference result on an empty input
        (``{"n_kept": 0, ...}``); ``None`` when the op has no empty
        case and an empty input reaches the runner.
    """

    name: str
    short: str
    kind: str
    runner: Callable
    params_signature: Callable = lambda args, kwargs: ()
    fuse_stage: Optional[Callable] = None
    empty_extras: Optional[Mapping[str, int]] = None

    @property
    def fusable(self) -> bool:
        return self.fuse_stage is not None

    def run(self, *args, stream=None, config, **kwargs):
        """Invoke :attr:`runner` — every front door calls this, never
        the runner directly.

        An empty primary input returns the reference result (an empty
        output and :attr:`empty_extras`) with no launch: the kernels
        need at least one element, and an empty request is valid input,
        not a launch failure to retry.
        """
        if (self.empty_extras is not None and args
                and np.size(args[0]) == 0):
            from repro.primitives.common import PrimitiveResult, \
                resolve_stream

            return PrimitiveResult(
                output=np.asarray(args[0]).reshape(-1).copy(),
                counters=[],
                device=resolve_stream(stream, seed=config.seed).device,
                extras=dict(self.empty_extras))
        return self.runner(*args, stream=stream, config=config, **kwargs)


_REGISTRY: Dict[str, OpDescriptor] = {}


def register_op(desc: OpDescriptor) -> OpDescriptor:
    """Register ``desc`` under both its full and short names."""
    for key in (desc.name, desc.short):
        existing = _REGISTRY.get(key)
        if existing is not None and existing.name != desc.name:
            raise LaunchError(
                f"op name {key!r} already registered for {existing.name}")
        _REGISTRY[key] = desc
    return desc


def get_op(name: str) -> OpDescriptor:
    """Look an op up by full (``ds_stream_compact``) or short
    (``compact``) name."""
    desc = _REGISTRY.get(name)
    if desc is None:
        known = sorted({d.short for d in _REGISTRY.values()})
        raise LaunchError(
            f"unknown DS op {name!r}; known ops: {', '.join(known)}")
    return desc


def list_ops() -> Tuple[OpDescriptor, ...]:
    """Every registered descriptor, once each, sorted by name."""
    seen = {}
    for desc in _REGISTRY.values():
        seen[desc.name] = desc
    return tuple(seen[k] for k in sorted(seen))
