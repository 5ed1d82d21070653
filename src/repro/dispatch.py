"""``repro.ds`` — the name-dispatched front door to every DS primitive.

One function covers the whole primitive surface::

    import repro
    out = repro.ds("compact", x, 0).output
    out = repro.ds("ds_unique", y, config=repro.DSConfig(wg_size=128)).output

Names resolve through the op registry (:mod:`repro.primitives.opspec`),
so short (``"compact"``) and full (``"ds_stream_compact"``) spellings
both work, and a typo lists every known op.  ``ds`` executes eagerly
through the exact runner the named ``ds_*`` function uses; to batch
several ops, use :class:`repro.pipeline.Pipeline`, whose enqueue
methods dispatch through the same registry.

The primary input goes through the unified
:class:`~repro.stream.source.DSSource` protocol
(:func:`~repro.stream.source.as_source`): plain ndarrays execute
exactly as before, while out-of-core inputs — memmaps, shared-memory
handles, shard iterators, or explicit ``DSSource`` objects — are
streamed shard-by-shard through :func:`repro.stream.engine.stream_run`
(``config.shard_elems`` sets the shard size).  An empty primary input
returns the reference result without a launch
(:meth:`~repro.primitives.opspec.OpDescriptor.run`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.primitives.common import PrimitiveResult
from repro.primitives.opspec import get_op
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds"]


def ds(
    op: str,
    *args,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    config: Optional[DSConfig] = None,
    **kwargs,
) -> PrimitiveResult:
    """Run the DS primitive named ``op`` on ``args``.

    ``op`` is a registry name (``"compact"``, ``"unique"``,
    ``"ds_partition"``, ...); ``args``/``kwargs`` are the primitive's
    data arguments (e.g. ``ds("compact", values, 0)``); ``config``
    carries the tuning (:class:`~repro.config.DSConfig`).  Returns the
    primitive's :class:`~repro.primitives.common.PrimitiveResult`
    (an always-done :class:`repro.Future`).
    """
    desc = get_op(op)
    config = config if config is not None else DEFAULT_CONFIG
    if args:
        from repro.stream.engine import is_out_of_core, stream_run
        from repro.stream.source import as_source

        source = as_source(args[0], site="repro.ds")
        if is_out_of_core(source):
            return stream_run([(desc, tuple(args[1:]), dict(kwargs))],
                              source, stream=stream, config=config)
        args = (source.materialize(),) + args[1:]
    return desc.run(*args, stream=stream, config=config, **kwargs)
