"""DS Partition — stable split into predicate-true and -false halves.

Section IV-D (Figure 18): elements satisfying the predicate move to the
front of the array, the rest to the tail, both halves keeping their
relative order.  Two work-item-local counters track the two classes;
*no second synchronization chain is needed for the false class*,
because the number of false elements before global position *g* is just
``g - trues_before(g)`` — the irregular kernel computes both
destinations from the single flag chain.

Flavours (matching Thrust's API surface in Figure 19):

* **out of place** — one launch: true elements to ``out_true``, false
  elements to an auxiliary buffer (``thrust::stable_partition_copy``);
* **in place** — the same launch writes true elements back into the
  input and false elements to the auxiliary buffer, then a second,
  plain copy kernel appends the auxiliary buffer to the tail.  As the
  paper observes, the in-place version gets *faster* with more true
  elements, because the copy-back shrinks.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DSConfig, UNSET, resolve_config
from repro.core.fastpath import vectorized_copy_launch
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import Predicate
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import PARTITION_EMPTY, OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.kernels import copy_kernel  # re-exported for callers
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import resolve_backend

__all__ = ["ds_partition", "copy_kernel"]


def _run_partition(
    values: np.ndarray,
    predicate: Predicate,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    in_place: bool = True,
    config: DSConfig = DSConfig(),
) -> PrimitiveResult:
    values = np.asarray(values)
    n = values.size
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values.reshape(-1), "partition_in")
    aux = Buffer(np.zeros(n, dtype=values.dtype), "partition_false")
    counters = []

    with primitive_span(
        "ds_partition", backend=config.backend, n=int(n), in_place=in_place,
        dtype=str(buf.data.dtype), wg_size=config.wg_size,
    ) as span:
        if in_place:
            result = run_irregular_ds(
                buf,
                predicate,
                stream,
                false_out=aux,
                wg_size=config.wg_size,
                coarsening=config.coarsening,
                reduction_variant=config.reduction_variant,
                scan_variant=config.scan_variant,
                backend=config.backend,
            )
            counters.append(result.counters)
            n_true, n_false = result.n_true, result.n_false
            if n_false:
                cf = result.geometry.coarsening
                if resolve_backend(config.backend) in ("vectorized", "compiled"):
                    copy_counters = vectorized_copy_launch(
                        aux, buf, n_false, 0, n_true, config.wg_size, cf,
                        stream, kernel_name="partition_copy_back",
                    )
                else:
                    tile = cf * config.wg_size
                    grid = (n_false + tile - 1) // tile
                    copy_counters = stream.launch(
                        copy_kernel,
                        grid_size=grid,
                        wg_size=config.wg_size,
                        args=(aux, buf, n_false, 0, n_true, cf),
                        kernel_name="partition_copy_back",
                    )
                counters.append(copy_counters)
            output = buf.data.copy()
        else:
            out_true = Buffer(np.zeros(n, dtype=values.dtype), "partition_true")
            result = run_irregular_ds(
                buf,
                predicate,
                stream,
                out=out_true,
                false_out=aux,
                wg_size=config.wg_size,
                coarsening=config.coarsening,
                reduction_variant=config.reduction_variant,
                scan_variant=config.scan_variant,
                backend=config.backend,
            )
            counters.append(result.counters)
            n_true, n_false = result.n_true, result.n_false
            output = np.concatenate([out_true.data[:n_true], aux.data[:n_false]])
        span.set(coarsening=result.geometry.coarsening,
                 n_workgroups=result.geometry.n_workgroups,
                 n_true=n_true, n_false=n_false)

    return PrimitiveResult(
        output=output,
        counters=counters,
        device=stream.device,
        extras={
            "n_true": n_true,
            "n_false": n_false,
            "in_place": in_place,
            "coarsening": result.geometry.coarsening,
            "n_workgroups": result.geometry.n_workgroups,
        },
    )


def ds_partition(
    values: np.ndarray,
    predicate: Predicate,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    in_place: bool = True,
    config: Optional[DSConfig] = None,
    wg_size=UNSET,
    coarsening=UNSET,
    reduction_variant=UNSET,
    scan_variant=UNSET,
    backend=UNSET,
    seed=UNSET,
) -> PrimitiveResult:
    """Stable-partition ``values`` by ``predicate``.

    ``output`` is the partitioned array (true half first);
    ``extras["n_true"]`` is the split point.  ``in_place=False`` runs
    the single-launch out-of-place variant (DS Partition out-of-place in
    Figure 19); ``in_place=True`` adds the false-tail copy-back launch.
    Tuning goes through ``config=``; the per-kwarg spellings are
    deprecated aliases.
    """
    config = resolve_config(
        "ds_partition", config, wg_size=wg_size, coarsening=coarsening,
        reduction_variant=reduction_variant, scan_variant=scan_variant,
        backend=backend, seed=seed)
    return _run_partition(values, predicate, stream, in_place=in_place,
                          config=config)


register_op(OpDescriptor(
    name="ds_partition",
    short="partition",
    kind="irregular",
    runner=_run_partition,
    params_signature=lambda args, kwargs: (
        "predicate", args[1].name,
        "in_place", bool(kwargs.get("in_place", True))),
    # Partition keeps every element (it reorders, never drops), so it
    # cannot join a survivor-mask fusion chain.
    empty_extras=PARTITION_EMPTY,
))
