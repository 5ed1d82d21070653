"""Seeded inputs for the three workloads, with their expected outputs.

Everything here is a pure function of the seed and the :class:`Scale`.
The program under test only ever sees the arrays built here; the
expected bytes come from :mod:`repro.reference`, the NumPy oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.core.predicates import less_than
from repro.reference import (compact_ref, partition_ref, remove_if_ref,
                             unique_ref)

# A small alphabet so runs (and therefore unique's work) exist, with
# NaN and -0.0 so a byte-exact check sees sign and NaN placement.
ALPHABET = np.array([0.0, -0.0, 1.0, 2.0, 3.0, np.nan], dtype=np.float32)
THRESHOLD = 2.0

# wg_size 256 with coarsening 16 for float32 gives a 4096-element tile.
WG_SIZE = 256
TILE = 4096

CHAINS = {
    "compact_unique": (("compact", 0.0), "unique"),
    "remove_if_unique": (("remove_if", less_than(THRESHOLD)), "unique"),
    "partition": (("partition", less_than(THRESHOLD)),),
    "compact": (("compact", 0.0),),
}
SMALL_MIX = ("compact_unique", "remove_if_unique", "partition")
BULK_PIPELINE = ("compact_unique", "remove_if_unique")
BULK_DS = ("partition", "compact")
STREAM_CHAIN = "compact_unique"


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    small_min: int = 256
    small_max: int = 16384
    small_strata: int = 24
    small_boundaries: Tuple[int, ...] = (
        WG_SIZE, WG_SIZE + 1, 4 * WG_SIZE, TILE - 1, TILE, TILE + 1,
        2 * TILE, 4 * TILE)
    small_pool: int = 600
    empty_every: int = 100
    bulk_sizes: Tuple[int, ...] = (262144, 524289, 1048575)
    stream_shards: int = 8
    shard_elems: int = 1 << 20


FULL = Scale()
TINY = Scale(small_min=16, small_max=512, small_strata=4,
             small_boundaries=(WG_SIZE, WG_SIZE + 1), small_pool=40,
             empty_every=10, bulk_sizes=(5000, 9000), stream_shards=3,
             shard_elems=4096)


@dataclass
class Request:
    """One request: an op chain over one input and its expected bytes."""

    rid: int
    chain: str
    values: np.ndarray
    expected: np.ndarray
    kind: str = "chain"  # "chain" (Pipeline/front door) or "ds" (single op)

    @property
    def ops(self) -> tuple:
        return CHAINS[self.chain]

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple:
        return (self.kind, self.chain, self.size)


@dataclass
class StreamJob:
    """The memmapped part of ``bulk_chain``."""

    path: Path
    chain: str
    n: int
    expected: np.ndarray
    source: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def ops(self) -> tuple:
        return CHAINS[self.chain]

    @property
    def size(self) -> int:
        return self.n

    @property
    def shape(self) -> tuple:
        return ("stream", self.chain, self.n)

    def open(self) -> np.ndarray:
        if self.source is None:
            self.source = np.load(self.path, mmap_mode="r")
        return self.source


def reference(chain: str, values: np.ndarray) -> np.ndarray:
    """The oracle output of ``chain`` on ``values`` (NumPy only)."""
    out = values
    for item in CHAINS[chain]:
        name, *args = (item,) if isinstance(item, str) else item
        if name == "compact":
            out = compact_ref(out, args[0])
        elif name == "unique":
            out = unique_ref(out)
        elif name == "remove_if":
            out = remove_if_ref(out, args[0])
        elif name == "partition":
            out = partition_ref(out, args[0])[0]
        else:  # pragma: no cover - CHAINS is closed
            raise ValueError(name)
    return out


def run_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` float32 values from ALPHABET in runs of mean length ~3."""
    # n runs of length >= 1 always cover n elements.
    runs = rng.geometric(0.35, n)
    picks = ALPHABET[rng.integers(0, ALPHABET.size, n)]
    return np.repeat(picks, runs)[:n].copy()


def small_sizes(rng: np.random.Generator, scale: Scale) -> List[int]:
    """Stratified log-uniform sizes in [small_min, small_max] (one per
    stratum, so the size mix barely moves between seeds) plus the
    work-group and tile boundary sizes."""
    lo, hi = math.log(scale.small_min), math.log(scale.small_max)
    step = (hi - lo) / scale.small_strata
    drawn = [int(round(math.exp(lo + (i + rng.random()) * step)))
             for i in range(scale.small_strata)]
    return sorted(set(drawn) | set(scale.small_boundaries))


def small_traffic(seed: int, scale: Scale = FULL) -> List[Request]:
    """The shared serve/fleet request pool.  Every ``empty_every``-th
    request carries an empty array, which every front door accepts."""
    rng = np.random.default_rng([seed, 1])
    sizes = small_sizes(rng, scale)
    # Every (chain, size) shape appears equally often, so the seed moves
    # values and order but not the mix.
    shapes = [(c, n) for c in SMALL_MIX for n in sizes]
    per_shape = max(1, scale.small_pool // len(shapes))
    slots = [shapes[i % len(shapes)] for i in range(per_shape * len(shapes))]
    pool = []
    for rid, k in enumerate(rng.permutation(len(slots))):
        chain, n = slots[k]
        if rid % scale.empty_every == scale.empty_every - 1:
            n = 0
        values = run_values(rng, n)
        pool.append(Request(rid, chain, values, reference(chain, values)))
    return pool


def bulk_jobs(seed: int, scale: Scale = FULL) -> List[Request]:
    """One round of resident jobs: each size through each fused
    Pipeline chain and each single ``repro.ds`` op."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for n in scale.bulk_sizes:
        values = run_values(rng, n)
        for chain in BULK_PIPELINE:
            jobs.append(Request(len(jobs), chain, values,
                                reference(chain, values)))
        for chain in BULK_DS:
            jobs.append(Request(len(jobs), chain, values,
                                reference(chain, values), kind="ds"))
    return jobs


def stream_job(seed: int, out_dir: Path, scale: Scale = FULL) -> StreamJob:
    """Write the memmapped input (``stream_shards`` default shards)."""
    rng = np.random.default_rng([seed, 3])
    n = scale.stream_shards * scale.shard_elems
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"stream-{seed}.npy"
    mm = np.lib.format.open_memmap(path, mode="w+", dtype=np.float32,
                                   shape=(n,))
    for start in range(0, n, scale.shard_elems):
        stop = min(n, start + scale.shard_elems)
        mm[start:stop] = run_values(rng, stop - start)
    mm.flush()
    expected = reference(STREAM_CHAIN, np.asarray(mm))
    del mm
    return StreamJob(path, STREAM_CHAIN, n, expected)
