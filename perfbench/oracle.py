"""Byte-exact response checking, backend identity and failure tally.

A response is right only if its output has the reference's dtype,
shape and bytes, so NaN positions and the sign of -0.0 count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

import numpy as np

PINNED_BACKEND = "vectorized"
# Kernel backends a launch can report; "degraded" (the serve layer's
# sequential fallback) and "unreported" (no launch records came back,
# as from a fleet worker) are not kernel backends.
KERNEL_BACKENDS = ("vectorized", "simulated", "compiled")


def same_bytes(output, expected: np.ndarray) -> bool:
    out = np.ascontiguousarray(output)
    exp = np.ascontiguousarray(expected)
    return (out.dtype == exp.dtype and out.shape == exp.shape
            and np.array_equal(out.view(np.uint8), exp.view(np.uint8)))


def reported_backend(results) -> str:
    """The backend a response reports through its launch records."""
    if any(r.extras.get("degraded") for r in results):
        return "degraded"
    counters = [c for r in results for c in r.counters]
    if not counters:
        return "unreported"
    if all(c.extras.get("vectorized") == 1.0 for c in counters):
        return "vectorized"
    if any(c.extras.get("compiled") == 1.0 for c in counters):
        return "compiled"
    return "simulated"


@dataclass
class Tally:
    """What one client (or one pass) saw; merged with ``+=``."""

    attempted: int = 0
    raised: int = 0
    refused: int = 0
    wrong: int = 0
    degraded: int = 0
    elements: int = 0
    latencies_s: List[float] = field(default_factory=list)
    backends: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return self.raised + self.refused + self.wrong

    @property
    def completed(self) -> int:
        return self.attempted - self.raised - self.refused

    def __iadd__(self, other: "Tally") -> "Tally":
        self.attempted += other.attempted
        self.raised += other.raised
        self.refused += other.refused
        self.wrong += other.wrong
        self.degraded += other.degraded
        self.elements += other.elements
        self.latencies_s += other.latencies_s
        self.backends += other.backends
        self.errors += other.errors
        return self

    def foreign_backends(self) -> dict:
        """Kernel backends other than the pinned one, with counts."""
        return {b: n for b, n in self.backends.items()
                if b in KERNEL_BACKENDS and b != PINNED_BACKEND}
