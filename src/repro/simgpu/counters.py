"""Per-launch statistics aggregated by the scheduler.

:class:`LaunchCounters` is the simulator's measurement output: one record
per kernel launch, holding everything the performance model needs to
price the launch on a given device (bytes and transactions moved, atomic
operations, spins, barriers, grid geometry, peak residency).  Tests also
use it to assert structural properties of the algorithms, for example
that the regular DS kernel touches each input element exactly once in
each direction, or that the Thrust-style pipeline really performs the
extra passes the paper blames for its slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

__all__ = ["LaunchCounters", "launch_backend"]


@dataclass
class LaunchCounters:
    """Aggregated event statistics for one kernel launch."""

    kernel_name: str = "kernel"
    grid_size: int = 0
    wg_size: int = 0

    bytes_loaded: int = 0
    bytes_stored: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    local_bytes: int = 0

    n_loads: int = 0
    n_stores: int = 0
    n_atomics: int = 0
    n_barriers: int = 0
    n_spins: int = 0

    steps: int = 0
    completed_wgs: int = 0
    peak_resident: int = 0

    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def bytes_moved(self) -> int:
        """Total global-memory traffic (loads + stores)."""
        return self.bytes_loaded + self.bytes_stored

    @property
    def transactions(self) -> int:
        return self.load_transactions + self.store_transactions

    def merge(self, other: "LaunchCounters") -> "LaunchCounters":
        """Combine two launches (used to total a multi-kernel pipeline)."""
        merged = LaunchCounters(
            kernel_name=f"{self.kernel_name}+{other.kernel_name}",
            grid_size=self.grid_size + other.grid_size,
            wg_size=max(self.wg_size, other.wg_size),
            bytes_loaded=self.bytes_loaded + other.bytes_loaded,
            bytes_stored=self.bytes_stored + other.bytes_stored,
            load_transactions=self.load_transactions + other.load_transactions,
            store_transactions=self.store_transactions + other.store_transactions,
            local_bytes=self.local_bytes + other.local_bytes,
            n_loads=self.n_loads + other.n_loads,
            n_stores=self.n_stores + other.n_stores,
            n_atomics=self.n_atomics + other.n_atomics,
            n_barriers=self.n_barriers + other.n_barriers,
            n_spins=self.n_spins + other.n_spins,
            steps=self.steps + other.steps,
            completed_wgs=self.completed_wgs + other.completed_wgs,
            peak_resident=max(self.peak_resident, other.peak_resident),
        )
        merged.extras.update(self.extras)
        merged.extras.update(other.extras)
        return merged

    def to_dict(self) -> dict:
        """Plain-JSON form (benchmark reports, trace attachments)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if f.name == "extras" else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LaunchCounters":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so old
        readers survive new fields."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known and k != "extras"}
        rec = cls(**kwargs)
        rec.extras.update(data.get("extras", {}))
        return rec

    def summary(self) -> str:
        """One-line human-readable digest (used by example scripts)."""
        return (
            f"{self.kernel_name}: {self.grid_size} wgs x {self.wg_size} wi, "
            f"{self.bytes_moved / 1e6:.2f} MB moved "
            f"({self.load_transactions}+{self.store_transactions} txns), "
            f"{self.n_atomics} atomics, {self.n_spins} spins, "
            f"peak residency {self.peak_resident}"
        )


def launch_backend(counters: Iterable[LaunchCounters]) -> Optional[str]:
    """The kernel backend that ran a response's launches, read from
    their records: ``"compiled"``, ``"vectorized"`` or ``"simulated"``,
    or ``None`` when no launch ran (a degraded response).  A compiled
    request that fell back without Numba launches on the vectorized
    path, so it reads as ``"vectorized"``."""
    kinds = {"compiled" if c.extras.get("compiled") == 1.0
             else "vectorized" if c.extras.get("vectorized") == 1.0
             else "simulated" for c in counters}
    return "+".join(sorted(kinds)) or None
