"""Per-launch statistics aggregated by the scheduler.

:class:`LaunchCounters` is the simulator's measurement output: one record
per kernel launch, holding everything the performance model needs to
price the launch on a given device (bytes and transactions moved, atomic
operations, spins, barriers, grid geometry, peak residency).  Tests also
use it to assert structural properties of the algorithms, for example
that the regular DS kernel touches each input element exactly once in
each direction, or that the Thrust-style pipeline really performs the
extra passes the paper blames for its slowdown.

The fast backends fill the byte and transaction fields lazily: a launch
attaches a :class:`Derivation` holding its closed-form arithmetic and
the per-round survivor counts it needs (O(grid), captured by value), and
the fields are derived the first time anything reads them.  Serve and
fleet traffic never reads them, so it never pays for them; every reader
that does sees exactly the values an eager launch would have stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, Optional

__all__ = ["LaunchCounters", "Derivation", "DERIVED_FIELDS", "launch_backend"]

DERIVED_FIELDS = ("bytes_loaded", "bytes_stored",
                  "load_transactions", "store_transactions")
"""The :class:`LaunchCounters` fields a fast-path launch may defer."""


class Derivation:
    """A memoized closed-form derivation, evaluated on first call.

    Holds ``fn`` and its arguments until the first call, then only the
    resulting dict.  The arguments must be values (per-round counts,
    itemsizes, flags), never live buffers, so a later launch that
    rewrites the same buffers cannot change what an earlier one reports.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, fn: Callable[..., dict], *args, **kwargs) -> None:
        self._pending = (fn, args, kwargs)
        self._values: Optional[dict] = None

    def __call__(self) -> dict:
        pending = self._pending  # one read: safe against a racing caller
        if pending is not None:
            fn, args, kwargs = pending
            self._values = fn(*args, **kwargs)
            self._pending = None
        return self._values


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

    def defer(self, derivation: Derivation) -> "LaunchCounters":
        """Leave the :data:`DERIVED_FIELDS` to ``derivation``, evaluated
        the first time one of them is read.  Fields set explicitly after
        this call keep their assigned values."""
        for name in DERIVED_FIELDS:
            self.__dict__.pop(name, None)
        self.__dict__["_derivation"] = derivation
        return self

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance, which
        # for the derived fields means a pending derivation.
        if name in DERIVED_FIELDS:
            derivation = self.__dict__.get("_derivation")
            if derivation is not None:
                values = derivation()
                for field_name in DERIVED_FIELDS:
                    self.__dict__.setdefault(field_name, values[field_name])
                self.__dict__.pop("_derivation", None)
            if name in self.__dict__:
                return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self) -> dict:
        # Pickled records (pool results) carry plain values.
        for name in DERIVED_FIELDS:
            getattr(self, name)  # settles any pending derivation
        state = dict(self.__dict__)
        state.pop("_derivation", None)
        return state

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


# The derived fields live only in the instance dict, so a deferred one is
# genuinely missing and __getattr__ runs; a class-level default would
# shadow it.  The generated __init__ already holds its own defaults.
for _name in DERIVED_FIELDS:
    delattr(LaunchCounters, _name)
del _name


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
