"""Exception hierarchy for the ``repro`` package.

Every error raised by the simulator, the Data Sliding core, or the
performance model derives from :class:`ReproError`, so callers can catch
all library failures with a single ``except`` clause while still being
able to distinguish the interesting sub-cases:

* :class:`DeadlockError` — the cooperative scheduler detected that every
  resident work-group is spinning and no forward progress is possible.
  This is the failure mode the paper's dynamic work-group ID allocation
  (Figure 4) exists to prevent.
* :class:`DataRaceError` — a global-memory location was overwritten
  before a work-group that still had to read it got to load it.  This is
  the hazard the adjacent work-group synchronization (Figures 3 and 7)
  exists to prevent; it is only raised when race tracking is enabled on
  a buffer (see :class:`repro.simgpu.buffers.Buffer`).
* :class:`LaunchError` — a kernel was launched with inconsistent
  parameters (zero-sized grid, work-group size above the device limit,
  coarsening beyond on-chip capacity when strict mode is requested, ...).
* :class:`ResourceError` — a kernel requested more scratchpad or more
  registers (modelled via the coarsening factor) than the device offers.
* :class:`ModelError` — the performance model was queried with an
  unknown device, a negative byte count, or an otherwise meaningless
  configuration.
* :class:`ServeError` and its typed sub-cases (:class:`Overloaded`,
  :class:`DeadlineExceeded`, :class:`RequestCancelled`) — failures of
  the :mod:`repro.serve` micro-batching service layer.  They are typed
  so callers can implement backpressure (retry-later on
  ``Overloaded``) without string-matching messages.
* :class:`ConfigError` — a configuration value that came from outside
  the program (an environment variable) is malformed or names a
  removed knob.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulatorError",
    "DeadlockError",
    "DataRaceError",
    "LaunchError",
    "ResourceError",
    "ModelError",
    "WorkloadError",
    "ConfigError",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "RequestCancelled",
    "FleetError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class SimulatorError(ReproError):
    """Base class for errors raised by the :mod:`repro.simgpu` substrate."""


class DeadlockError(SimulatorError):
    """All resident work-groups are spinning; no progress is possible.

    Attributes
    ----------
    waiting:
        Hardware slot indices of the work-groups that were blocked when
        the deadlock was detected.
    steps:
        Number of scheduler steps executed before detection.
    """

    def __init__(self, message: str, *, waiting: tuple[int, ...] = (), steps: int = 0):
        super().__init__(message)
        self.waiting = waiting
        self.steps = steps


class DataRaceError(SimulatorError):
    """A memory location was stored before its pending reader loaded it.

    Attributes
    ----------
    index:
        Flat element index of the first clobbered location.
    writer:
        Identifier of the work-group performing the offending store.
    """

    def __init__(self, message: str, *, index: int = -1, writer: int = -1):
        super().__init__(message)
        self.index = index
        self.writer = writer


class LaunchError(SimulatorError):
    """A kernel launch was requested with inconsistent parameters."""


class ResourceError(SimulatorError):
    """A kernel exceeds the on-chip resources of the target device."""


class ModelError(ReproError):
    """The performance model received a meaningless configuration."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class ConfigError(ReproError, ValueError):
    """A configuration read from the environment is malformed or names
    a knob that no longer exists.  A :class:`ValueError` too, so callers
    that catch bad config values keep working."""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


class Overloaded(ServeError):
    """Admission control shed the request: the server is at capacity.

    Raised by :meth:`repro.serve.Server.submit` instead of letting the
    queue grow without bound.  Clients should back off and retry.

    Attributes
    ----------
    queue_depth / limit:
        The in-flight request count at rejection time and the
        configured bound it hit.
    """

    def __init__(self, message: str, *, queue_depth: int = 0, limit: int = 0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class DeadlineExceeded(ServeError):
    """The request's deadline expired before a result was produced.

    A request that expires while still queued is *never* executed; its
    future raises this error instead.
    """


class RequestCancelled(ServeError):
    """The request was cancelled before it was dispatched to a worker."""


class FleetError(ServeError):
    """A failure of the :mod:`repro.fleet` multi-process serve cluster:
    a worker process died, a request could not cross the process
    boundary (e.g. an unrevivable predicate), or a drain timed out."""
