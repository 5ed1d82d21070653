"""``ServeConfig`` — every tuning knob of the serving layer.

Mirrors :class:`repro.config.DSConfig`: one frozen, hashable value that
travels with the server, constructible from ``REPRO_SERVE_*``
environment variables with eager validation (a malformed value raises
:class:`ValueError` naming the variable, never a deep launch failure).

The knobs fall into three groups:

* **batching policy** — ``max_batch_size`` / ``max_wait_ms`` close a
  micro-batch window on whichever trips first; ``num_workers`` sizes
  the executor pool (one :class:`~repro.simgpu.stream.Stream` each);
* **admission control** — ``max_queue_depth`` bounds the number of
  requests the server holds (queued *and* executing); beyond it,
  :meth:`~repro.serve.Server.submit` sheds with
  :class:`~repro.errors.Overloaded`.  ``default_deadline_ms`` applies
  to requests submitted without an explicit deadline;
* **robustness ring** — ``max_retries`` / ``retry_backoff_ms`` bound
  the exponential-backoff retry of transient
  :class:`~repro.errors.LaunchError`\\ s, and ``breaker_threshold`` /
  ``breaker_cooldown_ms`` parameterize the per-op circuit breaker that
  flips a failing op to the sequential baseline
  (:mod:`repro.serve.degrade`) until a cooldown re-probe succeeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from repro.config import reject_removed_env

__all__ = ["ServeConfig", "DEFAULT_SERVE_CONFIG"]


def _positive(name: str, value, *, zero_ok: bool = False) -> None:
    bound = 0 if zero_ok else 1
    if value < bound:
        raise ValueError(
            f"ServeConfig.{name} must be >= {bound}, got {value!r}")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning surface of :class:`repro.serve.Server`.

    Attributes
    ----------
    max_batch_size:
        Upper bound on requests fused into one pipeline batch.
    max_wait_ms:
        Longest a batch window stays open waiting for compatible
        requests after its first request arrives.  ``0`` dispatches
        immediately (no batching delay, batches still form from
        already-queued compatible requests).
    max_queue_depth:
        Admission bound on in-flight requests (queued + executing).
    num_workers:
        Executor threads; each owns one stream on the server's device.
    default_deadline_ms:
        Deadline applied when ``submit`` is not given one; ``None``
        means no deadline.
    max_retries:
        Fast-path retries per batch on transient launch errors.
    retry_backoff_ms:
        Base backoff; attempt *k* sleeps ``retry_backoff_ms * 2**k``.
    breaker_threshold:
        Consecutive fast-path failures (per op chain) that open the
        circuit breaker.
    breaker_cooldown_ms:
        Open time before a single half-open probe is allowed.
    seed:
        Base scheduling seed; worker *i* uses ``seed + i``.
    flight_capacity:
        Ring size of the server's always-on flight recorder (spans and
        events retained for incident bundles); ``0`` disables the
        recorder entirely (the overhead-check baseline).
    incident_dir:
        Directory incident bundles are written to on a trigger
        (breaker-open, deadline, launch error, SLO breach).  ``None``
        disables dumping — the ring still records.
    incident_cooldown_ms:
        Minimum gap between two bundles for the same trigger, so a
        failure storm produces one bundle per window, not thousands.
    slo_ms:
        Latency objective; a completed request slower than this fires
        the ``slo_breach`` incident trigger.  ``None`` disables it.
    event_log:
        Path for the structured JSONL event log
        (:mod:`repro.obs.log`); ``None`` keeps events in memory only
        (they still reach incident bundles via the flight recorder).
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    num_workers: int = 2
    default_deadline_ms: Optional[float] = None
    max_retries: int = 2
    retry_backoff_ms: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 50.0
    seed: int = 0
    flight_capacity: int = 4096
    incident_dir: Optional[str] = None
    incident_cooldown_ms: float = 1000.0
    slo_ms: Optional[float] = None
    event_log: Optional[str] = None

    def __post_init__(self) -> None:
        _positive("max_batch_size", int(self.max_batch_size))
        _positive("max_queue_depth", int(self.max_queue_depth))
        _positive("num_workers", int(self.num_workers))
        _positive("breaker_threshold", int(self.breaker_threshold))
        _positive("max_wait_ms", float(self.max_wait_ms), zero_ok=True)
        _positive("max_retries", int(self.max_retries), zero_ok=True)
        _positive("retry_backoff_ms", float(self.retry_backoff_ms),
                  zero_ok=True)
        _positive("breaker_cooldown_ms", float(self.breaker_cooldown_ms),
                  zero_ok=True)
        _positive("flight_capacity", int(self.flight_capacity),
                  zero_ok=True)
        _positive("incident_cooldown_ms", float(self.incident_cooldown_ms),
                  zero_ok=True)
        if (self.default_deadline_ms is not None
                and float(self.default_deadline_ms) <= 0):
            raise ValueError(
                "ServeConfig.default_deadline_ms must be positive or None, "
                f"got {self.default_deadline_ms!r}")
        if self.slo_ms is not None and float(self.slo_ms) <= 0:
            raise ValueError(
                "ServeConfig.slo_ms must be positive or None, "
                f"got {self.slo_ms!r}")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)

    @classmethod
    def from_env(cls, environ=None) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` environment variables.

        Recognized: ``REPRO_SERVE_BATCH_SIZE``, ``REPRO_SERVE_WAIT_MS``,
        ``REPRO_SERVE_QUEUE_DEPTH``, ``REPRO_SERVE_WORKERS``,
        ``REPRO_SERVE_DEADLINE_MS``, ``REPRO_SERVE_RETRIES``,
        ``REPRO_SERVE_BACKOFF_MS``, ``REPRO_SERVE_BREAKER_THRESHOLD``,
        ``REPRO_SERVE_BREAKER_COOLDOWN_MS``, ``REPRO_SERVE_SEED``,
        ``REPRO_SERVE_FLIGHT_CAPACITY``, ``REPRO_SERVE_INCIDENT_DIR``,
        ``REPRO_SERVE_INCIDENT_COOLDOWN_MS``, ``REPRO_SERVE_SLO_MS``,
        and ``REPRO_SERVE_EVENT_LOG``.  Malformed values raise
        :class:`ValueError` naming the variable; a set
        ``REPRO_SHARD_WORKERS`` raises :class:`~repro.errors.ConfigError`
        (:func:`repro.config.reject_removed_env`).
        """
        env = os.environ if environ is None else environ
        reject_removed_env(env)

        def _get(name):
            raw = env.get(name, "")
            return raw.strip() or None

        def _str(name):
            return _get(name)

        def _int(name):
            raw = _get(name)
            try:
                return int(raw)
            except ValueError:
                raise ValueError(
                    f"{name}={raw!r}: expected an integer") from None

        def _float(name):
            raw = _get(name)
            try:
                return float(raw)
            except ValueError:
                raise ValueError(
                    f"{name}={raw!r}: expected a number") from None

        kwargs = {}
        spec = [
            ("REPRO_SERVE_BATCH_SIZE", "max_batch_size", _int),
            ("REPRO_SERVE_WAIT_MS", "max_wait_ms", _float),
            ("REPRO_SERVE_QUEUE_DEPTH", "max_queue_depth", _int),
            ("REPRO_SERVE_WORKERS", "num_workers", _int),
            ("REPRO_SERVE_DEADLINE_MS", "default_deadline_ms", _float),
            ("REPRO_SERVE_RETRIES", "max_retries", _int),
            ("REPRO_SERVE_BACKOFF_MS", "retry_backoff_ms", _float),
            ("REPRO_SERVE_BREAKER_THRESHOLD", "breaker_threshold", _int),
            ("REPRO_SERVE_BREAKER_COOLDOWN_MS", "breaker_cooldown_ms",
             _float),
            ("REPRO_SERVE_SEED", "seed", _int),
            ("REPRO_SERVE_FLIGHT_CAPACITY", "flight_capacity", _int),
            ("REPRO_SERVE_INCIDENT_DIR", "incident_dir", _str),
            ("REPRO_SERVE_INCIDENT_COOLDOWN_MS", "incident_cooldown_ms",
             _float),
            ("REPRO_SERVE_SLO_MS", "slo_ms", _float),
            ("REPRO_SERVE_EVENT_LOG", "event_log", _str),
        ]
        for var, field_name, parse in spec:
            if _get(var):
                kwargs[field_name] = parse(var)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            # Re-tag the field-level message with the variable name the
            # bad value came from, so operators can fix the right knob.
            field_to_var = {f: v for v, f, _ in spec}
            for field_name, var in field_to_var.items():
                if f"ServeConfig.{field_name}" in str(exc):
                    raise ValueError(
                        f"{var}: {exc}") from None
            raise


DEFAULT_SERVE_CONFIG = ServeConfig()
