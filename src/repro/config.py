"""``DSConfig`` — the one tuning surface every DS primitive accepts.

Historically each ``ds_*`` entry point repeated the same sprawling
kwarg list (``wg_size``, ``coarsening``, ``reduction_variant``,
``scan_variant``, ``race_tracking``, ``backend``, ``seed``).  This
module replaces that with a single frozen :class:`DSConfig` value:

* every primitive (and :class:`repro.pipeline.Pipeline`) accepts
  ``config: DSConfig | None``;
* the old per-primitive kwargs survive as **deprecated aliases** that
  emit a :class:`DeprecationWarning` (one warning per call, naming
  every legacy kwarg used) and are checked for conflicts against an
  explicitly passed ``config``;
* :meth:`DSConfig.from_env` builds a config from the ``REPRO_*``
  environment variables, so batch jobs can retune without code changes.

``DSConfig`` is hashable (frozen dataclass), which is what lets the
pipeline's plan cache key plans by configuration.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.errors import ConfigError, LaunchError
from repro.simgpu.vectorized import resolve_backend

__all__ = ["DSConfig", "UNSET", "resolve_config", "DEFAULT_CONFIG"]


class _Unset:
    """Sentinel default of the deprecated tuning kwargs."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNSET>"

    def __bool__(self) -> bool:
        return False


UNSET = _Unset()
"""Marker distinguishing "kwarg not passed" from any real value."""

_VARIANT_FIELDS = ("reduction_variant", "scan_variant")

# Kept in sync with repro.collectives (wg_reduce / SCAN_VARIANTS); listed
# here so from_env can validate without importing the collectives layer.
_REDUCTION_VARIANTS = ("tree", "shuffle")
_SCAN_VARIANTS = ("tree", "ballot", "shuffle", "lookback")

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def reject_removed_env(env) -> None:
    """Raise :class:`~repro.errors.ConfigError` if ``env`` sets a
    variable whose knob was removed.  The value comes from outside the
    program, so it is rejected rather than silently ignored."""
    if env.get("REPRO_SHARD_WORKERS", "").strip():
        raise ConfigError(
            "REPRO_SHARD_WORKERS is set, but the shard worker pool "
            "(shard_workers) was removed: it lost to sequential streaming "
            "at every measured size, and out-of-core inputs now always "
            "stream in-process; unset the variable")


def _env_int(name: str, raw: str, minimum: Optional[int] = None) -> int:
    """Parse one integer environment value, naming the variable on error."""
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r}: expected an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}={raw!r}: expected an integer >= {minimum}")
    return value


def _env_bool(name: str, raw: str) -> bool:
    value = _BOOL_STRINGS.get(raw.lower())
    if value is None:
        raise ValueError(
            f"{name}={raw!r}: expected one of "
            f"{sorted(_BOOL_STRINGS)} (a boolean)")
    return value


def _env_choice(name: str, raw: str, choices: tuple) -> str:
    if raw not in choices:
        raise ValueError(f"{name}={raw!r}: expected one of {choices}")
    return raw


@dataclass(frozen=True)
class DSConfig:
    """Execution configuration shared by every DS primitive.

    Attributes
    ----------
    wg_size:
        Work-group size (lanes per group).
    coarsening:
        Elements per work-item; ``None`` lets
        :func:`repro.core.coarsening.launch_geometry` pick the
        occupancy-driven value.
    reduction_variant / scan_variant:
        Work-group collective implementations (``"tree"``, the
        warp-optimized variants, or the single-pass ``"lookback"``
        scan — see :mod:`repro.collectives`).
    race_tracking:
        Arm the read-before-overwrite tracker (forces the simulated
        backend; supported by the in-place primitives).
    backend:
        ``"simulated"``, ``"vectorized"``, ``"compiled"`` (Numba JIT,
        degrading to ``"vectorized"`` when Numba is unusable), or
        ``None`` to defer to the ``REPRO_BACKEND`` environment
        variable at call time.
    seed:
        Base scheduling seed for streams the primitive creates itself.
    shard_elems:
        Streaming shard size in elements — the configured device
        capacity the out-of-core engine (:mod:`repro.stream`) splits
        inputs into; ``None`` uses
        :data:`repro.stream.engine.DEFAULT_SHARD_ELEMS`.
    double_buffer:
        Overlap the next shard's load with the current shard's compute
        in the sequential streaming engine.
    """

    wg_size: int = 256
    coarsening: Optional[int] = None
    reduction_variant: str = "tree"
    scan_variant: str = "tree"
    race_tracking: bool = False
    backend: Optional[str] = None
    seed: int = 0
    shard_elems: Optional[int] = None
    double_buffer: bool = True

    def __post_init__(self) -> None:
        if int(self.wg_size) <= 0:
            raise LaunchError(f"wg_size must be positive, got {self.wg_size}")
        if self.coarsening is not None and int(self.coarsening) <= 0:
            raise LaunchError(
                f"coarsening must be positive or None, got {self.coarsening}")
        if self.shard_elems is not None and int(self.shard_elems) <= 0:
            raise LaunchError(
                f"shard_elems must be positive or None, got {self.shard_elems}")
        if self.backend is not None:
            # Normalize shorthands eagerly so configs compare (and hash)
            # by meaning: DSConfig(backend="vec") == DSConfig(backend="vectorized").
            object.__setattr__(self, "backend", resolve_backend(self.backend))

    def replace(self, **changes) -> "DSConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)

    def resolved_backend(self) -> str:
        """The backend this config executes on, env override applied."""
        return resolve_backend(self.backend)

    @classmethod
    def from_env(cls, environ=None) -> "DSConfig":
        """Build a config from the ``REPRO_*`` environment variables.

        Recognized (unset variables keep the field default):
        ``REPRO_WG_SIZE``, ``REPRO_COARSENING``,
        ``REPRO_REDUCTION_VARIANT``, ``REPRO_SCAN_VARIANT``,
        ``REPRO_RACE_TRACKING`` (0/1/true/false), ``REPRO_BACKEND``,
        ``REPRO_SEED``, ``REPRO_SHARD_ELEMS`` (>= 1),
        ``REPRO_SHARD_DOUBLE_BUFFER`` (boolean).  A malformed value
        raises :class:`ValueError` naming the offending variable
        immediately, instead of failing deep inside a later kernel
        launch; a set ``REPRO_SHARD_WORKERS`` raises
        :class:`~repro.errors.ConfigError` (see :func:`reject_removed_env`).

        **Tuned resolution mode**: ``REPRO_TUNED=1`` additionally
        consults the autotuner database (``REPRO_TUNING_DB``, default
        ``benchmarks/results/TUNING_DB.json``) and fills in the
        per-backend ``default|`` knob set recorded by ``python -m repro
        tune --set-default`` — but only for fields *not* pinned by an
        explicit ``REPRO_*`` variable, so the precedence stays
        explicit env > tuned DB > dataclass default.  A missing DB is
        fine (nothing tuned yet); a malformed one raises the usual
        :class:`~repro.errors.ReproError` naming the file.
        """
        env = os.environ if environ is None else environ
        reject_removed_env(env)

        def _get(name):
            raw = env.get(name, "")
            return raw.strip() or None

        kwargs = {}
        if _get("REPRO_WG_SIZE"):
            kwargs["wg_size"] = _env_int("REPRO_WG_SIZE", _get("REPRO_WG_SIZE"),
                                         minimum=1)
        if _get("REPRO_COARSENING"):
            kwargs["coarsening"] = _env_int(
                "REPRO_COARSENING", _get("REPRO_COARSENING"), minimum=1)
        if _get("REPRO_REDUCTION_VARIANT"):
            kwargs["reduction_variant"] = _env_choice(
                "REPRO_REDUCTION_VARIANT", _get("REPRO_REDUCTION_VARIANT"),
                _REDUCTION_VARIANTS)
        if _get("REPRO_SCAN_VARIANT"):
            kwargs["scan_variant"] = _env_choice(
                "REPRO_SCAN_VARIANT", _get("REPRO_SCAN_VARIANT"),
                _SCAN_VARIANTS)
        if _get("REPRO_RACE_TRACKING"):
            kwargs["race_tracking"] = _env_bool(
                "REPRO_RACE_TRACKING", _get("REPRO_RACE_TRACKING"))
        if _get("REPRO_BACKEND"):
            raw = _get("REPRO_BACKEND")
            try:
                kwargs["backend"] = resolve_backend(raw)
            except LaunchError as exc:
                raise ValueError(f"REPRO_BACKEND={raw!r}: {exc}") from None
        if _get("REPRO_SEED"):
            kwargs["seed"] = _env_int("REPRO_SEED", _get("REPRO_SEED"))
        if _get("REPRO_SHARD_ELEMS"):
            kwargs["shard_elems"] = _env_int(
                "REPRO_SHARD_ELEMS", _get("REPRO_SHARD_ELEMS"), minimum=1)
        if _get("REPRO_SHARD_DOUBLE_BUFFER"):
            kwargs["double_buffer"] = _env_bool(
                "REPRO_SHARD_DOUBLE_BUFFER", _get("REPRO_SHARD_DOUBLE_BUFFER"))
        if _get("REPRO_TUNED") and _env_bool("REPRO_TUNED",
                                             _get("REPRO_TUNED")):
            kwargs = cls._apply_tuned_defaults(kwargs, env)
        return cls(**kwargs)

    @staticmethod
    def _apply_tuned_defaults(kwargs: dict, env) -> dict:
        """Fill ``kwargs`` from the tuning DB's per-backend ``default|``
        entry, without overriding fields the environment pinned."""
        from repro.simgpu.vectorized import resolve_backend as _resolve
        from repro.tune.db import KERNEL_CONFIG_KNOBS, TuningDB

        path = (env.get("REPRO_TUNING_DB", "").strip()
                or "benchmarks/results/TUNING_DB.json")
        db = TuningDB.load(path)
        backend = _resolve(kwargs.get("backend"))
        tuned = db.default_knobs(backend)
        if not tuned:
            return kwargs
        for name in KERNEL_CONFIG_KNOBS:
            if name in tuned and name not in kwargs:
                kwargs[name] = tuned[name]
        return kwargs


DEFAULT_CONFIG = DSConfig()

_FIELD_NAMES = tuple(f.name for f in fields(DSConfig))


def resolve_config(
    primitive: str,
    config: Optional[DSConfig],
    **legacy,
) -> DSConfig:
    """Merge a ``config`` argument with deprecated per-kwarg spellings.

    ``legacy`` maps field names to the values the caller passed (or
    :data:`UNSET` when the kwarg was omitted).  Any kwarg actually
    passed emits **one** :class:`DeprecationWarning` per call naming
    every legacy kwarg used.  When an explicit ``config`` is also
    given, each legacy value must agree with the config field —
    a mismatch raises :class:`~repro.errors.LaunchError` rather than
    silently preferring one spelling.
    """
    passed = {}
    for name, value in legacy.items():
        if name not in _FIELD_NAMES:
            raise LaunchError(
                f"{primitive}: unknown tuning kwarg {name!r}")
        if value is not UNSET:
            passed[name] = value
    if not passed:
        return config if config is not None else DEFAULT_CONFIG
    names = ", ".join(sorted(passed))
    spelled = ", ".join(f"{n}=..." for n in sorted(passed))
    warnings.warn(
        f"{primitive}: the tuning kwargs ({names}) are deprecated; "
        f"pass config=DSConfig({spelled}) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    if config is None:
        return DSConfig(**passed)
    merged = config.replace(**passed)
    if merged != config:
        conflicts = [n for n in passed
                     if getattr(merged, n) != getattr(config, n)]
        raise LaunchError(
            f"{primitive}: legacy kwarg(s) {sorted(conflicts)} conflict with "
            f"the explicit config= value; drop the legacy spelling(s)")
    return config
