"""Fleet tier: a multi-process serve cluster behind one front door.

The single-process :mod:`repro.serve` tier scales until one Python
process is the bottleneck; this package is the next step up.  A
:class:`Fleet` forks worker processes — each a full micro-batching
:class:`~repro.serve.Server` — and routes requests by consistent-hashing
their batch key (:class:`~repro.fleet.hashring.HashRing`, bounded
loads), so identical traffic always lands on a warm plan cache.
Payloads ride the worker queues by value
(:mod:`repro.fleet.transport`); worker health rolls up into one fleet
view (:meth:`Fleet.stats`, :mod:`repro.obs.rollup`); an autoscaler
(:mod:`repro.fleet.autoscaler`) grows and drains the pool with
hysteresis while the warm-key registry re-primes whatever worker
inherits a migrated key; and flight-recorder incident bundles replay
deterministically (:mod:`repro.fleet.replay`, ``python -m repro
replay``).

Quick start::

    from repro.fleet import Fleet, FleetConfig

    with Fleet(FleetConfig(n_workers=3)) as fleet:
        fut = fleet.submit_chain([("compact", 0.0), "unique"], data)
        print(fut.result().output)
        print(fleet.stats()["rollup"]["plan_cache.hit_rate"])

See docs/fleet.md for the architecture walk-through.
"""

from repro.fleet.autoscaler import Autoscaler, TickSnapshot
from repro.fleet.config import DEFAULT_FLEET_CONFIG, FleetConfig
from repro.fleet.fleet import Fleet, FleetFuture
from repro.fleet.hashring import HashRing
from repro.fleet.loadgen import (FleetLoadReport, check_fleet_report,
                                 run_fleet_check, run_fleet_load)
from repro.fleet.replay import (check_replay, load_bundle, plan_replay,
                                run_replay)

__all__ = [
    "Fleet",
    "FleetFuture",
    "FleetConfig",
    "DEFAULT_FLEET_CONFIG",
    "HashRing",
    "Autoscaler",
    "TickSnapshot",
    "FleetLoadReport",
    "run_fleet_load",
    "run_fleet_check",
    "check_fleet_report",
    "load_bundle",
    "plan_replay",
    "run_replay",
    "check_replay",
]
