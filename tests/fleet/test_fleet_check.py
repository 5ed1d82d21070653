"""``fleet --check`` reports rates over its timed healthy phase only."""

import pytest

from repro.config import DSConfig
from repro.fleet.loadgen import run_fleet_check
from repro.fleet.fleet import fork_unavailable_reason

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        fork_unavailable_reason() is not None,
        reason=f"fork start method unavailable: {fork_unavailable_reason()}"),
]


def test_counts_and_throughput_cover_the_healthy_phase_only():
    report = run_fleet_check(n_workers=2, clients=2, requests_per_client=3)
    # The burst and chaos phases run untimed; their requests must not
    # inflate the counts the throughput is computed from.
    assert report.requests == 6
    assert report.completed == 6 and report.wrong == 0
    assert report.throughput_rps == pytest.approx(
        report.completed / report.wall_s)
    # The workers report the backend their launches ran on.
    assert report.backend == DSConfig().resolved_backend()
