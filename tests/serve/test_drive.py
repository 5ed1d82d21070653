"""The shared closed-loop driver and the paired overhead estimator,
exercised through stub doors (no server threads, no fork)."""

import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, LaunchError, Overloaded, \
    ServeError
from repro.primitives.common import DEFAULT_DEVICE, PrimitiveResult
from repro.serve.loadgen import (LoadReport, _percentile, drive,
                                 flight_overhead_check, make_shape,
                                 paired_overhead)
from repro.simgpu.counters import LaunchCounters, launch_backend

SPEC = make_shape("compact", 64)


def _result(output, counters=(), **extras):
    return PrimitiveResult(output=output, counters=list(counters),
                           device=DEFAULT_DEVICE, extras=extras)


class _Resolved:
    """A future that resolves after ``delay_s`` to a result or error."""

    def __init__(self, result=None, error=None, delay_s=0.0):
        self._result, self._error, self._delay_s = result, error, delay_s

    def result(self, timeout=None):
        time.sleep(self._delay_s)
        if self._error is not None:
            raise self._error
        return self._result


class StubDoor:
    """``submit_chain`` answers from ``script(call_index)``: a future,
    or an exception the submission raises."""

    def __init__(self, script):
        self._script = script
        self._lock = threading.Lock()
        self.calls = 0

    def submit_chain(self, ops, values, *, deadline_ms=None):
        with self._lock:
            i = self.calls
            self.calls += 1
        outcome = self._script(i)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _counters(**extras):
    c = LaunchCounters()
    c.extras.update(extras)
    return c


class TestDriveCounts:
    def test_completed_wrong_failed_expired(self):
        right = _result(SPEC.expected.copy(), [_counters(vectorized=1.0)])
        script = {
            4: _Resolved(_result(SPEC.expected[:-1])),
            5: _Resolved(error=DeadlineExceeded("late")),
            6: _Resolved(error=LaunchError("boom")),
            7: ServeError("closed"),
        }
        door = StubDoor(lambda i: script.get(i, _Resolved(right)))
        report = drive(door, [SPEC], clients=1, requests_per_client=8,
                       timeout_s=5.0)
        assert isinstance(report, LoadReport)
        assert report.requests == 8 and report.clients == 1
        assert report.completed == 5 and report.wrong == 1
        assert report.expired == 1 and report.failed == 2
        assert report.shed_retries == 0
        assert report.backend == "vectorized"
        assert any("LaunchError" in e for e in report.errors)
        assert report.throughput_rps == pytest.approx(
            report.completed / report.wall_s)

    def test_verification_is_byte_exact(self):
        as_f32 = SPEC.expected.astype(np.float32)
        door = StubDoor(lambda i: _Resolved(_result(as_f32)))
        report = drive(door, [SPEC], clients=2, requests_per_client=2,
                       timeout_s=5.0)
        assert report.completed == 4 and report.wrong == 4

    def test_round_robins_over_specs_and_names_them(self):
        other = make_shape("unique", 32)
        seen = []

        class Door(StubDoor):
            def submit_chain(self, ops, values, *, deadline_ms=None):
                seen.append(values.size)
                spec = SPEC if values.size == SPEC.array.size else other
                return _Resolved(_result(spec.expected.copy()))

        report = drive(Door(None), [SPEC, other], clients=1,
                       requests_per_client=4, timeout_s=5.0)
        assert seen == [64, 32, 64, 32]
        assert report.shape == "compact+unique" and report.wrong == 0
        assert report.backend is None  # no launch records came back

    def test_fleet_style_backend_from_extras(self):
        door = StubDoor(lambda i: _Resolved(
            _result(SPEC.expected.copy(), backend="simulated")))
        report = drive(door, [SPEC], clients=1, requests_per_client=2,
                       timeout_s=5.0)
        assert report.backend == "simulated"

    def test_fills_a_given_report(self):
        door = StubDoor(lambda i: _Resolved(_result(SPEC.expected.copy())))
        mine = LoadReport(shape="x", clients=2, requests=6)
        assert drive(door, [SPEC], clients=2, requests_per_client=3,
                     timeout_s=5.0, report=mine) is mine
        assert mine.completed == 6 and mine.shape == "x"


class TestDrivePercentiles:
    def test_percentile_picks_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert _percentile(values, 0.50) == 5.0
        assert _percentile(values, 0.95) == 10.0
        assert _percentile(values, 0.0) == 1.0
        assert _percentile([], 0.5) == 0.0

    def test_latency_percentiles_follow_the_door(self):
        # Serial client, the k-th response takes (k + 1) ms.
        door = StubDoor(lambda i: _Resolved(
            _result(SPEC.expected.copy()), delay_s=(i + 1) / 1e3))
        report = drive(door, [SPEC], clients=1, requests_per_client=10,
                       timeout_s=5.0)
        assert report.completed == 10
        assert report.latency_p50_ms >= 5.0
        assert report.latency_p99_ms >= 10.0
        assert report.latency_p50_ms <= report.latency_p95_ms \
            <= report.latency_p99_ms
        assert report.latency_mean_ms >= 5.5


class TestShedRetry:
    def test_always_shedding_door_expires_within_timeout(self):
        door = StubDoor(lambda i: Overloaded("full"))
        timeout_s = 0.1
        t0 = time.perf_counter()
        report = drive(door, [SPEC], clients=2, requests_per_client=2,
                       timeout_s=timeout_s)
        elapsed = time.perf_counter() - t0
        assert report.expired == 4
        assert report.completed == 0 and report.failed == 0
        # Each request gives up after timeout_s; a client sends two.
        assert elapsed < 2 * timeout_s + 0.5
        # Backed off, not spun: at most one retry per millisecond.
        assert 4 <= report.shed_retries <= 4 * (timeout_s / 1e-3 + 2)

    def test_shed_then_admitted(self):
        right = _Resolved(_result(SPEC.expected.copy()))
        door = StubDoor(lambda i: Overloaded("full") if i < 3 else right)
        report = drive(door, [SPEC], clients=1, requests_per_client=2,
                       timeout_s=5.0)
        assert report.shed_retries == 3
        assert report.completed == 2 and report.expired == 0


class TestLaunchBackend:
    @pytest.mark.parametrize("extras,expected", [
        ({"vectorized": 1.0}, "vectorized"),
        ({"compiled": 1.0}, "compiled"),
        ({}, "simulated"),
    ])
    def test_reads_launch_records(self, extras, expected):
        assert launch_backend([_counters(**extras)]) == expected

    def test_no_launches(self):
        assert launch_backend([]) is None


def _stub_runs(throughput):
    """A ``run(on)`` stub returning ``throughput(on, k)`` on the k-th
    call for that mode, recording the call order."""
    calls = []

    def run(on):
        k = sum(1 for c in calls if c == on)
        calls.append(on)
        return throughput(on, k)

    return run, calls


class TestPairedOverhead:
    def test_lucky_pair_cannot_pass_a_real_slowdown(self):
        # Traced runs cost 20%, except one lucky pair (the warmup is
        # on-call 0, so on-call 3 is the third timed pair).
        run, calls = _stub_runs(
            lambda on, k: 100.0 if not on or k == 3 else 80.0)
        verdict = paired_overhead(run)
        assert not verdict.ok
        assert verdict.median == pytest.approx(0.8)
        assert sorted(verdict.ratios) == pytest.approx([0.8] * 5 + [1.0])
        # The old fleet statistic, max(best-of-run ratio, any pair
        # ratio), would have passed the same runs.
        off = [100.0] * 6
        on = [100.0 if k == 3 else 80.0 for k in range(1, 7)]
        old = max([max(on) / max(off)]
                  + [t / o for o, t in zip(off, on)])
        assert old >= 0.90

    def test_equal_throughput_passes(self):
        run, _ = _stub_runs(lambda on, k: 250.0)
        verdict = paired_overhead(run)
        assert verdict.ok
        assert verdict.median == verdict.q1 == verdict.q3 == 1.0
        assert "OK" in verdict.line("x") and "6 pairs" in verdict.line("x")

    def test_pair_order_alternates_after_a_warmup_pair(self):
        run, calls = _stub_runs(lambda on, k: 1.0)
        paired_overhead(run)
        off, on = False, True
        assert calls == [off, on,                     # warmup
                         off, on, on, off, off, on,
                         on, off, off, on, on, off]

    def test_quartiles_bracket_the_median(self):
        ratios = iter([0.9, 1.0, 0.95, 1.1, 0.85, 1.05])
        run, _ = _stub_runs(
            lambda on, k: 100.0 * next(ratios) if on and k else 100.0)
        verdict = paired_overhead(run)
        assert verdict.q1 <= verdict.median <= verdict.q3
        assert verdict.median == pytest.approx(0.975)


class _FakeLoad:
    def __init__(self, throughput_rps):
        self.throughput_rps = throughput_rps
        self.completed = self.requests = 10
        self.wrong = 0


class TestGuardsUseTheEstimator:
    def test_flight_guard_fails_an_injected_slowdown(self, monkeypatch):
        from repro.serve import loadgen

        def fake_run_load(*, serve_config, **kw):
            assert kw["requests_per_client"] >= loadgen.OVERHEAD_MIN_REQUESTS
            return _FakeLoad(80.0 if serve_config.flight_capacity else 100.0)

        monkeypatch.setattr(loadgen, "run_load", fake_run_load)
        verdict = flight_overhead_check(shape="compact", clients=2,
                                        requests_per_client=4)
        assert not verdict.ok and verdict.median == pytest.approx(0.8)

    def test_fleet_guard_fails_an_injected_slowdown(self, monkeypatch,
                                                    capsys):
        from repro.fleet import cli, loadgen

        def fake_run_fleet_load(*, fleet_config, **kw):
            return _FakeLoad(80.0 if fleet_config.trace != "off" else 100.0)

        monkeypatch.setattr(loadgen, "run_fleet_load", fake_run_fleet_load)
        assert cli.main(["--trace-overhead-check"]) == 1
        out = capsys.readouterr().out
        assert "median on/off throughput ratio 0.800" in out
        assert "FAILED" in out

    def test_fleet_guard_passes_equal_throughput(self, monkeypatch):
        from repro.fleet import cli, loadgen

        monkeypatch.setattr(loadgen, "run_fleet_load",
                            lambda **kw: _FakeLoad(100.0))
        assert cli.main(["--trace-overhead-check"]) == 0
