"""Harness self-test at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload in ``BENCHMARK.json`` with and without tracing at
tiny sizes and checks that each emits exactly the declared metrics with
their units.  Then it checks that a stub front door which returns one
wrong array is caught (``failed`` is at least 1 and ``ok_share`` is
below 1), and that a response reporting another kernel backend stops
the run.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from repro import PrimitiveResult  # noqa: E402
from repro.primitives.common import DEFAULT_DEVICE  # noqa: E402
from repro.simgpu.counters import LaunchCounters  # noqa: E402

import measure  # noqa: E402
import traffic  # noqa: E402
from doors import Response  # noqa: E402

SEED = 7
SECONDS = 0.5


class OneWrong:
    """Passes requests to ``door`` but corrupts one non-empty response."""

    def __init__(self, door) -> None:
        self.door = door
        self.name = door.name
        self._lock = threading.Lock()
        self._spoiled = False

    def start(self, req, tr=None):
        wait = self.door.start(req, tr)

        def spoiled() -> Response:
            resp = wait()
            with self._lock:
                if self._spoiled or resp.output.size == 0:
                    return resp
                self._spoiled = True
            out = resp.output.copy()
            out[0] = 7.0  # not in the alphabet, so never the right answer
            return Response(out, resp.results)

        return spoiled

    def close(self) -> None:
        measure.close(self.door)


class ForeignBackend(OneWrong):
    """Right outputs, but launch records from the simulated backend."""

    def start(self, req, tr=None):
        wait = self.door.start(req, tr)
        launch = PrimitiveResult(np.zeros(0), [LaunchCounters()],
                                 DEFAULT_DEVICE)
        return lambda: Response(wait().output, [launch])


def quiet_run(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return measure.run(*args, **kwargs)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = quiet_run(wl, SEED, SECONDS, bool(trace),
                            scale=traffic.TINY)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{wl} trace {trace}: metrics {got} != "
                                f"declared {wanted[trace]}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl} trace {trace}: {res['failed']} "
                                f"failed on the real front doors")
            print(f"{wl} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} responses checked")
    res = quiet_run("serve_small", SEED, SECONDS, False,
                    scale=traffic.TINY, wrap=OneWrong)
    ok_share = res["metrics"]["ok_share"]["value"]
    print(f"stub door: failed {res['failed']}, ok_share {ok_share:.4f}")
    if res["failed"] < 1 or ok_share >= 1.0 or res["correct"]:
        problems.append("a wrong array from the stub door went unnoticed")
    try:
        quiet_run("serve_small", SEED, SECONDS, False, scale=traffic.TINY,
                  wrap=ForeignBackend)
        problems.append("a response from another backend went unnoticed")
    except SystemExit as exc:
        print(f"backend guard: {exc}")
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
