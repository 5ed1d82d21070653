"""Benchmark entry point: one workload, one seed, one run.

From the repository root::

    python3 perfbench/run.py --workload serve_small --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``serve_small``, ``fleet_small``, ``bulk_chain`` (see
``perfbench/NOTES.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The measurement runs in a child process (``measure.py``) whose stderr
is captured, so the multiprocessing resource tracker's warnings, which
it prints when that process exits, can be counted per fleet request.
The package is imported from ``src/`` next to this directory; without
it the run fails with a non-zero exit and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve_small", "fleet_small", "bulk_chain")
CHILD_TIMEOUT_S = 170.0
TRACKER_WARNING = re.compile(r"UserWarning: resource_tracker:")


def child_env() -> dict:
    # REPRO_* variables would change configs behind the benchmark's back.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="perfbench: one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own lets a timeout stop the fleet workers and the
    # resource tracker too, not just the measuring process.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        # Reading both pipes to EOF also waits for the resource tracker,
        # which holds the child's stderr until it has exited.
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        timed_out = True
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything still left behind
    except ProcessLookupError:
        pass
    if timed_out:
        sys.stderr.write(stderr)
        print("perfbench: measurement timed out", file=sys.stderr)
        return 3

    lines = stdout.splitlines()
    stderr_lines = stderr.splitlines()
    warnings = sum(1 for line in stderr_lines if TRACKER_WARNING.search(line))
    other = [line for line in stderr_lines
             if "resource_tracker" not in line]
    if other:
        sys.stderr.write("\n".join(other[-50:]) + "\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"perfbench: measurement failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4

    result = json.loads(lines[-1])
    fleet_requests = result.pop("fleet_requests", 0)
    metric = result["metrics"].get("fleet.tracker_warnings_per_request")
    if metric is not None and fleet_requests:
        metric["value"] = warnings / fleet_requests
    print("\n".join(lines[:-1]))
    print(f"resource tracker warnings: {warnings} over {fleet_requests} "
          f"fleet requests")
    for name, m in result["metrics"].items():
        print(f"{name:<38}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
