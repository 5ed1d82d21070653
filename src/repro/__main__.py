"""Command-line interface: regenerate any reproduced figure or table.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro fig12                # print one reproduced figure
    python -m repro table1               # print the Table I summary
    python -m repro all                  # print everything
    python -m repro devices              # print the device catalog
    python -m repro trace fig13 -o trace.json   # export a Chrome trace
    python -m repro trace --fleet -o fleet.json # merged fleet timeline
    python -m repro serve --shape chain --check # serve-layer load run
    python -m repro stream --check              # out-of-core streaming
    python -m repro fleet --check               # multi-process cluster
    python -m repro replay incidents/...        # reproduce an incident
    python -m repro tune --fig fig13            # autotune a workload
    python -m repro report -o REPORT.md         # one report over it all

The same tables are produced (and persisted) by the benchmark harness;
this entry point is the quick interactive path.  ``trace`` runs one
experiment's primitive under both execution backends with full tracing
and writes a Chrome-trace JSON file (open it in ``chrome://tracing`` or
https://ui.perfetto.dev) — see docs/observability.md.  ``serve`` drives
the micro-batching service layer with the closed-loop load generator
(same flags as ``python -m repro.serve.loadgen``) — see docs/serving.md.
``tune`` runs the bounded online autotuner and persists winners to the
tuning DB; ``report`` renders one markdown/HTML document over the
persisted benchmark, serve and tuning artifacts — see docs/tuning.md.
"""

from __future__ import annotations

import argparse
import sys


def _render_table1() -> str:
    from repro.analysis import render_table, table1_summary

    rows = [["primitive", "device", "DS GB/s", "competitor", "comp GB/s",
             "speedup", "paper speedup"]]
    for r in table1_summary():
        rows.append([r["primitive"], r["device"], f"{r['ds_gbps']:.2f}",
                     r["competitor"], f"{r['competitor_gbps']:.2f}",
                     f"{r['speedup']:.2f}x", f"{r['paper_speedup']:.2f}x"])
    return ("== Table I: in-place single-precision summary ==\n"
            + render_table(rows, indent="   "))


def _render_cpu() -> str:
    from repro.analysis import cpu_sequential_comparison, render_table

    rows = [["operation", "DS GB/s", "seq GB/s", "speedup", "paper"]]
    for r in cpu_sequential_comparison():
        rows.append([r["operation"], f"{r['ds_gbps']:.2f}",
                     f"{r['seq_gbps']:.2f}", f"{r['speedup']:.2f}x",
                     f"{r['paper_speedup']:.2f}x"])
    return ("== CPU: DS (MxPA) vs sequential ==\n"
            + render_table(rows, indent="   "))


def _render_devices() -> str:
    from repro.analysis import render_table
    from repro.simgpu import list_devices

    rows = [["name", "product", "peak GB/s", "CUs", "resident wgs",
             "warp", "notes"]]
    for d in list_devices():
        rows.append([d.name, d.marketing_name, f"{d.peak_bandwidth_gbps:.1f}",
                     str(d.num_compute_units), str(d.max_resident_wgs),
                     str(d.warp_size), d.notes[:48]])
    return "== simulated device catalog ==\n" + render_table(rows, indent="   ")


def _cmd_trace(args) -> int:
    if args.fleet:
        from repro.fleet.cli import trace_fleet

        return trace_fleet(args.output, workers=args.workers,
                           requests=args.requests, seed=args.seed,
                           check=args.check)
    if args.experiment is None:
        print("python -m repro trace: an experiment id is required "
              "unless --fleet is given", file=sys.stderr)
        return 2
    from repro.obs.runner import trace_experiment

    backends = [args.backend] if args.backend else ["simulated", "vectorized"]
    doc = trace_experiment(
        args.experiment, args.output,
        elements=args.elements, backends=backends, mode=args.mode,
        jsonl_path=args.jsonl, check=args.check,
    )
    n_spans = sum(1 for ev in doc["traceEvents"] if ev["ph"] == "X")
    print(f"wrote {args.output}: {len(doc['traceEvents'])} events "
          f"({n_spans} spans, backends: {', '.join(backends)})")
    if args.jsonl:
        print(f"wrote {args.jsonl} (flat JSONL event log)")
    print("open the JSON in chrome://tracing or https://ui.perfetto.dev")
    return 0


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    from repro.analysis import FIGURES
    from repro.obs.runner import DEFAULT_ELEMENTS, TRACEABLE
    from repro.obs.tracer import TRACE_MODES

    known = sorted(FIGURES) + ["table1", "cpu", "devices", "list", "all"]
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures and tables "
        "(In-Place Data Sliding Algorithms, ICPP 2015).  "
        "Subcommands: trace <experiment> -o trace.json exports a "
        "Chrome-trace timeline; serve runs the micro-batching "
        "service layer under closed-loop load; analyze renders a "
        "critical-path report from a trace; tune runs the bounded "
        "online autotuner; report renders one markdown/HTML document "
        "over the persisted artifacts.",
    )
    trace = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one experiment's primitive under full tracing "
                    "and export the span timeline as Chrome-trace JSON "
                    "(one process per backend, one thread per work-group). "
                    "With --fleet: trace a short multi-process fleet "
                    "session instead and merge every worker's spans into "
                    "one clock-aligned timeline (router pid 0, one pid "
                    "lane per worker).",
    )
    trace.add_argument("experiment", nargs="?", default=None,
                       choices=sorted(TRACEABLE),
                       help="traceable experiment id (omit with --fleet)")
    trace.add_argument("--fleet", action="store_true",
                       help="trace a fleet session instead of a single "
                            "experiment (see docs/fleet.md)")
    trace.add_argument("--workers", type=int, default=2,
                       help="fleet workers to trace (--fleet only; "
                            "default: 2)")
    trace.add_argument("--requests", type=int, default=10,
                       help="requests to drive through the traced fleet "
                            "(--fleet only; default: 10)")
    trace.add_argument("--seed", type=int, default=1234,
                       help="traffic seed (--fleet only)")
    trace.add_argument("-o", "--output", default="trace.json",
                       help="Chrome-trace JSON output path "
                            "(default: trace.json)")
    trace.add_argument("--backend", choices=["simulated", "vectorized"],
                       default=None,
                       help="trace only one backend (default: both)")
    trace.add_argument("--mode", choices=[m for m in TRACE_MODES if m != "off"],
                       default="full",
                       help="spans only, or full (adds per-atomic/barrier "
                            "instant events; default)")
    trace.add_argument("--elements", type=int, default=DEFAULT_ELEMENTS,
                       help=f"workload size (default: {DEFAULT_ELEMENTS})")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write a flat JSONL event log")
    trace.add_argument("--check", action="store_true",
                       help="validate the exported document (trace-smoke)")
    # The original positional-experiment UX rides alongside the
    # subcommand: `python -m repro fig12` still works.
    parser.add_argument("experiment", choices=known,
                        help="experiment id, or list/all/devices "
                             "(or the 'trace' subcommand)")
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        args = trace.parse_args(argv[1:])
        return _cmd_trace(args)
    if argv and argv[0] == "serve":
        from repro.serve import loadgen

        return loadgen.main(argv[1:])
    if argv and argv[0] == "stream":
        from repro.stream import cli as _stream_cli

        return _stream_cli.main(argv[1:])
    if argv and argv[0] == "fleet":
        from repro.fleet import cli as _fleet_cli

        return _fleet_cli.main(argv[1:])
    if argv and argv[0] == "replay":
        from repro.fleet import cli as _fleet_cli

        return _fleet_cli.replay_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.obs import analyze as _analyze

        return _analyze.main(argv[1:])
    if argv and argv[0] == "tune":
        from repro.tune import cli as _tune_cli

        return _tune_cli.main(argv[1:])
    if argv and argv[0] == "report":
        from repro.analysis import report as _report

        return _report.main(argv[1:])
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:")
        for fid in sorted(FIGURES):
            traced = "  (traceable: python -m repro trace {0} -o trace.json)" \
                .format(fid) if fid in TRACEABLE else ""
            print(f"  {fid}{traced}")
        print("  table1\n  cpu\n  devices")
        print("subcommands:")
        print("  trace <experiment> -o trace.json   "
              "export a Chrome-trace timeline (see docs/observability.md)")
        print(f"    traceable: {', '.join(sorted(TRACEABLE))}")
        print("  trace --fleet -o fleet-trace.json [--workers N --check]   "
              "merged clock-aligned trace of a multi-process fleet "
              "session (see docs/fleet.md)")
        print("  serve [--shape ... --clients N --fault always --check]   "
              "drive the micro-batching serve layer (see docs/serving.md)")
        print("  stream [--elements N --trace PATH --check]   "
              "out-of-core sharded streaming smoke over a memmap, one "
              "process (see docs/streaming.md)")
        print("  fleet [--workers N --clients N --check]   "
              "multi-process serve cluster with consistent-hash plan "
              "routing and autoscaling (see docs/fleet.md)")
        print("  replay <incident-bundle> [--check]   "
              "re-run the traffic recorded in a flight-recorder bundle "
              "and reproduce its trigger (see docs/fleet.md)")
        print("  analyze <trace.json|trace.jsonl|incident-dir>   "
              "critical-path + spin attribution report "
              "(see docs/observability.md)")
        print("  tune [--fig fig13 | --shape compact [--serve]] --check   "
              "bounded autotuning sweep; winners persist to the tuning DB "
              "(see docs/tuning.md)")
        print("  report [-o REPORT.md --html]   "
              "markdown/HTML report over BENCH_*.json, BENCH_INDEX.json "
              "and TUNING_DB.json (see docs/tuning.md)")
        return 0
    if args.experiment == "devices":
        print(_render_devices())
        return 0
    if args.experiment == "table1":
        print(_render_table1())
        return 0
    if args.experiment == "cpu":
        print(_render_cpu())
        return 0
    if args.experiment == "all":
        from repro.analysis import render_figure

        for fid in sorted(FIGURES):
            print(render_figure(FIGURES[fid]()))
            print()
        print(_render_table1())
        print()
        print(_render_cpu())
        return 0
    from repro.analysis import render_figure

    print(render_figure(FIGURES[args.experiment]()))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro all | head`
        sys.exit(0)
