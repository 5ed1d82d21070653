"""The benchmark's own span recorder.

Spans are recorded only by benchmark code, around calls into a layer's
public functions; the program's ``repro.obs`` tracer stays off.  Each
span is ``(span_id, parent_id, name, request_id, start_ns, end_ns)``,
kept in memory and written out when the run ends.  A span's self time
is its duration minus the time its children cover.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             rid: Optional[int] = None):
        sid = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            # list.append is atomic, so client threads share one list.
            self.records.append((sid, parent, name, rid, start,
                                 time.perf_counter_ns()))

    def self_times(self) -> Dict[int, int]:
        """span id -> self time in ns (duration minus direct children;
        children of one span never overlap, since each request's layer
        calls run one after another)."""
        own = {r[0]: r[5] - r[4] for r in self.records}
        for sid, parent, *_rest, start, end in self.records:
            if parent in own:
                own[parent] -= end - start
        return own

    def children_ns(self) -> Dict[int, int]:
        """span id -> total duration of its direct children, in ns."""
        out: Dict[int, int] = {}
        for _sid, parent, *_rest, start, end in self.records:
            if parent is not None:
                out[parent] = out.get(parent, 0) + end - start
        return out

    def table(self) -> List[dict]:
        """Per span name: count, total and self milliseconds, p50 µs."""
        selfs = self.self_times()
        groups: Dict[str, List[tuple]] = {}
        for rec in self.records:
            groups.setdefault(rec[2], []).append(rec)
        rows = []
        for name, recs in sorted(groups.items()):
            durs = [r[5] - r[4] for r in recs]
            rows.append({
                "span": name,
                "count": len(recs),
                "total_ms": sum(durs) / 1e6,
                "self_ms": sum(selfs[r[0]] for r in recs) / 1e6,
                "p50_us": statistics.median(durs) / 1e3,
            })
        return rows

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("span_id", "parent", "name", "request_id", "start_ns",
                "end_ns")
        path.write_text(json.dumps(
            [dict(zip(keys, r)) for r in self.records]))


def format_table(rows: List[dict]) -> str:
    lines = [f"{'span':<34}{'count':>8}{'total_ms':>12}{'self_ms':>12}"
             f"{'p50_us':>12}"]
    for r in rows:
        lines.append(f"{r['span']:<34}{r['count']:>8}{r['total_ms']:>12.2f}"
                     f"{r['self_ms']:>12.2f}{r['p50_us']:>12.1f}")
    return "\n".join(lines)
