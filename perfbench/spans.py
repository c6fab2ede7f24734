"""In-memory spans and ``/proc`` accounting for the benchmark driver.

Spans are recorded around calls into the library from the benchmark's own
code (the library is not instrumented).  Every span has a name, start, end,
parent and the run id; they are kept in memory and written as JSON lines
when the run ends.  The driver is single-threaded, so spans nest strictly
and a span's self time is its duration minus its children's.

The process-tree helpers sum CPU time and peak RSS over the driver and
every process it started (Ray's GCS, raylet and workers are all its
descendants on a local cluster).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _proc_table() -> dict[int, list[str]]:
    """pid -> fields of /proc/<pid>/stat after the command name."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                raw = fh.read()
        except OSError:  # exited meanwhile
            continue
        out[int(d)] = raw[raw.rindex(")") + 2 :].split()
    return out


def tree(root: int | None = None) -> tuple[list[int], dict[int, list[str]]]:
    """Pids of ``root`` (default: this process) and all its descendants."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, f in table.items():
        kids.setdefault(int(f[1]), []).append(pid)
    pids, todo = [], [root]
    while todo:
        p = todo.pop()
        if p in table:
            pids.append(p)
            todo.extend(kids.get(p, ()))
    return pids, table


def tree_cpu_s(root: int | None = None) -> float:
    """utime+stime+cutime+cstime summed over the process tree, in seconds."""
    pids, table = tree(root)
    # fields after ")": state=0 ppid=1 ... utime=11 stime=12 cutime=13 cstime=14
    return sum(sum(int(x) for x in table[p][11:15]) for p in pids) / _CLK_TCK


def tree_hwm_mb(root: int | None = None) -> float:
    """Sum of VmHWM (peak resident set) over the process tree, in MB."""
    total = 0
    for p in tree(root)[0]:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total / 1024


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    with open("/proc/stat") as fh:
        vals = [int(x) for x in fh.readline().split()[1:]]
    return vals[7], sum(vals[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    dt = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / dt if dt else 0.0
