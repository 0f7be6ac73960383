"""Shared plumbing: environment record, /proc accounting, spans, statistics.

Nothing here imports NumPy or the program under test, so ``run.py`` can
pin the BLAS thread pools before either is loaded.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Thread-pool pins applied to the harness and to every daemon it spawns.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(load generator CPUs, system-under-test CPUs), or (None, None).

    The load generator gets the first allowed CPU and the daemons the
    rest, so where the scheduler puts them never changes between runs.
    With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def environment() -> Dict[str, object]:
    """The machine and library versions a result was measured on."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "pinned": dict(PINNED_ENV),
    }


# ----------------------------------------------------------------------
# /proc accounting for the processes under test
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may hold spaces; everything after the last ')'
    # is whitespace-separated, starting with field 3 (state).
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def start_ticks(pid: int) -> Optional[int]:
    """Process start time in clock ticks: with the pid, a unique identity."""
    fields = _stat_fields(pid)
    return int(fields[19]) if fields is not None else None


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning /proc."""
    kids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and int(fields[1]) == pid:
            kids.append(int(name))
    return kids


def descendants_of(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        kids = children_of(frontier.pop())
        found.extend(kids)
        frontier.extend(kids)
    return found


class ProcessLedger:
    """Every process the benchmark spawned, by (pid, start time).

    Children of the system under test (fleet workers) are registered
    once they exist, so a worker orphaned by its parent is still caught:
    :meth:`survivors` reports any registered process alive at the end.
    """

    def __init__(self) -> None:
        self._procs: Dict[int, Optional[int]] = {}

    def add(self, pid: int) -> None:
        if pid not in self._procs:
            self._procs[pid] = start_ticks(pid)

    def add_tree(self, pid: int) -> List[int]:
        tree = [pid] + descendants_of(pid)
        for p in tree:
            self.add(p)
        return tree

    def survivors(self) -> List[int]:
        alive = []
        for pid, ticks in self._procs.items():
            now = start_ticks(pid)
            if now is not None and now == ticks and not _is_zombie(pid):
                alive.append(pid)
        return alive


def _is_zombie(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] == "Z"


# ----------------------------------------------------------------------
# outcome and metric names
# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted and failed, plus why, for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)


#: Every per-layer metric and its unit.
PER_LAYER = {
    "gmon.loads_us": "us", "gmon.names_per_snapshot": "count",
    "protocol.decode_us": "us",
    "online.delta_us": "us", "online.classify_us": "us",
    "online.novel_ratio": "ratio",
    "server.difference_us": "us", "server.classify_us": "us",
    "server.aggregate_us": "us", "server.rejected_ratio": "ratio",
    "server.cpu_us_per_interval": "us",
    "store.append_us": "us", "store.flush_ms": "ms",
    "store.bytes_per_interval": "B",
    "store.scan_us": "us", "store.replay_us": "us",
    "intervals.diff_us": "us", "features.build_ms": "ms",
    "kselect.sweep_ms": "ms", "kmeans.fits": "count",
    "kmeans.iterations": "count", "sites.select_ms": "ms",
    "router.hop_us": "us", "router.cpu_us_per_interval": "us",
    "client.encode_us": "us", "client.frame_bytes": "B",
    "loadgen.late_p99_ms": "ms", "loadgen.late_max_ms": "ms",
    "trace.unexplained_ratio": "ratio", "trace.overhead_ratio": "ratio",
}


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the value for a layer that does no work."""
    return {name: 0.0 for name in PER_LAYER}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: (trace id, name, start, end, parent span index).

    ``span`` returns a context manager; nesting sets the parent.  Spans
    are kept in a list and written out once, at the end of the run.
    Disabled tracers record nothing and cost one branch per call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.trace_id = ""

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished span under the innermost open one."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.trace_id, name, t0, t1, parent))

    def self_seconds(self) -> Dict[str, float]:
        """Per-name self time: duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for _tid, _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: Dict[str, float] = {}
        for i, (_tid, name, t0, t1, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (t1 - t0) - child[i]
        return totals

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[1]] = out.get(span[1], 0) + 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for tid, name, t0, t1, parent in self.spans:
                fh.write(f"{tid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        tr = self.tracer
        if tr.enabled:
            parent = tr._stack[-1] if tr._stack else -1
            self.index = len(tr.spans)
            tr.spans.append((tr.trace_id, self.name, time.perf_counter(),
                             0.0, parent))
            tr._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        tr = self.tracer
        if tr.enabled:
            # Spans are tuples of atoms, which the cyclic GC stops
            # tracking; a list per span would make every collection walk
            # all of them and slow the traced run down as it grows.
            tid, name, t0, _t1, parent = tr.spans[self.index]
            tr.spans[self.index] = (tid, name, t0, time.perf_counter(), parent)
            tr._stack.pop()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def log(msg: str) -> None:
    """Progress note on stderr (stdout's last line is the result)."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
