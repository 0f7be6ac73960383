"""The online workloads: ``ingest-wide`` and ``fleet-mixed``.

Both drive a daemon subprocess from this process, one connection at a
time, alternating open-loop windows at a fixed rate with closed-loop
rounds at the publisher's default pipeline window.  The traced run
replays open-loop frames in-process through the functions the daemon
calls, in the daemon's order, timing each layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import inputs
import wire
from common import (Outcome, Tracer, cpu_seconds, log, median, peak_rss_mb,
                    percentile, zero_layers)
from repro.core.model_io import save_model
from repro.eval.scenarios import label_agreement_matched
from repro.gprof.gmon import GmonBlob
from repro.service.client import PIPELINE_WINDOW
from repro.service.protocol import SnapshotMsg, decode_payload, encode_message
from repro.store.segments import SegmentStore

SETUP_REPEATS = 3
#: The daemon's classify batch (ServerConfig.batch_size default).
DAEMON_BATCH = 8


@dataclass(frozen=True)
class OnlineSpec:
    """Fixed shape of one online workload.  No field depends on the seed."""

    name: str
    #: Open-loop schedule, frames/s: a fixed third of the closed-loop
    #: rate measured when the benchmark was defined.
    rate: float
    #: Closed-loop work per second of ``--seconds``: about the rate
    #: measured when the benchmark was defined, so the phase runs for
    #: roughly its share of the run.
    closed_per_s: float
    #: Streams published at once on the connection.
    active: int
    #: Lengths of the generated pool streams, staggered so streams
    #: published together do not end together.
    lengths: Tuple[int, ...]
    #: Intervals published before anything is measured: enough to fill
    #: the daemon's bounded histories (finished streams, retired
    #: signatures), so measurements see its steady state.
    warm_intervals: int
    #: First interval carries a base count for every name (ingest-wide),
    #: so it is left out of the truth comparison.
    skip_first: bool


INGEST_WIDE = OnlineSpec("ingest-wide", rate=3500.0, closed_per_s=10000.0,
                         active=4, lengths=(500, 600, 700, 800),
                         warm_intervals=2000, skip_first=True)
FLEET_MIXED = OnlineSpec("fleet-mixed", rate=1750.0, closed_per_s=5000.0,
                         active=8, lengths=(24, 32, 40, 48, 56) * 8,
                         warm_intervals=6400, skip_first=False)

#: Shares of ``--seconds`` for the open-loop and closed-loop phases, each
#: split into this many batches of fresh streams.  Latencies and
#: throughput are medians over the batches, so a slow spell of the shared
#: host that covers part of a run moves them little; CPU is pooled.
WINDOWS = 10
OPEN_SHARE = 0.55
CLOSED_SHARE = 0.25


@dataclass
class Batch:
    """Frames for one window or round: (stream id, pool index) per stream."""

    streams: List[Tuple[str, int]]
    frames: List[wire.Frame]

    @property
    def intervals(self) -> int:
        return sum(1 for f in self.frames if f.kind == wire.SNAP)


class Inputs:
    """A seeded pool of streams, the model, and batches drawn from the pool.

    Every window and round publishes pool streams under fresh stream ids,
    so the daemon sees new streams (and archives new intervals) while the
    expensive gmon dumps are generated once.
    """

    def __init__(self, spec: OnlineSpec, seed: int) -> None:
        self.spec = spec
        lengths = list(spec.lengths)
        if spec.name == "ingest-wide":
            self.model = inputs.ingest_wide_model(seed)
            self.pool = inputs.ingest_wide(seed, lengths, "pool", 3)
        else:
            shapes = inputs.fleet_shapes(seed)
            self.model = inputs.fleet_model(shapes)
            self.pool = inputs.fleet_streams(seed, shapes, lengths, "pool", 3)
        self.reference = [_reference_labels(self.model, s) for s in self.pool]
        self._next = 0

    def batch(self, n_intervals: float, prefix: str) -> Batch:
        picks, total = [], 0
        while total < n_intervals:
            index = self._next % len(self.pool)
            picks.append((f"{prefix}-{len(picks)}", index))
            total += len(self.pool[index].raws)
            self._next += 1
        return Batch(picks, wire.interleave(
            [wire.stream_frames(sid, self.pool[i].raws) for sid, i in picks],
            self.spec.active))


def _daemon_args(spec: OnlineSpec, model: Path, work: Path, rel: Path) -> List[str]:
    common = ["--model", str(model), "--port", "0", "--log-level", "error"]
    if spec.name == "ingest-wide":
        return ["serve", "--workers", "1", "--store-dir", str(work / "store")] + common
    # Fleet sockets live under a path relative to the checkout root so
    # the unix socket name stays short however deep the checkout is.
    return ["serve-fleet", "--mode", "proxy", "--workers", "1",
            "--worker-threads", "1", "--root", str(rel / "fleet")] + common


def _reference_labels(model, stream: inputs.Stream) -> List[int]:
    """In-process OnlinePhaseTracker labels for one stream."""
    tracker = model.spawn(zero_start=True)
    for snap in stream.snapshots:
        tracker.classify_batch([tracker.delta_vector(snap)])
    return tracker.phase_sequence()


def _gate(data: Inputs, batch: Batch, res: wire.DriveResult, out: Outcome,
          matches: List[int], agreements: List[float]) -> None:
    """accepted == sent == processed, drained, labels equal the reference."""
    checks = wire.check_streams(batch.frames, res)
    lo = 1 if data.spec.skip_first else 0
    for stream_id, index in batch.streams:
        n = len(data.pool[index].raws)
        out.attempted += n
        chk = checks.get(stream_id)
        if chk is None or chk.error:
            out.fail(n, f"{stream_id}: {chk.error if chk else 'missing'}")
            continue
        if not (chk.accepted == chk.sent == chk.processed == n) or not chk.drained:
            out.fail(n, f"{stream_id}: sent {chk.sent} accepted "
                        f"{chk.accepted} processed {chk.processed} "
                        f"drained {chk.drained}")
            continue
        reference = data.reference[index]
        same = sum(1 for a, b in zip(chk.labels, reference) if a == b)
        if len(chk.labels) != n or same != n:
            out.fail(n - same if len(chk.labels) == n else n,
                     f"{stream_id}: {n - same} labels differ from the "
                     "in-process reference")
        matches[0] += same
        matches[1] += n
        agreements.append(label_agreement_matched(
            data.pool[index].truth[lo:], chk.labels[lo:n]))


def _snap_latencies_ms(frames: List[wire.Frame], res: wire.DriveResult) -> List[float]:
    return [(r - d) * 1e3 for f, r, d in zip(frames, res.recv, res.due)
            if f.kind == wire.SNAP and r > 0.0]


def _lateness_ms(res: wire.DriveResult) -> List[float]:
    return [(s - d) * 1e3 for s, d in zip(res.sent, res.due) if s > 0.0]


def _open_loop(endpoint, batch: Batch, rate: float,
               pids: List[int]) -> Tuple[wire.DriveResult, Dict[int, float]]:
    """One open-loop window, with the CPU each daemon process used in it."""
    before = {pid: cpu_seconds(pid) for pid in pids}
    res = wire.drive(endpoint, batch.frames, rate=rate)
    return res, {pid: cpu_seconds(pid) - before[pid] for pid in pids}


def _spawn(data: Inputs, ctx, repeats: int) -> Tuple[wire.Daemon, List[float]]:
    """Start the daemon ``repeats`` times; keep the last, time them all."""
    model_path = ctx.work / "model.ipm"
    save_model(data.model, str(model_path))
    setups: List[float] = []
    daemon: Optional[wire.Daemon] = None
    for attempt in range(repeats):
        work = ctx.work / f"daemon-{attempt}"
        rel = ctx.rel / f"d{attempt}"
        daemon = wire.Daemon(ctx.root, ctx.src, ctx.ledger,
                             _daemon_args(data.spec, model_path, work, rel),
                             work, ctx.daemon_cpus)
        setups.append(daemon.setup_s)
        if attempt < repeats - 1:
            _stop(daemon, ctx)
    return daemon, setups


def _stop(daemon: wire.Daemon, ctx) -> None:
    if not daemon.shutdown():
        ctx.outcome.fail(1, "daemon did not stop cleanly on shutdown")


def run(spec: OnlineSpec, ctx) -> Dict[str, float]:
    """The untraced run: every end-to-end metric of an online workload."""
    t = time.perf_counter()
    data = Inputs(spec, ctx.seed)
    log(f"inputs {time.perf_counter() - t:.2f}s")
    out = ctx.outcome
    window = spec.rate * ctx.seconds * OPEN_SHARE / WINDOWS
    rounds = spec.closed_per_s * ctx.seconds * CLOSED_SHARE / WINDOWS
    daemon, setups = _spawn(data, ctx, SETUP_REPEATS)
    log(f"set-up {setups}")
    done: List[Tuple[Batch, wire.DriveResult]] = []
    p50s, p90s, p99s, means, rates, late = [], [], [], [], [], []
    cpu_s, n_open = 0.0, 0
    try:
        warm = data.batch(spec.warm_intervals, "warm")
        done.append((warm, wire.drive(daemon.endpoint, warm.frames)))
        stats0 = daemon.stats()
        # Open-loop windows and closed-loop rounds alternate, so both
        # phases sample the whole run, not one half of it each.
        for w in range(WINDOWS):
            batch = data.batch(window, f"open{w}")
            res, cpu = _open_loop(daemon.endpoint, batch, spec.rate, daemon.pids)
            done.append((batch, res))
            lat = _snap_latencies_ms(batch.frames, res)
            p50s.append(percentile(lat, 50))
            p90s.append(percentile(lat, 90))
            p99s.append(percentile(lat, 99))
            means.append(sum(lat) / len(lat))
            cpu_s += sum(cpu.values())
            n_open += batch.intervals
            late.extend(_lateness_ms(res))
            batch = data.batch(rounds, f"closed{w}")
            res = wire.drive(daemon.endpoint, batch.frames, window=PIPELINE_WINDOW)
            done.append((batch, res))
            rates.append(batch.intervals / res.elapsed)
        stats1 = daemon.stats()
        rss = sum(peak_rss_mb(pid) for pid in daemon.pids)
        log(f"measured {WINDOWS} open-loop windows and closed-loop rounds")
    finally:
        _stop(daemon, ctx)
    matches, agreements = [0, 0], []
    for batch, res in done:
        _gate(data, batch, res, out, matches, agreements)
    perr = stats1.get("protocol_errors", 0) - stats0.get("protocol_errors", 0)
    if perr:
        out.fail(1, f"daemon protocol_errors rose by {perr}")
    ctx.report.update({
        "publish_p50_ms": median(p50s),
        "publish_p90_ms": median(p90s),
        "publish_p99_ms": median(p99s),
        "publish_samples_per_window": int(window),
        "open_rate_frames_per_s": spec.rate,
        "loadgen_late_p99_ms": percentile(late, 99),
        "loadgen_late_max_ms": max(late),
        "publish_mean_ms": median(means),
        "windows": {"p50_ms": p50s, "p90_ms": p90s, "p99_ms": p99s,
                    "mean_ms": means, "closed_per_s": rates},
        "setup_samples_s": setups,
    })
    return {
        "setup_s": median(setups),
        "intervals_per_s": median(rates),
        "latency_p50_ms": median(p50s),
        "latency_tail_ms": median(p99s),
        # CPU is read in clock ticks, so it is pooled over the windows.
        "cpu_us_per_interval": cpu_s / n_open * 1e6,
        "rss_mb": rss,
        "label_match": matches[0] / max(1, matches[1]),
        "agreement_median": median(agreements),
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _replay(frames: List[wire.Frame], model, tracer: Tracer,
            store: Optional[SegmentStore]) -> Dict[str, List[int]]:
    """The daemon's per-frame work, in its order, on this thread.

    decode -> loads_gmon -> delta_vector -> classify_batch (per stream,
    at the daemon's batch size) -> SegmentStore.append.
    """
    trackers: Dict[str, object] = {}
    pending: Dict[str, List[Tuple[int, GmonBlob, np.ndarray]]] = {}
    span = tracer.span

    def commit(stream: str) -> None:
        batch = pending.pop(stream, [])
        if not batch:
            return
        tracer.trace_id = f"{stream}:{batch[0][0]}"
        with span("online.classify"):
            trackers[stream].classify_batch([v for _s, _b, v in batch])
        if store is not None:
            for seq, blob, _v in batch:
                tracer.trace_id = f"{stream}:{seq}"
                with span("store.append"):
                    with span("gmon.loads"):
                        gmon = blob.load()
                    rolled = store.segment_writes
                    t0 = time.perf_counter()
                    store.append(stream, seq, gmon, raw=blob.raw)
                    if store.segment_writes != rolled:
                        # This append filled a buffer and wrote a segment.
                        tracer.record("store.flush", t0, time.perf_counter())

    for frame in frames:
        tracer.trace_id = f"{frame.stream}:{frame.seq}"
        with span("protocol.decode"):
            msg = decode_payload(frame.data[4:], lazy_gmon=True)
        if frame.kind == wire.HELLO:
            trackers[frame.stream] = model.spawn(zero_start=True)
        elif frame.kind == wire.SNAP:
            with span("gmon.loads"):
                gmon = msg.gmon.load()
            with span("online.delta"):
                vec = trackers[frame.stream].delta_vector(gmon)
            batch = pending.setdefault(frame.stream, [])
            batch.append((frame.seq, msg.gmon, vec))
            if len(batch) >= DAEMON_BATCH:
                commit(frame.stream)
        else:
            commit(frame.stream)
    return {sid: trk.phase_sequence() for sid, trk in trackers.items()}


def _stage_us(stats0: Dict, stats1: Dict, stage: str) -> float:
    s0 = stats0.get("stages", {}).get(stage, {})
    s1 = stats1.get("stages", {}).get(stage, {})
    items = s1.get("items", 0) - s0.get("items", 0)
    secs = s1.get("seconds", 0.0) - s0.get("seconds", 0.0)
    return secs / items * 1e6 if items else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_traced(spec: OnlineSpec, ctx) -> Dict[str, float]:
    """The traced run: every per-layer metric of an online workload."""
    data = Inputs(spec, ctx.seed)
    out = ctx.outcome
    fleet = spec.name == "fleet-mixed"
    window = spec.rate * ctx.seconds * OPEN_SHARE / 2
    daemon, _setups = _spawn(data, ctx, 1)
    done: List[Tuple[Batch, wire.DriveResult]] = []
    try:
        warm = data.batch(spec.warm_intervals, "warm")
        done.append((warm, wire.drive(daemon.endpoint, warm.frames)))
        # In the fleet the first pid is the router and the worker's own
        # socket gives its stage counters; alone, the daemon is both.
        stage_ep = daemon.worker_endpoints[0] if fleet else daemon.endpoint
        stats0 = _stats(stage_ep)
        batch = data.batch(window, "open")
        res_open, cpu = _open_loop(daemon.endpoint, batch, spec.rate, daemon.pids)
        done.append((batch, res_open))
        stats1 = _stats(stage_ep)
        hop_us = 0.0
        if fleet:
            direct = data.batch(window, "direct")
            res_direct = wire.drive(stage_ep, direct.frames, rate=spec.rate)
            done.append((direct, res_direct))
            hop_us = (percentile(_snap_latencies_ms(batch.frames, res_open), 50)
                      - percentile(_snap_latencies_ms(direct.frames, res_direct), 50)) * 1e3
    finally:
        _stop(daemon, ctx)
    for b, res in done:
        _gate(data, b, res, out, [0, 0], [])
    n_open = batch.intervals
    snaps = [f for f in batch.frames if f.kind == wire.SNAP]

    # The same frames replayed in-process: one warm-up pass, then
    # untraced and traced passes alternating.  The last traced pass's
    # spans give the per-layer numbers.
    walls = {False: 0.0, True: 0.0}
    for n, enabled in enumerate((False, False, True, False, True)):
        tracer = Tracer(enabled)
        store_dir = ctx.work / f"replay-{n}"
        store = SegmentStore(store_dir) if spec.name == "ingest-wide" else None
        t0 = time.perf_counter()
        labels = _replay(batch.frames, data.model, tracer, store)
        if store is not None:
            with tracer.span("store.flush"):
                store.flush()
        if n:
            walls[enabled] += time.perf_counter() - t0
        for stream_id, index in batch.streams:
            if labels.get(stream_id) != data.reference[index]:
                out.fail(len(data.pool[index].raws),
                         f"{stream_id}: in-process replay labels differ")
    tracer.trace_id = "client"
    for frame in snaps:
        with tracer.span("client.encode"):
            msg = decode_payload(frame.data[4:], lazy_gmon=True)
            encode_message(SnapshotMsg(stream_id=msg.stream_id, seq=msg.seq,
                                       gmon=msg.gmon), version=2)
    tracer.write(str(ctx.spans_path))

    selfs = tracer.self_seconds()
    counts = tracer.counts()
    per_call = lambda name: (sum(t1 - t0 for _i, n, t0, t1, _p in tracer.spans
                                 if n == name) / counts[name] * 1e6
                             if counts.get(name) else 0.0)
    names = [len(decode_payload(f.data[4:], lazy_gmon=True).gmon.load().hist)
             for f in snaps[:200]]
    novel = sum(1 for _sid, i in batch.streams for lab in data.reference[i]
                if lab < 0)
    explained_us = sum(selfs.get(n, 0.0) for n in (
        "protocol.decode", "gmon.loads", "online.delta", "online.classify",
        "store.append", "store.flush")) / n_open * 1e6
    cpu_us = sum(cpu.values()) / n_open * 1e6
    router_cpu = cpu.get(daemon.pids[0], 0.0) if fleet else 0.0
    late = _lateness_ms(res_open)
    ingested = stats1.get("ingested", 0) - stats0.get("ingested", 0)
    rejected = stats1.get("rejected", 0) - stats0.get("rejected", 0)
    metrics = zero_layers()
    metrics.update({
        "gmon.loads_us": per_call("gmon.loads"),
        "gmon.names_per_snapshot": float(np.mean(names)),
        "protocol.decode_us": per_call("protocol.decode"),
        "online.delta_us": per_call("online.delta"),
        "online.classify_us": selfs.get("online.classify", 0.0) / n_open * 1e6,
        "online.novel_ratio": novel / n_open,
        "server.difference_us": _stage_us(stats0, stats1, "difference"),
        "server.classify_us": _stage_us(stats0, stats1, "classify"),
        "server.aggregate_us": _stage_us(stats0, stats1, "aggregate"),
        "server.rejected_ratio": rejected / max(1, ingested),
        "server.cpu_us_per_interval": (sum(cpu.values()) - router_cpu) / n_open * 1e6,
        "router.hop_us": hop_us,
        "router.cpu_us_per_interval": router_cpu / n_open * 1e6,
        "client.encode_us": per_call("client.encode"),
        "client.frame_bytes": float(np.mean([len(f.data) for f in snaps])),
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.late_max_ms": max(late),
        "trace.unexplained_ratio": (cpu_us - explained_us) / cpu_us,
        "trace.overhead_ratio": walls[True] / walls[False],
    })
    if spec.name == "ingest-wide":
        metrics.update({
            "store.append_us": per_call("store.append"),
            "store.flush_ms": per_call("store.flush") / 1e3,
            "store.bytes_per_interval":
                _dir_bytes(store_dir) / n_open,
        })
    return metrics


def _stats(endpoint) -> Dict:
    from repro.service.client import PhaseClient

    with PhaseClient(endpoint) as client:
        return client.stats().data
