"""The offline workload: ``analyze-archive``.

Set-up generates easy/medium/hard scenario streams and writes them into
a ``SegmentStore``.  One operation analyzes one archived stream in this
process with serial workers: scan -> analyze_snapshots (k = 1..8 sweep,
Algorithm 1) -> replay, scored against the generated truth.
"""

from __future__ import annotations

import resource
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np

import inputs
from common import Tracer, median, percentile, zero_layers
from repro.core import kselect as kselect_mod
from repro.core.features import build_features
from repro.core.incremental import IncrementalAnalyzer
from repro.core.instrumentation import select_sites
from repro.core.intervals import intervals_from_snapshots
from repro.core.phases import detect_phases
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.eval.scenarios import label_agreement_matched
from repro.store import segments as segments_mod
from repro.store.segments import SegmentStore

SETUP_REPEATS = 3
CONFIG = AnalysisConfig(kmax=8)


def _setup(ctx, attempt: int) -> Tuple[SegmentStore, list, float]:
    """Generate every stream and archive it; returns the store and time."""
    root = ctx.work / f"archive-{attempt}"
    t0 = time.perf_counter()
    streams = inputs.archive_streams(ctx.seed)
    store = SegmentStore(root)
    for stream, _spec in streams:
        for index, snap in enumerate(stream.snapshots):
            store.append(stream.stream_id, index, snap)
    store.flush()
    return store, streams, time.perf_counter() - t0


def _setups(ctx, repeats: int):
    times = []
    for attempt in range(repeats):
        store, streams, seconds = _setup(ctx, attempt)
        times.append(seconds)
        if attempt < repeats - 1:
            store.close()
            shutil.rmtree(store.root)
    return store, streams, times


def _scan(store: SegmentStore, stream_id: str):
    return [snap for _i, snap in store.scan(stream_id)]


def _truth(spec, analysis) -> np.ndarray:
    data = analysis.interval_data
    return spec.truth_labels(data.timestamps - data.interval / 2.0)


def run(ctx) -> Dict[str, float]:
    """The untraced run: every end-to-end metric of analyze-archive."""
    store, streams, setups = _setups(ctx, SETUP_REPEATS)
    out = ctx.outcome
    results: Dict[str, Tuple[list, list]] = {}
    per_stream_ms: List[float] = []
    agreements: Dict[str, float] = {}
    rates, cpus = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not rates or time.perf_counter() < deadline:
        # One cycle analyzes every archived stream once.
        n_intervals = 0
        cpu0, t0 = time.process_time(), time.perf_counter()
        for stream, spec in streams:
            start = time.perf_counter()
            snaps = _scan(store, stream.stream_id)
            analysis = analyze_snapshots(snaps, CONFIG)
            replay = store.replay(stream.stream_id)
            per_stream_ms.append((time.perf_counter() - start) * 1e3)
            n_intervals += len(snaps)
            out.attempted += 1
            labels = list(analysis.phase_model.labels)
            timeline = replay.phase_timeline()
            if stream.stream_id not in results:
                results[stream.stream_id] = (labels, timeline)
                agreements[stream.stream_id] = label_agreement_matched(
                    _truth(spec, analysis), labels)
            elif results[stream.stream_id] != (labels, timeline):
                out.fail(1, f"{stream.stream_id}: analysis changed between runs")
        rates.append(n_intervals / (time.perf_counter() - t0))
        cpus.append((time.process_time() - cpu0) / n_intervals * 1e6)
    matches = _check_in_memory(streams, results, out, ctx.report)
    ctx.report.update({
        "result_p50_ms": percentile(per_stream_ms, 50),
        "result_p90_ms": percentile(per_stream_ms, 90),
        "result_samples": len(per_stream_ms),
        "cycles": len(rates),
        "setup_samples_s": setups,
        "agreement_by_stream": agreements,
    })
    return {
        "setup_s": median(setups),
        "intervals_per_s": median(rates),
        "latency_p50_ms": percentile(per_stream_ms, 50),
        "latency_tail_ms": percentile(per_stream_ms, 90),
        "cpu_us_per_interval": median(cpus),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "label_match": matches,
        "agreement_median": median(agreements.values()),
    }


def _check_in_memory(streams, results, out, report) -> float:
    """Archive-path labels must equal labels from the in-memory snapshots.

    The in-memory paths are ``analyze_snapshots`` on the generated
    snapshots, and the streaming engine fed them with the replay
    defaults.  The archive stores a snapshot's names sorted, and the
    streaming engine's refits depend on name order, so the engine gate
    feeds it the names in that order too; streams whose replay changes
    with the generated order are counted in the report instead.
    """
    same = total = 0
    order_sensitive = []
    for stream, _spec in streams:
        labels, timeline = results[stream.stream_id]
        mem = list(analyze_snapshots(stream.snapshots, CONFIG).phase_model.labels)
        total += len(mem)
        same += sum(1 for a, b in zip(labels, mem) if a == b)
        if labels != mem:
            out.fail(1, f"{stream.stream_id}: archive labels differ from "
                        "in-memory labels")
        if _engine_timeline(_sorted_names(stream.snapshots)) != timeline:
            out.fail(1, f"{stream.stream_id}: archive replay differs from "
                        "the in-memory engine")
        if _engine_timeline(stream.snapshots) != timeline:
            order_sensitive.append(stream.stream_id)
    report["replay_name_order_sensitive"] = order_sensitive
    return same / max(1, total)


def _engine_timeline(snapshots) -> list:
    engine = IncrementalAnalyzer(AnalysisConfig(), track=True, warmup=12,
                                 refit_cooldown=16)
    return [engine.observe(snap).phase_id for snap in snapshots]


def _sorted_names(snapshots) -> list:
    out = []
    for snap in snapshots:
        copy = snap.copy()
        copy.hist = dict(sorted(snap.hist.items()))
        copy.arcs = dict(sorted(snap.arcs.items()))
        out.append(copy)
    return out


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class _Patched:
    """Wrap loads_gmon (store reads) and kmeans (the k sweep) with spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.fits = 0
        self.iterations = 0

    def __enter__(self) -> "_Patched":
        self._loads = segments_mod.loads_gmon
        self._kmeans = kselect_mod.kmeans
        loads, kmeans, tracer = self._loads, self._kmeans, self.tracer

        def traced_loads(blob):
            with tracer.span("gmon.loads"):
                return loads(blob)

        def traced_kmeans(*args, **kwargs):
            with tracer.span("kmeans.fit"):
                result = kmeans(*args, **kwargs)
            self.fits += 1
            self.iterations += result.n_iter
            return result

        segments_mod.loads_gmon = traced_loads
        kselect_mod.kmeans = traced_kmeans
        return self

    def __exit__(self, *exc_info) -> None:
        segments_mod.loads_gmon = self._loads
        kselect_mod.kmeans = self._kmeans


def _stepwise(store, stream, tracer: Tracer):
    """analyze_snapshots' layers called one by one, each in a span."""
    span = tracer.span
    with span("store.scan"):
        snaps = _scan(store, stream.stream_id)
    with span("intervals.diff"):
        data = intervals_from_snapshots(
            snaps, drop_short_final=CONFIG.drop_short_final,
            min_final_fraction=CONFIG.min_final_fraction)
        data = data.drop_inactive_functions()
    with span("features.build"):
        features = build_features(data, CONFIG.feature)
    with span("kselect.sweep"):
        model = detect_phases(features, kmax=CONFIG.kmax,
                              method=CONFIG.kselect_method, seed=CONFIG.seed,
                              n_init=CONFIG.n_init,
                              threshold=CONFIG.kselect_threshold)
    with span("sites.select"):
        selection = select_sites(data, model, features=features,
                                 coverage_threshold=CONFIG.coverage_threshold)
    with span("store.replay"):
        replay = store.replay(stream.stream_id)
    return snaps, model, selection, replay


def run_traced(ctx) -> Dict[str, float]:
    """The traced run: every per-layer metric of analyze-archive."""
    store, streams, _setups_s = _setups(ctx, 1)
    out = ctx.outcome
    tracer = Tracer(True)
    patched = _Patched(tracer)
    walls = {True: 0.0, False: 0.0}
    reference: Dict[str, Tuple[list, list]] = {}
    n_traced = 0
    cpu_traced = 0.0
    names: List[int] = []
    deadline = time.perf_counter() + ctx.seconds
    cycle = -1
    while cycle < 2 or cycle % 2 or time.perf_counter() < deadline:
        # After one untimed warm-up pass, traced and untraced passes over
        # the same streams alternate, as many of each; untraced ones run
        # with spans and wrappers off.
        traced = cycle % 2 == 0
        tracer.enabled = traced
        for stream, _spec in streams:
            tracer.trace_id = f"{stream.stream_id}:{cycle}"
            c0, t0 = time.process_time(), time.perf_counter()
            if traced:
                with patched:
                    snaps, model, selection, replay = _stepwise(store, stream, tracer)
            else:
                snaps, model, selection, replay = _stepwise(store, stream, tracer)
            if cycle >= 0:
                walls[traced] += time.perf_counter() - t0
            out.attempted += 1
            if traced:
                cpu_traced += time.process_time() - c0
                n_traced += len(snaps)
                if len(names) < 200:
                    names.append(len(snaps[-1].hist))
            got = (list(model.labels), replay.phase_timeline())
            if stream.stream_id not in reference:
                analysis = analyze_snapshots(snaps, CONFIG)
                reference[stream.stream_id] = (
                    list(analysis.phase_model.labels),
                    store.replay(stream.stream_id).phase_timeline())
                if selection.all_sites() != analysis.selection.all_sites():
                    out.fail(1, f"{stream.stream_id}: stepwise sites differ "
                                "from analyze_snapshots")
            if got != reference[stream.stream_id]:
                out.fail(1, f"{stream.stream_id}: stepwise labels differ "
                            "from analyze_snapshots")
        cycle += 1
    tracer.enabled = True
    tracer.write(str(ctx.spans_path))
    selfs = tracer.self_seconds()
    counts = tracer.counts()
    total = lambda name: sum(t1 - t0 for _i, n, t0, t1, _p in tracer.spans
                             if n == name)
    n_streams = counts.get("store.scan", 1)
    cpu_us = cpu_traced / n_traced * 1e6
    explained_us = sum(selfs.values()) / n_traced * 1e6
    metrics = zero_layers()
    metrics.update({
        "gmon.loads_us": total("gmon.loads") / counts["gmon.loads"] * 1e6,
        "gmon.names_per_snapshot": float(np.mean(names)),
        "store.scan_us": total("store.scan") / n_traced * 1e6,
        "store.replay_us": total("store.replay") / n_traced * 1e6,
        "intervals.diff_us": total("intervals.diff") / n_traced * 1e6,
        "features.build_ms": total("features.build") / n_streams * 1e3,
        "kselect.sweep_ms": total("kselect.sweep") / n_streams * 1e3,
        "kmeans.fits": patched.fits / n_streams,
        "kmeans.iterations": patched.iterations / max(1, patched.fits),
        "sites.select_ms": total("sites.select") / n_streams * 1e3,
        "trace.unexplained_ratio": (cpu_us - explained_us) / cpu_us,
        "trace.overhead_ratio": walls[True] / walls[False],
    })
    return metrics
