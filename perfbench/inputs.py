"""Seeded inputs for the three workloads.

Everything the program receives is made here from ``--seed``: the same
seed gives byte-identical streams.  Sizes never depend on the seed, so
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.generator import generate_scenario, scenario_snapshots
from repro.apps.spec import ScenarioSpec, concat_specs
from repro.core.online import OnlinePhaseTracker
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.gprof.gmon import GmonData, dumps_gmon

#: The wire bench's synthetic function table: 96 names.
WIDE_FUNCTIONS = tuple(f"func_{i:02d}" for i in range(96))
TICKS_PER_INTERVAL = 200
SAMPLE_PERIOD = 0.01


@dataclass
class Stream:
    """One publisher stream: raw v2 gmon dumps plus its phase truth."""

    stream_id: str
    raws: List[bytes]
    truth: np.ndarray
    snapshots: List[GmonData]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


# ----------------------------------------------------------------------
# ingest-wide: long streams over the 96-name table, narrow model
# ----------------------------------------------------------------------
@dataclass
class WideShape:
    """Phase types over a few of the 96 names (name index, share) each."""

    phases: List[List[Tuple[int, float]]]


def wide_shape(seed: int) -> WideShape:
    rng = _rng(seed, 1)
    pool = [int(i) for i in rng.choice(len(WIDE_FUNCTIONS), 8, replace=False)]
    phases = []
    for p in range(4):
        dominant = pool[p]
        others = [pool[4 + j] for j in rng.choice(4, 2, replace=False)]
        share = float(rng.uniform(0.6, 0.8))
        split = float(rng.uniform(0.3, 0.7))
        phases.append([(dominant, share),
                       (others[0], (1.0 - share) * split),
                       (others[1], (1.0 - share) * (1.0 - split))])
    return WideShape(phases)


def wide_stream(shape: WideShape, stream_id: str, n: int, rng: np.random.Generator,
                timeline: List[int], wide: bool) -> Stream:
    """Cumulative snapshots; ``wide`` seeds every one of the 96 names.

    With ``wide`` each snapshot carries all 96 names from the first one
    on (a base count the stream started with), while only the phase's
    few names advance — the model's columns are a small subset of what
    every frame carries.
    """
    cum = np.zeros(len(WIDE_FUNCTIONS), dtype=np.int64)
    if wide:
        cum += rng.integers(1, 5000, size=len(WIDE_FUNCTIONS))
    snaps, raws = [], []
    for i in range(n):
        for j, share in shape.phases[timeline[i]]:
            jitter = 1.0 + 0.05 * rng.standard_normal()
            cum[j] += max(0, int(round(TICKS_PER_INTERVAL * share * jitter)))
        snap = GmonData(sample_period=SAMPLE_PERIOD, timestamp=float(i + 1))
        for j in np.flatnonzero(cum):
            snap.hist[WIDE_FUNCTIONS[j]] = int(cum[j])
        snaps.append(snap)
        raws.append(dumps_gmon(snap))
    return Stream(stream_id, raws, np.asarray(timeline[:n]), snaps)


def _segment_timeline(rng: np.random.Generator, n: int, k: int,
                      lo: int, hi: int) -> List[int]:
    timeline: List[int] = []
    state = int(rng.integers(k))
    while len(timeline) < n:
        timeline += [state] * int(rng.integers(lo, hi + 1))
        state = (state + 1 + int(rng.integers(k - 1))) % k
    return timeline[:n]


def ingest_wide(seed: int, lengths: List[int], prefix: str,
                tag: int) -> List[Stream]:
    shape = wide_shape(seed)
    rng = _rng(seed, tag)
    return [wide_stream(shape, f"{prefix}-{s}", n, rng,
                        _segment_timeline(rng, n, 4, 6, 20), True)
            for s, n in enumerate(lengths)]


def ingest_wide_model(seed: int) -> OnlinePhaseTracker:
    """Model trained on a short narrow prefix that visits each phase twice."""
    shape = wide_shape(seed)
    rng = _rng(seed, 2)
    timeline = [p for _ in range(2) for p in range(4) for _ in range(8)]
    train = wide_stream(shape, "train", len(timeline), rng, timeline, False)
    return OnlinePhaseTracker.from_analysis(analyze_snapshots(
        train.snapshots, AnalysisConfig(kmax=6, drop_short_final=False)))


# ----------------------------------------------------------------------
# fleet-mixed: many short streams from a few medium scenario shapes
# ----------------------------------------------------------------------
def fleet_shapes(seed: int, count: int = 3) -> List[ScenarioSpec]:
    """Medium-tier generated scenarios with 8-12 kernel tables."""
    shapes: List[ScenarioSpec] = []
    candidate = int(seed) * 1000
    while len(shapes) < count:
        spec = generate_scenario(candidate, "medium")
        candidate += 1
        if 8 <= len(spec.kernels) <= 12:
            shapes.append(spec)
    return shapes


def _rebase(series: List[GmonData], start: int, n: int) -> List[GmonData]:
    """Window ``[start, start+n)`` of a cumulative series, from zero."""
    base = series[start - 1] if start > 0 else None
    out = []
    for i in range(start, start + n):
        snap = series[i] if base is None else series[i].subtract(base)
        snap.timestamp = series[i].timestamp
        snap.arcs = {}
        out.append(snap)
    return out


def fleet_streams(seed: int, shapes: List[ScenarioSpec], lengths: List[int],
                  prefix: str, tag: int) -> List[Stream]:
    rng = _rng(seed, tag)
    horizon = 400
    series = [scenario_snapshots(spec, horizon + max(lengths),
                                 ticks_per_interval=TICKS_PER_INTERVAL,
                                 sample_period=SAMPLE_PERIOD)
              for spec in shapes]
    streams = []
    for s, n_intervals in enumerate(lengths):
        shape = s % len(shapes)
        start = int(rng.integers(0, horizon))
        snaps = _rebase(series[shape], start, n_intervals)
        mids = np.arange(start, start + n_intervals) + 0.5
        streams.append(Stream(f"{prefix}-{s}", [dumps_gmon(x) for x in snaps],
                              shapes[shape].truth_labels(mids), snaps))
    return streams


def fleet_model(shapes: List[ScenarioSpec]) -> OnlinePhaseTracker:
    """Trained on the shapes concatenated, as the fleet selftest does."""
    spec = concat_specs("perfbench-fleet-train", *shapes)
    n = int(np.ceil(sum(p.duration for p in
                        (spec.phases[i] for i in spec.timeline))))
    snaps = scenario_snapshots(spec, n, ticks_per_interval=TICKS_PER_INTERVAL,
                               sample_period=SAMPLE_PERIOD)
    return OnlinePhaseTracker.from_analysis(analyze_snapshots(
        snaps, AnalysisConfig(kmax=12, drop_short_final=False)))


# ----------------------------------------------------------------------
# analyze-archive: paper-length easy/medium/hard streams
# ----------------------------------------------------------------------
#: Every tier at every length, six times over: the analysis cost of a
#: scenario depends on its kernel and phase counts, so many scenarios
#: per seed keep the total cost nearly the same from seed to seed.
ARCHIVE_LAYOUT = tuple((tier, n) for _ in range(6)
                       for tier in ("easy", "medium", "hard")
                       for n in (300, 600, 1000))


def archive_streams(seed: int) -> List[Tuple[Stream, ScenarioSpec]]:
    out = []
    for i, (tier, n) in enumerate(ARCHIVE_LAYOUT):
        spec = generate_scenario(int(seed) * 100 + i, tier)
        snaps = scenario_snapshots(spec, n, ticks_per_interval=TICKS_PER_INTERVAL,
                                   sample_period=SAMPLE_PERIOD)
        out.append((Stream(f"{tier}-{i}", [], np.empty(0), snaps), spec))
    return out
