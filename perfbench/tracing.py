"""Spans and counters recorded from outside the program.

`Tracer.patched()` swaps public mvtrack functions for wrappers at the
module attributes where the engine and CLI look them up, and restores
them on exit. Each wrapper appends a span [name, start, end, parent,
probe] to an in-memory list; `probe` labels the benchmark call (an
in-process track, a CLI track, a CLI evaluate) the span belongs to.
Frame spans come from the scenario's frame list: the engine reads frame
t once at the top of its loop, so a read marks the end of frame t-1.

`layer_metrics` turns the spans into the per-layer numbers. A span's self
time is its duration minus that of its direct children.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import math
import statistics
import time
from collections import Counter, defaultdict

import mvtrack.affinity
import mvtrack.association
import mvtrack.cli
import mvtrack.engine
import mvtrack.stream
from mvtrack.engine import FrameTimings, is_key_frame, speedup_model

NAME, START, END, PARENT, PROBE = range(5)

# Per-layer metrics reported with --trace 1: name -> (unit, better).
PER_LAYER = {
    "stream.read_scenario_s": ("s", "lower"),
    "stream.scenario_mb": ("MB", "lower"),
    "stream.detect_ms.p50": ("ms", "lower"),
    "stream.detect_ms.p90": ("ms", "lower"),
    "stream.feature_of_calls": ("count", "lower"),
    "stream.write_motchallenge_s": ("s", "lower"),
    "stream.read_motchallenge_s": ("s", "lower"),
    "modelio.read_models_s": ("s", "lower"),
    "motion.pro_ms.p50": ("ms", "lower"),
    "motion.pro_ms.p90": ("ms", "lower"),
    "motion.encode_share": ("ratio", "lower"),
    "motion.readout_share": ("ratio", "lower"),
    "motion.apply_share": ("ratio", "lower"),
    "motion.propagate_calls": ("count", "lower"),
    "affinity.pairs": ("count", "lower"),
    "affinity.pairs_k1": ("count", "lower"),
    "affinity.ms": ("ms", "lower"),
    "affinity.normalize_per_pair": ("ratio", "lower"),
    "association.ms.p50": ("ms", "lower"),
    "association.ms.p90": ("ms", "lower"),
    "association.iou_ms": ("ms", "lower"),
    "association.hungarian_ms": ("ms", "lower"),
    "association.cost_cells": ("count", "lower"),
    "association.match_ratio": ("ratio", "higher"),
    "association.matches_per_pair": ("ratio", "higher"),
    "lifecycle.ms": ("ms", "lower"),
    "lifecycle.births": ("count", "lower"),
    "lifecycle.deletions": ("count", "lower"),
    "lifecycle.active_mean": ("count", "lower"),
    "lifecycle.gallery_mean": ("count", "lower"),
    "engine.det_ms": ("ms", "lower"),
    "engine.ass_ms": ("ms", "lower"),
    "engine.man_ms": ("ms", "lower"),
    "engine.pro_ms": ("ms", "lower"),
    "engine.key_frame_ms.p50": ("ms", "lower"),
    "engine.key_frame_ms.p90": ("ms", "lower"),
    "engine.other_ms": ("ms", "lower"),
    "engine.span_coverage": ("ratio", "higher"),
    "engine.pro_key_ratio": ("ratio", "lower"),
    "engine.speedup_modeled": ("ratio", "higher"),
    "engine.speedup_measured": ("ratio", "higher"),
    "engine.trace_overhead": ("ratio", "lower"),
    "metrics.clear_mot_s": ("s", "lower"),
    "metrics.idf1_s": ("s", "lower"),
    "metrics.hyp_tracks": ("count", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "accuracy.ids": ("count", "lower"),
    "accuracy.ids_k1": ("count", "lower"),
}

# Spans whose time counts as propagation, by the part of it they measure.
MOTION_PARTS = {"motion.encode": "encode", "motion.readout": "readout", "motion.apply": "apply",
                "motion.propagate": "readout"}


class FrameClock(list):
    """A scenario's frame list that reports each frame the engine reads."""

    def __init__(self, frames, tracer):
        super().__init__(frames)
        self.tracer = tracer

    def __getitem__(self, i):
        self.tracer.mark_frame(i + 1)
        return super().__getitem__(i)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.probe = ""
        self.counts = Counter()  # (probe, counter name) -> count
        self.K = 1
        self.frame_span = None

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.probe])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        while self.stack and self.stack[-1] != idx:
            self.spans[self.stack.pop()][END] = time.perf_counter()
        self.stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.probe, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, value: float) -> None:
        self.counts[self.probe, name] += value

    def mark_frame(self, t: int) -> None:
        if self.frame_span is not None:
            self._close(self.frame_span)
        self.frame_span = self._open("engine.key_frame" if is_key_frame(t, self.K) else "engine.frame")

    @contextlib.contextmanager
    def probing(self, probe: str):
        self.probe = probe
        try:
            yield
        finally:
            self.probe = ""

    def traced_track(self, scenario, detector, cfg, models=mvtrack.engine.TrackerModels(), **kwargs):
        """engine.track with a frame clock on the scenario and a span around
        every detector call."""
        frames = scenario.frames
        scenario.frames = FrameClock(frames, self)
        self.K = cfg.K
        idx = self._open("engine.track")
        try:
            return self._track(scenario, self.wrap("stream.detect", detector), cfg, models, **kwargs)
        finally:
            self._close(idx)  # also closes the last frame span
            self.frame_span = None
            scenario.frames = frames

    # -- patching --------------------------------------------------------

    def _on_associate(self, args, result):
        objects, detections = args[0], args[1]
        self.add("objects", len(objects))
        self.add("gallery", sum(len(o.gallery) for o in objects))
        self.add("detections", len(detections))
        self.add("matches", len(result.matches))

    def _on_manage(self, args, result):
        survivors, newborn = result
        self.add("births", len(newborn))
        self.add("deletions", len(args[0]) - len(survivors))

    def _on_hungarian(self, args, result):
        rows, cols = getattr(args[0], "shape", (0, 0))
        self.add("cells", rows * cols)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; missing names are skipped, so the tracer
        keeps working when the program drops one."""
        eng, assoc, cli = mvtrack.engine, mvtrack.association, mvtrack.cli
        self._track = eng.track
        plan = [
            (eng, "associate_two_step", lambda f: self.wrap("association.associate", f, self._on_associate)),
            (eng, "associate_one_step", lambda f: self.wrap("association.associate", f, self._on_associate)),
            (eng, "apply_matches", lambda f: self.wrap("lifecycle.apply_matches", f)),
            (eng, "manage_states", lambda f: self.wrap("lifecycle.manage_states", f, self._on_manage)),
            (eng, "encode_motion", lambda f: self.wrap("motion.encode", f)),
            (eng, "FieldReadout", self._traced_readout),
            (eng, "predict_bbox", lambda f: self.wrap("motion.apply", f)),
            (eng, "propagate_bbox_avg", lambda f: self.counter("propagate", self.wrap("motion.propagate", f))),
            (eng, "propagate_pixel_shift", lambda f: self.counter("propagate", self.wrap("motion.propagate", f))),
            (assoc, "appearance_cost", lambda f: self.wrap("affinity.appearance_cost", f)),
            (assoc, "hungarian", lambda f: self.wrap("association.hungarian", f, self._on_hungarian)),
            (mvtrack.affinity, "affinity", lambda f: self.counter("pairs", f)),
            (mvtrack.affinity, "normalize_channels", lambda f: self.counter("normalize", f)),
            (mvtrack.stream.Scenario, "feature_of", lambda f: self.counter("feature_of", f)),
            (cli, "main", lambda f: self.wrap("cli.main", f)),
            (cli, "read_scenario", lambda f: self.wrap("stream.read_scenario", f)),
            (cli, "read_models", lambda f: self.wrap("modelio.read_models", f)),
            (cli, "write_motchallenge", lambda f: self.wrap("stream.write_motchallenge", f)),
            (cli, "read_motchallenge", lambda f: self.wrap("stream.read_motchallenge", f)),
            (cli, "clear_mot", lambda f: self.wrap("metrics.clear_mot", f)),
            (cli, "idf1", lambda f: self.wrap("metrics.idf1", f)),
            (cli, "track", lambda f: self.traced_track),
        ]
        saved = []
        try:
            for owner, name, make in plan:
                original = owner.__dict__.get(name)
                if original is None:
                    continue
                saved.append((owner, name, original))
                setattr(owner, name, make(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _traced_readout(self, base):
        tracer = self

        class Readout(base):
            __init__ = tracer.wrap("motion.readout", base.__init__)
            velocities = tracer.wrap("motion.readout", base.velocities)

        return Readout

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, probe in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "probe": probe}) + "\n")


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)  # (probe, name) -> span indices
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)
            self.by_name[s[PROBE], s[NAME]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def total(self, probe: str, name: str) -> float:
        return sum(self.dur(i) for i in self.by_name[probe, name])

    def durations(self, probe: str, name: str) -> list:
        return [self.dur(i) for i in self.by_name[probe, name]]

    def per_parent(self, probe: str, name: str) -> list:
        """Total duration of a probe's `name` spans under each parent span."""
        out = defaultdict(float)
        for i in self.by_name[probe, name]:
            out[self.spans[i][PARENT]] += self.dur(i)
        return list(out.values())


def merged_timings(timings) -> FrameTimings:
    out = FrameTimings()
    for tm in timings:
        out.t_det += tm.t_det
        out.t_ass += tm.t_ass
        out.t_man += tm.t_man
        out.t_pro += tm.t_pro
        out.key_frames += tm.key_frames
        out.nonkey_frames += tm.nonkey_frames
    return out


def layer_metrics(tracer: Tracer, K: int, n_frames: int, runs: dict) -> tuple:
    """Per-layer metrics from the traced probes, and the problems the span
    consistency checks found.

    `runs` carries what the benchmark measured around the traced calls:
    untraced and traced frame rates, the engine's FrameTimings, the scenario
    size, the number of hypothesis tracks and the identity switches.
    """
    ix = SpanIndex(tracer.spans)
    counts = tracer.counts
    problems = []
    m = {}
    k, k1, cli_t, ev = "track_k", "track_k1", "cli_track", "cli_evaluate"
    n_runs = max(len(ix.by_name[k, "engine.track"]), 1)
    key_frames = ix.by_name[k, "engine.key_frame"]
    frames = ix.by_name[k, "engine.frame"]
    nk = max(len(key_frames), 1)
    ms = 1e3

    m["stream.read_scenario_s"] = _median(ix.durations(cli_t, "stream.read_scenario"))
    m["stream.scenario_mb"] = runs["scenario_mb"]
    detect = [ix.dur(i) * ms for i in ix.by_name[k, "stream.detect"]]
    m["stream.detect_ms.p50"] = percentile(detect, 50)
    m["stream.detect_ms.p90"] = percentile(detect, 90)
    m["stream.feature_of_calls"] = counts[k, "feature_of"] / n_runs
    m["stream.write_motchallenge_s"] = _median(ix.durations(cli_t, "stream.write_motchallenge"))
    m["stream.read_motchallenge_s"] = _median(ix.per_parent(ev, "stream.read_motchallenge"))
    m["modelio.read_models_s"] = _median(ix.durations(cli_t, "modelio.read_models"))

    pro, parts = [], Counter()
    for f in frames:
        total = 0.0
        for c in ix.children[f]:
            part = MOTION_PARTS.get(ix.spans[c][NAME])
            if part is not None:
                parts[part] += ix.dur(c)
                total += ix.dur(c)
        pro.append(total * ms)
    pro_total = sum(parts.values()) or 1.0
    m["motion.pro_ms.p50"] = percentile(pro, 50)
    m["motion.pro_ms.p90"] = percentile(pro, 90)
    for part in ("encode", "readout", "apply"):
        m[f"motion.{part}_share"] = parts[part] / pro_total
    m["motion.propagate_calls"] = counts[k, "propagate"] / n_runs

    pairs = counts[k, "pairs"]
    m["affinity.pairs"] = pairs / nk
    m["affinity.pairs_k1"] = counts[k1, "pairs"] / max(len(ix.by_name[k1, "engine.key_frame"]), 1)
    m["affinity.ms"] = ix.total(k, "affinity.appearance_cost") * ms / nk
    m["affinity.normalize_per_pair"] = counts[k, "normalize"] / max(pairs, 1)

    assoc = [ix.dur(i) * ms for i in ix.by_name[k, "association.associate"]]
    m["association.ms.p50"] = percentile(assoc, 50)
    m["association.ms.p90"] = percentile(assoc, 90)
    m["association.iou_ms"] = sum(ix.self_time(i) for i in ix.by_name[k, "association.associate"]) * ms / nk
    m["association.hungarian_ms"] = ix.total(k, "association.hungarian") * ms / nk
    m["association.cost_cells"] = counts[k, "cells"] / n_runs
    m["association.match_ratio"] = counts[k, "matches"] / max(counts[k, "detections"], 1)
    m["association.matches_per_pair"] = counts[k, "matches"] / max(pairs, 1)

    m["lifecycle.ms"] = (ix.total(k, "lifecycle.apply_matches") + ix.total(k, "lifecycle.manage_states")) * ms / nk
    m["lifecycle.births"] = counts[k, "births"] / n_runs
    m["lifecycle.deletions"] = counts[k, "deletions"] / n_runs
    m["lifecycle.active_mean"] = counts[k, "objects"] / nk
    m["lifecycle.gallery_mean"] = counts[k, "gallery"] / max(counts[k, "objects"], 1)

    traced = merged_timings(runs["traced_timings"])
    t_det, t_ass, t_man = traced.mean_key()
    m["engine.det_ms"] = t_det * ms
    m["engine.ass_ms"] = t_ass * ms
    m["engine.man_ms"] = t_man * ms
    m["engine.pro_ms"] = traced.mean_pro() * ms
    key = []
    for f in key_frames:
        kids = ix.children[f]
        starts = [ix.spans[c][START] for c in kids if ix.spans[c][NAME] == "stream.detect"]
        ends = [ix.spans[c][END] for c in kids if ix.spans[c][NAME] == "lifecycle.manage_states"]
        if starts and ends:
            key.append((ends[-1] - starts[0]) * ms)
    m["engine.key_frame_ms.p50"] = percentile(key, 50)
    m["engine.key_frame_ms.p90"] = percentile(key, 90)
    all_frames = key_frames + frames
    m["engine.other_ms"] = sum(ix.self_time(f) for f in all_frames) * ms / max(len(all_frames), 1)
    wall = ix.total(k, "engine.track")
    m["engine.span_coverage"] = sum(ix.dur(f) for f in all_frames) / wall if wall else 0.0

    native = merged_timings(runs["untraced_timings"])
    d0, a0, _ = native.mean_key()
    m["engine.pro_key_ratio"] = native.mean_pro() / (d0 + a0) if d0 + a0 > 0 else 0.0
    m["engine.speedup_modeled"] = speedup_model(native, K)
    m["engine.speedup_measured"] = runs["fps"] / runs["fps_k1"]
    m["engine.trace_overhead"] = runs["fps"] / runs["fps_traced"] - 1.0

    m["metrics.clear_mot_s"] = _median(ix.durations(ev, "metrics.clear_mot"))
    m["metrics.idf1_s"] = _median(ix.durations(ev, "metrics.idf1"))
    m["metrics.hyp_tracks"] = runs["hyp_tracks"]
    m["cli.overhead_s"] = _median([ix.self_time(i) for i in ix.by_name[cli_t, "cli.main"]])
    m["accuracy.ids"] = runs["ids"]
    m["accuracy.ids_k1"] = runs["ids_k1"]

    # consistency: frame spans tile the traced track call, and K=1 never propagates
    if not 0.95 <= m["engine.span_coverage"] <= 1.0 + 1e-9:
        problems.append(f"frame spans cover {m['engine.span_coverage']:.4f} of the traced track wall time")
    if len(all_frames) != n_frames * n_runs:
        problems.append(f"{len(all_frames)} frame spans for {n_runs} runs of {n_frames} frames")
    k1_motion = sum(len(ix.by_name[k1, name]) for name in MOTION_PARTS)
    if k1_motion or any(tm.nonkey_frames for tm in runs["traced_timings_k1"]):
        problems.append(f"K=1 run propagated: {k1_motion} motion spans")
    return m, problems
