"""The online tracking loop: key-frame scheduling, per-frame dispatch,
trajectory output, and per-stage timings.

Frames are numbered 1-based; frame t is a key frame when (t-1) mod K == 0.
Key frames run detection, association, and object management; non-key frames
only propagate boxes, leaving states, galleries, and counters untouched. Only
confirmed objects are emitted, never retroactively, nor any the frame clips
to a side under 0.005. The loop is strictly online: output for frame t
depends only on frames <= t. The state is one `TrackTable`, whose box array
moves and clips whole; a key frame's detections are one `Detections` table,
and its matches (rows, cols) index arrays. The detector and the propagator
are callables `track` takes; `make_propagator` builds the configured one.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityHeadParams, GalleryStore
from .association import associate
from .lifecycle import update
from .model import ENVELOPE, BBox, ConfigError, Detections, TrackerConfig, TrackTable, box_corners, corner_boxes, frame_spans, predict_boxes
from .motion import (
    FieldReadout,
    RegressorParams,
    propagate_bbox_avg,
    propagate_pixel_shift,
)
from .stream import OracleDetector, Scenario, read_mot_table  # noqa: F401 - OracleDetector keeps its import path here


def is_key_frame(t: int, K: int) -> bool:
    """1-based key-frame test: frames 1, 1+K, 1+2K, ..."""
    return (t - 1) % K == 0


@dataclass
class FrameTimings:
    """Per-stage wall-clock totals, split by frame kind."""

    t_det: float = 0.0
    t_ass: float = 0.0
    t_man: float = 0.0
    t_pro: float = 0.0
    key_frames: int = 0
    nonkey_frames: int = 0

    def mean_key(self) -> tuple:
        n = max(self.key_frames, 1)
        return self.t_det / n, self.t_ass / n, self.t_man / n

    def mean_pro(self) -> float:
        return self.t_pro / self.nonkey_frames if self.nonkey_frames else 0.0


def speedup_model(timings: FrameTimings, K: int) -> float:
    """Modeled speedup over a run-every-frame tracker.

    s = K*(T_det + T_ass + T_man) / (T_det + T_ass + T_man + (K-1)*T_pro)
    with per-frame stage means; approaches 10K/(K+9) when propagation costs
    a tenth of detection-plus-association.
    """
    t_det, t_ass, t_man = timings.mean_key()
    key = t_det + t_ass + t_man
    if key <= 0:
        raise ValueError("key-frame timings must be positive")
    return K * key / (key + (K - 1) * timings.mean_pro())


class FileDetector:
    """Detections loaded from a MOTChallenge det-format file.

    External detections carry no appearance, so each one gets a synthetic
    patch seeded from its (frame, rank) position: deterministic, but
    uncorrelated across frames. Appearance association degrades gracefully
    to near-chance affinities; geometry still works. Confidences are
    clipped to [0, 1].
    """

    def __init__(self, path, header, seed: int = 0):
        table = read_mot_table(path)
        order = np.argsort(table.frame, kind="stable")
        self._boxes = table.boxes[order]
        self._conf = np.clip(table.conf[order], 0.0, 1.0)
        self._spans = frame_spans(table.frame[order])
        self.shape = (header.feature_bins, header.feature_bins, header.feature_channels)
        self.seed = seed

    def __call__(self, frame: int) -> Detections:
        span = self._spans.get(frame, slice(0))
        conf = self._conf[span]
        features = [np.random.default_rng([self.seed, frame, i]).standard_normal(self.shape) for i in range(len(conf))]
        return Detections(self._boxes[span], conf, np.array(features).reshape(-1, *self.shape))


@dataclass
class TrackerModels:
    """Fitted parameters the engine may need, depending on configuration."""

    regressor: RegressorParams | None = None
    affinity: AffinityHeadParams | None = None


def _validate(scenario: Scenario, cfg: TrackerConfig, models: TrackerModels) -> None:
    if scenario.header.gop % cfg.K != 0:
        raise ConfigError(f"K={cfg.K} must divide the stream GOP size {scenario.header.gop}")
    if cfg.propagator == "regressor":
        if models.regressor is None:
            raise ConfigError("the regressor propagator requires fitted regressor parameters")
    needs_affinity = cfg.association_mode == "twostep" or (cfg.association_mode == "onestep" and cfg.alpha < 1.0)
    if needs_affinity and models.affinity is None:
        raise ConfigError(f"association mode {cfg.association_mode!r} requires fitted affinity parameters")


def make_propagator(cfg: TrackerConfig, models: TrackerModels):
    """The configured non-key-frame step: (n, 4) boxes, a MotionFrame and the
    block size in, the moved (n, 4) boxes out.

    The motion functions are looked up in this module's namespace when the
    step is made or run, which is where perfbench's tracer wraps them.
    """
    if cfg.propagator == "bboxavg":
        return propagate_bbox_avg
    if cfg.propagator == "pixelshift":
        return propagate_pixel_shift

    def regress(boxes, frame, block):
        return predict_boxes(FieldReadout(models.regressor, frame).velocities(boxes, block), boxes)

    return regress


def _checked(t: int, detections: Detections, shape: tuple) -> Detections:
    """Frame t's table, once its columns hold one confidence, one box and one
    patch of the stream's (m, m, c) `shape` per row, its patches are finite,
    its confidences lie in [0, 1] and its boxes are finite with positive
    sizes."""
    conf, boxes = detections.conf, detections.boxes
    n = len(conf)
    if np.ndim(conf) != 1:
        raise ValueError(f"frame {t}: detection confidences must have shape ({n},), got {np.shape(conf)}")
    if np.shape(boxes) != (n, 4):
        raise ValueError(f"frame {t}: detection boxes must have shape {(n, 4)}, got {np.shape(boxes)}")
    if np.shape(detections.features) != (n, *shape):
        raise ValueError(f"frame {t}: detection features must have shape {(n, *shape)}, got {np.shape(detections.features)}")
    if not np.isfinite(detections.features).all():
        raise ValueError(f"frame {t}: detection features must be finite")
    bad = np.flatnonzero(~((conf >= 0) & (conf <= 1)))
    if len(bad):
        raise ValueError(f"frame {t}: detection confidence must lie in [0, 1], got {conf[bad[0]]}")
    bad = np.flatnonzero(~np.isfinite(boxes).all(axis=1))
    if len(bad):
        x, y, w, h = boxes[bad[0]].tolist()
        raise ValueError(f"frame {t}: detection box must be finite, got x={x} y={y} w={w} h={h}")
    size = boxes[:, 2:]
    bad = np.flatnonzero(~(size > 0).all(axis=1))
    if len(bad):
        raise ValueError(f"frame {t}: detection box size must be positive, got w={size[bad[0], 0]} h={size[bad[0], 1]}")
    return detections


def _rows(t: int, tracks: TrackTable, width: int, height: int) -> list:
    """(t, id, BBox) for each confirmed row, its box clipped to the frame; a
    box left with a side under 0.005 ('%.2f' writes 0.00) is not emitted."""
    corners = box_corners(tracks.boxes[tracks.confirmed])
    corners[:, :2] = np.maximum(corners[:, :2], 0.0)
    corners[:, 2:] = np.minimum(corners[:, 2:], (float(width), float(height)))
    boxes = corner_boxes(corners)
    keep = (boxes[:, 2:] >= 0.005).all(axis=1)
    ids = tracks.ids[tracks.confirmed][keep].tolist()
    return [(t, i, BBox(*b)) for i, b in zip(ids, boxes[keep].tolist())]


def track(
    scenario: Scenario,
    detector,
    cfg: TrackerConfig,
    models: TrackerModels = TrackerModels(),
    propagate=None,
):
    """Run the tracker over a scenario.

    `detector` is any callable mapping a 1-based frame number to a
    `Detections` table; columns whose shapes disagree (one confidence, one
    box and one patch of the stream header's shape per row), a non-finite
    patch value, a confidence outside [0, 1], a non-finite box coordinate or
    a box without positive width and height raise ValueError naming the
    frame; the boxes are then clipped into `model.ENVELOPE`.
    `propagate` is the non-key-frame step, called once per non-key frame
    with tracked rows (see `make_propagator`, its default).
    Returns (rows, timings) where rows are (frame, id, BBox) for confirmed
    objects, boxes clipped to the frame.
    """
    _validate(scenario, cfg, models)
    header = scenario.header
    if propagate is None:
        propagate = make_propagator(cfg, models)
    shape = (header.feature_bins, header.feature_bins, header.feature_channels)
    tracks = TrackTable.empty(GalleryStore(cfg.l_f))
    id_source = itertools.count(1)
    rows = []
    tm = FrameTimings()

    for t in range(1, scenario.n_frames + 1):
        frame_data = scenario.frames[t - 1]
        if is_key_frame(t, cfg.K):
            tm.key_frames += 1
            t0 = time.perf_counter()
            detections = _checked(t, detector(t), shape)
            keep = detections.conf >= cfg.conf_min
            if not keep.all():
                detections = Detections(*(column[keep] for column in detections))
            detections = detections._replace(boxes=np.clip(detections.boxes, *ENVELOPE))
            t1 = time.perf_counter()
            matches = associate(tracks, detections, models.affinity, cfg)
            t2 = time.perf_counter()
            tracks = update(tracks, detections, matches, cfg, id_source)
            t3 = time.perf_counter()
            tm.t_det += t1 - t0
            tm.t_ass += t2 - t1
            tm.t_man += t3 - t2
        else:
            tm.nonkey_frames += 1
            t0 = time.perf_counter()
            if len(tracks):
                tracks.boxes = propagate(tracks.boxes, frame_data, header.block)
            tm.t_pro += time.perf_counter() - t0
        rows += _rows(t, tracks, header.width, header.height)
    return rows, tm


def write_timing_report(timings: FrameTimings, K: int, path) -> None:
    """Delimited-text timing report: stage totals, per-frame-kind means and
    the modeled speedup."""
    t_det, t_ass, t_man = timings.mean_key()
    lines = [
        "stage\ttotal_s\tmean_s",
        f"det\t{timings.t_det:.6f}\t{t_det:.6f}",
        f"ass\t{timings.t_ass:.6f}\t{t_ass:.6f}",
        f"man\t{timings.t_man:.6f}\t{t_man:.6f}",
        f"pro\t{timings.t_pro:.6f}\t{timings.mean_pro():.6f}",
        f"frames\tkey={timings.key_frames}\tnonkey={timings.nonkey_frames}",
        f"speedup_modeled\tK={K}\t{speedup_model(timings, K):.4f}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
