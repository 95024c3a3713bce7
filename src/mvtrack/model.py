"""Core domain types shared by every stage of the tracker.

A box is four numbers, center (x, y) plus width and height in pixels, kept
in continuous (sub-pixel) coordinates; discretization happens only at file
I/O. A row carries one as an (x, y, w, h) tuple of floats, and a table as
one row of an (n, 4) array. Object ids are monotonically increasing and
never reused, even after deletion. The tracker's state is one `TrackTable`
of columns; a key frame's detections arrive as one `Detections` table and a
MOTChallenge file reads as one `MotTable`, both of columns; `mot_table` is
the one place where (frame, id, box, conf) rows become a `MotTable`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# An appearance feature patch is a plain float array of shape (m, m, c):
# m spatial bins per side, c channels.
FeaturePatch = np.ndarray


class ConfigError(ValueError):
    """Invalid configuration (maps to CLI exit code 2)."""


class Detections(NamedTuple):
    """A key frame's detections, one row each; a detector maps a 1-based frame to one."""

    boxes: np.ndarray  # (n, 4) x, y, w, h
    conf: np.ndarray  # (n,) float in [0, 1]
    features: np.ndarray  # (n, m, m, c) appearance patches


@dataclass
class TrackTable:
    """The tracker's state: one row per live object, in birth order.

    `hits`/`misses` count consecutive key frames with/without an associated
    detection; each key-frame update increments exactly one and resets the
    other. Deleted objects leave the table. Each row's appearance gallery
    is slot `slots[i]` of `gallery`, an `affinity.GalleryStore` that every
    table of one run shares, so rebuilding the table moves no patch.
    """

    ids: np.ndarray  # (n,) int
    confirmed: np.ndarray  # (n,) bool
    hits: np.ndarray  # (n,) int
    misses: np.ndarray  # (n,) int
    boxes: np.ndarray  # (n, 4) x, y, w, h
    slots: np.ndarray  # (n,) int, each row's slot in `gallery`
    gallery: object  # the GalleryStore, capacity l_f

    @classmethod
    def empty(cls, gallery) -> "TrackTable":
        n = np.zeros(0, dtype=np.int64)
        return cls(n, np.zeros(0, dtype=bool), n, n, np.zeros((0, 4)), n, gallery)

    def __len__(self) -> int:
        return len(self.ids)


class MotTable(NamedTuple):
    """MOTChallenge rows as columns; ground truth's conf is its visibility."""

    frame: np.ndarray  # (n,) int, 1-based
    id: np.ndarray  # (n,) int
    boxes: np.ndarray  # (n, 4) x, y, w, h
    conf: np.ndarray  # (n,) float


@dataclass
class MotionFrame:
    """Per-frame block-grid motion data.

    `mv` has shape (2, gw, gh) indexed [component, bx, by] with component 0 =
    horizontal and 1 = vertical displacement in whole pixels, describing how
    each block moved from the previous frame to this one. `residual` has
    shape (gw, gh), each value finite and at most MAX_INPUT in magnitude.
    Intra frames carry no motion: both tensors are all-zero.
    """

    index: int
    kind: str  # "I" or "P"
    mv: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        if self.kind not in ("I", "P"):
            raise ValueError(f"frame kind must be I or P, got {self.kind!r}")
        if self.mv.ndim != 3 or self.mv.shape[0] != 2:
            raise ValueError(f"mv must have shape (2, gw, gh), got {self.mv.shape}")
        if self.residual.shape != self.mv.shape[1:]:
            raise ValueError("residual grid does not match mv grid")
        bad = out_of_bounds(self.residual)
        if bad is not None:
            raise ValueError(f"frame {self.index}: residual must be finite and at most {MAX_INPUT:g} in magnitude, got {bad}")
        if self.kind == "I" and (np.any(self.mv) or np.any(self.residual)):
            raise ValueError(f"I-frame {self.index} must carry all-zero motion data")

    @classmethod
    def intra(cls, index: int, gw: int, gh: int) -> "MotionFrame":
        return cls(index, "I", np.zeros((2, gw, gh), dtype=np.int32), np.zeros((gw, gh)))


ASSOCIATION_MODES = ("twostep", "onestep")
PROPAGATORS = ("bboxavg", "pixelshift", "regressor")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker hyperparameters. K is the key-frame period and must divide
    the stream's GOP size (checked against the stream header at run time)."""

    K: int = 3
    tau_iou: float = 0.3
    tau_app: float = 0.25
    conf_min: float = 0.95
    c_confirm: float = 0.99
    l_confirm: int = 3
    l_demote: int = 2
    l_delete: int = 10
    l_f: int = 24
    association_mode: str = "twostep"
    alpha: float = 0.5
    propagator: str = "regressor"

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        for name in ("tau_iou", "tau_app", "conf_min", "c_confirm", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        for name in ("l_confirm", "l_demote", "l_delete", "l_f"):
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        if self.association_mode not in ASSOCIATION_MODES:
            raise ConfigError(f"unknown association mode {self.association_mode!r}")
        if self.propagator not in PROPAGATORS:
            raise ConfigError(f"unknown propagator {self.propagator!r}")


def frame_spans(frames: np.ndarray) -> dict:
    """{frame: slice} of each run of equal values in a sorted frame column."""
    values, starts, counts = np.unique(frames, return_index=True, return_counts=True)
    return {f: slice(a, a + n) for f, a, n in zip(values.tolist(), starts.tolist(), counts.tolist())}


def first_repeat(frame: np.ndarray, ids: np.ndarray):
    """The first row whose (frame, id) an earlier row already has, or None."""
    order = np.lexsort((ids, frame))  # stable: each repeat sorts after its first row
    repeat = order[1:][(np.diff(frame[order]) == 0) & (np.diff(ids[order]) == 0)]
    return int(repeat.min()) if len(repeat) else None


def box_array(boxes) -> np.ndarray:
    """(x, y, w, h) boxes, or an (n, 4) array of them, as an (n, 4) float
    array; a float array comes back uncopied."""
    return np.asarray(boxes, dtype=float).reshape(-1, 4)


def mot_table(rows) -> MotTable:
    """(frame, id, box, conf) rows as one MotTable, in row order."""
    frame, ids, boxes, conf = zip(*rows) if rows else ((),) * 4
    return MotTable(np.array(frame, np.int64), np.array(ids, np.int64), box_array(boxes), np.array(conf, float))


def box_corners(boxes) -> np.ndarray:
    """Left, top, right, bottom of each (x, y, w, h) box as an (n, 4) float
    array; takes what `box_array` takes."""
    b = box_array(boxes)
    half = b[:, 2:] / 2
    return np.concatenate([b[:, :2] - half, b[:, :2] + half], axis=1)


def corner_boxes(corners: np.ndarray) -> np.ndarray:
    """Inverse of box_corners: x, y, w, h of (n, 4) corner rows."""
    lt, rb = corners[:, :2], corners[:, 2:]
    return np.concatenate([(lt + rb) / 2, rb - lt], axis=1)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of every pair of (n, 4) and (k, 4) corner rows
    as an (n, k) array; 0 for disjoint or touching boxes.

    Areas are computed in corner space so the ratio stays in [0, 1] even when
    corner rounding at large coordinates makes w*h inconsistent.
    """
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    overlap = ~((iw <= 0) | (ih <= 0) | (union <= 0))
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def center_cells(corners: np.ndarray, block: int, gw: int, gh: int) -> np.ndarray:
    """Grid cells whose centers lie in each box, as half-open index ranges.

    `corners` is an (n, 4) array of left, top, right, bottom in pixels; row
    i of the (n, 4) integer result is x0, y0, x1, y1 with cells
    [x0, x1) x [y0, y1) covered, clipped to the gw x gh grid. A cell center
    on a box's left/top edge is inside, one on its right/bottom edge is not.
    A box covering no center gets x0 >= x1 or y0 >= y1.
    """
    edges = np.ceil(np.asarray(corners, dtype=float).reshape(-1, 4) / block - 0.5)
    return np.clip(edges, 0, (gw, gh, gw, gh)).astype(int)


# One step's normalized velocity is clamped to these bounds, far past any real
# frame-to-frame motion, and the stepped boxes to an envelope, so that any run
# of finite steps keeps boxes finite, of positive size and within the int cast
# of `motion.pool`; the engine clips detection boxes into it as they enter.
MAX_STEP = 1e4  # box sides the centre may move in one step
MAX_LOG_SCALE = math.log(1e4)  # a side grows or shrinks at most 1e4-fold in one step
ENVELOPE = np.array([[-1e9, -1e9, 1e-3, 1e-3], [1e9, 1e9, 1e9, 1e9]])  # least and greatest x, y, w, h
# Regressor weights and biases and stream residuals are bounded by MAX_INPUT
# in magnitude, so that the regressor's readout, a velocity, stays finite.
# Of its F_IN = 7 pooled statistics, dx and dy are int32 motion vectors and
# their differences at most 2**32, and the residual's bin mean is at most
# B = MAX_INPUT; the pooled bin weights of a box sum to at most 1, so each
# velocity component is at most 7 * max(2**32, B) * B + B, which B = 1e100
# keeps far below the float maximum of about 1.8e308.
MAX_INPUT = 1e100


def out_of_bounds(values: np.ndarray):
    """The first value that is not finite or exceeds MAX_INPUT in magnitude,
    or None; the common case reads the array twice and copies nothing."""
    if -MAX_INPUT <= values.min(initial=0.0) and values.max(initial=0.0) <= MAX_INPUT:  # nan fails
        return None
    return values[~(np.abs(values) <= MAX_INPUT)][0]


def check_sizes(sizes: np.ndarray, what: str = "box") -> None:
    """Raise ValueError for the first row of an (n, 2) array of w, h that
    is not positive in both (nan fails), naming its w and h after `what`."""
    positive = sizes > 0
    if not positive.all():
        w, h = sizes[~positive.all(axis=1)][0].tolist()
        raise ValueError(f"{what} size must be positive, got w={w} h={h}")


def check_envelope(boxes: np.ndarray, what: str = "box") -> None:
    """Raise ValueError for the first row of an (n, 4) box array holding a
    number above ENVELOPE's 1e9 in magnitude (nan fails), naming the row
    after `what`; the readers and `generate` apply it, so that no box they
    accept overflows later."""
    inside = np.abs(boxes) <= ENVELOPE[1]
    if not inside.all():
        row = boxes[~inside.all(axis=1)][0].tolist()
        raise ValueError(f"{what} has a number above {ENVELOPE[1, 0]:g} in magnitude, got {row}")


def predict_boxes(v: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Advance (n, 4) x, y, w, h boxes by (n, 4) normalized velocities.

    The center moves by (w*vx, h*vy) and the size scales by exp(vw), exp(vh),
    each component first clamped to +-MAX_STEP and +-MAX_LOG_SCALE, and the
    result is clipped into ENVELOPE. Raises ValueError for a non-finite
    velocity or a box size that is not positive.
    """
    bad = np.argwhere(~np.isfinite(v))
    if len(bad):
        raise ValueError(f"velocity component {('vx', 'vy', 'vw', 'vh')[bad[0, 1]]} must be finite")
    check_sizes(boxes[:, 2:])
    size = boxes[:, 2:]
    step = np.minimum(np.maximum(v[:, :2], -MAX_STEP), MAX_STEP)
    out = np.concatenate([size * step + boxes[:, :2], size * size_scales(v[:, 2:])], axis=1)
    return np.clip(out, *ENVELOPE, out=out)


def size_scales(log_scales: np.ndarray) -> np.ndarray:
    """exp of each entry of an (n, 2) array of log side scales, first clamped
    to +-MAX_LOG_SCALE, so that any finite input scales a side at most
    1e4-fold and never overflows."""
    clamped = np.minimum(np.maximum(log_scales, -MAX_LOG_SCALE), MAX_LOG_SCALE)
    # math.exp, not np.exp: the two round some inputs differently
    return np.array([math.exp(c) for c in clamped.ravel().tolist()]).reshape(-1, 2)


def box_velocities(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """The (n, 4) normalized velocities that carry (n, 4) x, y, w, h boxes
    `prev` onto `nxt`; the inverse of predict_boxes, with math.log per entry
    as predict_boxes takes math.exp."""
    ratio = (nxt[:, 2:] / prev[:, 2:]).ravel().tolist()
    logs = np.array([math.log(r) for r in ratio]).reshape(-1, 2)
    return np.concatenate([(nxt[:, :2] - prev[:, :2]) / prev[:, 2:], logs], axis=1)
