"""Reference implementations the tests check production code against.

Box algebra: `Velocity`, `predict_bbox` and `inverse_velocity` move one
box at a time with scalar arithmetic. The package moves (n, 4) box arrays
(`mvtrack.model.predict_boxes` and its inverse `box_velocities`); the
tests require the two to agree bit for bit while the velocity lies inside
the package's per-step bounds, which `predict_bbox` does not apply.

The regressor readout: the direct, per-box definitions apply the affine
head to every grid cell, then average the box's cells bin by bin. The
package instead pools the raw statistics for many boxes at once
(`mvtrack.motion.pool`); agreement between the two is what the readout and
gradient tests assert. The cell rule is restated here on purpose, so the
oracle does not share code with what it checks.

Regressor training data: `propagation_samples` walks the ground-truth rows
through a (frame, id) dict into (frame, previous box, next box) samples,
and `_design` groups them by frame and pools each group. The package pairs
the rows of one `MotTable` with a sort and pools each frame's boxes
(`mvtrack.motion.training_matrices`); the tests require equal matrices, bit
for bit, and the loss and gradient oracles read `_design`.

The full-grid readout: `encode_motion` computes the seven statistics of
every cell, `integral` builds their summed-area table and `pool` reads
every bin of every box as four table entries per channel. The package
reads dx, dy and their differences straight from the cells the boxes
cover and only the residual out of a table (`mvtrack.motion.pool`);
`field_velocities` is the readout over the full grid, and the tests
require the two to agree bit for bit. `encode_motion_gradient` builds the
seven channels with np.gradient, which `encode_motion` writes into one
array in place.

Appearance affinity: the per-pair definitions score one gallery entry
against one detection patch at a time, normalizing both on every call. The
package keeps every gallery in one store of entries, normalizes each entry
once, when an appearance call first reads it, and scores the live cells'
(entry, detection) pairs in stacked products
(`mvtrack.affinity.GalleryStore`, `mvtrack.affinity.appearance_cost`); the
tests require the two to agree bit for bit.

IoU: `bbox_iou` scores one pair of boxes with scalar arithmetic. The
package scores all pairs of two corner arrays at once
(`mvtrack.model.iou_matrix`); the tests require the two to agree bit for
bit.

Metrics: `clear_mot` and `idf1` index the rows their own way and score
every box pair with `bbox_iou`, IDF1 one (gt track, hypothesis track) pair
at a time. The package reads both from one per-frame IoU matrix
(`mvtrack.metrics.frame_index`); the tests require equal scores.
`exhaustive_idf1` checks IDF1's matching itself by trying every injective
trajectory pairing.

Readers: `read_scenario` and `read_motchallenge` convert one token at a
time with `int()` and `float()`. The package parses each table of records
(ground truth, motion vectors, residuals, MOTChallenge rows) with one
`np.loadtxt` call; the tests require equal results, bit for bit.

Appearance patches: `feature_of` draws an identity's base pattern from its
seed on every call; `mvtrack.stream.Scenario.feature_of` draws it once and
caches it; the tests require equal patches, bit for bit, and the same
draws from the caller's rng.

The detector: `oracle_detect` scans the ground truth for the frame and
builds one `Detection` record per emitted row. The package's
`mvtrack.stream.OracleDetector` indexes the ground truth once and returns
one table of columns; the tests require equal boxes, confidences and
feature patches, in order, bit for bit.

The tracking loop: `track` keeps one `TrackedObject` record per object,
its gallery a `deque` of raw patches, associates, updates and propagates
them one at a time (appearance with the per-pair `appearance_cost`, pixel
shift with a scalar double loop per box) and clips each emitted box on its
own, dropping one left with a side under 0.005. The package keeps the tracker's state in one table of columns
(`mvtrack.model.TrackTable`) and its galleries in one store, and moves,
updates and clips all rows at once; the tests require equal rows, bit for
bit.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from mvtrack.affinity import AffinityHeadParams, _logistic, normalize_channels
from mvtrack.association import gated_assign, hungarian
from mvtrack.metrics import MotScores
from mvtrack.model import BBox, FeaturePatch, MotionFrame, TrackerConfig, box_array, box_velocities, center_cells, iou_matrix
from mvtrack.model import box_corners as box_corners_array
from mvtrack.motion import F_IN, RegressorParams, motion_table, smooth_l1
from mvtrack.motion import pool as pool_cells
from mvtrack.stream import DetectorConfig, GroundTruthEntry, Scenario, ScenarioFormatError, StreamHeader

VelocityField = np.ndarray  # shape (4*m*m, gw, gh)


# ---------------------------------------------------------------------------
# Scalar box algebra


@dataclass(frozen=True)
class Velocity:
    """Normalized box motion: (dx/w, dy/h, log width ratio, log height ratio)."""

    vx: float
    vy: float
    vw: float
    vh: float

    def __post_init__(self):
        for name in ("vx", "vy", "vw", "vh"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"velocity component {name} must be finite")


def predict_bbox(v: Velocity, prev: BBox) -> BBox:
    """Advance a box by one step of normalized velocity.

    The center moves by (w*vx, h*vy) and the size scales by exp(vw), exp(vh),
    so sizes stay positive for any finite velocity.
    """
    return BBox(
        prev.w * v.vx + prev.x,
        prev.h * v.vy + prev.y,
        prev.w * math.exp(v.vw),
        prev.h * math.exp(v.vh),
    )


def inverse_velocity(prev: BBox, next: BBox) -> Velocity:
    """Velocity that carries `prev` onto `next`; inverse of predict_bbox."""
    return Velocity(
        (next.x - prev.x) / prev.w,
        (next.y - prev.y) / prev.h,
        math.log(next.w / prev.w),
        math.log(next.h / prev.h),
    )


# ---------------------------------------------------------------------------
# The regressor readout


def encode_motion_gradient(frame) -> np.ndarray:
    """`encode_motion` by np.gradient and np.stack: the same
    seven channels, with the same arithmetic, so the two agree bit for bit."""
    dx = frame.mv[0].astype(float)
    dy = frame.mv[1].astype(float)

    def grad(f: np.ndarray, axis: int) -> np.ndarray:
        if f.shape[axis] < 2:
            return np.zeros_like(f)
        return np.gradient(f, axis=axis)

    return np.stack([dx, dy, frame.residual, grad(dx, 0), grad(dy, 1), grad(dx, 1), grad(dy, 0)])


def encode_motion(frame: MotionFrame) -> np.ndarray:
    """Per-cell motion statistics, shape (F_IN, gw, gh).

    Channels: dx, dy, residual, d(dx)/dx, d(dy)/dy, d(dx)/dy, d(dy)/dx.
    Derivatives are central differences over neighboring cells (one-sided at
    borders), in displacement-pixels per cell index.
    """
    gw, gh = frame.residual.shape
    out = np.zeros((F_IN, gw, gh))
    out[:2] = frame.mv
    out[2] = frame.residual
    dx, dy, _, ddx_dx, ddy_dy, ddx_dy, ddy_dx = out
    # np.gradient's arithmetic, written into place: (f[i+1] - f[i-1]) / 2 inside,
    # one-sided differences at the two borders
    if gw >= 2:
        for f, g in ((dx, ddx_dx), (dy, ddy_dx)):
            np.subtract(f[2:], f[:-2], out=g[1:-1])
            g[1:-1] /= 2.0
            g[0] = f[1] - f[0]
            g[-1] = f[-1] - f[-2]
    if gh >= 2:
        for f, g in ((dy, ddy_dy), (dx, ddx_dy)):
            np.subtract(f[:, 2:], f[:, :-2], out=g[:, 1:-1])
            g[:, 1:-1] /= 2.0
            g[:, 0] = f[:, 1] - f[:, 0]
            g[:, -1] = f[:, -1] - f[:, -2]
    return out


def integral(stats: np.ndarray) -> np.ndarray:
    """Summed-area table over the grid axes of (F, gw, gh) statistics,
    zero-padded at the origin: shape (F, gw + 1, gh + 1)."""
    f, gw, gh = stats.shape
    S = np.zeros((f, gw + 1, gh + 1))
    inner = S[:, 1:, 1:]
    np.cumsum(stats, axis=1, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    return S


def pool(S: np.ndarray, corners: np.ndarray, block: int, m: int):
    """`mvtrack.motion.pool` over the full-grid summed-area table of every
    channel: every bin is four table reads, whatever it covers."""
    n = len(corners)
    f, gw1, gh1 = S.shape
    scaled = corners / block
    lo, hi = center_cells(corners, block, gw1 - 1, gh1 - 1).reshape(n, 2, 2).transpose(1, 0, 2)
    left = scaled[:, :2]
    width = scaled[:, 2:] - left
    c = np.ceil(left[:, :, None] + np.arange(m + 1) * (width / m)[:, :, None] - 0.5).astype(int)
    c[:, :, 0] = lo
    c[:, :, m] = hi
    np.clip(c, lo[:, :, None], hi[:, :, None], out=c)
    np.maximum.accumulate(c, axis=2, out=c)
    c[~(lo < hi).all(axis=1)] = 0
    d = np.diff(c, axis=2)
    counts = (d[:, 0, :, None] * d[:, 1, None, :]).reshape(n, m * m)
    cols = S.reshape(f, -1)[:, c[:, 0, :, None] * gh1 + c[:, 1, None, :]]  # (F, n, m+1, m+1)
    sums = cols[:, :, 1:, 1:] - cols[:, :, :-1, 1:]
    sums -= cols[:, :, 1:, :-1]
    sums += cols[:, :, :-1, :-1]
    A = np.transpose(sums.reshape(f, n, m * m), (1, 2, 0))  # (n, m*m, F)
    nonempty = counts > 0
    A = np.divide(A, counts[:, :, None] * (m * m), out=np.zeros_like(A), where=nonempty[:, :, None])
    return A, nonempty / (m * m)


def field_velocities(params: RegressorParams, frame: MotionFrame, boxes, block: int) -> np.ndarray:
    """`mvtrack.motion.FieldReadout(params, frame).velocities(boxes, block)`
    by encoding the whole grid and pooling its seven-channel table."""
    m = params.m
    A, e = pool(integral(encode_motion(frame)), box_corners_array(boxes), block, m)
    return np.einsum("nuf,kuf->nk", A, params.W.reshape(4, m * m, F_IN)) + e @ params.bias.reshape(4, m * m).T


def velocity_field(params: RegressorParams, encoding: np.ndarray) -> VelocityField:
    """Apply the affine head to every grid cell: (4*m*m, gw, gh) output."""
    if encoding.ndim != 3 or encoding.shape[0] != F_IN:
        raise ValueError(f"encoding must have shape ({F_IN}, gw, gh), got {encoding.shape}")
    return np.einsum("kf,fxy->kxy", params.W, encoding) + params.bias[:, None, None]


def _bin_cells(bbox: BBox, block: int, gw: int, gh: int, m: int):
    """Cells whose centers lie in the box and their (u, v) bin indices."""
    bx0 = max(0, math.ceil(bbox.left / block - 0.5))
    bx1 = min(gw - 1, math.ceil(bbox.right / block - 0.5) - 1)
    by0 = max(0, math.ceil(bbox.top / block - 0.5))
    by1 = min(gh - 1, math.ceil(bbox.bottom / block - 0.5) - 1)
    if bx0 > bx1 or by0 > by1:
        return None
    bx, by = np.meshgrid(np.arange(bx0, bx1 + 1), np.arange(by0, by1 + 1), indexing="ij")
    bx = bx.ravel()
    by = by.ravel()
    left, top, right, bottom = (c / block for c in bbox.corners())
    u = np.floor((bx + 0.5 - left) / ((right - left) / m)).astype(int)
    v = np.floor((by + 0.5 - top) / ((bottom - top) / m)).astype(int)
    np.clip(u, 0, m - 1, out=u)
    np.clip(v, 0, m - 1, out=v)
    return bx, by, u, v


def psroi_readout(field: VelocityField, bbox: BBox, block: int) -> Velocity:
    """Pool a box out of the field into a 4-component velocity.

    The box is divided into m x m bins; channel k*m*m + u*m + v is averaged
    over cells whose centers fall in bin (u, v); empty bins contribute 0;
    each component is the mean over all m*m bins.
    """
    channels, gw, gh = field.shape
    m = math.isqrt(channels // 4)
    if 4 * m * m != channels:
        raise ValueError(f"field channel count {channels} is not 4*m*m")
    cells = _bin_cells(bbox, block, gw, gh, m)
    if cells is None:
        return Velocity(0.0, 0.0, 0.0, 0.0)
    bx, by, u, v = cells
    sums = np.zeros((4, m, m))
    counts = np.zeros((m, m))
    np.add.at(counts, (u, v), 1.0)
    for k in range(4):
        np.add.at(sums[k], (u, v), field[k * m * m + u * m + v, bx, by])
    nonempty = counts > 0
    pooled = np.zeros((4, m, m))
    pooled[:, nonempty] = sums[:, nonempty] / counts[nonempty]
    comp = pooled.reshape(4, -1).sum(axis=1) / (m * m)
    return Velocity(*(float(c) for c in comp))


def propagation_samples(scenario) -> list:
    """(MotionFrame, prev box, next box) triples from consecutive-frame GT.

    Objects present (and visible) in only one of the two frames contribute
    nothing; occluded spans carry no usable motion.
    """
    by_key = {(r.frame, r.id): r for r in scenario.gt}
    ids = sorted({r.id for r in scenario.gt})
    out = []
    for fr in scenario.frames:
        if fr.kind != "P":
            continue
        t_prev, t_cur = fr.index, fr.index + 1
        for obj_id in ids:
            a = by_key.get((t_prev, obj_id))
            b = by_key.get((t_cur, obj_id))
            if a is None or b is None or not (a.visible and b.visible):
                continue
            out.append((fr, a.bbox, b.bbox))
    return out


def _design(batch, block: int, m: int):
    """Training matrices of (MotionFrame, prev box, next box) samples: the
    pooled statistics A (n, m*m, F_IN) and e (n, m*m) of each previous box,
    and the target velocities V (n, 4) that carry it onto the next box.
    Each frame's table is built once and pools all of its samples' boxes at once."""
    n = len(batch)
    A = np.zeros((n, m * m, F_IN))
    E = np.zeros((n, m * m))
    by_frame = {}
    for i, (frame, _, _) in enumerate(batch):
        by_frame.setdefault(id(frame), (frame, []))[1].append(i)
    prev = box_array([s[1] for s in batch])
    for frame, rows in by_frame.values():
        A[rows], E[rows] = pool_cells(motion_table(frame), box_corners_array(prev[rows]), block, m)
    return A, E, box_velocities(prev, box_array([s[2] for s in batch]))


def regressor_loss(params: RegressorParams, batch, block: int) -> float:
    """Mean over samples of the summed smooth-L1 velocity error.

    Each sample is (MotionFrame, previous box, ground-truth next box); the
    target velocity is the one that carries the previous box onto the next.
    """
    if not batch:
        raise ValueError("empty training batch")
    total = 0.0
    for frame, prev, nxt in batch:
        v = inverse_velocity(prev, nxt)
        v_hat = psroi_readout(velocity_field(params, encode_motion(frame)), prev, block)
        for a, b in ((v.vx, v_hat.vx), (v.vy, v_hat.vy), (v.vw, v_hat.vw), (v.vh, v_hat.vh)):
            total += smooth_l1(a - b)
    return total / len(batch)


def regressor_grad(params: RegressorParams, batch, block: int):
    """Closed-form gradient in (W, bias) of `regressor_loss`, the mean
    summed smooth-L1 error between the read-out and the target velocities;
    exact because the readout is affine in the parameters. The package's
    fit descends the same objective in whitened coordinates."""
    if not batch:
        raise ValueError("empty training batch")
    m = params.m
    A, E, V = _design(batch, block, m)
    W4 = params.W.reshape(4, m * m, F_IN)
    b4 = params.bias.reshape(4, m * m)
    v_hat = np.einsum("nuf,kuf->nk", A, W4) + np.einsum("nu,ku->nk", E, b4)
    g = np.clip(v_hat - V, -1.0, 1.0) / len(batch)
    dW = np.einsum("nk,nuf->kuf", g, A).reshape(4 * m * m, F_IN)
    db = np.einsum("nk,nu->ku", g, E).reshape(4 * m * m)
    return dW, db


def ps_maps(fi: FeaturePatch, fj: FeaturePatch):
    """Position-sensitive maps: all-pairs inner products of normalized bins.

    Returns two (m, m, m*m) maps; entry [u, v, p] of the first is the inner
    product of fi's bin (u, v) with fj's p-th bin. The two maps hold the
    same value multiset arranged differently. Inputs must be normalized.
    """
    if fi.shape != fj.shape:
        raise ValueError(f"patch shapes differ: {fi.shape} vs {fj.shape}")
    m = fi.shape[0]
    a = fi.reshape(m * m, -1)
    b = fj.reshape(m * m, -1)
    prod = a @ b.T  # (m*m, m*m)
    return prod.reshape(m, m, m * m), prod.T.reshape(m, m, m * m)


def _statistic(fi: FeaturePatch, fj: FeaturePatch, mode: str) -> float:
    fi = normalize_channels(fi)
    fj = normalize_channels(fj)
    if mode == "nops":
        return float(np.einsum("uvc,uvc->uv", fi, fj).mean())
    mij, mji = ps_maps(fi, fj)
    return float((mij.max(axis=-1).mean() + mji.max(axis=-1).mean()) / 2)


def affinity(params: AffinityHeadParams, fi: FeaturePatch, fj: FeaturePatch) -> float:
    """Probability that two patches show the same object, in [0, 1]."""
    if fi.shape != fj.shape:
        raise ValueError(f"patch shapes differ: {fi.shape} vs {fj.shape}")
    return _logistic(params.w * _statistic(fi, fj, params.mode) + params.b)


def iou_cost(a: BBox, b: BBox) -> float:
    """1 - IoU, the geometric association cost."""
    return 1.0 - bbox_iou(a, b)


def appearance_cost(params: AffinityHeadParams, gallery, f: FeaturePatch) -> float:
    """1 - best affinity between the patch and any gallery entry."""
    if not gallery:
        raise ValueError("appearance cost is undefined for an empty gallery")
    return 1.0 - max(affinity(params, g, f) for g in gallery)


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0 for disjoint or touching.

    Areas are computed in corner space so the ratio stays in [0, 1] even when
    corner rounding at large coordinates makes w*h inconsistent.
    """
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a.right - a.left) * (a.bottom - a.top)
    area_b = (b.right - b.left) * (b.bottom - b.top)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def _check_unique(rows, what: str) -> None:
    seen = set()
    for frame, obj_id in rows:
        if (frame, obj_id) in seen:
            raise ValueError(f"duplicate {what} id {obj_id} in frame {frame}")
        seen.add((frame, obj_id))


def _index_gt(gt):
    by_frame = {}
    for row in gt:
        if row.visible:
            by_frame.setdefault(row.frame, []).append((row.id, row.bbox))
    _check_unique(((r.frame, r.id) for r in gt), "ground-truth")
    return by_frame


def _index_results(results):
    by_frame = {}
    for frame, obj_id, bbox in results:
        by_frame.setdefault(frame, []).append((obj_id, bbox))
    _check_unique(((frame, obj_id) for frame, obj_id, _ in results), "hypothesis")
    return by_frame


def clear_mot(gt, results, iou_min: float = 0.5) -> MotScores:
    """CLEAR-MOT scores for hypothesis rows (frame, id, BBox) against GT."""
    gt_frames = _index_gt(gt)
    hyp_frames = _index_results(results)
    frames = sorted(set(gt_frames) | set(hyp_frames))

    fp = fn = ids = tp = 0
    iou_sum = 0.0
    prev_pairs = {}  # gt id -> hyp id matched in the previous frame
    last_match = {}  # gt id -> hyp id at its most recent match, any frame
    gt_present = {}  # gt id -> number of visible frames
    gt_matched = {}  # gt id -> number of matched frames
    was_matched = {}  # gt id -> matched status at its previous visible frame
    frag = {}

    for frame in frames:
        gts = gt_frames.get(frame, [])
        hyps = hyp_frames.get(frame, [])
        gt_ids = [g[0] for g in gts]
        gt_boxes = {g[0]: g[1] for g in gts}
        hyp_ids = [h[0] for h in hyps]
        hyp_boxes = {h[0]: h[1] for h in hyps}

        pairs = {}
        # Keep surviving pairs from the previous frame first.
        for g, h in prev_pairs.items():
            if g in gt_boxes and h in hyp_boxes and bbox_iou(gt_boxes[g], hyp_boxes[h]) >= iou_min:
                pairs[g] = h
        free_gt = [g for g in gt_ids if g not in pairs]
        used_hyp = set(pairs.values())
        free_hyp = [h for h in hyp_ids if h not in used_hyp]
        if free_gt and free_hyp:
            cost = np.array(
                [[1.0 - bbox_iou(gt_boxes[g], hyp_boxes[h]) for h in free_hyp] for g in free_gt]
            )
            rows, cols = gated_assign(cost, 1.0 - iou_min)
            for r, c in zip(rows.tolist(), cols.tolist()):
                pairs[free_gt[r]] = free_hyp[c]

        tp += len(pairs)
        fp += len(hyp_ids) - len(pairs)
        fn += len(gt_ids) - len(pairs)
        for g, h in pairs.items():
            iou_sum += bbox_iou(gt_boxes[g], hyp_boxes[h])
            if g in last_match and last_match[g] != h:
                ids += 1
            last_match[g] = h
        for g in gt_ids:
            gt_present[g] = gt_present.get(g, 0) + 1
            matched = g in pairs
            if matched:
                gt_matched[g] = gt_matched.get(g, 0) + 1
                if g in was_matched and not was_matched[g] and gt_matched[g] > 1:
                    frag[g] = frag.get(g, 0) + 1
            was_matched[g] = matched
        prev_pairs = pairs

    gt_total = sum(gt_present.values())
    if gt_total:
        mota = 1.0 - (fp + fn + ids) / gt_total
        moda = 1.0 - (fp + fn) / gt_total
    else:  # TrackEval: (TP - FP - IDS) / max(1, TP + FN)
        mota = (tp - fp - ids) / max(1, gt_total)
        moda = (tp - fp) / max(1, gt_total)
    motp = iou_sum / tp if tp else 0.0
    rcll = tp / gt_total if gt_total else 0.0
    prcn = tp / (tp + fp) if tp + fp else 0.0
    mt = ml = 0
    for g, present in gt_present.items():
        ratio = gt_matched.get(g, 0) / present
        if ratio >= 0.8:
            mt += 1
        if ratio <= 0.2:
            ml += 1
    return MotScores(
        mota=mota,
        motp=motp,
        fp=fp,
        fn=fn,
        ids=ids,
        frag=sum(frag.values()),
        mt=mt,
        ml=ml,
        rcll=rcll,
        prcn=prcn,
        moda=moda,
        gt_total=gt_total,
        tp=tp,
    )


def idf1(gt, results, iou_min: float = 0.5) -> float:
    """Identity F1: the best one-to-one trajectory pairing's frame agreement.

    For each (gt track, hypothesis track) pair the overlap count is the
    number of frames where both exist and their boxes reach iou_min; a
    maximum-overlap bipartite matching gives IDTP, and
    IDF1 = 2*IDTP / max(1, gt frames + hypothesis frames), TrackEval's
    denominator.
    """
    gt_tracks = {}
    for row in gt:
        if row.visible:
            gt_tracks.setdefault(row.id, {})[row.frame] = row.bbox
    hyp_tracks = {}
    for frame, obj_id, bbox in results:
        hyp_tracks.setdefault(obj_id, {})[frame] = bbox

    len_gt = sum(len(t) for t in gt_tracks.values())
    len_hyp = sum(len(t) for t in hyp_tracks.values())
    if not gt_tracks or not hyp_tracks:
        return 0.0

    gt_ids = sorted(gt_tracks)
    hyp_ids = sorted(hyp_tracks)
    overlap = np.zeros((len(gt_ids), len(hyp_ids)))
    for i, g in enumerate(gt_ids):
        for j, h in enumerate(hyp_ids):
            track_g = gt_tracks[g]
            track_h = hyp_tracks[h]
            overlap[i, j] = sum(
                1
                for frame, box in track_g.items()
                if frame in track_h and bbox_iou(box, track_h[frame]) >= iou_min
            )
    idtp = sum(overlap[r, c] for r, c in zip(*hungarian(-overlap)))
    return 2.0 * idtp / (len_gt + len_hyp)


def exhaustive_idf1(gt, results, iou_min=0.5):
    """Try every injective trajectory pairing, keep the best IDTP."""
    gt_tracks = {}
    for r in gt:
        if r.visible:
            gt_tracks.setdefault(r.id, {})[r.frame] = r.bbox
    hyp_tracks = {}
    for frame, obj_id, bbox in results:
        hyp_tracks.setdefault(obj_id, {})[frame] = bbox
    len_gt = sum(len(t) for t in gt_tracks.values())
    len_hyp = sum(len(t) for t in hyp_tracks.values())
    if not gt_tracks or not hyp_tracks:
        return 0.0
    g_ids = sorted(gt_tracks)
    h_ids = sorted(hyp_tracks)

    def overlap(g, h):
        tg, th = gt_tracks[g], hyp_tracks[h]
        return sum(1 for f, b in tg.items() if f in th and bbox_iou(b, th[f]) >= iou_min)

    best = 0
    for size in range(min(len(g_ids), len(h_ids)) + 1):
        for gsub in itertools.permutations(g_ids, size):
            for hsub in itertools.combinations(h_ids, size):
                best = max(best, sum(overlap(g, h) for g, h in zip(gsub, hsub)))
    return 2.0 * best / (len_gt + len_hyp)


def read_scenario(path) -> Scenario:
    """Read a scenario file; a malformed file raises ScenarioFormatError, and
    a bad seed or ground-truth record names its line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            return None
        line = lines[pos]
        pos += 1
        return line

    if next_line() != "mvscene 1":
        raise ScenarioFormatError("malformed header: missing 'mvscene 1' magic")
    head = next_line()
    if head is None or not head.startswith("header "):
        raise ScenarioFormatError("malformed header: missing 'header' record")
    try:
        parts = head.split()
        header = StreamHeader(
            width=int(parts[1]),
            height=int(parts[2]),
            block=int(parts[3]),
            gop=int(parts[4]),
            fps=float(parts[5]),
            feature_channels=int(parts[6]),
            feature_bins=int(parts[7]),
        )
    except (IndexError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed header: {exc}") from exc
    counts = next_line()
    if counts is None or not counts.startswith("counts "):
        raise ScenarioFormatError("malformed header: missing 'counts' record")
    try:
        n_frames, n_seeds, n_gt = (int(v) for v in counts.split()[1:4])
    except (IndexError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed header: {exc}") from exc

    seeds = {}
    for _ in range(n_seeds):
        line = next_line()
        if line is None or not line.startswith("seed "):
            raise ScenarioFormatError("truncated file: incomplete seed table")
        try:
            _, obj_id, value = line.split()
            seeds[int(obj_id)] = int(value)
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos}: malformed seed record: {exc}") from exc

    gt, seen = [], set()
    for _ in range(n_gt):
        line = next_line()
        if line is None or not line.startswith("gt "):
            raise ScenarioFormatError("truncated file: incomplete ground-truth table")
        try:
            _, frame, obj_id, x, y, w, h, visible = line.split()
            box = [float(x), float(y), float(w), float(h)]
            if not all(map(math.isfinite, box)):
                raise ValueError("non-finite number")
            row = GroundTruthEntry(int(frame), int(obj_id), BBox(*box), visible == "1")
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos}: malformed ground-truth record: {exc}") from exc
        if not 1 <= row.frame <= n_frames:
            raise ScenarioFormatError(f"line {pos}: ground-truth frame {row.frame} outside 1..{n_frames}")
        if row.id not in seeds:
            raise ScenarioFormatError(f"line {pos}: ground-truth id {row.id} has no feature seed")
        if (row.frame, row.id) in seen:
            raise ScenarioFormatError(f"line {pos}: duplicate ground-truth id {row.id} in frame {row.frame}")
        seen.add((row.frame, row.id))
        gt.append(row)

    gw, gh = header.grid
    frames = []
    last_complete = None
    for _ in range(n_frames):
        line = next_line()
        if line is None:
            raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
        if not line.startswith("frame "):
            raise ScenarioFormatError(f"expected frame record after frame {last_complete}, got {line!r}")
        _, idx_s, kind = line.split()
        idx = int(idx_s)
        expected = len(frames)
        if idx != expected:
            raise ScenarioFormatError(f"non-monotone frame index: expected {expected}, got {idx}")
        is_intra = idx % header.gop == 0
        if is_intra and kind != "I":
            raise ScenarioFormatError(f"frame {idx}: must be I under gop={header.gop}, got {kind}")
        if not is_intra and kind != "P":
            raise ScenarioFormatError(f"frame {idx}: must be P under gop={header.gop}, got {kind}")
        if kind == "I":
            frames.append(MotionFrame.intra(idx, gw, gh))
        else:
            mv_line = next_line()
            res_line = next_line()
            if mv_line is None or res_line is None or not mv_line.startswith("mv ") or not res_line.startswith("res "):
                raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
            mv_vals = np.array([int(v) for v in mv_line.split()[1:]], dtype=np.int32)
            res_vals = np.array([float(v) for v in res_line.split()[1:]])
            if mv_vals.size != 2 * gw * gh or res_vals.size != gw * gh:
                raise ScenarioFormatError(f"frame {idx}: grid size mismatch (header grid {gw}x{gh})")
            frames.append(MotionFrame(idx, "P", mv_vals.reshape(2, gw, gh), res_vals.reshape(gw, gh)))
        last_complete = idx
    if next_line() != "end":
        raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
    return Scenario(header=header, frames=frames, gt=gt, feature_seeds=seeds)


def read_motchallenge(path) -> list:
    """Read MOTChallenge rows back as (frame, id, BBox, confidence).

    A malformed line, a frame below 1, a non-finite number or a box without
    positive width and height raises ValueError naming the line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ValueError(f"line {lineno}: expected at least 7 fields, got {len(parts)}")
            try:
                frame = int(parts[0])
                obj_id = int(parts[1])
                left, top, w, h, conf = values = [float(v) for v in parts[2:7]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {lineno}: non-finite number in {line!r}")
            if not (w > 0 and h > 0):
                raise ValueError(f"line {lineno}: box size must be positive, got w={w} h={h}")
            if frame < 1:
                raise ValueError(f"line {lineno}: MOTChallenge frames are 1-based, got {frame}")
            out.append((frame, obj_id, BBox(left + w / 2, top + h / 2, w, h), conf))
    return out


# ---------------------------------------------------------------------------
# The per-row detector


def feature_of(scenario: Scenario, obj_id: int, noise: float, rng=None) -> FeaturePatch:
    """`Scenario.feature_of` drawing the identity's base pattern from its
    seed on every call, as it did before the pattern was cached."""
    try:
        seed = scenario.feature_seeds[obj_id]
    except KeyError:
        raise ValueError(f"object id {obj_id} has no latent feature seed")
    m, c = scenario.header.feature_bins, scenario.header.feature_channels
    patch = np.random.default_rng(seed).standard_normal((m, m, c))
    if noise > 0:
        if rng is None:
            raise ValueError("an rng is required when noise > 0")
        patch = patch + noise * rng.standard_normal((m, m, c))
    return patch


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence in [0, 1], appearance patch."""

    bbox: BBox
    confidence: float
    feature: FeaturePatch

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0,1], got {self.confidence}")


def detection_list(table) -> list:
    """A `Detections` table's rows as Detection records, in order."""
    return [Detection(BBox(*b), c, f) for b, c, f in zip(table.boxes.tolist(), table.conf.tolist(), table.features)]


def oracle_detect(scenario: Scenario, frame: int, cfg: DetectorConfig) -> list:
    """Detections for one key frame, deterministic given (rng_seed, frame).

    Visible ground-truth objects are emitted with probability 1 - miss_rate,
    with perturbed boxes and confidence in [conf_min, 1); occluded objects are
    never emitted; Poisson(fp_rate) false positives carry fresh identities.
    """
    rng = np.random.default_rng([cfg.rng_seed, frame])
    header = scenario.header
    out = []
    rows = [r for r in scenario.gt if r.frame == frame]
    for row in sorted(rows, key=lambda r: r.id):
        if not row.visible:
            continue
        if rng.random() < cfg.miss_rate:
            continue
        b = row.bbox
        g = rng.standard_normal(4).tolist()
        bbox = BBox(
            b.x + cfg.noise_center * b.w * g[0],
            b.y + cfg.noise_center * b.h * g[1],
            b.w * math.exp(cfg.noise_size * g[2]),
            b.h * math.exp(cfg.noise_size * g[3]),
        )
        conf = float(rng.uniform(cfg.conf_min, 1.0))
        feat = scenario.feature_of(row.id, cfg.feature_noise, rng)
        out.append(Detection(bbox, conf, feat))
    m, c = header.feature_bins, header.feature_channels
    for _ in range(rng.poisson(cfg.fp_rate)):
        w = float(rng.uniform(8, max(9, header.width / 3)))
        h = float(rng.uniform(8, max(9, header.height / 3)))
        bbox = BBox(float(rng.uniform(0, header.width)), float(rng.uniform(0, header.height)), w, h)
        conf = float(rng.uniform(cfg.conf_min, 1.0))
        fresh = int(rng.integers(0, 2**62))
        feat = np.random.default_rng(fresh).standard_normal((m, m, c))
        if cfg.feature_noise > 0:
            feat = feat + cfg.feature_noise * rng.standard_normal((m, m, c))
        out.append(Detection(bbox, conf, feat))
    return out


# ---------------------------------------------------------------------------
# The object-list tracking loop


@dataclass
class Assignment:
    """A gated assignment as lists: matched (object, detection) pairs in
    object order, and the unmatched indices on each side."""

    matches: list
    unmatched_objects: list
    unmatched_detections: list


def assignment(matches, n_objects: int, n_detections: int) -> Assignment:
    """An assignment from its (object, detection) pairs, unmatched indices filled in."""
    matches = sorted(matches)
    rows, cols = {r for r, _ in matches}, {c for _, c in matches}
    return Assignment(
        matches, [r for r in range(n_objects) if r not in rows], [c for c in range(n_detections) if c not in cols]
    )


def gated(cost: np.ndarray, threshold: float) -> Assignment:
    rows, cols = gated_assign(cost, threshold)
    return assignment(zip(rows.tolist(), cols.tolist()), *cost.shape)


class LifecycleState(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DELETED = "deleted"  # absorbing: once deleted, never leaves


@dataclass
class TrackedObject:
    """A tracked identity: box, lifecycle state, bounded feature gallery.

    `hits`/`misses` count consecutive key frames with/without an associated
    detection; each key-frame update increments exactly one and resets the
    other.
    """

    id: int
    bbox: BBox
    state: LifecycleState
    gallery: deque  # deque[FeaturePatch] with maxlen = l_f
    hits: int = 0
    misses: int = 0


def box_corners(boxes) -> np.ndarray:
    """Left, top, right, bottom of each box as an (n, 4) float array."""
    return np.array([b.corners() for b in boxes], dtype=float).reshape(-1, 4)


def velocities(params: RegressorParams, frame: MotionFrame, boxes, block: int) -> list:
    """One Velocity per box, in order."""
    return [Velocity(*row) for row in field_velocities(params, frame, boxes, block).tolist()]


def propagate_bbox_avg(boxes, frame: MotionFrame, block: int) -> list:
    """Shift each box by the mean MV over its covered cells; sizes are unchanged.

    This is the averaging baseline: antisymmetric fields (zooms) cancel out,
    so scale changes are invisible to it. A box covering no cell center
    stays where it is.
    """
    A, e = pool(integral(frame.mv), box_corners(boxes), block, 1)
    return [
        BBox(b.x + float(dx), b.y + float(dy), b.w, b.h) if covered else b
        for b, (dx, dy), covered in zip(boxes, A[:, 0], e[:, 0])
    ]


def propagate_pixel_shift(prev: BBox, frame: MotionFrame, block: int) -> BBox:
    """Tight bounding rectangle of the box contents after per-block shifts.

    Every point of the box moves by its block's MV; portions outside the
    grid move by zero. Uniform fields translate the box; diverging fields
    stretch it.
    """
    gw, gh = frame.mv.shape[1:]
    left, top, right, bottom = prev.corners()
    new_l = new_t = math.inf
    new_r = new_b = -math.inf
    for bx in range(math.floor(left / block), math.ceil(right / block)):
        px0 = max(left, bx * block)
        px1 = min(right, (bx + 1) * block)
        if px1 <= px0:
            continue
        for by in range(math.floor(top / block), math.ceil(bottom / block)):
            py0 = max(top, by * block)
            py1 = min(bottom, (by + 1) * block)
            if py1 <= py0:
                continue
            if 0 <= bx < gw and 0 <= by < gh:
                dx = float(frame.mv[0, bx, by])
                dy = float(frame.mv[1, bx, by])
            else:
                dx = dy = 0.0
            new_l = min(new_l, px0 + dx)
            new_r = max(new_r, px1 + dx)
            new_t = min(new_t, py0 + dy)
            new_b = max(new_b, py1 + dy)
    if new_l >= new_r or new_t >= new_b:
        return prev
    return BBox.from_corners(new_l, new_t, new_r, new_b)


def _iou_cost(objects, detections) -> np.ndarray:
    return 1.0 - iou_matrix(box_corners([o.bbox for o in objects]), box_corners([d.bbox for d in detections]))


def _appearance_matrix(params, objects, detections) -> np.ndarray:
    cost = [[appearance_cost(params, o.gallery, d.feature) for d in detections] for o in objects]
    return np.array(cost, dtype=float).reshape(len(objects), len(detections))


def associate_two_step(objects, detections, params: AffinityHeadParams, cfg: TrackerConfig) -> Assignment:
    """Geometry first, appearance second.

    Step 1 assigns detections to confirmed objects by IoU cost (gate
    tau_iou). Step 2 assigns the detections left over to tentative objects
    plus the confirmed objects step 1 left unmatched, by appearance cost
    (gate tau_app). Appearance never overrides a geometric match.
    """
    confirmed = [i for i, o in enumerate(objects) if o.state is LifecycleState.CONFIRMED]
    tentative = [i for i, o in enumerate(objects) if o.state is LifecycleState.TENTATIVE]

    step1 = gated(_iou_cost([objects[i] for i in confirmed], detections), cfg.tau_iou)
    matches = [(confirmed[r], c) for r, c in step1.matches]
    det_left = step1.unmatched_detections
    obj_left = sorted(tentative + [confirmed[r] for r in step1.unmatched_objects])

    step2 = gated(
        _appearance_matrix(params, [objects[i] for i in obj_left], [detections[j] for j in det_left]),
        cfg.tau_app,
    )
    matches += [(obj_left[r], det_left[c]) for r, c in step2.matches]
    return assignment(matches, len(objects), len(detections))


def associate_one_step(objects, detections, params: AffinityHeadParams, alpha: float, cfg: TrackerConfig) -> Assignment:
    """Single assignment on the blended cost alpha*iou + (1-alpha)*appearance,
    gated at the equally blended threshold. alpha=1 is IoU-only, alpha=0 is
    appearance-only."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    cost = alpha * _iou_cost(objects, detections)
    if alpha < 1.0:
        cost = cost + (1.0 - alpha) * _appearance_matrix(params, objects, detections)
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    return gated(cost, threshold)


def apply_matches(objects, detections, result) -> list:
    """Fold an assignment into the objects (mutating them).

    Matched objects take the detection's box, append its feature to the
    gallery (the oldest entry falls out past capacity), and count a hit;
    unmatched objects count a miss and keep their box.
    """
    matched = dict(result.matches)
    for i, obj in enumerate(objects):
        if i in matched:
            det = detections[matched[i]]
            obj.bbox = det.bbox
            obj.gallery.append(det.feature)
            obj.hits += 1
            obj.misses = 0
        else:
            obj.misses += 1
            obj.hits = 0
    return objects


def manage_states(objects, unmatched_detections, cfg: TrackerConfig, id_source) -> tuple:
    """Run the state rules; returns (surviving objects, newborn objects).

    `id_source` is an iterator of fresh ids, strictly greater than any id
    handed out before.
    """
    survivors = []
    for obj in objects:
        # at most one transition per key frame keeps the state sequence
        # inside the relation {T->C, C->T, T->D} plus self-loops
        if obj.state is LifecycleState.CONFIRMED and obj.misses > cfg.l_demote:
            obj.state = LifecycleState.TENTATIVE
        elif obj.state is LifecycleState.TENTATIVE and obj.misses > cfg.l_delete:
            obj.state = LifecycleState.DELETED
        elif obj.state is LifecycleState.TENTATIVE and obj.hits > cfg.l_confirm:
            obj.state = LifecycleState.CONFIRMED
        if obj.state is not LifecycleState.DELETED:
            survivors.append(obj)
    newborns = []
    for det in unmatched_detections:
        state = LifecycleState.CONFIRMED if det.confidence > cfg.c_confirm else LifecycleState.TENTATIVE
        newborns.append(
            TrackedObject(
                id=next(id_source),
                bbox=det.bbox,
                state=state,
                gallery=deque([det.feature], maxlen=cfg.l_f),
                hits=1,
                misses=0,
            )
        )
    return survivors, newborns


def _clip_to_frame(bbox: BBox, width: int, height: int):
    left = max(bbox.left, 0.0)
    top = max(bbox.top, 0.0)
    right = min(bbox.right, float(width))
    bottom = min(bbox.bottom, float(height))
    if right <= left or bottom <= top:
        return None
    clipped = BBox.from_corners(left, top, right, bottom)
    # a side under 0.005 would print as 0.00 in a MOTChallenge file
    return clipped if clipped.w >= 0.005 and clipped.h >= 0.005 else None


def track(scenario: Scenario, detector, cfg: TrackerConfig, models) -> list:
    """`mvtrack.engine.track`'s rows from the object-list loop (no
    validation, delays or timings)."""
    header = scenario.header
    block = header.block
    objects = []
    id_source = itertools.count(1)
    rows = []

    for t in range(1, scenario.n_frames + 1):
        frame_data = scenario.frames[t - 1]
        if (t - 1) % cfg.K == 0:
            detections = [d for d in detection_list(detector(t)) if d.confidence >= cfg.conf_min]
            if cfg.association_mode == "twostep":
                result = associate_two_step(objects, detections, models.affinity, cfg)
            else:
                result = associate_one_step(objects, detections, models.affinity, cfg.alpha, cfg)
            apply_matches(objects, detections, result)
            unmatched = [detections[j] for j in result.unmatched_detections]
            objects, newborn = manage_states(objects, unmatched, cfg, id_source)
            objects.extend(newborn)
        else:
            if cfg.propagator == "bboxavg":
                boxes = propagate_bbox_avg([obj.bbox for obj in objects], frame_data, block)
                for obj, box in zip(objects, boxes):
                    obj.bbox = box
            elif cfg.propagator == "pixelshift":
                for obj in objects:
                    obj.bbox = propagate_pixel_shift(obj.bbox, frame_data, block)
            else:
                if objects:
                    vels = velocities(models.regressor, frame_data, [obj.bbox for obj in objects], block)
                    for obj, vel in zip(objects, vels):
                        obj.bbox = predict_bbox(vel, obj.bbox)

        for obj in objects:
            if obj.state is LifecycleState.CONFIRMED:
                clipped = _clip_to_frame(obj.bbox, header.width, header.height)
                if clipped is not None:
                    rows.append((t, obj.id, clipped))
    return rows
