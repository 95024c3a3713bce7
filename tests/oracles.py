"""Reference implementations the tests check production code against.

Box algebra: `Velocity`, `predict_bbox` and `inverse_velocity` move one
box at a time with scalar arithmetic. The package moves (n, 4) box arrays
(`mvtrack.model.predict_boxes` and its inverse `box_velocities`); the
tests require the two to agree bit for bit.

The regressor readout: the direct, per-box definitions apply the affine
head to every grid cell, then average the box's cells bin by bin. The
package instead pools summed-area tables of the raw statistics for many
boxes at once (`mvtrack.motion.pool`); agreement between the two is what
the readout and gradient tests assert. The cell rule is restated here on
purpose, so the oracle does not share code with what it checks.

The motion encoding: `encode_motion_gradient` builds the seven channels
with np.gradient, which the package writes into one array in place.

Appearance affinity: the per-pair definitions score one gallery entry
against one detection patch at a time, normalizing both on every call. The
package builds the whole objects x detections matrix at once, scoring all
gallery entries against one detection per stacked product
(`mvtrack.affinity.appearance_cost`); the tests require the two to agree.

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

The tracking loop: `track` keeps one `TrackedObject` record per object,
associates, updates and propagates them one at a time (pixel shift with a
scalar double loop per box) and clips each emitted box on its own. The
package keeps the tracker's state in one table of columns
(`mvtrack.model.TrackTable`) and moves, updates and clips all rows at
once; the tests require equal rows, bit for bit.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from mvtrack.affinity import AffinityHeadParams, _logistic, appearance_cost as appearance_matrix, normalize_channels
from mvtrack.association import AssignmentResult, gated_assign, hungarian
from mvtrack.metrics import MotScores
from mvtrack.model import BBox, FeaturePatch, MotionFrame, TrackerConfig, iou_matrix
from mvtrack.motion import F_IN, FieldReadout, RegressorParams, _integral, encode_motion, pool, smooth_l1
from mvtrack.stream import GroundTruthEntry, Scenario, ScenarioFormatError, StreamHeader

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
    """`mvtrack.motion.encode_motion` by np.gradient and np.stack: the same
    seven channels, with the same arithmetic, so the two agree bit for bit."""
    dx = frame.mv[0].astype(float)
    dy = frame.mv[1].astype(float)

    def grad(f: np.ndarray, axis: int) -> np.ndarray:
        if f.shape[axis] < 2:
            return np.zeros_like(f)
        return np.gradient(f, axis=axis)

    return np.stack([dx, dy, frame.residual, grad(dx, 0), grad(dy, 1), grad(dx, 1), grad(dy, 0)])


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
            for r, c in gated_assign(cost, 1.0 - iou_min).matches:
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
    mota = 1.0 - (fp + fn + ids) / gt_total if gt_total else 1.0
    moda = 1.0 - (fp + fn) / gt_total if gt_total else 1.0
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
    IDF1 = 2*IDTP / (gt frames + hypothesis frames).
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
    if len_gt + len_hyp == 0:
        return 1.0
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
    idtp = sum(overlap[r, c] for r, c in hungarian(-overlap))
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
    if len_gt + len_hyp == 0:
        return 1.0
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

    gt = []
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

    A malformed line, a non-finite number or a box without positive width
    and height raises ValueError naming the line."""
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
            out.append((frame, obj_id, BBox(left + w / 2, top + h / 2, w, h), conf))
    return out


# ---------------------------------------------------------------------------
# The object-list tracking loop


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


def velocities(readout: FieldReadout, boxes, block: int) -> list:
    """One Velocity per box, in order."""
    return [Velocity(*row) for row in readout.velocities(boxes, block).tolist()]


def propagate_bbox_avg(boxes, frame: MotionFrame, block: int) -> list:
    """Shift each box by the mean MV over its covered cells; sizes are unchanged.

    This is the averaging baseline: antisymmetric fields (zooms) cancel out,
    so scale changes are invisible to it. A box covering no cell center
    stays where it is.
    """
    A, e = pool(_integral(frame.mv), box_corners(boxes), block, 1)
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
    return appearance_matrix(params, [o.gallery for o in objects], [d.feature for d in detections])


def associate_two_step(objects, detections, params: AffinityHeadParams, cfg: TrackerConfig) -> AssignmentResult:
    """Geometry first, appearance second.

    Step 1 assigns detections to confirmed objects by IoU cost (gate
    tau_iou). Step 2 assigns the detections left over to tentative objects
    plus the confirmed objects step 1 left unmatched, by appearance cost
    (gate tau_app). Appearance never overrides a geometric match.
    """
    confirmed = [i for i, o in enumerate(objects) if o.state is LifecycleState.CONFIRMED]
    tentative = [i for i, o in enumerate(objects) if o.state is LifecycleState.TENTATIVE]

    result = AssignmentResult()
    step1 = gated_assign(_iou_cost([objects[i] for i in confirmed], detections), cfg.tau_iou)
    for r, c in step1.matches:
        result.matches.append((confirmed[r], c))
    det_left = step1.unmatched_detections
    obj_left = sorted(tentative + [confirmed[r] for r in step1.unmatched_objects])

    step2 = gated_assign(
        _appearance_matrix(params, [objects[i] for i in obj_left], [detections[j] for j in det_left]),
        cfg.tau_app,
    )
    for r, c in step2.matches:
        result.matches.append((obj_left[r], det_left[c]))
    matched_obj = {i for i, _ in result.matches}
    matched_det = {j for _, j in result.matches}
    result.matches.sort()
    result.unmatched_objects = [i for i in range(len(objects)) if i not in matched_obj]
    result.unmatched_detections = [j for j in range(len(detections)) if j not in matched_det]
    return result


def associate_one_step(objects, detections, params: AffinityHeadParams, alpha: float, cfg: TrackerConfig) -> AssignmentResult:
    """Single assignment on the blended cost alpha*iou + (1-alpha)*appearance,
    gated at the equally blended threshold. alpha=1 is IoU-only, alpha=0 is
    appearance-only."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    cost = alpha * _iou_cost(objects, detections)
    if alpha < 1.0:
        cost = cost + (1.0 - alpha) * _appearance_matrix(params, objects, detections)
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    return gated_assign(cost, threshold)


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
    return BBox.from_corners(left, top, right, bottom)


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
            detections = [d for d in detector(t) if d.confidence >= cfg.conf_min]
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
                    readout = FieldReadout(models.regressor, encode_motion(frame_data))
                    vels = velocities(readout, [obj.bbox for obj in objects], block)
                    for obj, vel in zip(objects, vels):
                        obj.bbox = predict_bbox(vel, obj.bbox)

        for obj in objects:
            if obj.state is LifecycleState.CONFIRMED:
                clipped = _clip_to_frame(obj.bbox, header.width, header.height)
                if clipped is not None:
                    rows.append((t, obj.id, clipped))
    return rows
