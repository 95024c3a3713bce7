"""Tracking and detection quality metrics against ground truth.

Matching per frame keeps the previous frame's ground-truth/hypothesis pairs
while they still overlap at least iou_min, then solves the remainder with a
gated Hungarian assignment on 1 - IoU. Ground-truth rows flagged invisible
are ignored entirely (neither matchable nor counted), so occluded spans are
"don't care" regions.

Conventions (MOTChallenge): MOTP is the mean IoU over matches; MT/ML count
ground-truth tracks matched in >= 80% / <= 20% of their visible frames;
Frag counts resumptions of a track's matched status over its visible frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import gated_assign, hungarian
from .model import bbox_iou


@dataclass
class MotScores:
    mota: float
    motp: float
    fp: int
    fn: int
    ids: int
    frag: int
    mt: int
    ml: int
    rcll: float
    prcn: float
    moda: float
    gt_total: int
    tp: int


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
