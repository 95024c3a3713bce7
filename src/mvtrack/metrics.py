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
from .model import box_corners, iou_matrix


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


def _by_frame(rows, what: str) -> tuple:
    """The ids and box corners of the counted (frame, id, BBox, counted) rows,
    grouped by frame in row order, and {frame: slice} of each group in them;
    a (frame, id) repeated in any row is an error."""
    seen, kept = set(), []
    for frame, obj_id, bbox, counted in rows:
        if (frame, obj_id) in seen:
            raise ValueError(f"duplicate {what} id {obj_id} in frame {frame}")
        seen.add((frame, obj_id))
        if counted:
            kept.append((frame, obj_id, bbox))
    kept.sort(key=lambda row: row[0])  # stable: row order within a frame
    frames, starts, counts = np.unique([row[0] for row in kept], return_index=True, return_counts=True)
    spans = {f: slice(a, a + n) for f, a, n in zip(frames.tolist(), starts.tolist(), counts.tolist())}
    return [row[1] for row in kept], box_corners([row[2] for row in kept]), spans


def frame_index(gt, results):
    """Yield (frame, gt ids, hyp ids, IoU matrix) for each frame, in order,
    that has a visible ground-truth row or a hypothesis row.

    The ids keep their row order and the (gt, hyp) IoU matrix is indexed
    the same way. Invisible ground-truth rows are left out; a (frame, id)
    repeated within the ground truth or within the hypotheses is an error.
    """
    gt_ids, gt_corners, gt_spans = _by_frame(((r.frame, r.id, r.bbox, r.visible) for r in gt), "ground-truth")
    hyp_ids, hyp_corners, hyp_spans = _by_frame(((f, i, b, True) for f, i, b in results), "hypothesis")
    for frame in sorted(gt_spans.keys() | hyp_spans.keys()):
        g, h = gt_spans.get(frame, slice(0)), hyp_spans.get(frame, slice(0))
        yield frame, gt_ids[g], hyp_ids[h], iou_matrix(gt_corners[g], hyp_corners[h])


def clear_mot(gt, results, iou_min: float = 0.5) -> MotScores:
    """CLEAR-MOT scores for hypothesis rows (frame, id, BBox) against GT."""
    fp = fn = ids = tp = 0
    iou_sum = 0.0
    prev_pairs = {}  # gt id -> hyp id matched in the previous frame
    last_match = {}  # gt id -> hyp id at its most recent match, any frame
    gt_present = {}  # gt id -> number of visible frames
    gt_matched = {}  # gt id -> number of matched frames
    was_matched = {}  # gt id -> matched status at its previous visible frame
    frag = {}

    for _, gt_ids, hyp_ids, iou in frame_index(gt, results):
        row = {g: i for i, g in enumerate(gt_ids)}
        col = {h: j for j, h in enumerate(hyp_ids)}

        pairs = {}
        # Keep surviving pairs from the previous frame first.
        for g, h in prev_pairs.items():
            if g in row and h in col and iou[row[g], col[h]] >= iou_min:
                pairs[g] = h
        free_gt = [g for g in gt_ids if g not in pairs]
        used_hyp = set(pairs.values())
        free_hyp = [h for h in hyp_ids if h not in used_hyp]
        if free_gt and free_hyp:
            cost = 1.0 - iou[np.ix_([row[g] for g in free_gt], [col[h] for h in free_hyp])]
            for r, c in gated_assign(cost, 1.0 - iou_min).matches:
                pairs[free_gt[r]] = free_hyp[c]

        tp += len(pairs)
        fp += len(hyp_ids) - len(pairs)
        fn += len(gt_ids) - len(pairs)
        for g, h in pairs.items():
            iou_sum += float(iou[row[g], col[h]])
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
    gt_ids = []  # every visible gt id, once per frame it appears in
    hyp_ids = []
    hits = []  # (gt id, hyp id) of every pair reaching iou_min, once per frame
    for _, gts, hyps, iou in frame_index(gt, results):
        gt_ids += gts
        hyp_ids += hyps
        hits += [(gts[r], hyps[c]) for r, c in zip(*np.nonzero(iou >= iou_min))]

    if not gt_ids and not hyp_ids:
        return 1.0
    if not gt_ids or not hyp_ids:
        return 0.0
    gt_row = {g: i for i, g in enumerate(sorted(set(gt_ids)))}
    hyp_col = {h: j for j, h in enumerate(sorted(set(hyp_ids)))}
    overlap = np.zeros((len(gt_row), len(hyp_col)))
    for g, h in hits:
        overlap[gt_row[g], hyp_col[h]] += 1
    idtp = sum(overlap[r, c] for r, c in hungarian(-overlap))
    return 2.0 * idtp / (len(gt_ids) + len(hyp_ids))
