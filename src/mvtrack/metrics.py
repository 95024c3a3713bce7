"""Tracking and detection quality metrics against ground truth.

Matching per frame keeps the previous frame's ground-truth/hypothesis pairs
while they still overlap at least iou_min, then solves the remainder with a
gated Hungarian assignment on 1 - IoU. Ground-truth rows flagged invisible
are ignored entirely (neither matchable nor counted), so occluded spans are
"don't care" regions. Each side is a `MotTable` of columns, ground truth
counting the rows whose conf exceeds 0.5, or rows: `GroundTruthEntry` for
the ground truth, (frame, id, (x, y, w, h)) for the hypotheses, which `mot_table`
turns into one.

Conventions (MOTChallenge): MOTP is the mean IoU over matches; MT/ML count
ground-truth tracks matched in >= 80% / <= 20% of their visible frames;
Frag counts resumptions of a track's matched status over its visible frames.
A ratio over an empty count takes TrackEval's max(1, .) denominator: with no
visible ground truth MOTA and MODA are -FP, and IDF1 of two empty sides is 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import gated_assign, hungarian
from .model import ConfigError, MotTable, box_corners, first_repeat, frame_spans, iou_matrix, mot_table
from .stream import gt_to_rows


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


def _frame_groups(rows, gt: bool) -> tuple:
    """The ids and box corners of the counted rows, stable-sorted by frame,
    and {frame: slice} of each frame's group in them; a (frame, id) in two
    rows, counted or not, is an error naming the first repeat."""
    if not isinstance(rows, MotTable):  # GroundTruthEntry or (frame, id, box) rows
        rows = mot_table(gt_to_rows(rows) if gt else [(f, i, b, 1.0) for f, i, b in rows])
    frame, ids = rows.frame, rows.id
    row = first_repeat(frame, ids)
    if row is not None:
        raise ValueError(f"duplicate {'ground-truth' if gt else 'hypothesis'} id {ids[row]} in frame {frame[row]}")
    kept = np.flatnonzero(rows.conf > 0.5) if gt else np.arange(len(frame))
    kept = kept[np.argsort(frame[kept], kind="stable")]
    return ids[kept], box_corners(rows.boxes[kept]), frame_spans(frame[kept])


def frame_index(gt, results):
    """Yield (frame, gt ids, hyp ids, IoU matrix) for each frame, in order,
    that has a visible ground-truth row or a hypothesis row.

    The id arrays keep their row order and the (gt, hyp) IoU matrix is
    indexed the same way. Invisible ground-truth rows are left out; a
    (frame, id) repeated within the ground truth or within the hypotheses
    is an error.
    """
    gt_ids, gt_corners, gt_spans = _frame_groups(gt, True)
    hyp_ids, hyp_corners, hyp_spans = _frame_groups(results, False)
    for frame in sorted(gt_spans.keys() | hyp_spans.keys()):
        g, h = gt_spans.get(frame, slice(0)), hyp_spans.get(frame, slice(0))
        yield frame, gt_ids[g], hyp_ids[h], iou_matrix(gt_corners[g], hyp_corners[h])


def check_iou_min(iou_min: float) -> None:
    if not 0 < iou_min <= 1:  # also rejects nan
        raise ConfigError(f"iou_min must be finite and lie in (0, 1], got {iou_min}")


def clear_mot(gt, results, iou_min: float = 0.5) -> MotScores:
    """CLEAR-MOT scores for hypotheses against ground truth; iou_min in (0, 1]."""
    check_iou_min(iou_min)
    fp = fn = ids = tp = 0
    iou_sum = 0.0
    prev_pairs = {}  # gt id -> hyp id matched in the previous frame
    last_match = {}  # gt id -> hyp id at its most recent match, any frame
    gt_present = {}  # gt id -> number of visible frames
    gt_matched = {}  # gt id -> number of matched frames
    was_matched = {}  # gt id -> matched status at its previous visible frame
    frag = {}

    for _, gts, hyps, iou in frame_index(gt, results):
        gt_ids, hyp_ids = gts.tolist(), hyps.tolist()
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
            rows, cols = gated_assign(cost, 1.0 - iou_min)
            for r, c in zip(rows.tolist(), cols.tolist()):
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
    # with no ground truth, TrackEval's max(1, gt_total) denominator makes each FP cost 1
    mota = 1.0 - (fp + fn + ids) / gt_total if gt_total else float(-fp)
    moda = 1.0 - (fp + fn) / gt_total if gt_total else float(-fp)
    motp = iou_sum / tp if tp else 0.0
    rcll = tp / gt_total if gt_total else 0.0
    prcn = tp / (tp + fp) if tp + fp else 0.0
    ratios = [gt_matched.get(g, 0) / present for g, present in gt_present.items()]
    mt, ml = sum(r >= 0.8 for r in ratios), sum(r <= 0.2 for r in ratios)
    return MotScores(
        mota=mota, motp=motp, fp=fp, fn=fn, ids=ids, frag=sum(frag.values()), mt=mt, ml=ml,
        rcll=rcll, prcn=prcn, moda=moda, gt_total=gt_total, tp=tp,
    )


def idf1(gt, results, iou_min: float = 0.5) -> float:
    """Identity F1: the best one-to-one trajectory pairing's frame agreement.

    For each (gt track, hypothesis track) pair the overlap count is the
    number of frames where both exist and their boxes reach iou_min; a
    maximum-overlap bipartite matching gives IDTP, and
    IDF1 = 2*IDTP / max(1, gt frames + hypothesis frames).
    """
    check_iou_min(iou_min)
    empty = np.zeros(0, int)
    gt_ids, hyp_ids, hits = [empty], [empty], [(empty, empty)]  # hits: (gt ids, hyp ids) reaching iou_min
    for _, gts, hyps, iou in frame_index(gt, results):
        r, c = np.nonzero(iou >= iou_min)
        gt_ids.append(gts)
        hyp_ids.append(hyps)
        hits.append((gts[r], hyps[c]))
    gt_ids, hyp_ids = np.concatenate(gt_ids), np.concatenate(hyp_ids)
    if not len(gt_ids) or not len(hyp_ids):
        return 0.0
    gt_tracks, hyp_tracks = np.unique(gt_ids), np.unique(hyp_ids)
    hit_gt, hit_hyp = np.concatenate(hits, axis=1)
    overlap = np.zeros((len(gt_tracks), len(hyp_tracks)))
    np.add.at(overlap, (np.searchsorted(gt_tracks, hit_gt), np.searchsorted(hyp_tracks, hit_hyp)), 1)
    idtp = overlap[hungarian(-overlap)].sum()  # whole counts: exact in any order
    return 2.0 * idtp / (len(gt_ids) + len(hyp_ids))
