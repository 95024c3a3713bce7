"""Tracking and detection quality metrics against ground truth.

Matching per frame keeps the previous frame's ground-truth/hypothesis pairs
while they still overlap at least iou_min, then solves the remainder with a
gated Hungarian assignment on 1 - IoU. Ground-truth rows flagged invisible
are ignored entirely (neither matchable nor counted), so occluded spans are
"don't care" regions. Each side is a `MotTable` of columns, ground truth
counting the rows whose conf exceeds 0.5, or rows that `mot_table` turns
into one: `GroundTruthEntry` tuples as they are, whose visibility reads as
conf 1.0 or 0.0, and (frame, id, (x, y, w, h)) hypotheses with conf 1.0.

Both scores read one per-frame index of ids and IoU matrices
(`frame_index`); a caller scoring both passes it as `frames=` so each
frame's IoU is computed once. In `clear_mot` only the matching runs frame
by frame; IDS, Frag, MT/ML and the counts are array work over the matches
afterwards.

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
        rows = mot_table(rows if gt else [(f, i, b, 1.0) for f, i, b in rows])
    frame, ids = rows.frame, rows.id
    row = first_repeat(frame, ids)
    if row is not None:
        raise ValueError(f"duplicate {'ground-truth' if gt else 'hypothesis'} id {ids[row]} in frame {frame[row]}")
    kept = np.flatnonzero(rows.conf > 0.5) if gt else np.arange(len(frame))
    kept = kept[np.argsort(frame[kept], kind="stable")]
    return ids[kept], box_corners(rows.boxes[kept]), frame_spans(frame[kept])


def frame_index(gt, results) -> list:
    """(frame, gt ids, hyp ids, IoU matrix) of each frame, in order, that has
    a visible ground-truth row or a hypothesis row, as a list.

    The id arrays keep their row order and the (gt, hyp) IoU matrix is
    indexed the same way. Invisible ground-truth rows are left out; a
    (frame, id) repeated within the ground truth or within the hypotheses
    is an error.
    """
    gt_ids, gt_corners, gt_spans = _frame_groups(gt, True)
    hyp_ids, hyp_corners, hyp_spans = _frame_groups(results, False)
    frames = []
    for frame in sorted(gt_spans.keys() | hyp_spans.keys()):
        g, h = gt_spans.get(frame, slice(0)), hyp_spans.get(frame, slice(0))
        frames.append((frame, gt_ids[g], hyp_ids[h], iou_matrix(gt_corners[g], hyp_corners[h])))
    return frames


def _index_ids(frames) -> tuple:
    """Every visible gt id and every hypothesis id in the index, in frame order."""
    empty = np.zeros(0, int)
    return np.concatenate([empty] + [f[1] for f in frames]), np.concatenate([empty] + [f[2] for f in frames])


def check_iou_min(iou_min: float) -> None:
    if not 0 < iou_min <= 1:  # also rejects nan
        raise ConfigError(f"iou_min must be finite and lie in (0, 1], got {iou_min}")


def clear_mot(gt, results, iou_min: float = 0.5, *, frames=None) -> MotScores:
    """CLEAR-MOT scores for hypotheses against ground truth; iou_min in (0, 1].
    `frames` is the list `frame_index(gt, results)` returns, if the caller
    has built it already."""
    check_iou_min(iou_min)
    if frames is None:
        frames = frame_index(gt, results)
    # every visible gt row and every hypothesis row, in frame order, as dense ids
    (gt_tracks, gt_dense), (hyp_tracks, hyp_dense) = (np.unique(ids, return_inverse=True) for ids in _index_ids(frames))
    gt_at, hyp_at = np.full(len(gt_tracks), -1), np.full(len(hyp_tracks), -1)  # dense id -> row in the frame
    matched = np.zeros(len(gt_dense), bool)
    empty = np.zeros(0, int)
    match_gt, match_hyp, match_iou = [empty], [empty], [np.zeros(0)]
    pair_gt = pair_hyp = empty  # the previous frame's matches, in match order
    g0 = h0 = 0
    # Only the matching is sequential: a pair carried over from the previous
    # frame stays while it still reaches iou_min, and Hungarian pairs the rest.
    for _, gts, hyps, iou in frames:
        g1, h1 = g0 + len(gts), h0 + len(hyps)
        gd, hd = gt_dense[g0:g1], hyp_dense[h0:h1]
        gt_at[gd], hyp_at[hd] = np.arange(len(gd)), np.arange(len(hd))
        r, c = gt_at[pair_gt], hyp_at[pair_hyp]
        keep = (r >= 0) & (c >= 0)
        keep[keep] = iou[r[keep], c[keep]] >= iou_min
        r, c = r[keep], c[keep]
        gt_at[gd] = hyp_at[hd] = -1
        m = matched[g0:g1]  # a view: marks `matched` too
        m[r] = True
        used = np.zeros(len(hd), bool)
        used[c] = True
        free_gt, free_hyp = np.flatnonzero(~m), np.flatnonzero(~used)
        if len(free_gt) and len(free_hyp):
            a, b = gated_assign(1.0 - iou[np.ix_(free_gt, free_hyp)], 1.0 - iou_min)
            r, c = np.concatenate([r, free_gt[a]]), np.concatenate([c, free_hyp[b]])
            m[r] = True
        pair_gt, pair_hyp = gd[r], hd[c]
        match_gt.append(pair_gt)
        match_hyp.append(pair_hyp)
        match_iou.append(iou[r, c])
        g0, h0 = g1, h1

    match_gt, match_hyp, match_iou = np.concatenate(match_gt), np.concatenate(match_hyp), np.concatenate(match_iou)
    tp, gt_total = len(match_iou), len(gt_dense)
    fp, fn = len(hyp_dense) - tp, gt_total - tp
    # IDS: each gt id's consecutive matches, in frame order, to different hyp ids
    order = np.argsort(match_gt, kind="stable")
    g, h = match_gt[order], match_hyp[order]
    ids = int(np.count_nonzero((g[1:] == g[:-1]) & (h[1:] != h[:-1])))
    # Frag: each gt id's matched visible frames that follow an unmatched one
    # and an earlier match; only a track that starts unmatched has an
    # unmatched-to-matched step without an earlier match, at its first match
    present = np.bincount(gt_dense, minlength=len(gt_tracks))
    hits = np.bincount(gt_dense[matched], minlength=len(gt_tracks))
    order = np.argsort(gt_dense, kind="stable")
    g, h = gt_dense[order], matched[order]
    steps = np.count_nonzero((g[1:] == g[:-1]) & h[1:] & ~h[:-1])
    late_start = ~h[np.cumsum(present) - present] & (hits > 0)
    frag = int(steps - np.count_nonzero(late_start))

    # with no ground truth, TrackEval's max(1, gt_total) denominator makes each FP cost 1
    mota = 1.0 - (fp + fn + ids) / gt_total if gt_total else float(-fp)
    moda = 1.0 - (fp + fn) / gt_total if gt_total else float(-fp)
    # cumsum adds the matched IoUs one at a time, in the order they matched
    motp = float(np.cumsum(match_iou)[-1]) / tp if tp else 0.0
    rcll = tp / gt_total if gt_total else 0.0
    prcn = tp / (tp + fp) if tp + fp else 0.0
    ratios = hits / present
    mt, ml = int(np.count_nonzero(ratios >= 0.8)), int(np.count_nonzero(ratios <= 0.2))
    return MotScores(
        mota=mota, motp=motp, fp=fp, fn=fn, ids=ids, frag=frag, mt=mt, ml=ml,
        rcll=rcll, prcn=prcn, moda=moda, gt_total=gt_total, tp=tp,
    )


def idf1(gt, results, iou_min: float = 0.5, *, frames=None) -> float:
    """Identity F1: the best one-to-one trajectory pairing's frame agreement.

    For each (gt track, hypothesis track) pair the overlap count is the
    number of frames where both exist and their boxes reach iou_min; a
    maximum-overlap bipartite matching gives IDTP, and
    IDF1 = 2*IDTP / max(1, gt frames + hypothesis frames). `frames` is as
    in `clear_mot`.
    """
    check_iou_min(iou_min)
    if frames is None:
        frames = frame_index(gt, results)
    gt_ids, hyp_ids = _index_ids(frames)
    if not len(gt_ids) or not len(hyp_ids):
        return 0.0
    empty = np.zeros(0, int)
    hits = [(empty, empty)]  # (gt ids, hyp ids) of the pairs reaching iou_min
    for _, gts, hyps, iou in frames:
        r, c = np.nonzero(iou >= iou_min)
        hits.append((gts[r], hyps[c]))
    gt_tracks, hyp_tracks = np.unique(gt_ids), np.unique(hyp_ids)
    hit_gt, hit_hyp = np.concatenate(hits, axis=1)
    overlap = np.zeros((len(gt_tracks), len(hyp_tracks)))
    np.add.at(overlap, (np.searchsorted(gt_tracks, hit_gt), np.searchsorted(hyp_tracks, hit_hyp)), 1)
    idtp = overlap[hungarian(-overlap)].sum()  # whole counts: exact in any order
    return 2.0 * idtp / (len(gt_ids) + len(hyp_ids))
