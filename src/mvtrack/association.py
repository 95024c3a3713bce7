"""Optimal assignment and the two data-association procedures.

Matching runs on cost matrices gated by a threshold: pairs above the gate
are forbidden (sentinel cost) and any residual sentinel match is discarded,
so a returned match never exceeds its gate. Both procedures score the
track table's box array and gallery slots against a `Detections` table's
columns. One-step association gates first, on geometry, then matches a
live cell alone in its row and column outright if its newest gallery entry
passes the gate with a margin (its exact cost is never higher but for
rounding, and nothing competes for its row or column); Hungarian gets only
the other cells' rows and columns. Every appearance score is taken under a
gate, which lets the kernel skip the gallery entries that provably cannot
pass it: two-step's step 2 hands it tau_app, one-step each cell's share of
the blended gate. Matches are two index arrays (rows, cols), track-table
rows in ascending order and the detection row each one takes.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .affinity import AffinityHeadParams, appearance_cost
from .model import Detections, TrackerConfig, TrackTable, box_corners, iou_matrix

FORBIDDEN = 1e9


def hungarian(cost: np.ndarray) -> tuple:
    """Min-cost maximum matching of a rectangular matrix as (rows, cols)
    index arrays, rows ascending."""
    return linear_sum_assignment(np.asarray(cost, dtype=float))


def gated_assign(cost: np.ndarray, threshold: float) -> tuple:
    """Hungarian assignment where pairs costing more than the gate never
    match; (rows, cols) as `hungarian` returns them."""
    cost = np.asarray(cost, dtype=float)
    rows, cols = hungarian(np.where(cost > threshold, FORBIDDEN, cost))
    keep = ~(cost[rows, cols] > threshold)
    return rows[keep], cols[keep]


def _iou_cost(boxes: np.ndarray, det_boxes: np.ndarray) -> np.ndarray:
    return 1.0 - iou_matrix(box_corners(boxes), box_corners(det_boxes))


def associate_two_step(tracks: TrackTable, detections: Detections, params: AffinityHeadParams, cfg: TrackerConfig) -> tuple:
    """Geometry first, appearance second.

    Step 1 assigns detections to confirmed rows by IoU cost (gate tau_iou).
    Step 2 assigns the detections left over to every row step 1 left
    unmatched, tentative or confirmed, by appearance cost (gate tau_app),
    and is skipped when step 1 leaves no row or no detection. Appearance
    never overrides a geometric match.
    """
    confirmed = np.flatnonzero(tracks.confirmed)
    rows, cols = gated_assign(_iou_cost(tracks.boxes[confirmed], detections.boxes), cfg.tau_iou)
    rows = confirmed[rows]
    obj_left, det_left = np.ones(len(tracks), dtype=bool), np.ones(len(detections.conf), dtype=bool)
    obj_left[rows] = det_left[cols] = False
    obj_left, det_left = np.flatnonzero(obj_left), np.flatnonzero(det_left)
    if not (len(obj_left) and len(det_left)):
        return rows, cols

    r2, c2 = gated_assign(
        appearance_cost(params, tracks.gallery, tracks.slots[obj_left], detections.features[det_left], gate=cfg.tau_app),
        cfg.tau_app,
    )
    rows, cols = np.concatenate([rows, obj_left[r2]]), np.concatenate([cols, det_left[c2]])
    order = np.argsort(rows)
    return rows[order], cols[order]


def associate_one_step(tracks: TrackTable, detections: Detections, params: AffinityHeadParams, alpha: float, cfg: TrackerConfig) -> tuple:
    """Single assignment on the blended cost alpha*iou + (1-alpha)*appearance,
    gated at the equally blended threshold. alpha=1 is IoU-only, alpha=0 is
    appearance-only.

    Appearance costs are never negative, so a cell whose geometric term
    alone exceeds the gate is forbidden whatever its appearance; the others
    are live. A live cell alone in its row and column (isolated) is scored
    on its row's newest gallery entry; its exact cost is never higher but
    for rounding (`_logistic` can step back by an ulp of 1). If that passes
    the gate with a margin far above the rounding, so does the exact cost,
    and with no other live cell in its row or column the cell is in every
    optimum, so it is matched outright. The other live cells are scored
    under their share of the blended gate,
    `(threshold + eps - alpha*(1 - IoU)) / (1 - alpha)`, so a cell that
    passes gets its exact cost and any other stays over the threshold: one
    `gated_assign` on their rows and columns sees the matrix of full
    scoring, bit for bit. The optimum splits over connected components of
    live cells, so this gives the matches of scoring every cell, up to ties
    between optima.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    cost = alpha * _iou_cost(tracks.boxes, detections.boxes)
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    if alpha == 1.0:
        return gated_assign(cost, threshold)
    live = ~(cost > threshold)
    isolated = live & (np.count_nonzero(live, axis=1) == 1)[:, None] & (np.count_nonzero(live, axis=0) == 1)
    newest = cost + (1.0 - alpha) * appearance_cost(params, tracks.gallery, tracks.slots, detections.features, isolated, newest_only=True)
    direct = isolated & ~(newest > threshold - 1e-12)
    rest = live & ~direct
    rows, cols = np.nonzero(direct)
    rest_rows, rest_cols = np.flatnonzero(rest.any(axis=1)), np.flatnonzero(rest.any(axis=0))
    if not len(rest_rows):
        return rows, cols
    # the margin sits in blended cost: added after the division it vanishes as alpha nears 1
    gate = (threshold + 1e-12 - cost) / (1.0 - alpha)
    cost = cost + (1.0 - alpha) * appearance_cost(params, tracks.gallery, tracks.slots, detections.features, rest, gate)
    r, c = gated_assign(cost[np.ix_(rest_rows, rest_cols)], threshold)
    rows, cols = np.concatenate([rows, rest_rows[r]]), np.concatenate([cols, rest_cols[c]])
    order = np.argsort(rows)
    return rows[order], cols[order]


def associate(tracks: TrackTable, detections: Detections, params: AffinityHeadParams, cfg: TrackerConfig) -> tuple:
    """The configured association as (rows, cols): two-step, or one-step at
    cfg.alpha."""
    if cfg.association_mode == "twostep":
        return associate_two_step(tracks, detections, params, cfg)
    return associate_one_step(tracks, detections, params, cfg.alpha, cfg)
