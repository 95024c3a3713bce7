"""Optimal assignment and the two data-association procedures.

Matching runs on cost matrices gated by a threshold: pairs above the gate
are forbidden (sentinel cost) and any residual sentinel match is discarded,
so a returned match never exceeds its gate. Both procedures score the
track table's box array and gallery slots against a `Detections` table's
columns. One-step association gates first: it scores appearance only for
the cells whose geometric term alone can still pass the gate. Two-step's
step 2 hands its gate to the appearance kernel, which skips the gallery
entries that provably cannot pass it. Matches are two index arrays (rows,
cols), track-table rows in ascending order and the detection row each one
takes.
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
    alone exceeds the gate is forbidden whatever its appearance: only the
    other cells are scored, and the forbidden ones keep the geometric term,
    which `gated_assign` forbids the same way.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    cost = alpha * _iou_cost(tracks.boxes, detections.boxes)
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    if alpha < 1.0:
        live = ~(cost > threshold)
        cost = cost + (1.0 - alpha) * appearance_cost(params, tracks.gallery, tracks.slots, detections.features, live)
    return gated_assign(cost, threshold)


def associate(tracks: TrackTable, detections: Detections, params: AffinityHeadParams, cfg: TrackerConfig) -> tuple:
    """The configured association as (rows, cols): two-step, or one-step at
    cfg.alpha."""
    if cfg.association_mode == "twostep":
        return associate_two_step(tracks, detections, params, cfg)
    return associate_one_step(tracks, detections, params, cfg.alpha, cfg)
