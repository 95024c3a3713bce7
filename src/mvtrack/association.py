"""Optimal assignment and the two data-association procedures.

Matching runs on cost matrices gated by a threshold: pairs above the gate
are forbidden (sentinel cost) and any residual sentinel match is discarded,
so a returned match never exceeds its gate. Both procedures score the
track table's box array and galleries; matches index its rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .affinity import AffinityHeadParams, appearance_cost
from .model import TrackerConfig, TrackTable, box_corners, iou_matrix

FORBIDDEN = 1e9


@dataclass
class AssignmentResult:
    matches: list = field(default_factory=list)  # (object index, detection index)
    unmatched_objects: list = field(default_factory=list)
    unmatched_detections: list = field(default_factory=list)


def hungarian(cost: np.ndarray) -> list:
    """Min-cost maximum matching of a rectangular matrix as (row, col) pairs."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def _result(matches: list, n_objects: int, n_detections: int) -> AssignmentResult:
    """An assignment from its matches, unmatched indices filled in."""
    rows = {r for r, _ in matches}
    cols = {c for _, c in matches}
    return AssignmentResult(
        sorted(matches), [r for r in range(n_objects) if r not in rows], [c for c in range(n_detections) if c not in cols]
    )


def gated_assign(cost: np.ndarray, threshold: float) -> AssignmentResult:
    """Hungarian assignment where pairs costing more than the gate never match."""
    cost = np.asarray(cost, dtype=float)
    n, k = cost.shape if cost.ndim == 2 else (0, 0)
    if cost.size == 0:
        return _result([], n, k)
    pairs = hungarian(np.where(cost > threshold, FORBIDDEN, cost))
    return _result([(r, c) for r, c in pairs if not cost[r, c] > threshold], n, k)


def _iou_cost(boxes: np.ndarray, detections) -> np.ndarray:
    return 1.0 - iou_matrix(box_corners(boxes), box_corners([d.bbox for d in detections]))


def associate_two_step(tracks: TrackTable, detections, params: AffinityHeadParams, cfg: TrackerConfig) -> AssignmentResult:
    """Geometry first, appearance second.

    Step 1 assigns detections to confirmed rows by IoU cost (gate tau_iou).
    Step 2 assigns the detections left over to every row step 1 left
    unmatched, tentative or confirmed, by appearance cost (gate tau_app).
    Appearance never overrides a geometric match.
    """
    confirmed = np.flatnonzero(tracks.confirmed)
    step1 = gated_assign(_iou_cost(tracks.boxes[confirmed], detections), cfg.tau_iou)
    matches = [(int(confirmed[r]), c) for r, c in step1.matches]
    det_left = step1.unmatched_detections
    taken = {i for i, _ in matches}
    obj_left = [i for i in range(len(tracks)) if i not in taken]

    step2 = gated_assign(
        appearance_cost(params, [tracks.galleries[i] for i in obj_left], [detections[j].feature for j in det_left]),
        cfg.tau_app,
    )
    matches += [(obj_left[r], det_left[c]) for r, c in step2.matches]
    return _result(matches, len(tracks), len(detections))


def associate_one_step(tracks: TrackTable, detections, params: AffinityHeadParams, alpha: float, cfg: TrackerConfig) -> AssignmentResult:
    """Single assignment on the blended cost alpha*iou + (1-alpha)*appearance,
    gated at the equally blended threshold. alpha=1 is IoU-only, alpha=0 is
    appearance-only."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    cost = alpha * _iou_cost(tracks.boxes, detections)
    if alpha < 1.0:
        cost = cost + (1.0 - alpha) * appearance_cost(params, tracks.galleries, [d.feature for d in detections])
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    return gated_assign(cost, threshold)


def associate(tracks: TrackTable, detections, params: AffinityHeadParams, cfg: TrackerConfig) -> AssignmentResult:
    """The configured association: two-step, or one-step at cfg.alpha."""
    if cfg.association_mode == "twostep":
        return associate_two_step(tracks, detections, params, cfg)
    return associate_one_step(tracks, detections, params, cfg.alpha, cfg)
