"""Optimal assignment and the two data-association procedures.

Matching runs on cost matrices gated by a threshold: pairs above the gate
are forbidden (sentinel cost) and any residual sentinel match is discarded,
so a returned match never exceeds its gate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .affinity import AffinityHeadParams, appearance_cost
from .model import LifecycleState, TrackerConfig, box_corners, iou_matrix

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


def gated_assign(cost: np.ndarray, threshold: float) -> AssignmentResult:
    """Hungarian assignment where pairs costing more than the gate never match."""
    cost = np.asarray(cost, dtype=float)
    result = AssignmentResult()
    if cost.size == 0:
        result.unmatched_objects = list(range(cost.shape[0] if cost.ndim == 2 else 0))
        result.unmatched_detections = list(range(cost.shape[1] if cost.ndim == 2 else 0))
        return result
    gated = np.where(cost > threshold, FORBIDDEN, cost)
    matched_rows = set()
    matched_cols = set()
    for r, c in hungarian(gated):
        if cost[r, c] > threshold:
            continue
        result.matches.append((r, c))
        matched_rows.add(r)
        matched_cols.add(c)
    result.unmatched_objects = [r for r in range(cost.shape[0]) if r not in matched_rows]
    result.unmatched_detections = [c for c in range(cost.shape[1]) if c not in matched_cols]
    return result


def _iou_cost(objects, detections) -> np.ndarray:
    return 1.0 - iou_matrix(box_corners([o.bbox for o in objects]), box_corners([d.bbox for d in detections]))


def _appearance_matrix(params, objects, detections) -> np.ndarray:
    return appearance_cost(params, [o.gallery for o in objects], [d.feature for d in detections])


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
