"""Object propagation through non-key frames.

Two closed-form baselines (mean motion vector, per-pixel shift envelope) and
a learnable velocity-field regressor. The regressor is a per-cell affine map
from local motion statistics to a field with 4*m*m channels; a box is read
out of that field by position-sensitive pooling (channel k*m*m + u*m + v is
pooled over spatial bin (u, v), bins are averaged per component k in
x, y, w, h order) and the pooled 4-vector is applied as a normalized
velocity. The map stays affine so the fitting objective is convex and its
gradients are exact. All three move one (n, 4) x, y, w, h box array.
MV averaging and the regressor read only the cells their boxes cover
(`pool`); a frame's full grid is only copied into a ring and, for the
residual energy, summed once (`motion_table`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MotionFrame, box_corners, box_velocities, center_cells, corner_boxes, frame_spans, mot_table
from .stream import gt_to_rows

# Per-cell motion statistics fed to the regressor, in order: dx, dy, residual
# energy, and the Jacobian of the MV field per cell index, d(dx)/dx, d(dy)/dy,
# d(dx)/dy, d(dy)/dx, as central differences (one-sided at the grid border).
# The Jacobian terms make scale changes linearly recoverable, which plain MV
# averaging cannot do.
F_IN = 7


@dataclass
class RegressorParams:
    """Affine velocity-field head: field = W @ stats + bias per grid cell."""

    W: np.ndarray  # (4*m*m, F_IN)
    bias: np.ndarray  # (4*m*m,)
    m: int

    def __post_init__(self):
        expected = (4 * self.m * self.m, F_IN)
        if self.W.shape != expected:
            raise ValueError(f"W must have shape {expected}, got {self.W.shape}")
        if self.bias.shape != (expected[0],):
            raise ValueError(f"bias must have shape ({expected[0]},), got {self.bias.shape}")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.bias))):
            raise ValueError("regressor parameters must be finite")

    @classmethod
    def zeros(cls, m: int) -> "RegressorParams":
        return cls(np.zeros((4 * m * m, F_IN)), np.zeros(4 * m * m), m)


def motion_table(frame: MotionFrame, stats: int = F_IN) -> tuple:
    """What `pool` reads a frame's first `stats` (2 or F_IN) statistics from:
    dx, dy as (2, gw + 2, gh + 2) floats in a ring, and the (gw + 1, gh + 1)
    summed-area table of the residual energy (None for dx, dy alone). For the
    full set a ring cell is 2*f[0] - f[1] (f[0] on an axis of one cell), so the
    border's one-sided difference is the central one (f[i+1] - f[i-1]) / 2."""
    gw, gh = frame.residual.shape
    mv = np.zeros((2, gw + 2, gh + 2))
    mv[:, 1:-1, 1:-1] = frame.mv
    if stats == 2:
        return mv, None
    for ring in (mv[:, :, 1:-1], mv[:, 1:-1].transpose(0, 2, 1)):  # along x, then along y
        k = min(1, ring.shape[1] - 3)
        ring[:, 0], ring[:, -1] = 2 * ring[:, 1] - ring[:, 1 + k], 2 * ring[:, -2] - ring[:, -2 - k]
    S = np.zeros((gw + 1, gh + 1))
    np.cumsum(frame.residual, axis=0, dtype=float, out=S[1:, 1:])
    np.cumsum(S[1:, 1:], axis=1, out=S[1:, 1:])
    return mv, S


def pool(table: tuple, corners: np.ndarray, block: int, m: int):
    """Position-sensitive pooling of many boxes' motion statistics.

    Each box's covered cells (see `center_cells`) are split into m x m bins:
    the cut between bins is the first cell whose center reaches the bin
    boundary. Returns A (n, m*m, F), the per-bin mean statistics divided by
    m*m, and e (n, m*m), 1/(m*m) for non-empty bins; empty bins are all-zero.
    Sum A[i] over bins and it is the mean over bins of box i's per-bin means.

    Only the cells the boxes cover are read. Motion vectors are whole
    pixels, so every dx and dy value is an integer and every derivative a
    multiple of 0.5: their bin sums are exact in float64, in any order,
    while the grid has fewer than 2**20 cells, and they are added straight
    from the covered cells. Only the residual energy is read out of its
    summed-area table.
    """
    n = len(corners)
    mv, residual = table
    gw, gh = mv.shape[1] - 2, mv.shape[2] - 2
    # x and y side by side: lo, hi, left, right are (n, 2) and the cuts (n, 2, m+1)
    lo, hi = center_cells(corners, block, gw, gh).reshape(n, 2, 2).transpose(1, 0, 2)
    left, right = (corners / block).reshape(n, 2, 2).transpose(1, 0, 2)
    c = np.ceil(left[:, :, None] + np.arange(m + 1) * ((right - left) / m)[:, :, None] - 0.5).astype(int)
    c[:, :, 0], c[:, :, m] = lo, hi
    np.clip(c, lo[:, :, None], hi[:, :, None], out=c)
    np.maximum.accumulate(c, axis=2, out=c)
    c[~(lo < hi).all(axis=1)] = 0
    d = np.diff(c, axis=2)  # (n, 2, m) bin widths in cells
    counts = (d[:, 0, :, None] * d[:, 1, None, :]).reshape(n, m * m)
    nonempty = counts > 0
    size = n * m * m

    # the covered cells, box by box, x-major: each one's key box * m*m + u * m + v
    # for bin (u, v), and its flat index into the ringed mv
    first, span = c[:, :, 0], c[:, :, m] - c[:, :, 0]
    cells = span[:, 0] * span[:, 1]
    box, start, sy, x, y = np.repeat([np.arange(n), np.cumsum(cells) - cells, span[:, 1], *first.T], cells, axis=1)
    ox, oy = np.divmod(np.arange(len(box)) - start, sy)
    key = box * (m * m)
    if m > 1:
        # the bin of an offset along an axis is the number of inner cuts at or before it
        s = int(span.max(initial=0)) + 1
        cuts = (np.arange(0, 2 * n * s, s).reshape(n, 2, 1) + c[:, :, 1:m] - first[:, :, None]).ravel()
        bins = np.cumsum(np.bincount(cuts, minlength=2 * n * s).reshape(n, 2, s), axis=2)
        key += np.take(bins, 2 * s * box + ox) * m + np.take(bins, (2 * box + 1) * s + oy)
    r = gh + 2  # the ringed mv's row length
    at = (x + ox + 1) * r + y + oy + 1

    # dx, dy and, for all seven statistics, their central differences
    # d(dx)/dx, d(dx)/dy, d(dy)/dx, d(dy)/dy, added per bin into their
    # channels of A
    flat = mv.reshape(2, -1)
    if residual is None:
        f, exact, channel = 2, np.take(flat, at, axis=1), np.array([0, 1])
    else:
        g = np.take(flat, at + np.array([0, r, 1, -r, -1])[:, None], axis=1)  # (2, 5, cells)
        f, exact = F_IN, np.concatenate([g[:, 0], ((g[:, 1:3] - g[:, 3:]) / 2).reshape(4, -1)])
        channel = np.array([0, 1, 3, 5, 6, 4])
    keys = (key * f + channel[:, None]).ravel()
    filled = np.flatnonzero(nonempty)
    sums = np.bincount(keys, weights=exact.ravel(), minlength=size * f).reshape(size, f)[filled]
    if residual is not None:
        corner = np.take(residual, c[:, 0, :, None] * (gh + 1) + c[:, 1, None, :])  # (n, m+1, m+1)
        res = corner[:, 1:, 1:] - corner[:, :-1, 1:]
        res -= corner[:, 1:, :-1]
        res += corner[:, :-1, :-1]
        sums[:, 2] = np.take(res, filled)
    # C-contiguous: the einsum that reads A adds in an order that follows its layout
    A = np.zeros((n, m * m, f))
    A.reshape(size, f)[filled] = sums / (np.take(counts, filled) * (m * m))[:, None]
    return A, nonempty / (m * m)


def propagate_bbox_avg(boxes: np.ndarray, frame: MotionFrame, block: int) -> np.ndarray:
    """Shift each (n, 4) x, y, w, h box by the mean MV over its covered
    cells; sizes are unchanged.

    This is the averaging baseline: antisymmetric fields (zooms) cancel out,
    so scale changes are invisible to it. A box covering no cell center
    stays where it is.
    """
    A, e = pool(motion_table(frame, 2), box_corners(boxes), block, 1)
    out = boxes.copy()
    covered = e[:, 0] > 0
    out[covered, :2] += A[covered, 0]
    return out


def propagate_pixel_shift(boxes: np.ndarray, frame: MotionFrame, block: int) -> np.ndarray:
    """Tight bounding rectangle of each (n, 4) x, y, w, h box's contents
    after per-block shifts.

    Every point of a box moves by its block's MV; portions outside the grid
    move by zero. Uniform fields translate the box; diverging fields stretch
    it. A box whose span covers no block keeps its place.
    """
    grid = np.array(frame.mv.shape[1:])  # gw, gh
    corners = box_corners(boxes)
    lo = np.floor(corners[:, :2] / block)  # first block column, row
    hi = np.ceil(corners[:, 2:] / block)  # one past the last
    # every block off the grid moves by zero, so each side's off-grid blocks
    # merge into one piece, cell -1 or g of a ring of zero motion around the
    # grid: at most g + 2 cells per axis, however wide the box
    first, last = np.clip(lo, -1, grid), np.clip(hi - 1, -1, grid)
    span = int((last - first).max(initial=0)) + 1
    cells = first[:, :, None] + np.arange(span)  # (n, 2, span) cell indices
    # the piece [p0, p1) of each box inside each cell, along x (index 0) and y
    # (1): the first piece starts at the box's first block, the last ends
    # where its last block does
    start = cells * block
    start[:, :, 0] = lo * block
    p0 = np.maximum(corners[:, :2, None], start)
    p1 = np.minimum(corners[:, 2:, None], np.where(cells == last[:, :, None], hi[:, :, None], cells + 1) * block)
    valid = (cells <= last[:, :, None]) & (p1 > p0)
    valid = valid[:, 0, :, None] & valid[:, 1, None, :]  # (n, span, span)
    ring, _ = motion_table(frame, 2)
    ix = (np.minimum(cells, grid[:, None]) + 1).astype(int)
    dx, dy = ring[:, ix[:, 0, :, None], ix[:, 1, None, :]]  # (n, span, span) each, [box, x cell, y cell]
    out = np.stack(
        [
            np.min(p0[:, 0, :, None] + dx, axis=(1, 2), where=valid, initial=np.inf),
            np.min(p0[:, 1, None, :] + dy, axis=(1, 2), where=valid, initial=np.inf),
            np.max(p1[:, 0, :, None] + dx, axis=(1, 2), where=valid, initial=-np.inf),
            np.max(p1[:, 1, None, :] + dy, axis=(1, 2), where=valid, initial=-np.inf),
        ],
        axis=1,
    )
    moved = (out[:, 0] < out[:, 2]) & (out[:, 1] < out[:, 3])
    out_boxes = boxes.copy()
    out_boxes[moved] = corner_boxes(out[moved])
    return out_boxes


def smooth_l1(x):
    """0.5*x^2 for |x| < 1, |x| - 0.5 otherwise, elementwise, as an ndarray."""
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * np.square(x), ax - 0.5)


@dataclass(frozen=True)
class FitHyper:
    lr: float = 1e-2
    epochs: int = 200


def training_matrices(scenario, m: int):
    """A scenario's training matrices, one row per sample in (frame, id)
    order: the pooled statistics A (n, m*m, F_IN) and e (n, m*m) of a
    visible ground-truth box in frame t, and the target velocities V (n, 4)
    that carry it onto the same id's visible box in frame t + 1, for each P
    frame t (which bridges the two). Occluded spans carry no usable motion,
    so an id hidden in either frame gives no sample. Each frame's table is
    built once and pools all of its samples' boxes at once."""
    gt = mot_table(gt_to_rows(scenario.gt))
    seen = gt.conf > 0.5
    frame, ids, boxes = gt.frame[seen], gt.id[seen], gt.boxes[seen]
    # each row next to the same id's row one frame later, in (id, frame)
    # order; a frame past the stream reads the False at the end of p_frame
    order = np.lexsort((frame, ids))
    a, b = order[:-1], order[1:]
    p_frame = np.array([fr.kind == "P" for fr in scenario.frames] + [False])
    pair = (ids[a] == ids[b]) & (frame[b] == frame[a] + 1) & np.take(p_frame, frame[a], mode="clip")
    a, b = a[pair], b[pair]
    back = np.lexsort((ids[a], frame[a]))  # back to (frame, id) order
    a, b = a[back], b[back]
    prev = boxes[a]
    A, E = np.zeros((len(a), m * m, F_IN)), np.zeros((len(a), m * m))
    for t, span in frame_spans(frame[a]).items():
        A[span], E[span] = pool(motion_table(scenario.frames[t]), box_corners(prev[span]), scenario.header.block, m)
    return A, E, box_velocities(prev, boxes[b])


class FieldReadout:
    """Reads boxes out of the affine velocity field of one frame.

    The head is affine per cell and pooling is a mean, so pooling the raw
    statistics first and applying the head to the pooled values gives the
    same readout without materializing the 4*m*m-channel field.
    """

    def __init__(self, params: RegressorParams, frame: MotionFrame):
        self.W4 = params.W.reshape(4, params.m * params.m, F_IN)
        self.b4 = params.bias.reshape(4, params.m * params.m)
        self.m = params.m
        self.table = motion_table(frame)

    def velocities(self, boxes, block: int) -> np.ndarray:
        """The (n, 4) normalized velocities vx, vy, vw, vh of the boxes
        (BBoxes or an (n, 4) x, y, w, h array), in order."""
        A, e = pool(self.table, box_corners(boxes), block, self.m)
        return np.einsum("nuf,kuf->nk", A, self.W4) + e @ self.b4.T


def fit_regressor(scenarios, hyper: FitHyper = FitHyper()):
    """Fit the affine head, at m = the first scenario's feature_bins, by
    full-batch gradient descent.

    The model is affine in its parameters, so gradients are exact closed
    forms and the objective is convex. Returns (params, final_loss).
    Deterministic: full-batch descent from zero initialization.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("no training scenarios")
    m = scenarios[0].header.feature_bins
    A, E, V = (np.concatenate(parts) for parts in zip(*(training_matrices(sc, m) for sc in scenarios)))
    n = len(V)
    if not n:
        raise ValueError("training scenarios contain no propagation samples")
    X = np.concatenate([A.reshape(n, m * m * F_IN), E], axis=1)  # (N, m*m*F_IN + m*m)

    # Whiten the pooled statistics (exact linear reparametrization, folded
    # back into the returned weights) so the quadratic branch has unit
    # curvature along every data direction and fixed-step descent converges
    # at the same rate in all of them.
    _, sig, Vt = np.linalg.svd(X, full_matrices=False)
    keep = sig > sig[0] * 1e-10 if sig.size else np.zeros(0, dtype=bool)
    basis = Vt[keep].T / sig[keep] * math.sqrt(n)  # (d, r)
    Xw = X @ basis  # (N, r) with Xw^T Xw / N = I

    theta = np.zeros((Xw.shape[1], 4))
    for epoch in range(hyper.epochs):
        r = Xw @ theta - V
        if not np.all(np.isfinite(r)):
            raise ValueError(f"loss diverged (NaN) at epoch {epoch}")
        theta -= hyper.lr * Xw.T @ (np.clip(r, -1.0, 1.0) / n)  # clip = d smooth_l1
    loss = float(smooth_l1(Xw @ theta - V).sum(axis=1).mean())
    coeff = (basis @ theta).T  # (4, d) in original feature coordinates
    W4 = coeff[:, : m * m * F_IN].reshape(4, m * m, F_IN)
    b4 = coeff[:, m * m * F_IN :]
    return RegressorParams(W4.reshape(4 * m * m, F_IN), b4.reshape(4 * m * m), m), loss
