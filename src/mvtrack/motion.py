"""Object propagation through non-key frames.

Two closed-form baselines (mean motion vector, per-pixel shift envelope) and
a learnable velocity-field regressor. The regressor is a per-cell affine map
from local motion statistics to a field with 4*m*m channels; a box is read
out of that field by position-sensitive pooling (channel k*m*m + u*m + v is
pooled over spatial bin (u, v), bins are averaged per component k in
x, y, w, h order) and the pooled 4-vector is applied as a normalized
velocity. The map stays affine so the fitting objective is convex and its
gradients are exact. All three move one (n, 4) x, y, w, h box array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MotionFrame, box_array, box_corners, box_velocities, center_cells, corner_boxes

# Per-cell motion statistics fed to the regressor: mean dx, mean dy, residual
# energy, and the four finite-difference Jacobian entries of the MV field
# (per cell index). The Jacobian terms make scale changes linearly
# recoverable, which plain MV averaging cannot do.
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


def _integral(stats: np.ndarray) -> np.ndarray:
    """Summed-area table over the grid axes of (F, gw, gh) statistics,
    zero-padded at the origin: shape (F, gw + 1, gh + 1)."""
    f, gw, gh = stats.shape
    S = np.zeros((f, gw + 1, gh + 1))
    inner = S[:, 1:, 1:]
    np.cumsum(stats, axis=1, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    return S


def pool(S: np.ndarray, corners: np.ndarray, block: int, m: int):
    """Position-sensitive pooling of many boxes out of one summed-area table.

    Each box's covered cells (see `center_cells`) are split into m x m bins:
    the cut between bins is the first cell whose center reaches the bin
    boundary. Returns A (n, m*m, F), the per-bin mean statistics divided by
    m*m, and e (n, m*m), 1/(m*m) for non-empty bins; empty bins are all-zero.
    Sum A[i] over bins and it is the mean over bins of box i's per-bin means.
    """
    n = len(corners)
    f, gw1, gh1 = S.shape
    scaled = corners / block
    # x and y side by side: lo, hi, left, width are (n, 2) and the cuts (n, 2, m+1)
    lo, hi = center_cells(corners, block, gw1 - 1, gh1 - 1).reshape(n, 2, 2).transpose(1, 0, 2)
    left = scaled[:, :2]
    width = scaled[:, 2:] - left
    c = np.ceil(left[:, :, None] + np.arange(m + 1) * (width / m)[:, :, None] - 0.5).astype(int)
    c[:, :, 0] = lo
    c[:, :, m] = hi
    np.clip(c, lo[:, :, None], hi[:, :, None], out=c)
    np.maximum.accumulate(c, axis=2, out=c)
    c[~(lo < hi).all(axis=1)] = 0
    d = np.diff(c, axis=2)
    counts = (d[:, 0, :, None] * d[:, 1, None, :]).reshape(n, m * m)
    cols = S.reshape(f, -1)[:, c[:, 0, :, None] * gh1 + c[:, 1, None, :]]  # (F, n, m+1, m+1)
    sums = cols[:, :, 1:, 1:] - cols[:, :, :-1, 1:]
    sums -= cols[:, :, 1:, :-1]
    sums += cols[:, :, :-1, :-1]
    A = np.transpose(sums.reshape(f, n, m * m), (1, 2, 0))  # (n, m*m, F)
    nonempty = counts > 0
    A = np.divide(A, counts[:, :, None] * (m * m), out=np.zeros_like(A), where=nonempty[:, :, None])
    return A, nonempty / (m * m)


def propagate_bbox_avg(boxes: np.ndarray, frame: MotionFrame, block: int) -> np.ndarray:
    """Shift each (n, 4) x, y, w, h box by the mean MV over its covered
    cells; sizes are unchanged.

    This is the averaging baseline: antisymmetric fields (zooms) cancel out,
    so scale changes are invisible to it. A box covering no cell center
    stays where it is.
    """
    A, e = pool(_integral(frame.mv), box_corners(boxes), block, 1)
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
    gw, gh = frame.mv.shape[1:]
    corners = box_corners(boxes)
    lo = np.floor(corners[:, :2] / block)  # first block column, row
    hi = np.ceil(corners[:, 2:] / block)  # one past the last
    span = int((hi - lo).max(initial=0))
    cells = lo[:, :, None] + np.arange(span)  # (n, 2, span) block indices
    # the piece [p0, p1) of each box inside each block, along x (index 0) and y (1)
    p0 = np.maximum(corners[:, :2, None], cells * block)
    p1 = np.minimum(corners[:, 2:, None], (cells + 1) * block)
    valid = (cells < hi[:, :, None]) & (p1 > p0)
    valid = valid[:, 0, :, None] & valid[:, 1, None, :]  # (n, span, span)
    # a ring of zero motion around the grid stands for every block off it
    ring = np.pad(frame.mv, ((0, 0), (1, 1), (1, 1))).astype(float)
    ix = (np.clip(cells, -1, np.array([gw, gh])[:, None]) + 1).astype(int)
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


def encode_motion(frame: MotionFrame) -> np.ndarray:
    """Per-cell motion statistics, shape (F_IN, gw, gh).

    Channels: dx, dy, residual, d(dx)/dx, d(dy)/dy, d(dx)/dy, d(dy)/dx.
    Derivatives are central differences over neighboring cells (one-sided at
    borders), in displacement-pixels per cell index.
    """
    gw, gh = frame.residual.shape
    out = np.zeros((F_IN, gw, gh))
    out[:2] = frame.mv
    out[2] = frame.residual
    dx, dy, _, ddx_dx, ddy_dy, ddx_dy, ddy_dx = out
    # np.gradient's arithmetic, written into place: (f[i+1] - f[i-1]) / 2 inside,
    # one-sided differences at the two borders
    if gw >= 2:
        for f, g in ((dx, ddx_dx), (dy, ddy_dx)):
            np.subtract(f[2:], f[:-2], out=g[1:-1])
            g[1:-1] /= 2.0
            g[0] = f[1] - f[0]
            g[-1] = f[-1] - f[-2]
    if gh >= 2:
        for f, g in ((dy, ddy_dy), (dx, ddx_dy)):
            np.subtract(f[:, 2:], f[:, :-2], out=g[:, 1:-1])
            g[:, 1:-1] /= 2.0
            g[:, 0] = f[:, 1] - f[:, 0]
            g[:, -1] = f[:, -1] - f[:, -2]
    return out


def smooth_l1(x):
    """0.5*x^2 for |x| < 1, |x| - 0.5 otherwise; elementwise on arrays."""
    ax = np.abs(x)
    out = np.where(ax < 1.0, 0.5 * np.square(x), ax - 0.5)
    return out.item() if np.ndim(x) == 0 else out


def propagation_samples(scenario) -> list:
    """(MotionFrame, prev box, next box) triples from consecutive-frame GT.

    Objects present (and visible) in only one of the two frames contribute
    nothing; occluded spans carry no usable motion.
    """
    by_key = {(r.frame, r.id): r for r in scenario.gt}
    ids = sorted({r.id for r in scenario.gt})
    out = []
    for fr in scenario.frames:
        if fr.kind != "P":
            continue
        t_prev, t_cur = fr.index, fr.index + 1
        for obj_id in ids:
            a = by_key.get((t_prev, obj_id))
            b = by_key.get((t_cur, obj_id))
            if a is None or b is None or not (a.visible and b.visible):
                continue
            out.append((fr, a.bbox, b.bbox))
    return out


@dataclass(frozen=True)
class FitHyper:
    lr: float = 1e-2
    epochs: int = 200


def _design(batch, block: int, m: int):
    """Training matrices of (MotionFrame, prev box, next box) samples: the
    pooled statistics A (n, m*m, F_IN) and e (n, m*m) of each previous box,
    and the target velocities V (n, 4) that carry it onto the next box.
    Each frame is encoded once and pools all of its samples' boxes at once."""
    n = len(batch)
    A = np.zeros((n, m * m, F_IN))
    E = np.zeros((n, m * m))
    by_frame = {}
    for i, (frame, _, _) in enumerate(batch):
        by_frame.setdefault(id(frame), (frame, []))[1].append(i)
    prev = box_array([s[1] for s in batch])
    for frame, rows in by_frame.values():
        A[rows], E[rows] = pool(_integral(encode_motion(frame)), box_corners(prev[rows]), block, m)
    return A, E, box_velocities(prev, box_array([s[2] for s in batch]))


def regressor_grad(params: RegressorParams, batch, block: int):
    """Closed-form gradient in (W, bias) of the mean summed smooth-L1 error
    between the read-out and the target velocities; exact because the
    readout is affine in the parameters."""
    if not batch:
        raise ValueError("empty training batch")
    m = params.m
    A, E, V = _design(batch, block, m)
    W4 = params.W.reshape(4, m * m, F_IN)
    b4 = params.bias.reshape(4, m * m)
    v_hat = np.einsum("nuf,kuf->nk", A, W4) + np.einsum("nu,ku->nk", E, b4)
    g = np.clip(v_hat - V, -1.0, 1.0) / len(batch)
    dW = np.einsum("nk,nuf->kuf", g, A).reshape(4 * m * m, F_IN)
    db = np.einsum("nk,nu->ku", g, E).reshape(4 * m * m)
    return dW, db


class FieldReadout:
    """Reads boxes out of the affine velocity field of one frame.

    The head is affine per cell and pooling is a mean, so pooling the raw
    statistics first and applying the head to the pooled values gives the
    same readout without materializing the 4*m*m-channel field.
    """

    def __init__(self, params: RegressorParams, encoding: np.ndarray):
        self.W4 = params.W.reshape(4, params.m * params.m, F_IN)
        self.b4 = params.bias.reshape(4, params.m * params.m)
        self.m = params.m
        self.S = _integral(encoding)

    def velocities(self, boxes, block: int) -> np.ndarray:
        """The (n, 4) normalized velocities vx, vy, vw, vh of the boxes
        (BBoxes or an (n, 4) x, y, w, h array), in order."""
        A, e = pool(self.S, box_corners(boxes), block, self.m)
        return np.einsum("nuf,kuf->nk", A, self.W4) + e @ self.b4.T


def fit_regressor(scenarios, hyper: FitHyper = FitHyper(), m: int | None = None):
    """Fit the affine head by full-batch gradient descent.

    The model is affine in its parameters, so gradients are exact closed
    forms and the objective is convex. Returns (params, final_loss).
    Deterministic: full-batch descent from zero initialization.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("no training scenarios")
    if m is None:
        m = scenarios[0].header.feature_bins
    A, E, V = (
        np.concatenate(parts)
        for parts in zip(*(_design(propagation_samples(sc), sc.header.block, m) for sc in scenarios))
    )
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
