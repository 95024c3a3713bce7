"""Reference implementations the tests check production code against.

The regressor readout: the direct, per-box definitions apply the affine
head to every grid cell, then average the box's cells bin by bin. The
package instead pools summed-area tables of the raw statistics for many
boxes at once (`mvtrack.motion.pool`); agreement between the two is what
the readout and gradient tests assert. The cell rule is restated here on
purpose, so the oracle does not share code with what it checks.

The motion encoding: `encode_motion_gradient` builds the seven channels
with np.gradient, which the package writes into one array in place.

Appearance affinity: the per-pair definitions score one gallery entry
against one detection patch at a time, normalizing both on every call. The
package builds the whole objects x detections matrix at once, scoring all
gallery entries against one detection per stacked product
(`mvtrack.affinity.appearance_cost`); the tests require the two to agree.
"""
from __future__ import annotations

import math

import numpy as np

from mvtrack.affinity import AffinityHeadParams, _logistic, normalize_channels
from mvtrack.model import BBox, FeaturePatch, Velocity, bbox_iou, inverse_velocity
from mvtrack.motion import F_IN, RegressorParams, encode_motion, smooth_l1

VelocityField = np.ndarray  # shape (4*m*m, gw, gh)


def encode_motion_gradient(frame) -> np.ndarray:
    """`mvtrack.motion.encode_motion` by np.gradient and np.stack: the same
    seven channels, with the same arithmetic, so the two agree bit for bit."""
    dx = frame.mv[0].astype(float)
    dy = frame.mv[1].astype(float)

    def grad(f: np.ndarray, axis: int) -> np.ndarray:
        if f.shape[axis] < 2:
            return np.zeros_like(f)
        return np.gradient(f, axis=axis)

    return np.stack([dx, dy, frame.residual, grad(dx, 0), grad(dy, 1), grad(dx, 1), grad(dy, 0)])


def velocity_field(params: RegressorParams, encoding: np.ndarray) -> VelocityField:
    """Apply the affine head to every grid cell: (4*m*m, gw, gh) output."""
    if encoding.ndim != 3 or encoding.shape[0] != F_IN:
        raise ValueError(f"encoding must have shape ({F_IN}, gw, gh), got {encoding.shape}")
    return np.einsum("kf,fxy->kxy", params.W, encoding) + params.bias[:, None, None]


def _bin_cells(bbox: BBox, block: int, gw: int, gh: int, m: int):
    """Cells whose centers lie in the box and their (u, v) bin indices."""
    bx0 = max(0, math.ceil(bbox.left / block - 0.5))
    bx1 = min(gw - 1, math.ceil(bbox.right / block - 0.5) - 1)
    by0 = max(0, math.ceil(bbox.top / block - 0.5))
    by1 = min(gh - 1, math.ceil(bbox.bottom / block - 0.5) - 1)
    if bx0 > bx1 or by0 > by1:
        return None
    bx, by = np.meshgrid(np.arange(bx0, bx1 + 1), np.arange(by0, by1 + 1), indexing="ij")
    bx = bx.ravel()
    by = by.ravel()
    left, top, right, bottom = (c / block for c in bbox.corners())
    u = np.floor((bx + 0.5 - left) / ((right - left) / m)).astype(int)
    v = np.floor((by + 0.5 - top) / ((bottom - top) / m)).astype(int)
    np.clip(u, 0, m - 1, out=u)
    np.clip(v, 0, m - 1, out=v)
    return bx, by, u, v


def psroi_readout(field: VelocityField, bbox: BBox, block: int) -> Velocity:
    """Pool a box out of the field into a 4-component velocity.

    The box is divided into m x m bins; channel k*m*m + u*m + v is averaged
    over cells whose centers fall in bin (u, v); empty bins contribute 0;
    each component is the mean over all m*m bins.
    """
    channels, gw, gh = field.shape
    m = math.isqrt(channels // 4)
    if 4 * m * m != channels:
        raise ValueError(f"field channel count {channels} is not 4*m*m")
    cells = _bin_cells(bbox, block, gw, gh, m)
    if cells is None:
        return Velocity(0.0, 0.0, 0.0, 0.0)
    bx, by, u, v = cells
    sums = np.zeros((4, m, m))
    counts = np.zeros((m, m))
    np.add.at(counts, (u, v), 1.0)
    for k in range(4):
        np.add.at(sums[k], (u, v), field[k * m * m + u * m + v, bx, by])
    nonempty = counts > 0
    pooled = np.zeros((4, m, m))
    pooled[:, nonempty] = sums[:, nonempty] / counts[nonempty]
    comp = pooled.reshape(4, -1).sum(axis=1) / (m * m)
    return Velocity(*(float(c) for c in comp))


def regressor_loss(params: RegressorParams, batch, block: int) -> float:
    """Mean over samples of the summed smooth-L1 velocity error.

    Each sample is (MotionFrame, previous box, ground-truth next box); the
    target velocity is the one that carries the previous box onto the next.
    """
    if not batch:
        raise ValueError("empty training batch")
    total = 0.0
    for frame, prev, nxt in batch:
        v = inverse_velocity(prev, nxt)
        v_hat = psroi_readout(velocity_field(params, encode_motion(frame)), prev, block)
        for a, b in ((v.vx, v_hat.vx), (v.vy, v_hat.vy), (v.vw, v_hat.vw), (v.vh, v_hat.vh)):
            total += smooth_l1(a - b)
    return total / len(batch)


def ps_maps(fi: FeaturePatch, fj: FeaturePatch):
    """Position-sensitive maps: all-pairs inner products of normalized bins.

    Returns two (m, m, m*m) maps; entry [u, v, p] of the first is the inner
    product of fi's bin (u, v) with fj's p-th bin. The two maps hold the
    same value multiset arranged differently. Inputs must be normalized.
    """
    if fi.shape != fj.shape:
        raise ValueError(f"patch shapes differ: {fi.shape} vs {fj.shape}")
    m = fi.shape[0]
    a = fi.reshape(m * m, -1)
    b = fj.reshape(m * m, -1)
    prod = a @ b.T  # (m*m, m*m)
    return prod.reshape(m, m, m * m), prod.T.reshape(m, m, m * m)


def _statistic(fi: FeaturePatch, fj: FeaturePatch, mode: str) -> float:
    fi = normalize_channels(fi)
    fj = normalize_channels(fj)
    if mode == "nops":
        return float(np.einsum("uvc,uvc->uv", fi, fj).mean())
    mij, mji = ps_maps(fi, fj)
    return float((mij.max(axis=-1).mean() + mji.max(axis=-1).mean()) / 2)


def affinity(params: AffinityHeadParams, fi: FeaturePatch, fj: FeaturePatch) -> float:
    """Probability that two patches show the same object, in [0, 1]."""
    if fi.shape != fj.shape:
        raise ValueError(f"patch shapes differ: {fi.shape} vs {fj.shape}")
    return _logistic(params.w * _statistic(fi, fj, params.mode) + params.b)


def iou_cost(a: BBox, b: BBox) -> float:
    """1 - IoU, the geometric association cost."""
    return 1.0 - bbox_iou(a, b)


def appearance_cost(params: AffinityHeadParams, gallery, f: FeaturePatch) -> float:
    """1 - best affinity between the patch and any gallery entry."""
    if not gallery:
        raise ValueError("appearance cost is undefined for an empty gallery")
    return 1.0 - max(affinity(params, g, f) for g in gallery)
