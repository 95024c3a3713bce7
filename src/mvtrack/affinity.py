"""Appearance affinity between feature patches.

Patches are L2-normalized along channels, compared through a
position-sensitive map (every spatial bin of one patch against every bin of
the other), reduced to a scalar statistic by best-match pooling, and mapped
to a probability by a two-parameter logistic head. The "nops" variant skips
the cross-position comparison and scores aligned bins only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BBox, FeaturePatch, bbox_iou

MODES = ("withps", "nops")


@dataclass(frozen=True)
class AffinityHeadParams:
    w: float
    b: float
    mode: str = "withps"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown affinity mode {self.mode!r}")
        if not (math.isfinite(self.w) and math.isfinite(self.b)):
            raise ValueError("affinity head parameters must be finite")


def normalize_channels(f: FeaturePatch) -> FeaturePatch:
    """Unit L2 norm per spatial position; zero vectors stay zero."""
    norm = np.linalg.norm(f, axis=-1, keepdims=True)
    out = np.divide(f, norm, out=np.zeros_like(f, dtype=float), where=norm > 0)
    return out


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


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def affinity(params: AffinityHeadParams, fi: FeaturePatch, fj: FeaturePatch) -> float:
    """Probability that two patches show the same object, in [0, 1]."""
    if fi.shape != fj.shape:
        raise ValueError(f"patch shapes differ: {fi.shape} vs {fj.shape}")
    return _logistic(params.w * _statistic(fi, fj, params.mode) + params.b)


@dataclass(frozen=True)
class AffinityFitHyper:
    lr: float = 1.0
    epochs: int = 2000


def fit_affinity_head(pairs, hyper: AffinityFitHyper = AffinityFitHyper(), mode: str = "withps"):
    """Logistic regression on the pooled statistic of labeled patch pairs.

    `pairs` is a list of (patch, patch, label in {0, 1}). Full-batch descent
    from (w, b) = (0, 0), deterministic. Returns (params, final cross-entropy).
    """
    if mode not in MODES:
        raise ValueError(f"unknown affinity mode {mode!r}")
    labels = np.array([p[2] for p in pairs], dtype=float)
    if len(labels) == 0 or labels.min() == labels.max():
        raise ValueError("training pairs must contain both labels")
    stats = np.array([_statistic(fi, fj, mode) for fi, fj, _ in pairs])
    w = 0.0
    b = 0.0
    n = len(labels)
    ce = math.inf
    for _ in range(hyper.epochs):
        z = w * stats + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad = p - labels
        w -= hyper.lr * float(grad @ stats) / n
        b -= hyper.lr * float(grad.sum()) / n
    z = w * stats + b
    # log(1 + exp(-|z|)) form keeps the cross-entropy finite for large |z|
    ce = float(np.mean(np.logaddexp(0.0, -z * (2 * labels - 1))))
    return AffinityHeadParams(w, b, mode), ce


def affinity_accuracy(params: AffinityHeadParams, pairs) -> float:
    """Fraction of pairs classified correctly at the 0.5 threshold."""
    if not pairs:
        raise ValueError("no pairs to score")
    hits = sum(1 for fi, fj, label in pairs if (affinity(params, fi, fj) > 0.5) == bool(label))
    return hits / len(pairs)


def iou_cost(a: BBox, b: BBox) -> float:
    """1 - IoU, the geometric association cost."""
    return 1.0 - bbox_iou(a, b)


def appearance_cost(params: AffinityHeadParams, gallery, f: FeaturePatch) -> float:
    """1 - best affinity between the patch and any gallery entry."""
    if not gallery:
        raise ValueError("appearance cost is undefined for an empty gallery")
    return 1.0 - max(affinity(params, g, f) for g in gallery)
