"""Appearance affinity between feature patches.

Patches are (m, m, c) grids, L2-normalized along channels. "withps" compares
every bin of one patch with every bin of the other and averages each bin's
best match, both ways; "nops" averages aligned bins only. A logistic head
maps that statistic to a same-object probability. `appearance_cost` scores
all gallery entries against one detection at a time in one stacked product,
picks each object's best entry on the statistic (the head is monotone in it)
and runs the head once per cell. The per-pair oracles are in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FeaturePatch

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


def _bins(patches) -> np.ndarray:
    """Stack patches into normalized (k, m*m, c) bins."""
    stack = normalize_channels(np.stack(patches))
    return stack.reshape(len(stack), -1, stack.shape[-1])


def _statistics(entries: np.ndarray, dets: np.ndarray, mode: str) -> np.ndarray:
    """(g, d) statistic of normalized (g, m*m, c) `entries` against (d, m*m, c) `dets`.
    Each pair's map is its own matrix product, the same BLAS call a single pair
    makes, so a pair's statistic does not depend on the others scored with it."""
    g, bins, c = entries.shape
    if dets.shape[1:] != (bins, c):
        raise ValueError(f"patch shapes differ: {(bins, c)} vs {dets.shape[1:]} (bins, channels)")
    if mode == "nops":
        return np.einsum("gpc,dpc->gdp", entries, dets).mean(axis=-1)
    stats = np.empty((g, len(dets)))
    maps = np.empty((g, bins, bins))  # [entry, entry bin, detection bin], one detection at a time
    for j, det in enumerate(dets):
        np.matmul(entries, det.T, out=maps)
        # each entry bin's best match; reduceat is ~2x faster than max(axis=-1) on short rows
        rows = np.maximum.reduceat(maps.ravel(), np.arange(0, maps.size, bins)).reshape(g, bins)
        stats[:, j] = (rows.mean(axis=-1) + maps.max(axis=1).mean(axis=-1)) / 2
    return stats


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def appearance_cost(params: AffinityHeadParams, galleries, features) -> np.ndarray:
    """(n, d) matrix: 1 - the best affinity between object i's gallery and
    detection patch j. `galleries` holds one non-empty sequence of patches
    per object, `features` is the (d, m, m, c) array of detection patches."""
    if not len(galleries) or not len(features):
        return np.empty((len(galleries), len(features)))
    if not all(galleries):
        raise ValueError("appearance cost is undefined for an empty gallery")
    entries = _bins([f for gallery in galleries for f in gallery])
    starts = np.cumsum([0] + [len(gallery) for gallery in galleries[:-1]])
    best = np.maximum if params.w >= 0 else np.minimum  # the head is monotone in the statistic
    stats = best.reduceat(_statistics(entries, _bins(features), params.mode), starts)
    return 1.0 - np.array([[_logistic(params.w * s + params.b) for s in row] for row in stats.tolist()])


def _pair_statistics(pairs, mode: str) -> np.ndarray:
    return np.array([_statistics(_bins([fi]), _bins([fj]), mode)[0, 0] for fi, fj, _ in pairs])


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
    stats = _pair_statistics(pairs, mode)
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
    stats = _pair_statistics(pairs, params.mode).tolist()
    hits = sum(1 for s, p in zip(stats, pairs) if (_logistic(params.w * s + params.b) > 0.5) == bool(p[2]))
    return hits / len(pairs)
