"""Appearance affinity between feature patches.

Patches are (m, m, c) grids, L2-normalized along channels. "withps" compares
every bin of one patch with every bin of the other and averages each bin's
best match, both ways; "nops" averages aligned bins only. A logistic head
maps that statistic to a same-object probability. `appearance_cost` scores
only the (object, detection) cells a mask leaves live: it normalizes the
live objects' gallery entries and the live detections once, gathers the
(entry, detection) pair of every live cell and scores the pairs in stacked
products, each pair its own matrix product; it then picks each cell's best
entry on the statistic (the head is monotone in it) and runs the head once
per live cell. The per-pair oracles are in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FeaturePatch

MODES = ("withps", "nops")
# scratch per chunk of pairs (two gathered stacks and the maps); chunks that
# stay in a core's L2 cache score pairs faster than larger ones
CHUNK_BYTES = 1 << 20


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


def _statistics(entries: np.ndarray, dets: np.ndarray, mode: str, pair_entry, pair_det, chunk: int) -> np.ndarray:
    """Statistic of each pair (entries[pair_entry[i]], dets[pair_det[i]]) of
    normalized (., m*m, c) bin stacks, `chunk` pairs at a time. Each pair's
    map is its own matrix product, the same BLAS call a single pair makes,
    so a pair's statistic does not depend on the others scored with it."""
    _, bins, c = entries.shape
    if dets.shape[1:] != (bins, c):
        raise ValueError(f"patch shapes differ: {(bins, c)} vs {dets.shape[1:]} (bins, channels)")
    # per pair and bin: each entry bin's best match, then each detection
    # bin's ("withps"); the aligned bins' products ("nops")
    scores = np.empty((2, len(pair_entry), bins))
    gathered = np.empty((2, chunk, bins, c))
    maps = np.empty((chunk, bins, bins))  # [pair, entry bin, detection bin]
    row_starts = np.arange(0, chunk * bins * bins, bins)
    for lo in range(0, len(pair_entry), chunk):
        k = min(chunk, len(pair_entry) - lo)
        e = entries.take(pair_entry[lo:lo + k], axis=0, out=gathered[0, :k], mode="clip")
        d = dets.take(pair_det[lo:lo + k], axis=0, out=gathered[1, :k], mode="clip")
        if mode == "nops":
            np.einsum("kpc,kpc->kp", e, d, out=scores[0, lo:lo + k])
            continue
        np.matmul(e, d.transpose(0, 2, 1), out=maps[:k])
        # reduceat is ~2x faster than max(axis=-1) on short rows
        np.maximum.reduceat(maps[:k].ravel(), row_starts[:k * bins], out=scores[0, lo:lo + k].reshape(-1))
        np.maximum.reduce(maps[:k], axis=1, out=scores[1, lo:lo + k])
    if mode == "nops":
        return np.add.reduce(scores[0], axis=-1) / bins
    return (np.add.reduce(scores[0], axis=-1) / bins + np.add.reduce(scores[1], axis=-1) / bins) / 2


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def appearance_cost(params: AffinityHeadParams, galleries, features, live=None) -> np.ndarray:
    """(n, d) matrix: 1 - the best affinity between object i's gallery and
    detection patch j. `galleries` holds one non-empty sequence of patches
    per object, `features` is the (d, m, m, c) array of detection patches.
    Only the cells of the (n, d) boolean mask `live` (default: all) are
    scored; the others are 0."""
    cost = np.zeros((len(galleries), len(features)))
    if not cost.size:
        return cost
    lengths = np.array([len(gallery) for gallery in galleries])
    if not lengths.all():
        raise ValueError("appearance cost is undefined for an empty gallery")
    live = np.ones(cost.shape, dtype=bool) if live is None else live
    obj, det = np.nonzero(live)
    if not len(obj):
        return cost
    live_objs, live_dets = live.any(axis=1), live.any(axis=0)
    entries = _bins([f for i in np.flatnonzero(live_objs).tolist() for f in galleries[i]])
    patches = _bins(np.asarray(features)[live_dets])
    # the (entry, detection) pairs of every live cell, cell after cell, as
    # rows of `entries` and `patches`
    counts = lengths[obj]
    first = np.cumsum(counts) - counts
    entry_start = np.cumsum(lengths * live_objs) - lengths
    pair_entry = np.arange(first[-1] + counts[-1]) + np.repeat(entry_start[obj] - first, counts)
    pair_det = np.repeat((np.cumsum(live_dets) - 1)[det], counts)
    # chunks of about CHUNK_BYTES of scratch, and never more pairs than the
    # call has entries, so the maps never outgrow those of one detection
    # against every entry
    _, bins, c = entries.shape
    chunk = min(CHUNK_BYTES // (8 * bins * (bins + 2 * c)) or 1, int(lengths.sum()), len(pair_entry))
    stats = _statistics(entries, patches, params.mode, pair_entry, pair_det, chunk)
    best = np.maximum if params.w >= 0 else np.minimum  # the head is monotone in the statistic
    cost[obj, det] = 1.0 - np.array([_logistic(params.w * s + params.b) for s in best.reduceat(stats, first).tolist()])
    return cost


def _pair_statistics(pairs, mode: str) -> np.ndarray:
    """The statistic of each (patch, patch, label) pair, normalized 256 pairs
    at a time."""
    stats = []
    for lo in range(0, len(pairs), 256):
        chunk = pairs[lo:lo + 256]
        rows = np.arange(len(chunk))
        stats.append(_statistics(_bins([p[0] for p in chunk]), _bins([p[1] for p in chunk]), mode, rows, rows, len(chunk)))
    return np.concatenate(stats)


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
