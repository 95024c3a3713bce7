"""Appearance affinity between feature patches.

Patches are (m, m, c) grids, L2-normalized along channels. "withps" compares
every bin of one patch with every bin of the other and averages each bin's
best match, both ways; "nops" averages aligned bins only. A logistic head
maps that statistic to a same-object probability.

The track table's galleries live in one `GalleryStore`: each row holds a
slot, a ring of entries in one array of (m*m, c) bins that does not move
when the table is rebuilt. An entry is normalized in place the first time an
appearance call reads it, and never again. `appearance_cost` is the one
appearance kernel: it scores the (object, detection) cells a mask leaves
live, each under its own gate, from the newest gallery entry of the row
first and then from the older entries a triangle-inequality bound leaves
able to pass (its docstring states the contract). The per-pair oracles are
in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
    """Normalized (k, m*m, c) bins of k patches."""
    stack = normalize_channels(np.asarray(patches))
    return stack.reshape(len(stack), -1, stack.shape[-1])


def _padded(a: np.ndarray, n: int) -> np.ndarray:
    """`a` followed by n rows of zeros."""
    return np.concatenate([a, np.zeros((n, *a.shape[1:]), dtype=a.dtype)])


class GalleryStore:
    """The galleries of every track-table row, in one array of entries.

    A row's gallery is a slot: a ring of at most `capacity` entries in which
    each write past capacity replaces the oldest. Entries are raw (m*m, c)
    bins until an appearance call first reads them (`normalize`); the first
    write fixes the patch shape (m, m, c). Slots and entries freed by
    `release` are reused lowest first, so the entries in use stay packed at
    the start of the entry array, which grows, by one copy, only when every
    entry is in use; its pages are not touched before an entry is written.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.shape = None  # (m, m, c) of every patch
        self.bins = np.empty((0, 0, 0))  # (entries, m*m, c)
        self.normalized = np.zeros(0, dtype=bool)  # per entry
        self.used = np.zeros(0, dtype=bool)  # per entry
        self.ring = np.zeros((0, capacity), dtype=np.intp)  # per slot: the entry at each ring position
        self.writes = np.zeros(0, dtype=np.int64)  # per slot: patches written since it was taken
        self.taken = np.zeros(0, dtype=bool)  # per slot

    def lengths(self, slots) -> np.ndarray:
        return np.minimum(self.writes[slots], self.capacity)

    def entries(self, slots) -> np.ndarray:
        """The entries the slots hold, slot after slot, each in ring order."""
        return self.ring[slots][np.arange(self.capacity) < self.lengths(slots)[:, None]]

    def newest(self, slots) -> np.ndarray:
        """The entry each slot wrote last."""
        return self.ring[slots, (self.writes[slots] - 1) % self.capacity]

    def take(self, n: int) -> np.ndarray:
        """n free slots, each with an empty gallery."""
        if n > len(self.taken) - np.count_nonzero(self.taken):
            grow = max(len(self.taken), n)
            self.ring, self.writes, self.taken = (_padded(a, grow) for a in (self.ring, self.writes, self.taken))
        slots = np.flatnonzero(~self.taken)[:n]
        self.taken[slots] = True
        self.writes[slots] = 0
        return slots

    def release(self, slots) -> None:
        """Free the slots and their entries."""
        self.used[self.entries(slots)] = False
        self.taken[slots] = False

    def append(self, slots, patches: np.ndarray) -> None:
        """Write patches[i], an (m, m, c) patch, to the gallery of slots[i];
        the slots are distinct."""
        if self.shape is None:
            self.shape = patches.shape[1:]
            self.bins = np.empty((0, self.shape[0] * self.shape[1], self.shape[2]))
        if patches.shape[1:] != self.shape:
            raise ValueError(f"patch shapes differ: {self.shape} vs {patches.shape[1:]}")
        writes = self.writes[slots]
        position = writes % self.capacity
        fresh = writes < self.capacity
        if fresh.any():
            self.ring[slots[fresh], position[fresh]] = self._allocate(np.count_nonzero(fresh))
        entries = self.ring[slots, position]
        self.bins[entries] = patches.reshape(len(entries), *self.bins.shape[1:])
        self.normalized[entries] = False
        self.writes[slots] = writes + 1

    def _allocate(self, n: int) -> np.ndarray:
        if n > len(self.used) - np.count_nonzero(self.used):
            # room for a full gallery in every taken slot and half as many
            # again, so that later births seldom force another copy
            size = max(2 * len(self.used), len(self.used) + n, self.capacity * np.count_nonzero(self.taken) * 3 // 2)
            bins = np.empty((size, *self.bins.shape[1:]))
            bins[:len(self.bins)] = self.bins
            self.bins = bins
            self.normalized, self.used = (_padded(a, size - len(a)) for a in (self.normalized, self.used))
        entries = np.flatnonzero(~self.used)[:n]
        self.used[entries] = True
        return entries

    def normalize(self, slots) -> None:
        """Normalize, in place, the entries of the slots that are still raw."""
        entries = self.entries(slots)
        raw = entries[~self.normalized[entries]]
        if len(raw):
            self.bins[raw] = normalize_channels(self.bins[raw])
            self.normalized[raw] = True


def _statistics(entries: np.ndarray, dets: np.ndarray, mode: str, pair_entry, pair_det) -> np.ndarray:
    """Statistic of each pair (entries[pair_entry[i]], dets[pair_det[i]]) of
    normalized (., m*m, c) bin stacks, in chunks of about CHUNK_BYTES of
    scratch and never more pairs than the call scores. Each pair's map is
    its own matrix product, the same BLAS call a single pair makes, so a
    pair's statistic does not depend on the others scored with it."""
    _, bins, c = entries.shape
    if dets.shape[1:] != (bins, c):
        raise ValueError(f"patch shapes differ: {(bins, c)} vs {dets.shape[1:]} (bins, channels)")
    chunk = min(CHUNK_BYTES // (8 * bins * (bins + 2 * c)), len(pair_entry)) or 1
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


def appearance_cost(params: AffinityHeadParams, store: GalleryStore, slots, features, live=None, gate=math.inf, newest_only=False) -> np.ndarray:
    """(n, d) matrix: 1 - the best affinity between the gallery of store
    slot slots[i] and detection patch j, under `gate`, a scalar or an (n, d)
    array of per-cell gates. Every slot holds at least one entry, and
    `features` is the (d, m, m, c) array of finite detection patches. Only
    the cells of the (n, d) boolean mask `live` (default: all) are scored;
    the others are 0. The live rows' raw entries are normalized in the store
    first.

    A cell whose full cost is at or under its gate has the bits of its full
    cost, and any other cell only comes out above its gate; the default
    gate, +inf, gives every cell its full cost. Each live cell is scored
    against its row's newest entry `a` first, and another entry `e` only if
    `s_a + r_e` (`s_a - r_e` when w < 0) could still give a cost at or under
    the cell's gate, where `r_e = (mean_i |e_i - a_i| + max_i |e_i - a_i|) / 2`
    over the bins ("nops": the mean alone). The bound is exact: a detection
    bin has norm at most 1, so each map value moves by at most `|e_i - a_i|`,
    and a mean or max of bins moves by at most the mean or max of its bins'
    moves. A skipped entry costs more than the gate, so it is never the best
    entry of a cell at or under the gate, and a cell over the gate stays over
    it, because the head is monotone in the statistic.

    With `newest_only`, each live cell is scored on its row's newest entry
    alone (`gate` is ignored). That is never below its full cost, which
    takes the best entry's statistic through the same monotone head, but
    for rounding: `_logistic` can step back by an ulp of 1."""
    cost = np.zeros((len(slots), len(features)))
    if not cost.size:
        return cost
    lengths = store.lengths(slots)
    if not lengths.all():
        raise ValueError("appearance cost is undefined for an empty gallery")
    live = np.ones(cost.shape, dtype=bool) if live is None else live
    obj, det = np.nonzero(live)
    if not len(obj):
        return cost
    live_rows, live_dets = live.any(axis=1), live.any(axis=0)
    store.normalize(slots[live_rows])
    patches = _bins(np.asarray(features)[live_dets])
    cell_det = (np.cumsum(live_dets) - 1)[det]  # each live cell's row of `patches`
    newest = store.newest(slots[live_rows])
    cell_row = (np.cumsum(live_rows) - 1)[obj]  # each live cell's row of `newest`
    stat = _statistics(store.bins, patches, params.mode, newest[cell_row], cell_det)
    if not newest_only:
        # every live row's older entries, row after row, and each one's
        # radius around its row's newest entry, in chunks of a quarter of
        # CHUNK_BYTES of bins (larger ones raised the peak resident memory)
        older = store.entries(slots[live_rows])
        anchor = np.repeat(newest, lengths[live_rows])
        is_older = older != anchor
        older, anchor = older[is_older], anchor[is_older]
        radius = np.empty(len(older))
        step = CHUNK_BYTES // (4 * store.bins[0].nbytes) or 1
        for lo in range(0, len(older), step):
            moved = store.bins[older[lo:lo + step]]
            moved -= store.bins[anchor[lo:lo + step]]
            norms = np.sqrt(np.einsum("kpc,kpc->kp", moved, moved))
            radius[lo:lo + step] = norms.mean(axis=1) if params.mode == "nops" else (norms.mean(axis=1) + norms.max(axis=1)) / 2
        # each live cell against its row's older entries, cell after cell;
        # an entry is scored unless its bound costs more than the cell's
        # gate. The margins lie far above the rounding of the statistics and
        # the radii (about 1e-15) and of `expit` against `_logistic`
        row_older = lengths[live_rows] - 1
        pair_cell, k = np.nonzero(np.arange(row_older.max()) < row_older[cell_row][:, None])
        pair_older = (np.cumsum(row_older) - row_older)[cell_row[pair_cell]] + k
        bound = stat[pair_cell] + np.copysign(radius[pair_older] + 1e-9, params.w)
        cell_gate = np.broadcast_to(gate, cost.shape)[obj, det]
        scored = ~(1.0 - expit(params.w * bound + params.b) > cell_gate[pair_cell] + 1e-12)
        pair_cell, pair_entry = pair_cell[scored], older[pair_older[scored]]
        if len(pair_cell):
            stats = _statistics(store.bins, patches, params.mode, pair_entry, cell_det[pair_cell])
            starts = np.flatnonzero(np.diff(pair_cell, prepend=-1))
            cells = pair_cell[starts]
            best = np.maximum if params.w >= 0 else np.minimum  # the head is monotone in the statistic
            stat[cells] = best(stat[cells], best.reduceat(stats, starts))
    cost[obj, det] = 1.0 - np.array([_logistic(params.w * s + params.b) for s in stat.tolist()])
    return cost


def _pair_statistics(pairs, mode: str) -> np.ndarray:
    """The statistic of each (patch, patch, label) pair, normalized 256 pairs
    at a time."""
    stats = []
    for lo in range(0, len(pairs), 256):
        chunk = pairs[lo:lo + 256]
        rows = np.arange(len(chunk))
        stats.append(_statistics(_bins([p[0] for p in chunk]), _bins([p[1] for p in chunk]), mode, rows, rows))
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
