"""Track tables for tests, built from galleries given as lists of patches.

Each gallery is written into one `mvtrack.affinity.GalleryStore` through its
own `append`, oldest patch first, so a gallery longer than `l_f` keeps its
newest `l_f` patches, as a `deque(maxlen=l_f)` would. `gallery` reads a
row's entries back, oldest first.
"""
from __future__ import annotations

import numpy as np

from mvtrack.affinity import GalleryStore
from mvtrack.model import TrackTable


def gallery_store(galleries, l_f: int = 24) -> tuple:
    """(store, slots): one slot per gallery, in order."""
    store = GalleryStore(l_f)
    slots = store.take(len(galleries))
    for depth in range(max(map(len, galleries), default=0)):
        rows = [i for i, g in enumerate(galleries) if len(g) > depth]
        store.append(slots[rows], np.array([galleries[i][depth] for i in rows]))
    return store, slots


def track_table(galleries, l_f: int = 24, *, ids=None, confirmed=None, hits=None, misses=None, boxes=None) -> TrackTable:
    """A table with one row per gallery; ids 0..n-1, confirmed rows, zero
    counters and 20 x 20 boxes at (50, 50) unless given."""
    n = len(galleries)
    store, slots = gallery_store(galleries, l_f)
    return TrackTable(
        ids=np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64),
        confirmed=np.ones(n, dtype=bool) if confirmed is None else np.asarray(confirmed, dtype=bool),
        hits=np.zeros(n, dtype=np.int64) if hits is None else np.asarray(hits, dtype=np.int64),
        misses=np.zeros(n, dtype=np.int64) if misses is None else np.asarray(misses, dtype=np.int64),
        boxes=np.tile([50.0, 50.0, 20.0, 20.0], (n, 1)) if boxes is None else np.asarray(boxes, dtype=float).reshape(n, 4),
        slots=slots,
        gallery=store,
    )


def gallery(tracks: TrackTable, row: int) -> np.ndarray:
    """Row `row`'s stored patches as an (entries, m, m, c) array, oldest first."""
    store, slot = tracks.gallery, tracks.slots[row]
    n, written = int(store.lengths(slot)), int(store.writes[slot])
    entries = store.ring[slot, (written - n + np.arange(n)) % store.capacity]
    return store.bins[entries].reshape(n, *store.shape)
