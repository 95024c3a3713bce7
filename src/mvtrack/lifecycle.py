"""Object birth/death management on the track table, applied only on key
frames.

State rules, evaluated after matches are applied:
  1. an unmatched detection spawns a tentative object, confirmed at birth
     when its confidence exceeds c_confirm;
  2. a confirmed object demotes to tentative after more than l_demote
     consecutive missed key frames;
  3. a tentative object confirms after more than l_confirm consecutive hit
     key frames;
  4. a tentative object is deleted after more than l_delete consecutive
     missed key frames;
  5. deleted objects leave the table.

All comparisons are strict ("more than"). A demoted object keeps its id,
gallery, and accumulated miss count, so its deletion clock keeps running.
Each rule is one mask over the table's columns.
"""
from __future__ import annotations

import numpy as np

from .model import Detections, TrackTable, TrackerConfig


def update(tracks: TrackTable, detections: Detections, matches, cfg: TrackerConfig, id_source) -> TrackTable:
    """Fold matches, (rows, cols) index arrays, into the table and run the state rules.

    Matched rows take the detection's box, write its feature into their
    gallery slot (the oldest entry falls out past capacity) and count a
    hit; unmatched rows count a miss and keep their box. The box array of
    `tracks` and the gallery store are updated in place: deleted rows
    release their slots, and each newborn row takes a free one. Returns the
    next table: the surviving rows in their order, then one newborn row per
    unmatched detection, in detection order. `id_source` is an iterator of
    fresh ids, strictly greater than any id handed out before.
    """
    rows, cols = matches
    matched = np.zeros(len(tracks), dtype=bool)
    matched[rows] = True
    tracks.boxes[rows] = detections.boxes[cols]
    hits = np.where(matched, tracks.hits + 1, 0)
    misses = np.where(matched, 0, tracks.misses + 1)
    # at most one transition per key frame keeps the state sequence inside
    # the relation {T->C, C->T, T->D} plus self-loops
    keep = tracks.confirmed | (misses <= cfg.l_delete)
    confirmed = np.where(tracks.confirmed, misses <= cfg.l_demote, hits > cfg.l_confirm)

    # a matched row has no miss, so it is kept; every detection is either
    # matched or born, so each one's patch goes to one slot
    slots, target = tracks.slots, np.empty(len(detections.conf), dtype=np.intp)
    target[cols] = slots[rows]
    if not keep.all():
        tracks.gallery.release(slots[~keep])
        slots = slots[keep]
    born = np.flatnonzero(np.bincount(cols, minlength=len(detections.conf)) == 0)
    if len(born):
        target[born] = newborn = tracks.gallery.take(len(born))
        slots = np.concatenate([slots, newborn])
    tracks.gallery.append(target, detections.features)
    return TrackTable(
        ids=np.concatenate([tracks.ids[keep], np.array([next(id_source) for _ in born], dtype=np.int64)]),
        confirmed=np.concatenate([confirmed[keep], detections.conf[born] > cfg.c_confirm]),
        hits=np.concatenate([hits[keep], np.ones(len(born), dtype=np.int64)]),
        misses=np.concatenate([misses[keep], np.zeros(len(born), dtype=np.int64)]),
        boxes=np.concatenate([tracks.boxes[keep], detections.boxes[born]]),
        slots=slots,
        gallery=tracks.gallery,
    )
