import itertools

import numpy as np

from mvtrack.affinity import GalleryStore
from mvtrack.lifecycle import update
from mvtrack.model import Detections, TrackTable, TrackerConfig
from tables import gallery, track_table

CFG = TrackerConfig()
RNG = np.random.default_rng(0)


def patch():
    return RNG.standard_normal((7, 7, 16))


def table(*rows, l_f=24):
    """A track table of (id, confirmed, n_gallery, hits, misses) rows, every
    box at (50, 50, 20, 20), galleries of capacity l_f."""
    return track_table(
        [[patch() for _ in range(r[2])] for r in rows],
        l_f,
        ids=[r[0] for r in rows],
        confirmed=[r[1] for r in rows],
        hits=[r[3] for r in rows],
        misses=[r[4] for r in rows],
    )


def obj(obj_id, confirmed=True, n_gallery=1, hits=1, misses=0, l_f=24):
    return table((obj_id, confirmed, n_gallery, hits, misses), l_f=l_f)


def dets(*rows):
    """A Detections table of (x, conf) rows, every box 20 x 20 at y = 50."""
    return Detections(
        np.array([(x, 50.0, 20.0, 20.0) for x, _ in rows]).reshape(-1, 4),
        np.array([c for _, c in rows], dtype=float),
        np.array([patch() for _ in rows]).reshape(-1, 7, 7, 16),
    )


def det(x=60.0, conf=0.97):
    return dets((x, conf))


def matches(*pairs):
    """(rows, cols) index arrays of (object, detection) pairs."""
    return np.array([r for r, _ in pairs], dtype=np.intp), np.array([c for _, c in pairs], dtype=np.intp)


def hit(tracks, d=None, ids=None):
    return update(tracks, det() if d is None else d, matches((0, 0)), CFG, ids or itertools.count(100))


def miss(tracks, ids=None):
    return update(tracks, dets(), matches(), CFG, ids or itertools.count(100))


def test_match_succeeds_bbox_and_gallery():
    d = det()
    out = hit(obj(1, n_gallery=2, hits=2), d)
    assert out.boxes[0].tolist() == d.boxes[0].tolist()
    assert len(gallery(out, 0)) == 3
    assert gallery(out, 0)[-1].tobytes() == d.features[0].tobytes()
    assert (out.hits[0], out.misses[0]) == (3, 0)


def test_gallery_capacity_evicts_oldest():
    o = obj(1, n_gallery=24, l_f=24)
    before = gallery(o, 0)
    d = det()
    out = hit(o, d)
    after = gallery(out, 0)
    assert len(after) == 24
    # the oldest entry fell out and the others kept their order
    assert after[:-1].tobytes() == before[1:].tobytes()
    assert after[-1].tobytes() == d.features[0].tobytes()


def test_unmatched_object_counts_miss_keeps_gallery():
    o = obj(1, n_gallery=3, hits=5)
    before = gallery(o, 0)
    box_before = o.boxes.copy()
    out = miss(o)
    assert gallery(out, 0).tobytes() == before.tobytes()
    assert out.boxes.tobytes() == box_before.tobytes()
    assert (out.hits[0], out.misses[0]) == (0, 1)


def test_exactly_one_counter_moves_each_update():
    tracks = table((1, True, 1, 2, 0), (2, True, 1, 0, 1))
    out = update(tracks, det(), matches((0, 0)), CFG, itertools.count(10))
    assert out.hits.tolist() == [3, 0]
    assert out.misses.tolist() == [0, 2]


def test_birth_tentative_and_instant_confirm():
    low_high = Detections(np.array([[10.0, 10, 5, 5], [20, 20, 5, 5]]), np.array([0.98, 0.995]), np.array([patch(), patch()]))
    out = update(TrackTable.empty(GalleryStore(CFG.l_f)), low_high, matches(), CFG, itertools.count(5))
    assert out.confirmed.tolist() == [False, True]
    assert out.ids.tolist() == [5, 6]
    assert out.boxes.tolist() == [[10, 10, 5, 5], [20, 20, 5, 5]]
    assert [gallery(out, i).tobytes() for i in range(2)] == [f.tobytes() for f in low_high.features]
    assert out.hits.tolist() == [1, 1] and out.misses.tolist() == [0, 0]


def test_newborn_rows_follow_survivors_in_detection_order():
    tracks = table((1, True, 1, 2, 0), (2, False, 1, 0, CFG.l_delete), (3, True, 1, 1, 0))
    before = [gallery(tracks, i) for i in range(3)]
    d = dets((10.0, 0.97), (20.0, 0.97), (30.0, 0.97))
    out = update(tracks, d, matches((2, 1)), CFG, itertools.count(7))
    assert out.ids.tolist() == [1, 3, 7, 8]  # row 2 deleted, newborns last
    assert out.boxes[:, 0].tolist() == [50.0, 20.0, 10.0, 30.0]
    # a newborn takes the deleted row's slot; no other gallery changes
    assert tracks.slots[1] in out.slots[2:]
    assert [gallery(out, i).tobytes() for i in range(4)] == [
        before[0].tobytes(),
        np.concatenate([before[2], d.features[1:2]]).tobytes(),
        d.features[0:1].tobytes(),
        d.features[2:3].tobytes(),
    ]


def test_confirm_after_more_than_l_confirm_hits():
    o = hit(obj(1, confirmed=False, hits=CFG.l_confirm - 1))
    assert o.hits[0] == CFG.l_confirm and not o.confirmed[0]  # not enough yet
    o = hit(o)
    assert o.confirmed[0]


def test_demote_after_more_than_l_demote_misses():
    o = miss(obj(1, hits=0, misses=CFG.l_demote - 1))
    assert o.misses[0] == CFG.l_demote and o.confirmed[0]
    o = miss(o)
    assert len(o) == 1 and not o.confirmed[0]


def test_delete_after_more_than_l_delete_misses():
    o = miss(obj(1, confirmed=False, hits=0, misses=CFG.l_delete - 1))
    assert len(o) == 1
    assert len(miss(o)) == 0


def test_demoted_object_keeps_id_gallery_and_miss_clock():
    # a confirmed object that keeps missing eventually demotes then deletes,
    # with the miss counter carrying across the demotion
    o = obj(1, n_gallery=4, hits=0, misses=0)
    gallery_before = gallery(o, 0)
    states = []
    for _ in range(CFG.l_delete + 2):
        last = o
        o = miss(o)
        if not len(o):
            states.append("deleted")
            break
        states.append("confirmed" if o.confirmed[0] else "tentative")
    assert states[: CFG.l_demote] == ["confirmed"] * CFG.l_demote
    assert states[CFG.l_demote] == "tentative"
    assert states[-1] == "deleted"
    assert last.ids.tolist() == [1] and gallery(last, 0).tobytes() == gallery_before.tobytes()
    assert last.misses[0] == CFG.l_delete


def test_deleted_is_absorbing_and_removed():
    ids = itertools.count(10)
    o = obj(1, confirmed=False, hits=0, misses=CFG.l_delete)
    o = update(o, det(), matches(), CFG, ids)
    assert o.ids.tolist() == [10]  # the deleted row is gone, the newborn takes a fresh id
    o = miss(o, ids)
    assert o.ids.tolist() == [10]


def test_matched_confirmed_object_stays_confirmed_forever():
    o = obj(1)
    for _ in range(50):
        o = hit(o)
    assert o.confirmed.tolist() == [True]


def test_new_ids_strictly_increase():
    ids = itertools.count(1)
    first = update(TrackTable.empty(GalleryStore(CFG.l_f)), det(), matches(), CFG, ids)
    second = update(first, dets((60.0, 0.97), (60.0, 0.97)), matches(), CFG, ids)
    seen = second.ids.tolist()
    assert seen == sorted(seen) and len(set(seen)) == len(seen) == 3


def test_state_transitions_follow_relation():
    # brute-force the reachable transitions: only T->C, C->T, T->D plus loops
    observed = set()
    for confirmed in (False, True):
        for hits in range(0, 6):
            for misses in range(0, 13):
                if hits and misses:
                    continue  # one of the two is always zero by construction
                for step in (hit, miss):
                    out = step(obj(1, confirmed=confirmed, hits=hits, misses=misses))
                    after = "D" if not len(out) else "C" if out.confirmed[0] else "T"
                    observed.add(("C" if confirmed else "T", after))
    assert observed <= {("T", "T"), ("T", "C"), ("T", "D"), ("C", "C"), ("C", "T")}
    assert observed == {("T", "T"), ("T", "C"), ("T", "D"), ("C", "C"), ("C", "T")}
