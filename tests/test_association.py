import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtrack import association
from mvtrack.affinity import MODES, AffinityFitHyper, AffinityHeadParams, GalleryStore, appearance_cost as appearance_matrix, fit_affinity_head
from mvtrack.association import (
    associate_one_step,
    associate_two_step,
    gated_assign,
    hungarian,
    _iou_cost,
)
from mvtrack.model import BBox, ConfigError, Detections, TrackTable, TrackerConfig, box_array
from oracles import appearance_cost, iou_cost
from tables import gallery, track_table


def pairs(matches):
    """(rows, cols) index arrays as a list of (row, col) pairs, in order."""
    rows, cols = matches
    assert rows.tolist() == sorted(rows.tolist())  # rows ascending
    return list(zip(rows.tolist(), cols.tolist()))


def unmatched(matches, n_rows, n_cols):
    """The row and column indices a (rows, cols) assignment leaves out."""
    rows, cols = matches
    return sorted(set(range(n_rows)) - set(rows.tolist())), sorted(set(range(n_cols)) - set(cols.tolist()))


def brute_force_min_cost(cost):
    """Exhaustive minimum over all maximum matchings of a rectangular matrix."""
    n, m = cost.shape
    if n > m:
        return brute_force_min_cost(cost.T)
    best = None
    for cols in itertools.permutations(range(m), n):
        total = sum(cost[r, c] for r, c in enumerate(cols))
        if best is None or total < best:
            best = total
    return best


def test_hungarian_two_by_two():
    assert pairs(hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))) == [(0, 0), (1, 1)]


def test_hungarian_diagonal_preference():
    cost = np.ones((4, 4)) - np.eye(4)
    assert pairs(hungarian(cost)) == [(i, i) for i in range(4)]


def test_hungarian_empty():
    assert pairs(hungarian(np.zeros((0, 0)))) == []
    assert pairs(hungarian(np.zeros((0, 5)))) == []


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (5, 3), (7, 7), (2, 7)])
def test_hungarian_matches_brute_force(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    trials = 12 if max(shape) < 6 else 5
    for _ in range(trials):
        cost = rng.uniform(0, 1, shape)
        found = pairs(hungarian(cost))
        assert len(found) == min(shape)
        total = sum(cost[r, c] for r, c in found)
        assert total == pytest.approx(brute_force_min_cost(cost))


def test_hungarian_random_suite_100():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, (n, m))
        total = sum(cost[r, c] for r, c in pairs(hungarian(cost)))
        assert total == pytest.approx(brute_force_min_cost(cost))


def test_gated_all_above_threshold():
    res = gated_assign(np.full((3, 3), 0.9), 0.5)
    assert pairs(res) == []
    assert unmatched(res, 3, 3) == ([0, 1, 2], [0, 1, 2])


def test_gated_single_cell():
    res = gated_assign(np.array([[0.2]]), 0.3)
    assert pairs(res) == [(0, 0)]
    assert unmatched(res, 1, 1) == ([], [])


def test_gated_diagonal():
    res = gated_assign(np.array([[0.1, 0.9], [0.9, 0.1]]), 0.3)
    assert pairs(res) == [(0, 0), (1, 1)]


def test_gated_never_exceeds_threshold():
    rng = np.random.default_rng(4)
    for _ in range(50):
        cost = rng.uniform(0, 1, (int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        thr = float(rng.uniform(0.1, 0.9))
        res = gated_assign(cost, thr)
        found = pairs(res)
        for r, c in found:
            assert cost[r, c] <= thr
        # partition property
        matched_r = {r for r, _ in found}
        matched_c = {c for _, c in found}
        left_r, left_c = unmatched(res, *cost.shape)
        assert len(matched_r) == len(matched_c) == len(found)
        assert sorted(matched_r | set(left_r)) == list(range(cost.shape[0]))
        assert sorted(matched_c | set(left_c)) == list(range(cost.shape[1]))


def test_gated_forbidden_but_forced_pair_discarded():
    # hungarian must match both rows; the gate then discards the bad pair
    cost = np.array([[0.1, 0.9], [0.15, 0.95]])
    found = pairs(gated_assign(cost, 0.3))
    assert len(found) == 1
    assert found[0][1] == 0


# --- association procedures ---


RNG = np.random.default_rng(7)
CFG = TrackerConfig()


def make_patch(base=None, noise=0.1):
    if base is None:
        base = RNG.standard_normal((7, 7, 16))
    return base + noise * RNG.standard_normal((7, 7, 16))


def make_object(obj_id, bbox, confirmed, gallery_bases):
    return obj_id, bbox, confirmed, [make_patch(b) for b in gallery_bases]


def make_tracks(objects):
    """A track table with one row per make_object tuple, in order."""
    return track_table(
        [o[3] for o in objects],
        ids=[o[0] for o in objects],
        confirmed=[o[2] for o in objects],
        boxes=box_array([o[1] for o in objects]),
    )


def make_detections(*rows):
    """A Detections table of (BBox, patch) rows, every confidence 0.96."""
    return Detections(
        box_array([b for b, _ in rows]),
        np.full(len(rows), 0.96),
        np.array([f for _, f in rows]).reshape(-1, 7, 7, 16),
    )


@pytest.fixture(scope="module")
def head():
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(150):
        base = rng.standard_normal((7, 7, 16))
        a = base + 0.1 * rng.standard_normal((7, 7, 16))
        b = base + 0.1 * rng.standard_normal((7, 7, 16))
        d = rng.standard_normal((7, 7, 16))
        pairs.append((a, b, 1))
        pairs.append((a, d, 0))
    params, _ = fit_affinity_head(pairs, AffinityFitHyper(lr=1.0, epochs=600))
    return params


def test_matrix_helpers_agree_with_costs(head):
    bases = [RNG.standard_normal((7, 7, 16)) for _ in range(3)]
    objects = [
        make_object(1, BBox(50, 50, 20, 20), True, bases[:2]),
        make_object(2, BBox(90, 60, 24, 30), False, bases[2:]),
    ]
    detections = make_detections(
        (BBox(52, 51, 20, 20), make_patch(bases[0])),
        (BBox(150, 150, 20, 20), make_patch()),
    )
    tracks = make_tracks(objects)
    iou_m = _iou_cost(tracks.boxes, detections.boxes)
    app_m = appearance_matrix(head, tracks.gallery, tracks.slots, detections.features)
    for i, (_, bbox, _, gallery) in enumerate(objects):
        for j, (box, feature) in enumerate(zip(detections.boxes.tolist(), detections.features)):
            assert iou_m[i, j] == pytest.approx(iou_cost(bbox, BBox(*box)), abs=1e-12)
            assert app_m[i, j] == pytest.approx(appearance_cost(head, gallery, feature), abs=1e-12)


def test_two_step_iou_match_first(head):
    base = RNG.standard_normal((7, 7, 16))
    obj = make_object(1, BBox(50, 50, 20, 20), True, [base])
    det = (BBox(51, 50, 20, 20), make_patch(base))
    res = associate_two_step(make_tracks([obj]), make_detections(det), head, CFG)
    assert pairs(res) == [(0, 0)]


def test_two_step_appearance_rescue(head):
    # confirmed object displaced far from its detection, gallery still matches
    base = RNG.standard_normal((7, 7, 16))
    obj = make_object(1, BBox(50, 50, 20, 20), True, [base])
    det = (BBox(200, 200, 20, 20), make_patch(base))
    res = associate_two_step(make_tracks([obj]), make_detections(det), head, CFG)
    assert pairs(res) == [(0, 0)]


def test_two_step_tentative_never_in_step_one(head):
    # a tentative object with perfect IoU but a foreign feature: step 2 gates
    # it by appearance, so it stays unmatched even though IoU is 1
    base = RNG.standard_normal((7, 7, 16))
    tent = make_object(1, BBox(50, 50, 20, 20), False, [base])
    det_foreign = (BBox(50, 50, 20, 20), make_patch())
    res = associate_two_step(make_tracks([tent]), make_detections(det_foreign), head, CFG)
    assert pairs(res) == []
    # with its own feature it is matched in step 2 by appearance
    det_own = (BBox(50, 50, 20, 20), make_patch(base))
    res = associate_two_step(make_tracks([tent]), make_detections(det_own), head, CFG)
    assert pairs(res) == [(0, 0)]


def test_two_step_no_double_assignment(head):
    bases = [RNG.standard_normal((7, 7, 16)) for _ in range(4)]
    objects = [
        make_object(1, BBox(50, 50, 20, 20), True, [bases[0]]),
        make_object(2, BBox(80, 50, 20, 20), True, [bases[1]]),
        make_object(3, BBox(110, 50, 20, 20), False, [bases[2]]),
    ]
    detections = make_detections(
        (BBox(51, 50, 20, 20), make_patch(bases[0])),
        (BBox(81, 50, 20, 20), make_patch(bases[1])),
        (BBox(111, 50, 20, 20), make_patch(bases[2])),
        (BBox(300, 300, 20, 20), make_patch(bases[3])),
    )
    res = associate_two_step(make_tracks(objects), detections, head, CFG)
    matched_objs = [i for i, _ in pairs(res)]
    matched_dets = [j for _, j in pairs(res)]
    left_objs, left_dets = unmatched(res, 3, 4)
    assert len(matched_objs) == len(set(matched_objs))
    assert len(matched_dets) == len(set(matched_dets))
    assert sorted(matched_objs + left_objs) == [0, 1, 2]
    assert sorted(matched_dets + left_dets) == [0, 1, 2, 3]
    assert pairs(res) == [(0, 0), (1, 1), (2, 2)]
    assert left_dets == [3]


def test_two_step_step1_unaffected_by_tentative(head):
    base = RNG.standard_normal((7, 7, 16))
    conf = make_object(1, BBox(50, 50, 20, 20), True, [base])
    det = (BBox(51, 50, 20, 20), make_patch(base))
    res_without = associate_two_step(make_tracks([conf]), make_detections(det), head, CFG)
    tent = make_object(2, BBox(50, 50, 20, 20), False, [base])
    res_with = associate_two_step(make_tracks([conf, tent]), make_detections(det), head, CFG)
    assert (0, 0) in pairs(res_with) and pairs(res_without) == [(0, 0)]


def test_two_step_skips_step_two_when_step_one_leaves_nothing(head, monkeypatch):
    # step 2 scores nothing and assigns nothing when step 1 leaves no
    # detection (taken, or none given) or no row
    scored = []
    monkeypatch.setattr(association, "appearance_cost", lambda *args, **kwargs: scored.append(args) or appearance_matrix(*args, **kwargs))
    base = RNG.standard_normal((7, 7, 16))
    conf = make_object(1, BBox(50, 50, 20, 20), True, [base])
    tent = make_object(2, BBox(200, 50, 20, 20), False, [base])
    det = (BBox(51, 50, 20, 20), make_patch(base))
    assert pairs(associate_two_step(make_tracks([conf, tent]), make_detections(det), head, CFG)) == [(0, 0)]
    assert pairs(associate_two_step(make_tracks([conf, tent]), make_detections(), head, CFG)) == []
    assert pairs(associate_two_step(TrackTable.empty(GalleryStore(CFG.l_f)), make_detections(det), head, CFG)) == []
    assert not scored


def test_one_step_alpha_one_is_gated_iou(head):
    objects = [
        make_object(1, BBox(50, 50, 20, 20), True, [RNG.standard_normal((7, 7, 16))]),
        make_object(2, BBox(90, 50, 20, 20), False, [RNG.standard_normal((7, 7, 16))]),
    ]
    detections = make_detections(
        (BBox(52, 50, 20, 20), make_patch()),
        (BBox(91, 50, 20, 20), make_patch()),
    )
    res = associate_one_step(make_tracks(objects), detections, head, dataclasses.replace(CFG, alpha=1.0))
    expected = gated_assign(_iou_cost(box_array([o[1] for o in objects]), detections.boxes), CFG.tau_iou)
    assert pairs(res) == pairs(expected)


def test_one_step_alpha_zero_is_gated_appearance(head):
    bases = [RNG.standard_normal((7, 7, 16)), RNG.standard_normal((7, 7, 16))]
    objects = [
        make_object(1, BBox(50, 50, 20, 20), True, [bases[0]]),
        make_object(2, BBox(90, 50, 20, 20), True, [bases[1]]),
    ]
    detections = make_detections(
        (BBox(400, 200, 20, 20), make_patch(bases[1])),
        (BBox(300, 300, 20, 20), make_patch(bases[0])),
    )
    tracks = make_tracks(objects)
    res = associate_one_step(tracks, detections, head, dataclasses.replace(CFG, alpha=0.0))
    expected = gated_assign(appearance_matrix(head, tracks.gallery, tracks.slots, detections.features), CFG.tau_app)
    assert pairs(res) == pairs(expected)
    assert pairs(res) == [(0, 1), (1, 0)]  # appearance crosses the geometry


def test_one_step_blended_gate_example(head):
    # costs 0.2 (iou) and 0.4 (appearance) blend to 0.3 against gate 0.275
    cost = 0.5 * 0.2 + 0.5 * 0.4
    gate = 0.5 * CFG.tau_iou + 0.5 * CFG.tau_app
    assert cost == pytest.approx(0.3) and gate == pytest.approx(0.275)
    assert pairs(gated_assign(np.array([[cost]]), gate)) == []


def test_one_step_rejects_bad_alpha():
    # one-step reads alpha from its config, which admits only [0, 1]
    for alpha in (1.5, -0.5, math.nan):
        with pytest.raises(ConfigError, match="alpha must lie in"):
            dataclasses.replace(CFG, alpha=alpha)


def test_permutation_changes_only_ties(head):
    rng = np.random.default_rng(21)
    bases = [rng.standard_normal((7, 7, 16)) for _ in range(5)]
    objects = [
        make_object(i + 1, BBox(40 + 35 * i, 60, 22, 22), True, [bases[i]])
        for i in range(5)
    ]
    det_boxes = [BBox(41 + 35 * i, 61, 22, 22) for i in range(5)]
    detections = make_detections(*((b, bases[i] + 0.1 * rng.standard_normal((7, 7, 16))) for i, b in enumerate(det_boxes)))
    res = associate_two_step(make_tracks(objects), detections, head, CFG)
    base_cost = sum(iou_cost(objects[i][1], det_boxes[j]) for i, j in pairs(res))
    perm = [3, 0, 4, 1, 2]
    objects_p = [objects[i] for i in perm]
    res_p = associate_two_step(make_tracks(objects_p), detections, head, CFG)
    cost_p = sum(iou_cost(objects_p[i][1], det_boxes[j]) for i, j in pairs(res_p))
    assert len(pairs(res_p)) == len(pairs(res))
    assert cost_p == pytest.approx(base_cost)


@st.composite
def one_step_cases(draw):
    """Random track tables and detections close enough to overlap, small
    patches, a head of either sign, and gates that sometimes sit exactly on
    a cell's geometric term. In the tied branch (the last item) some rows
    copy another row's box and gallery, so equal-cost optima abound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    boxes = np.column_stack([rng.uniform(0, 60, (n + d, 2)), rng.uniform(4, 40, (n + d, 2))])
    galleries = [rng.standard_normal((rng.integers(1, 5), m, m, c)) for _ in range(n)]
    tied = draw(st.booleans())
    if tied:
        source = np.where(rng.random(n) < 0.5, rng.integers(0, max(n, 1), n), np.arange(n))
        boxes[:n], galleries = boxes[source], [galleries[i] for i in source.tolist()]
    tracks = track_table(galleries, confirmed=rng.random(n) < 0.5, boxes=boxes[:n])
    detections = Detections(boxes[n:], np.full(d, 0.96), rng.standard_normal((d, m, m, c)))
    # 1 - 2**-30 blows each cell's appearance gate up by 2**30
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0 - 2**-30, 1.0]))
    params = AffinityHeadParams(
        draw(st.one_of(st.floats(-30.0, -0.01), st.just(0.0), st.floats(0.01, 30.0))),
        draw(st.one_of(st.floats(-20.0, 20.0), st.just(40.0))),  # b = 40 makes appearance costs exactly 0
        draw(st.sampled_from(MODES)),
    )
    geometric = _iou_cost(tracks.boxes, detections.boxes)
    if n and d and draw(st.booleans()):
        # tau_app = 0 puts the gate exactly on one cell's geometric term
        cfg = TrackerConfig(tau_iou=float(geometric[rng.integers(n), rng.integers(d)]), tau_app=0.0)
    else:
        cfg = TrackerConfig(tau_iou=draw(st.floats(0.0, 1.0)), tau_app=draw(st.floats(0.0, 1.0)))
    return tracks, detections, params, alpha, cfg, tied


@settings(max_examples=200, deadline=None)
@given(one_step_cases())
def test_gated_one_step_matches_dense_scoring(case):
    # isolated cells (alone in their row and column of the live mask) that
    # pass on their newest entry, with a margin for rounding, are matched
    # without Hungarian, which gets the densely scored, gated matrix
    # restricted to the other live cells' rows and columns, bit for bit, or
    # is not called when none are left
    tracks, detections, params, alpha, cfg, tied = case
    threshold = alpha * cfg.tau_iou + (1.0 - alpha) * cfg.tau_app
    geometric = alpha * _iou_cost(tracks.boxes, detections.boxes)
    live = ~(geometric > threshold)
    rest = live.copy()
    if alpha < 1.0:
        isolated = live & (live.sum(axis=1) == 1)[:, None] & (live.sum(axis=0) == 1)
        for i, j in zip(*np.nonzero(isolated)):
            newest = appearance_cost(params, [gallery(tracks, i)[-1]], detections.features[j])
            rest[i, j] = geometric[i, j] + (1.0 - alpha) * newest > threshold - 1e-12
    handed = []

    def recording(cost):
        handed.append(np.array(cost))
        return hungarian(cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(association, "hungarian", recording)
        rows, cols = associate_one_step(tracks, detections, params, dataclasses.replace(cfg, alpha=alpha))
    dense = geometric
    if alpha < 1.0:
        dense = dense + (1.0 - alpha) * appearance_matrix(params, tracks.gallery, tracks.slots, detections.features)
    want_rows, want_cols = gated_assign(dense, threshold)
    gated = np.where(dense > threshold, association.FORBIDDEN, dense)
    if alpha < 1.0:
        gated = gated[np.ix_(rest.any(axis=1), rest.any(axis=0))] if rest.any() else None
    assert [h.tobytes() for h in handed] == ([] if gated is None else [gated.tobytes()])
    assert rows.tolist() == sorted(rows.tolist())
    if tied:
        # equal-cost optima may split differently once the matrix is cut
        assert len(rows) == len(want_rows)
        assert math.fsum(dense[rows, cols]) == pytest.approx(math.fsum(dense[want_rows, want_cols]), rel=1e-12, abs=1e-12)
    else:
        assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
