import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mvtrack.metrics
from mvtrack.metrics import clear_mot, frame_index, idf1
from mvtrack.stream import GroundTruthEntry, MotionScript, ObjectScript, StreamHeader, generate_scenario
import oracles
from oracles import BBox, exhaustive_idf1


def gt_row(frame, obj_id, x=50.0, y=50.0, w=20.0, h=20.0, visible=True):
    return GroundTruthEntry(frame, obj_id, BBox(x, y, w, h), visible)


def result_row(frame, obj_id, x=50.0, y=50.0, w=20.0, h=20.0):
    return (frame, obj_id, BBox(x, y, w, h))


def track_gt(obj_id, frames, x0=50.0, vx=0.0, y=50.0):
    return [gt_row(t, obj_id, x=x0 + vx * (t - 1), y=y) for t in frames]


def as_results(gt):
    return [(r.frame, r.id, r.bbox) for r in gt if r.visible]


def test_perfect_tracker():
    gt = track_gt(1, range(1, 11), vx=2.0) + track_gt(2, range(3, 9), x0=200.0)
    scores = clear_mot(gt, as_results(gt))
    assert scores.mota == 1.0
    assert scores.motp == 1.0
    assert (scores.fp, scores.fn, scores.ids, scores.frag) == (0, 0, 0, 0)
    assert scores.mt == 2 and scores.ml == 0
    assert scores.rcll == 1.0 and scores.prcn == 1.0 and scores.moda == 1.0
    assert idf1(gt, as_results(gt)) == 1.0


def test_mota_hand_case():
    # 10 GT entries, 1 FP, 2 FN, 1 IDS -> MOTA = 0.6
    gt = track_gt(1, range(1, 11))
    results = [result_row(t, 1) for t in range(1, 5)]  # frames 1-4 with id 1
    results += [result_row(t, 2) for t in range(5, 9)]  # id switch at frame 5
    results += [result_row(20, 9, x=500.0)]  # spurious detection, empty frame
    scores = clear_mot(gt, results)
    assert (scores.fp, scores.fn, scores.ids) == (1, 2, 1)
    assert scores.mota == pytest.approx(0.6)
    assert scores.moda == pytest.approx(0.7)
    assert scores.rcll == pytest.approx(0.8)


def test_empty_results():
    gt = track_gt(1, range(1, 11))
    scores = clear_mot(gt, [])
    assert scores.mota == 0.0
    assert scores.fn == 10 and scores.fp == 0
    assert scores.rcll == 0.0
    assert idf1(gt, []) == 0.0


def test_empty_ground_truth_takes_trackeval_denominators():
    # max(1, .) denominators: with no visible ground truth each FP costs 1,
    # and two empty sides score 0, never -0
    results = [result_row(1, 1), result_row(2, 1), result_row(2, 2, x=90.0)]
    for gt in ([], [gt_row(1, 5, visible=False)]):
        scores = clear_mot(gt, results)
        assert (scores.mota, scores.moda, scores.fp, scores.gt_total) == (-3.0, -3.0, 3, 0)
        assert idf1(gt, results) == 0.0
    empty = clear_mot([], [])
    for value in (empty.mota, empty.moda, idf1([], [])):
        assert value == 0.0 and np.copysign(1.0, value) == 1.0


def test_spurious_detection_drops_moda_by_one_over_gt():
    gt = track_gt(1, range(1, 11))
    perfect = as_results(gt)
    scores = clear_mot(gt, perfect + [result_row(1, 7, x=400.0)])
    assert scores.moda == pytest.approx(1.0 - 1 / 10)
    assert scores.fp == 1


def test_ids_counted_across_gap():
    # matched, absent from results for two frames, then matched with a new id
    gt = track_gt(1, range(1, 8))
    results = [result_row(t, 1) for t in (1, 2, 3)] + [result_row(t, 2) for t in (6, 7)]
    scores = clear_mot(gt, results)
    assert scores.ids == 1
    assert scores.frag == 1  # one resumption after the unmatched gap


def test_frag_counts_resumptions():
    gt = track_gt(1, range(1, 10))
    # matched 1-2, miss 3, matched 4-5, miss 6-7, matched 8-9: two resumptions
    frames = [1, 2, 4, 5, 8, 9]
    results = [result_row(t, 1) for t in frames]
    scores = clear_mot(gt, results)
    assert scores.frag == 2
    assert scores.ids == 0


def test_invisible_gt_is_dont_care():
    gt = track_gt(1, range(1, 4)) + [gt_row(4, 1, visible=False), gt_row(5, 1)]
    # tracker reports all five frames; frame 4 hypothesis has no counted GT
    results = [result_row(t, 1) for t in range(1, 6)]
    scores = clear_mot(gt, results)
    assert scores.gt_total == 4
    assert scores.fp == 1  # the frame-4 box matches nothing counted
    assert scores.fn == 0 and scores.ids == 0


def test_mt_ml_thresholds():
    gt = track_gt(1, range(1, 11)) + track_gt(2, range(1, 11), x0=200.0) + track_gt(3, range(1, 11), x0=400.0)
    results = [result_row(t, 1) for t in range(1, 9)]  # 80% of track 1
    results += [result_row(t, 2, x=200.0) for t in range(1, 3)]  # 20% of track 2
    results += [result_row(t, 3, x=400.0) for t in range(1, 6)]  # 50% of track 3
    scores = clear_mot(gt, results)
    assert scores.mt == 1 and scores.ml == 1


def test_match_persistence_beats_greedy_reassignment():
    # two GT boxes close together: the carried-over pair must stay with its
    # previous hypothesis even if a new one is marginally closer
    gt = [gt_row(1, 1, x=50.0), gt_row(2, 1, x=50.0)]
    results = [result_row(1, 8, x=50.0), result_row(2, 8, x=52.0), result_row(2, 9, x=50.0)]
    scores = clear_mot(gt, results)
    assert scores.ids == 0  # id 8 persists; id 9 becomes the false positive
    assert scores.fp == 1


def test_duplicate_ids_rejected():
    gt = [gt_row(1, 1), gt_row(1, 1, x=80.0)]
    with pytest.raises(ValueError):
        clear_mot(gt, [])
    with pytest.raises(ValueError):
        clear_mot([gt_row(1, 1)], [result_row(1, 2), result_row(1, 2, x=80.0)])
    with pytest.raises(ValueError, match="duplicate ground-truth id 1 in frame 1"):
        idf1(gt, [])
    with pytest.raises(ValueError, match="duplicate hypothesis id 2 in frame 1"):
        idf1([gt_row(1, 1)], [result_row(1, 2), result_row(1, 2, x=80.0)])


@pytest.mark.parametrize("iou_min", [float("nan"), 0.0, -0.5, 1.5, float("inf")])
@pytest.mark.parametrize("metric", [clear_mot, idf1])
def test_invalid_iou_min_rejected(metric, iou_min):
    gt = track_gt(1, range(1, 4))
    with pytest.raises(ValueError, match="iou_min must be finite"):
        metric(gt, as_results(gt), iou_min)


@st.composite
def scripts(draw):
    """Ground-truth and hypothesis rows on a 5-pixel lattice of 20-pixel
    boxes, so IoUs tie exactly, also with the threshold (0.6 and 1/3 for a
    shift of 5 and 10): hypotheses that follow a gt track, invisible gt
    rows, empty frames, a trailing hypothesis-only frame, rows in any order."""
    n_frames = draw(st.integers(1, 8))
    lattice = st.integers(0, 3).map(lambda k: 40.0 + 5.0 * k)
    gt = []
    for g in range(1, draw(st.integers(0, 4)) + 1):
        for t in range(1, n_frames + 1):
            if draw(st.booleans()):
                visible = draw(st.sampled_from([True, True, False]))
                gt.append(gt_row(t, g, x=draw(lattice), y=draw(lattice), visible=visible))
    boxes = {(r.frame, r.id): r.bbox for r in gt}
    shift = st.sampled_from([0.0, 0.0, 5.0, -5.0, 10.0])
    results = []
    for h in range(1, draw(st.integers(0, 4)) + 1):
        source = draw(st.integers(1, 4))  # the gt track this hypothesis follows, where it exists
        for t in range(1, n_frames + 2):
            if draw(st.booleans()):
                b = boxes.get((t, source))
                if b is None:
                    results.append(result_row(t, 100 + h, x=draw(lattice), y=draw(lattice)))
                else:
                    results.append(result_row(t, 100 + h, x=b.x + draw(shift), y=b.y))
    return draw(st.permutations(gt)), draw(st.permutations(results))


# Fixed cases for the bookkeeping the scorers do after matching. SWITCH:
# gt 1 matched by 101, unmatched at frame 3, then by 102 (an identity switch
# and a resumption, 5 of 6 frames: mostly tracked); gt 2 never matched
# (mostly lost); gt 3 unmatched at first, so its first match resumes nothing.
# CROSSING: two hypotheses swap boxes at frame 2, so neither pair carries
# over and both frames hand two free gt rows and two free hypotheses to the
# gated assignment.
SWITCH = (
    track_gt(1, range(1, 7)) + track_gt(2, range(1, 7), x0=200.0) + track_gt(3, range(1, 5), x0=400.0),
    [result_row(t, 101) for t in (1, 2)] + [result_row(t, 102) for t in (4, 5, 6)]
    + [result_row(t, 103, x=400.0) for t in (2, 3)],
)
CROSSING = (
    track_gt(1, range(1, 3)) + track_gt(2, range(1, 3), x0=200.0),
    [result_row(1, 101), result_row(1, 102, x=200.0), result_row(2, 101, x=200.0), result_row(2, 102)],
)


def test_fixed_cases_carry_each_bookkeeping_case(monkeypatch):
    shapes = []
    gated_assign = mvtrack.metrics.gated_assign
    monkeypatch.setattr(mvtrack.metrics, "gated_assign", lambda cost, gate: shapes.append(cost.shape) or gated_assign(cost, gate))
    switch = clear_mot(*SWITCH)
    assert (switch.ids, switch.frag, switch.mt, switch.ml) == (1, 1, 1, 1)
    assert clear_mot(*CROSSING).ids == 2
    assert (2, 2) in shapes


@settings(max_examples=300)
@given(scripts(), st.sampled_from([0.5, 0.6, 1 / 3]))
@example(SWITCH, 0.5)
@example(CROSSING, 0.5)
@example(CROSSING, 1 / 3)
def test_metrics_equal_loop_oracles(script, iou_min):
    gt, results = script
    scores, identity = oracles.clear_mot(gt, results, iou_min), oracles.idf1(gt, results, iou_min)
    assert clear_mot(gt, results, iou_min) == scores
    assert idf1(gt, results, iou_min) == identity
    frames = frame_index(gt, results)  # one index, as `mvtrack evaluate` shares it
    assert clear_mot(gt, results, iou_min, frames=frames) == scores
    assert idf1(gt, results, iou_min, frames=frames) == identity


def test_relabeling_invariance():
    rng = np.random.default_rng(3)
    gt = track_gt(1, range(1, 9), vx=3.0) + track_gt(2, range(2, 10), x0=150.0) + track_gt(3, range(1, 6), x0=300.0)
    results = []
    for frame, obj_id, bbox in as_results(gt):
        if rng.random() < 0.15:
            continue
        results.append((frame, obj_id, BBox(bbox.x + rng.uniform(-2, 2), bbox.y, bbox.w, bbox.h)))
    base = clear_mot(gt, results)
    base_idf1 = idf1(gt, results)
    mapping = {1: 71, 2: 12, 3: 55}
    permuted = [(f, mapping[i], b) for f, i, b in results]
    perm = clear_mot(gt, permuted)
    assert (perm.mota, perm.motp, perm.fp, perm.fn, perm.ids, perm.frag) == (
        base.mota,
        base.motp,
        base.fp,
        base.fn,
        base.ids,
        base.frag,
    )
    assert idf1(gt, permuted) == pytest.approx(base_idf1)


def test_idf1_split_track_hand_case():
    # one 10-frame GT track covered by two ids (6 + 4 frames): IDF1 = 0.6
    gt = track_gt(1, range(1, 11))
    results = [result_row(t, 1) for t in range(1, 7)] + [result_row(t, 2) for t in range(7, 11)]
    assert idf1(gt, results) == pytest.approx(0.6)
    assert exhaustive_idf1(gt, results) == pytest.approx(0.6)


def test_idf1_matches_exhaustive_oracle_small_cases():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n_gt = int(rng.integers(1, 4))
        n_hyp = int(rng.integers(1, 4))
        frames = int(rng.integers(2, 11))
        gt = []
        for g in range(n_gt):
            span = range(int(rng.integers(1, frames)), frames + 1)
            gt += track_gt(g + 1, span, x0=100.0 * g, vx=float(rng.integers(0, 3)))
        results = []
        for h in range(n_hyp):
            src = int(rng.integers(0, n_gt))
            for r in gt:
                if r.id == src + 1 and rng.random() < 0.7:
                    jitter = float(rng.uniform(-3, 3))
                    results.append((r.frame, 100 + h, BBox(r.bbox.x + jitter, r.bbox.y, r.bbox.w, r.bbox.h)))
        # drop duplicate (frame, id) rows the random construction may create
        seen = set()
        clean = []
        for row in results:
            if (row[0], row[1]) not in seen:
                seen.add((row[0], row[1]))
                clean.append(row)
        assert idf1(gt, clean) == pytest.approx(exhaustive_idf1(gt, clean))


def test_clear_mot_perfect_on_generated_scenarios():
    header = StreamHeader(width=320, height=240, block=16, gop=12)
    for seed, script in enumerate(
        [
            MotionScript(frames=24, objects=(ObjectScript(id=1, enter=1, exit=24, x=80, y=60, w=24, h=24, vx=2),)),
            MotionScript(
                frames=24,
                objects=(
                    ObjectScript(id=1, enter=1, exit=20, x=60, y=60, w=24, h=24, vx=3),
                    ObjectScript(id=2, enter=5, exit=24, x=250, y=180, w=30, h=30, vx=-2, vy=-1),
                ),
            ),
            MotionScript(
                frames=24,
                objects=(ObjectScript(id=1, enter=1, exit=24, x=160, y=120, w=60, h=60, zoom=1.02, occlusions=((8, 10),)),),
            ),
        ]
    ):
        sc = generate_scenario(script, header, seed=seed)
        scores = clear_mot(sc.gt, as_results(sc.gt))
        assert scores.mota == 1.0 and scores.motp == 1.0
        assert (scores.fp, scores.fn, scores.ids) == (0, 0, 0)
        assert idf1(sc.gt, as_results(sc.gt)) == 1.0
