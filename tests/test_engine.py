import hashlib
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mvtrack.affinity
import mvtrack.association
import mvtrack.engine
from mvtrack.affinity import AffinityHeadParams, GalleryStore
from mvtrack.engine import (
    FileDetector,
    FrameTimings,
    OracleDetector,
    TrackerModels,
    is_key_frame,
    make_propagator,
    speedup_model,
    track,
    write_timing_report,
)
from mvtrack.metrics import clear_mot
from mvtrack.model import (
    MAX_INPUT,
    ConfigError,
    Detections,
    MotionFrame,
    TrackerConfig,
    TrackTable,
    box_array,
    box_corners,
    iou_matrix,
    predict_boxes,
)
from mvtrack.motion import F_IN, FitHyper, RegressorParams, fit_regressor
from mvtrack.stream import (
    DetectorConfig,
    MotionScript,
    ObjectScript,
    Scenario,
    StreamHeader,
    generate_scenario,
    read_mot_table,
    write_motchallenge,
)
import oracles
from oracles import BBox
from tables import gallery

HEADER = StreamHeader(width=480, height=360, block=16, gop=12)


def scenario_translation(frames=36, seed=5):
    script = MotionScript(
        frames=frames,
        objects=(
            ObjectScript(id=1, enter=1, exit=frames, x=80, y=100, w=32, h=48, vx=3, vy=1),
            ObjectScript(id=2, enter=1, exit=frames, x=300, y=200, w=40, h=40, vx=-2, vy=0),
        ),
    )
    return generate_scenario(script, HEADER, seed=seed)


def test_key_frame_schedule():
    assert all(is_key_frame(t, 1) for t in range(1, 30))
    keys = [t for t in range(1, 16) if is_key_frame(t, 3)]
    assert keys == [1, 4, 7, 10, 13]  # frame 13 is the next I-frame under gop 12


def test_k_must_divide_gop(head7):
    sc = scenario_translation()
    with pytest.raises(ConfigError, match="divide"):
        track(sc, OracleDetector(sc), TrackerConfig(K=5, propagator="bboxavg"), TrackerModels(affinity=head7))


def test_regressor_requires_params(head7):
    sc = scenario_translation()
    with pytest.raises(ConfigError, match="regressor"):
        track(sc, OracleDetector(sc), TrackerConfig(propagator="regressor"), TrackerModels(affinity=head7))


def test_twostep_requires_affinity():
    sc = scenario_translation()
    with pytest.raises(ConfigError, match="affinity"):
        track(sc, OracleDetector(sc), TrackerConfig(propagator="bboxavg"), TrackerModels())


def test_onestep_iou_only_needs_no_affinity():
    sc = scenario_translation(frames=13)
    cfg = TrackerConfig(K=1, propagator="bboxavg", association_mode="onestep", alpha=1.0)
    rows, _ = track(sc, OracleDetector(sc), cfg, TrackerModels())
    assert rows


def test_noiseless_k1_ids_constant_boxes_exact(head7):
    sc = scenario_translation()
    cfg = TrackerConfig(K=1, propagator="bboxavg")
    rows, _ = track(sc, OracleDetector(sc, DetectorConfig(rng_seed=0)), cfg, TrackerModels(affinity=head7))
    gt = {(r.frame, r.id): r.bbox for r in sc.gt}
    by_track = {}
    for frame, obj_id, bbox in rows:
        by_track.setdefault(obj_id, []).append((frame, BBox(*bbox)))
    assert len(by_track) == 2  # one output identity per object, constant
    # boxes equal GT from the confirmation frame onward
    for obj_id, entries in by_track.items():
        for frame, bbox in entries:
            match = [g for (f, gid), g in gt.items() if f == frame and abs(g[0] - bbox.x) < 1e-9]
            assert match, f"frame {frame} box does not sit on any GT box"


def test_k3_bboxavg_translation_exact(head7):
    sc = scenario_translation()
    cfg = TrackerConfig(K=3, propagator="bboxavg")
    rows, tm = track(sc, OracleDetector(sc, DetectorConfig(rng_seed=0)), cfg, TrackerModels(affinity=head7))
    assert tm.key_frames == 12 and tm.nonkey_frames == 24
    gt_xs = {(r.frame, round(r.bbox[1], 3)): r.bbox for r in sc.gt}
    for frame, obj_id, bbox in rows:
        key = (frame, round(bbox[1], 3))
        assert key in gt_xs
        assert bbox == gt_xs[key]


def test_tentative_objects_never_emitted(head7):
    sc = scenario_translation(frames=13)

    def detector(frame):
        gtf = sorted({r.id: r.bbox for r in sc.gt if r.frame == frame}.items())
        return Detections(box_array([b for _, b in gtf]), np.full(len(gtf), 0.96), np.array([sc.feature_of(i, 0.0) for i, _ in gtf]))

    cfg = TrackerConfig(K=1, propagator="bboxavg")
    rows, _ = track(sc, detector, cfg, TrackerModels(affinity=head7))
    # confidence 0.96 < c_confirm: objects are born tentative and confirm at
    # their fourth consecutive key frame (hits > l_confirm), so frames 1-3
    # must be silent
    assert all(frame >= 4 for frame, _, _ in rows)
    assert {frame for frame, _, _ in rows} == set(range(4, 14))


BAD_DETECTIONS = [  # conf, x and w of the bad row, a change to the whole table, and the error
    (1.5, 200.0, 20.0, None, "frame 4: detection confidence must lie in [0, 1], got 1.5"),
    (float("nan"), 200.0, 20.0, None, "frame 4: detection confidence must lie in [0, 1], got nan"),
    (0.97, 200.0, 0.0, None, "frame 4: detection box size must be positive, got w=0.0 h=20.0"),
    (0.97, float("nan"), 20.0, None, "frame 4: detection box must be finite, got x=nan y=100.0 w=20.0 h=20.0"),
    (0.97, 200.0, float("inf"), None, "frame 4: detection box must be finite, got x=200.0 y=100.0 w=inf h=20.0"),
    (0.97, 200.0, 20.0, lambda d: d._replace(conf=d.conf[:, None]), "frame 4: detection confidences must have shape (2,), got (2, 1)"),
    (0.97, 200.0, 20.0, lambda d: d._replace(boxes=d.boxes[:, :3]), "frame 4: detection boxes must have shape (2, 4), got (2, 3)"),
    (0.97, 200.0, 20.0, lambda d: d._replace(boxes=d.boxes[:1]), "frame 4: detection boxes must have shape (2, 4), got (1, 4)"),
    # one patch fewer than confidences, checked before the bad confidence
    (1.5, 200.0, 20.0, lambda d: d._replace(features=d.features[:1]), "frame 4: detection features must have shape (2, 7, 7, 16), got (1, 7, 7, 16)"),
    (0.97, 200.0, 20.0, lambda d: d._replace(features=d.features[..., :8]), "frame 4: detection features must have shape (2, 7, 7, 16), got (2, 7, 7, 8)"),
    # a non-finite patch value, checked before the bad confidence, in a row the confidence filter would drop
    (1.5, 200.0, 20.0, lambda d: d._replace(features=d.features + np.array([0.0, np.inf])[:, None, None, None]), "frame 4: detection features must be finite"),
    (0.97, 200.0, 20.0, lambda d: d._replace(features=np.where(np.arange(16) == 3, np.nan, d.features)), "frame 4: detection features must be finite"),
]


# each id is conf-w-error; the error names a bad x
@pytest.mark.parametrize("conf, x, w, change, message", BAD_DETECTIONS, ids=[f"{c}-{w}-{e}" for c, _, w, _, e in BAD_DETECTIONS])
def test_track_rejects_bad_detection_naming_frame(head7, conf, x, w, change, message):
    # the bad row is the second row of the second key frame; conf_min 0.99
    # drops every row with conf 0.97, so the rows with a bad box show that
    # rows are checked before the confidence filter
    sc = scenario_translation(frames=6)
    m, c = sc.header.feature_bins, sc.header.feature_channels

    def detector(frame):
        bad = (conf, x, w) if frame == 4 else (0.97, 200.0, 20.0)
        boxes = np.array([[100.0, 100.0, 20.0, 20.0], [bad[1], 100.0, bad[2], 20.0]])
        d = Detections(boxes, np.array([0.97, bad[0]]), np.zeros((2, m, m, c)))
        return change(d) if change and frame == 4 else d

    cfg = TrackerConfig(K=3, propagator="bboxavg", conf_min=0.99)
    with pytest.raises(ValueError) as exc:
        track(sc, detector, cfg, TrackerModels(affinity=head7))
    assert str(exc.value) == message


def test_determinism_byte_identical(tmp_path, head7):
    sc = scenario_translation()
    cfg = TrackerConfig(K=3, propagator="bboxavg")
    det_cfg = DetectorConfig(noise_center=0.03, noise_size=0.02, miss_rate=0.1, fp_rate=0.3, feature_noise=0.1, rng_seed=11)
    paths = []
    for name in ("a.txt", "b.txt"):
        rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head7))
        p = tmp_path / name
        write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_online_causality_prefix_invariant(head7):
    sc = scenario_translation(frames=36)
    cfg = TrackerConfig(K=3, propagator="bboxavg")
    det_cfg = DetectorConfig(noise_center=0.03, miss_rate=0.15, fp_rate=0.2, feature_noise=0.1, rng_seed=3)
    rows_full, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head7))
    cut = 18
    truncated = type(sc)(
        header=sc.header,
        frames=sc.frames[:cut],
        gt=[r for r in sc.gt if r.frame <= cut],
        feature_seeds=sc.feature_seeds,
    )
    rows_cut, _ = track(truncated, OracleDetector(truncated, det_cfg), cfg, TrackerModels(affinity=head7))
    assert [r for r in rows_full if r[0] <= cut] == rows_cut


def test_occlusion_reid_two_step_vs_iou_only(head7):
    # one object, confirmed well before an occlusion spanning two key frames;
    # appearance re-identifies it, geometry alone births a new id
    frames = 45
    script = MotionScript(
        frames=frames,
        objects=(
            ObjectScript(id=1, enter=1, exit=frames, x=60, y=100, w=40, h=40, vx=4, occlusions=((14, 20),)),
            ObjectScript(id=2, enter=1, exit=frames, x=300, y=280, w=40, h=40),
        ),
    )
    sc = generate_scenario(script, HEADER, seed=8)
    det_cfg = DetectorConfig(feature_noise=0.1, rng_seed=1)
    models = TrackerModels(affinity=head7)
    two, _ = track(sc, OracleDetector(sc, det_cfg), TrackerConfig(K=3, propagator="bboxavg"), models)
    iou_cfg = TrackerConfig(K=3, propagator="bboxavg", association_mode="onestep", alpha=1.0)
    one, _ = track(sc, OracleDetector(sc, det_cfg), iou_cfg, models)
    assert clear_mot(sc.gt, two).ids == 0
    assert clear_mot(sc.gt, one).ids >= 1


def test_boxes_clipped_at_output(head7):
    # object walks off the right edge; emitted boxes never cross the border
    frames = 24
    script = MotionScript(
        frames=frames,
        objects=(ObjectScript(id=1, enter=1, exit=frames, x=420, y=100, w=40, h=40, vx=4),),
    )
    sc = generate_scenario(script, HEADER, seed=8)
    cfg = TrackerConfig(K=1, propagator="bboxavg")
    rows, _ = track(sc, OracleDetector(sc), cfg, TrackerModels(affinity=head7))
    assert rows
    for _, _, bbox in rows:
        assert BBox(*bbox).right <= HEADER.width + 1e-9
        assert BBox(*bbox).left >= -1e-9


def test_file_detector(tmp_path, head7):
    sc = scenario_translation(frames=13)
    det_rows = []
    for r in sc.gt:
        if is_key_frame(r.frame, 1):
            det_rows.append((r.frame, -1, r.bbox, 1.0))
    det_path = tmp_path / "det.txt"
    write_motchallenge(det_rows, det_path)
    cfg = TrackerConfig(K=1, propagator="bboxavg", association_mode="onestep", alpha=1.0)
    rows, _ = track(sc, FileDetector(det_path, sc.header), cfg, TrackerModels())
    assert rows
    scores = clear_mot(sc.gt, rows)
    assert scores.ids == 0 and scores.fp == 0


def test_file_detector_slices_frames_in_file_order(tmp_path):
    # frames out of order, confidences outside [0, 1]: each frame's rows keep
    # their file order, confidences are clipped, patches are seeded by rank
    lines = ["4,-1,10.00,20.00,8.00,6.00,0.50", "2,-1,30.00,40.00,4.00,4.00,1.70",
             "4,-1,50.00,60.00,2.00,8.00,-0.20", "2,-1,70.00,80.00,6.00,2.00,0.90"]
    det_path = tmp_path / "det.txt"
    det_path.write_text("\n".join(lines) + "\n")
    detector = FileDetector(det_path, HEADER, seed=5)
    m, c = HEADER.feature_bins, HEADER.feature_channels
    want = {2: ([[32.0, 42.0, 4.0, 4.0], [73.0, 81.0, 6.0, 2.0]], [1.0, 0.9]),
            4: ([[14.0, 23.0, 8.0, 6.0], [51.0, 64.0, 2.0, 8.0]], [0.5, 0.0]),
            3: ([], [])}
    for frame, (boxes, conf) in want.items():
        dets = detector(frame)
        assert dets.boxes.reshape(-1, 4).tolist() == boxes and dets.conf.tolist() == conf
        patches = [np.random.default_rng([5, frame, i]).standard_normal((m, m, c)) for i in range(len(conf))]
        assert dets.features.shape == (len(conf), m, m, c)
        assert dets.features.tobytes() == np.array(patches).tobytes()


# sha256 of the MOTChallenge bytes of `golden_scenario` under each propagator;
# any change to propagation, association or lifecycle that moves an emitted
# box by 0.01 px or an id shows up here.
GOLDEN_SHA256 = {
    "bboxavg": "01b138fc89ac8bbe299435bbec05d19be87b4ec183176216fe36efb9dcca4ed8",
    "pixelshift": "b8db4e2d267c93102c34338fab09ee9defd7f2d9e74e05588407ac37a141e298",
    "regressor": "106207f4c060f4fd67d42e981c68dbb5a4d45e79be47d16999f38c0433473a15",
}


def golden_scenario():
    script = MotionScript(
        frames=36,
        objects=(
            ObjectScript(id=1, enter=1, exit=36, x=80, y=100, w=32, h=48, vx=3, vy=1),
            ObjectScript(id=2, enter=1, exit=36, x=300, y=200, w=40, h=40, vx=-2),
            ObjectScript(id=3, enter=4, exit=30, x=200, y=80, w=56, h=48, vx=1, vy=2, zoom=1.01),
            ObjectScript(id=4, enter=1, exit=36, x=380, y=300, w=36, h=36, vx=-1.5, vy=-1.25, occlusions=((14, 17),)),
        ),
    )
    return generate_scenario(script, HEADER, seed=13)


@pytest.mark.parametrize("propagator", sorted(GOLDEN_SHA256))
def test_golden_output_digest(tmp_path, head7, propagator):
    sc = golden_scenario()
    regressor, _ = fit_regressor([sc], FitHyper(lr=1.0, epochs=200))
    det_cfg = DetectorConfig(noise_center=0.02, noise_size=0.02, miss_rate=0.1, fp_rate=0.3, feature_noise=0.1, rng_seed=4)
    cfg = TrackerConfig(K=3, propagator=propagator)
    rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(regressor=regressor, affinity=head7))
    out = tmp_path / "out.txt"
    write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[propagator]


# The same digests for association configurations that score appearance on
# every key frame: blended one-step, appearance-only one-step, and two-step
# with the aligned-bin head. The features are noisy enough that appearance
# costs decide matches, so all three outputs differ from each other.
GOLDEN_ASSOC = {
    "onestep-0": (
        dict(propagator="bboxavg", association_mode="onestep", alpha=0.0),
        "f808f9c1548d280d8fd6b4d2d3f0849627fe265494312ad51fb77f568de962b1",
    ),
    "onestep-0.5": (
        dict(propagator="pixelshift", association_mode="onestep", alpha=0.5),
        "c890bdd33dbd6899d196190f800e70b773ce0abf1420a279dbb52401580da721",
    ),
    "twostep-nops": (
        dict(propagator="bboxavg"),
        "f76821ca7c1b298c94e0bbe9fe71987c2fec77e37fc349d0f5b5ad0802827309",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ASSOC))
def test_golden_association_digest(tmp_path, head7, head7_nops, name):
    sc = golden_scenario()
    det_cfg = DetectorConfig(noise_center=0.02, noise_size=0.02, miss_rate=0.1, fp_rate=0.3, feature_noise=0.8, rng_seed=4)
    overrides, digest = GOLDEN_ASSOC[name]
    cfg = TrackerConfig(K=3, **overrides)
    head = head7_nops if name == "twostep-nops" else head7
    rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head))
    out = tmp_path / "out.txt"
    write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_speedup_model_values():
    tm = FrameTimings(t_det=1.0, t_ass=0.0, t_man=0.0, t_pro=0.0, key_frames=10, nonkey_frames=0)
    assert speedup_model(tm, 1) == pytest.approx(1.0)
    # T_pro = (T_det + T_ass) / 10, T_man = 0
    tm = FrameTimings(t_det=0.8, t_ass=0.2, t_man=0.0, t_pro=0.2, key_frames=10, nonkey_frames=20)
    assert speedup_model(tm, 3) == pytest.approx(2.5)
    assert speedup_model(tm, 6) == pytest.approx(4.0)
    assert speedup_model(tm, 1) == pytest.approx(1.0)


def test_speedup_model_rejects_zero_key_time():
    with pytest.raises(ValueError):
        speedup_model(FrameTimings(), 3)


def test_timing_report_written(tmp_path):
    tm = FrameTimings(t_det=0.8, t_ass=0.2, t_man=0.0, t_pro=0.2, key_frames=10, nonkey_frames=20)
    p = tmp_path / "timing.txt"
    write_timing_report(tm, 3, p)
    text = p.read_text()
    assert "speedup_modeled\tK=3\t2.5000" in text


# finite velocities far past any real step, with the three that once raised
# or left the frame: exp overflow, a size flushed to zero, an infinite centre
EXTREME = st.one_of(
    st.sampled_from([720.0, -800.0, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(BBox, st.floats(0, 480), st.floats(0, 360), st.floats(1, 400), st.floats(1, 400)),
            st.tuples(EXTREME, EXTREME, EXTREME, EXTREME),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_box_step_is_total_on_finite_velocities(rows):
    boxes = box_array([b for b, _ in rows])
    v = np.array([v for _, v in rows])
    out = predict_boxes(v, boxes)
    assert np.isfinite(out).all() and (out[:, 2:] > 0).all()

    # the regressor's step: a bias-only head at m = 1 reads its bias out as
    # the velocity of every box that covers a cell center; a head holds
    # values up to MAX_INPUT, still far past the step's own bounds
    frame = MotionFrame(1, "P", np.zeros((2, *HEADER.grid), dtype=np.int32), np.zeros(HEADER.grid))
    cfg = TrackerConfig(propagator="regressor")
    for vel in np.clip(v, -MAX_INPUT, MAX_INPUT):
        step = make_propagator(cfg, TrackerModels(regressor=RegressorParams(np.zeros((4, F_IN)), vel, 1)))
        out = step(boxes, frame, HEADER.block)
        assert np.isfinite(out).all() and (out[:, 2:] > 0).all()


def reads_back(rows) -> bool:
    """Whether `track` rows survive write_motchallenge -> read_mot_table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], path)
        return len(read_mot_table(path).frame) == len(rows)


def test_a_sliver_left_by_the_frame_clip_is_not_emitted():
    # clipped at the left edge, row 7 keeps w = 0.003, which '%.2f' writes
    # as 0.00 and the reader rejects; row 8 keeps about 0.01 and is emitted
    boxes = np.array([[-9.997, 50.0, 20.0, 20.0], [-9.99, 50.0, 20.0, 20.0]])
    n = np.zeros(2, dtype=np.int64)
    tracks = TrackTable(np.array([7, 8]), np.ones(2, dtype=bool), n, n, boxes, n, GalleryStore(1))
    rows = mvtrack.engine._rows(5, tracks, 320, 240)
    assert [(t, i) for t, i, _ in rows] == [(5, 8)]
    assert reads_back(rows)


INT32 = st.one_of(st.sampled_from([-(2**31 - 1), 2**31 - 1, 0]), st.integers(-(2**31 - 1), 2**31 - 1))
GRID = (4, 3)  # of a 64 x 48 frame in 16-pixel blocks


@st.composite
def extreme_runs(draw):
    """Three motion grids of extreme vectors and residuals, up to four
    detection tables of extreme boxes, an association, a propagator, and a
    regressor head of large weights; residuals and weights reach MAX_INPUT."""
    gw, gh = GRID
    mv = [np.array(draw(st.lists(INT32, min_size=2 * gw * gh, max_size=2 * gw * gh)), dtype=np.int32).reshape(2, gw, gh) for _ in range(3)]
    value = st.one_of(st.sampled_from([0.0, 10.0, MAX_INPUT, -MAX_INPUT]), st.floats(-MAX_INPUT, MAX_INPUT))
    residual = [np.array(draw(st.lists(value, min_size=gw * gh, max_size=gw * gh))).reshape(gw, gh) for _ in range(3)]
    coord = st.one_of(st.sampled_from([32.0, -1e308, 1e308, 1e9]), st.floats(-1e308, 1e308))
    side = st.one_of(st.sampled_from([5e-324, 1e308, 20.0]), st.floats(5e-324, 1e308))
    tables = draw(st.lists(st.lists(st.tuples(coord, coord, side, side), max_size=3), min_size=1, max_size=4))
    head = draw(st.lists(value | st.sampled_from([50.0, -50.0]), min_size=16 * (F_IN + 1), max_size=16 * (F_IN + 1)))
    return dict(
        mv=mv, residual=residual, tables=tables, head=head, K=draw(st.sampled_from([3, 12])),
        assoc=draw(st.sampled_from([("onestep", 1.0), ("onestep", 0.5), ("twostep", 0.5)])),
        propagator=draw(st.sampled_from(["bboxavg", "pixelshift", "regressor"])),
    )


# one box seen once, then grown 1e4-fold per step by the regressor's bias
# on vw and vh: its size once overflowed to inf, then nan, mid-run
RUNAWAY = dict(
    mv=[np.zeros((2, *GRID), dtype=np.int32)] * 3, residual=[np.zeros(GRID)] * 3,
    tables=[[(32.0, 24.0, 20.0, 20.0)]] + [[]] * 9, head=[0.0] * (16 * F_IN + 8) + [50.0] * 8,  # W, then the bias
    K=12, assoc=("onestep", 1.0), propagator="regressor",
)


# the head that once read a residual of 10 per cell as an infinite vx, at
# the bound: the largest weight a head may hold, on the residual channel
READOUT_AT_BOUND = dict(
    RUNAWAY, residual=[np.full(GRID, 10.0)] * 3, head=[MAX_INPUT if i == 2 else 0.0 for i in range(16 * (F_IN + 1))],
)


def test_regressor_rejects_parameters_past_the_bound():
    W = np.zeros((4, F_IN))
    W[0, 2] = 1e308  # past the bound, this head's readout overflowed mid-run
    with pytest.raises(ValueError, match=r"regressor parameters must be finite and at most 1e\+100 in magnitude, got 1e\+308"):
        RegressorParams(W, np.zeros(4), 1)
    with pytest.raises(ValueError, match="got nan"):
        RegressorParams(np.zeros((4, F_IN)), np.array([0.0, np.nan, 0.0, 0.0]), 1)
    RegressorParams(np.full((4, F_IN), -MAX_INPUT), np.full(4, MAX_INPUT), 1)


@settings(max_examples=40, deadline=None)
@example(RUNAWAY)
@example(READOUT_AT_BOUND)
@given(extreme_runs())
def test_track_is_total_over_many_steps(run):
    # 120 frames run to the end and every emitted row reads back; P frame t
    # carries the (t mod 3)-th grid, and the k-th key frame the (k mod
    # len)-th table. Unmatched rows live 30 key frames
    gw, gh = GRID
    frames = [
        MotionFrame.intra(t, gw, gh) if t % 12 == 1 else MotionFrame(t, "P", run["mv"][t % 3], run["residual"][t % 3])
        for t in range(1, 121)
    ]
    K, tables = run["K"], run["tables"]

    def detector(t):
        table = tables[(t - 1) // K % len(tables)]
        return Detections(np.array(table, dtype=float).reshape(-1, 4), np.ones(len(table)), np.ones((len(table), 2, 2, 2)))

    mode, alpha = run["assoc"]
    cfg = TrackerConfig(K=K, propagator=run["propagator"], association_mode=mode, alpha=alpha,
                        conf_min=0.5, c_confirm=0.5, l_demote=30, l_delete=30)
    W, bias = np.array(run["head"][:16 * F_IN]).reshape(16, F_IN), np.array(run["head"][16 * F_IN:])
    models = TrackerModels(RegressorParams(W, bias, 2), AffinityHeadParams(8.0, -4.0))
    header = StreamHeader(width=64, height=48, block=16, gop=12, feature_bins=2, feature_channels=2)
    rows, _ = track(Scenario(header, frames, [], {}), detector, cfg, models)
    assert reads_back(rows)


def test_one_step_scores_only_the_cells_the_geometric_gate_leaves_open(head7, monkeypatch):
    # two pairs of objects cross in adjacent lanes; most (object, detection)
    # cells lie too far apart for IoU alone to pass the blended gate. Of the
    # others, a cell alone in its row and column is scored on its newest
    # gallery entry, and on the rest of its gallery only if that fails the
    # gate; every other live cell is scored on its newest entry and on the
    # older ones its gate leaves able to pass, which here are all of them
    frames = 36
    script = MotionScript(
        frames=frames,
        objects=(
            ObjectScript(id=1, enter=1, exit=frames, x=60, y=90, w=64, h=64, vx=4),
            ObjectScript(id=2, enter=1, exit=frames, x=420, y=120, w=64, h=64, vx=-4),
            ObjectScript(id=3, enter=1, exit=frames, x=60, y=240, w=64, h=64, vx=3),
            ObjectScript(id=4, enter=1, exit=frames, x=420, y=270, w=64, h=64, vx=-3),
        ),
    )
    sc = generate_scenario(script, HEADER, seed=4)
    cfg = TrackerConfig(K=3, propagator="pixelshift", association_mode="onestep", alpha=0.5)
    threshold = cfg.alpha * cfg.tau_iou + (1.0 - cfg.alpha) * cfg.tau_app
    counts = Counter()

    statistics = mvtrack.affinity._statistics

    def counting_statistics(entries, dets, mode, pair_entry, *args):
        counts["scored"] += len(pair_entry)
        return statistics(entries, dets, mode, pair_entry, *args)

    associate = mvtrack.engine.associate

    def counting_associate(tracks, detections, params, cfg):
        geometric = cfg.alpha * (1.0 - iou_matrix(box_corners(tracks.boxes), box_corners(detections.boxes)))
        live = ~(geometric > threshold)
        isolated = live & (live.sum(axis=1) == 1)[:, None] & (live.sum(axis=0) == 1)
        lengths = tracks.gallery.lengths(tracks.slots)
        counts["expected"] += int(lengths @ (live & ~isolated).sum(axis=1)) + np.count_nonzero(isolated)
        for i, j in zip(*np.nonzero(isolated)):
            newest = oracles.appearance_cost(params, [gallery(tracks, i)[-1]], detections.features[j])
            if geometric[i, j] + (1.0 - cfg.alpha) * newest > threshold - 1e-12:
                counts["expected"] += int(lengths[i])
                counts["fallbacks"] += 1
        counts["live"] += int(lengths @ live.sum(axis=1))
        counts["all"] += int(lengths.sum()) * len(detections.conf)
        return associate(tracks, detections, params, cfg)

    monkeypatch.setattr(mvtrack.affinity, "_statistics", counting_statistics)
    monkeypatch.setattr(mvtrack.engine, "associate", counting_associate)
    # clean detections leave every live cell isolated; noisy ones, with
    # misses and false positives, leave cells that share a row or a column
    # and isolated cells that fail on their newest entry
    for det_cfg in (DetectorConfig(feature_noise=0.1, rng_seed=3), DetectorConfig(feature_noise=0.5, miss_rate=0.2, fp_rate=1.0, rng_seed=3)):
        counts.clear()
        rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head7))
        assert rows
        assert 0 < counts["scored"] == counts["expected"] < counts["live"] < counts["all"] / 2
    assert counts["fallbacks"] > 0


def test_two_step_gate_skips_entries_that_cannot_pass(head7, monkeypatch):
    # a noisy stream leaves rows with several gallery entries to step 2; the
    # gate skips the entries that cannot pass it, so fewer (entry, detection)
    # pairs are scored than its cells hold, and the rows are those of
    # scoring every pair
    sc = scenario_translation(frames=36)
    det_cfg = DetectorConfig(noise_center=0.03, miss_rate=0.2, fp_rate=1.0, feature_noise=0.1, rng_seed=3)
    cfg = TrackerConfig(K=1, propagator="bboxavg", association_mode="twostep")
    statistics, appearance_cost = mvtrack.affinity._statistics, mvtrack.association.appearance_cost
    runs = {}
    for gated in (True, False):
        counts = Counter()

        def counting_statistics(entries, dets, mode, pair_entry, *args):
            counts["scored"] += len(pair_entry)
            return statistics(entries, dets, mode, pair_entry, *args)

        def counting_cost(params, store, slots, features, live=None, gate=None):
            lengths = store.lengths(slots)
            counts["pairs"] += int(lengths.sum()) * len(features)
            counts["multi-entry cells"] += int(np.count_nonzero(lengths > 1)) * len(features)
            if gated:
                return appearance_cost(params, store, slots, features, live, gate)
            # the reference run leaves the kernel its default gate
            return appearance_cost(params, store, slots, features, live)

        monkeypatch.setattr(mvtrack.affinity, "_statistics", counting_statistics)
        monkeypatch.setattr(mvtrack.association, "appearance_cost", counting_cost)
        rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head7))
        runs[gated] = rows, counts
    (rows, gated), (every_rows, every) = runs[True], runs[False]
    assert rows and rows == every_rows
    assert gated["multi-entry cells"] > 0
    assert gated["scored"] < gated["pairs"] == every["scored"] == every["pairs"]


def patch_counts(arrays) -> Counter:
    return Counter(row.tobytes() for a in arrays for row in np.reshape(a, (len(a), -1)))


@pytest.mark.parametrize("noisy", [True, False])
def test_stored_entries_are_normalized_once_and_only_when_read(head7, monkeypatch, noisy):
    # every patch handed to normalize_channels is counted, as the benchmark's
    # tracer counts the calls, and the detection patches an appearance call
    # scores are counted apart; what is left came from the gallery store
    normalized, scored = [], []
    normalize, bins = mvtrack.affinity.normalize_channels, mvtrack.affinity._bins

    def counting_normalize(f):
        normalized.append(np.array(f))
        return normalize(f)

    def counting_bins(patches):
        scored.append(np.array(patches))
        return bins(patches)

    monkeypatch.setattr(mvtrack.affinity, "normalize_channels", counting_normalize)
    monkeypatch.setattr(mvtrack.affinity, "_bins", counting_bins)
    sc = scenario_translation(frames=36)
    if noisy:
        det_cfg = DetectorConfig(noise_center=0.03, miss_rate=0.2, fp_rate=1.0, feature_noise=0.1, rng_seed=3)
    else:
        # every detection confirms at birth, so step 1 matches each one by IoU
        det_cfg = DetectorConfig(noise_center=0.01, conf_min=0.995, feature_noise=0.1, rng_seed=3)
    cfg = TrackerConfig(K=3, propagator="bboxavg", association_mode="twostep", conf_min=det_cfg.conf_min)
    rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, TrackerModels(affinity=head7))
    assert rows
    stored = patch_counts(normalized) - patch_counts(scored)
    if noisy:
        # step 2 reads stored entries, each one the first time only; a patch
        # is normalized at most once as a detection and once as an entry
        assert max(patch_counts(normalized).values()) == 2
        assert stored and max(stored.values()) == 1
    else:
        assert not normalized
