import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oracles import BBox
from mvtrack.model import MAX_INPUT, MotionFrame, box_corners
from mvtrack.stream import (
    DetectorConfig,
    GroundTruthEntry,
    MotionScript,
    ObjectScript,
    OracleDetector,
    Scenario,
    ScenarioFormatError,
    StreamHeader,
    generate_scenario,
    gt_to_rows,
    read_mot_table,
    read_motchallenge,
    read_scenario,
    rows_to_gt,
    write_motchallenge,
    write_scenario,
)

HEADER = StreamHeader(width=192, height=128, block=16, gop=12)


def one_object(frames=12, **kw):
    defaults = dict(id=1, enter=1, exit=frames, x=96, y=64, w=32, h=32)
    defaults.update(kw)
    return MotionScript(frames=frames, objects=(ObjectScript(**defaults),))


def test_gop_layout():
    sc = generate_scenario(one_object(frames=25), HEADER, seed=0)
    kinds = [f.kind for f in sc.frames]
    assert kinds[0] == "I" and kinds[12] == "I" and kinds[24] == "I"
    assert all(k == "P" for i, k in enumerate(kinds) if i % 12 != 0)
    assert [f.index for f in sc.frames] == list(range(25))


def test_static_object_all_zero_motion():
    sc = generate_scenario(one_object(), HEADER, seed=0)
    for fr in sc.frames:
        assert not fr.mv.any()
        assert not fr.residual.any()


def test_translation_blocks_carry_exact_mv():
    sc = generate_scenario(one_object(x=40, y=64, vx=4), HEADER, seed=0)
    gt = {r.frame: BBox(*r.bbox) for r in sc.gt}
    for fr in sc.frames:
        if fr.kind != "P":
            continue
        prev = gt[fr.index]
        # blocks whose centers lie in the previous-frame box
        for bx in range(HEADER.grid[0]):
            for by in range(HEADER.grid[1]):
                cx, cy = (bx + 0.5) * 16, (by + 0.5) * 16
                inside = prev.left <= cx < prev.right and prev.top <= cy < prev.bottom
                assert fr.mv[0, bx, by] == (4 if inside else 0)
                assert fr.mv[1, bx, by] == 0
        assert not fr.residual.any()  # integer displacement: no rounding error


def test_zoom_field_has_positive_divergence():
    sc = generate_scenario(one_object(w=60, h=60, zoom=1.05), HEADER, seed=0)
    fr = sc.frames[5]
    gt = {r.frame: BBox(*r.bbox) for r in sc.gt}
    prev = gt[5]
    bx0 = math.ceil(prev.left / 16 - 0.5)
    bx1 = math.ceil(prev.right / 16 - 0.5) - 1
    dxs = fr.mv[0, bx0 : bx1 + 1, :].astype(float)
    div = np.gradient(dxs, axis=0)
    assert div.mean() > 0


def test_camera_pan_fills_background():
    script = MotionScript(frames=6, objects=(ObjectScript(id=1, enter=1, exit=6, x=96, y=64, w=32, h=32),), camera=(2, -1))
    sc = generate_scenario(script, HEADER, seed=0)
    fr = sc.frames[1]
    assert fr.mv[0, 0, 0] == 2 and fr.mv[1, 0, 0] == -1


def test_rejects_oversized_object():
    with pytest.raises(ValueError, match="larger than the frame"):
        generate_scenario(one_object(w=500), HEADER, seed=0)


def test_rejects_object_that_shrinks_to_nothing():
    # the size at exit underflows to 0; sizes are monotone, so the
    # endpoints are the frames to check
    with pytest.raises(ValueError, match=r"^object 1: box size must be positive, got w=0.0 h=0.0$"):
        generate_scenario(one_object(frames=60, zoom=1e-10), HEADER, seed=0)


def test_occluded_blocks_lose_motion_and_gain_residual():
    sc = generate_scenario(one_object(x=40, y=64, vx=4, occlusions=((5, 8),)), HEADER, seed=0)
    gt = {r.frame: r for r in sc.gt}
    assert not gt[6].visible and gt[4].visible
    fr = sc.frames[5]  # bridges engine frames 5 -> 6, both occluded or entering occlusion
    prev = BBox(*gt[5].bbox)
    bx = int(prev.x // 16)
    by = int(prev.y // 16)
    assert fr.mv[0, bx, by] == 0  # background motion, not the object's
    assert fr.residual[bx, by] == pytest.approx(0.5)


def test_generator_determinism(tmp_path):
    script = one_object(x=50, y=50, vx=3, vy=1)
    a = generate_scenario(script, HEADER, seed=5)
    b = generate_scenario(script, HEADER, seed=5)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_scenario(a, pa)
    write_scenario(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = generate_scenario(script, HEADER, seed=6)
    assert c.feature_seeds != a.feature_seeds


def test_feature_of_determinism_and_shape():
    sc = generate_scenario(one_object(), HEADER, seed=3)
    f1 = sc.feature_of(1, 0.0)
    f2 = sc.feature_of(1, 0.0)
    assert f1.shape == (7, 7, 16)  # (m, m, c)
    np.testing.assert_array_equal(f1, f2)
    with pytest.raises(ValueError):
        sc.feature_of(99, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2**62), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
    st.sampled_from([0.0, 0.05, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_feature_of_cache_matches_uncached_oracle_bit_for_bit(seeds, ids, noise, rng_seed):
    sc = Scenario(HEADER, [], [], dict(enumerate(seeds)))
    fresh = Scenario(HEADER, [], [], dict(enumerate(seeds)))
    rng, oracle_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    for obj_id in ids:
        if obj_id >= len(seeds):
            with pytest.raises(ValueError, match="no latent feature seed"):
                sc.feature_of(obj_id, noise, rng)
            continue
        got = sc.feature_of(obj_id, noise, rng)
        want = oracles.feature_of(sc, obj_id, noise, oracle_rng)
        assert got.shape == want.shape == (7, 7, 16)
        assert got.tobytes() == want.tobytes()
        got += 1.0  # a caller's patch is its own: the next call must not see this
    # the same draws from the caller's rng, in the same order
    assert rng.random() == oracle_rng.random()
    with pytest.raises(ValueError, match="an rng is required"):
        sc.feature_of(0, 0.5)
    # the cache is not part of the scenario's value
    assert sc == fresh and repr(sc) == repr(fresh)


def test_feature_cosine_structure():
    # same id ~ 1, different ids ~ 0 as c grows: Monte Carlo over 1000 id pairs
    header = StreamHeader(width=192, height=128, block=16, gop=12, feature_channels=64)
    objs = tuple(ObjectScript(id=i, enter=1, exit=2, x=50 + i % 5, y=50, w=16, h=16) for i in range(1, 61))
    sc = generate_scenario(MotionScript(frames=2, objects=objs), header, seed=11)
    rng = np.random.default_rng(0)
    same, diff = [], []
    ids = list(range(1, 61))
    for _ in range(1000):
        i, j = rng.choice(ids, size=2, replace=False)
        a = sc.feature_of(int(i), 0.05, rng).ravel()
        a2 = sc.feature_of(int(i), 0.05, rng).ravel()
        d = sc.feature_of(int(j), 0.05, rng).ravel()
        same.append(a @ a2 / np.linalg.norm(a) / np.linalg.norm(a2))
        diff.append(a @ d / np.linalg.norm(a) / np.linalg.norm(d))
    assert np.mean(same) > 0.95
    assert abs(np.mean(diff)) < 0.05


def test_oracle_noiseless_matches_gt():
    sc = generate_scenario(one_object(x=50, y=50, vx=3), HEADER, seed=1)
    dets = OracleDetector(sc, DetectorConfig(rng_seed=0))(4)
    gt4 = [r for r in sc.gt if r.frame == 4]
    assert len(dets.conf) == 1
    assert dets.boxes[0, :2].tolist() == list(gt4[0].bbox[:2])
    assert 0.95 <= dets.conf[0] <= 1.0


def test_oracle_miss_rate_one_empty():
    sc = generate_scenario(one_object(), HEADER, seed=1)
    assert len(OracleDetector(sc, DetectorConfig(miss_rate=1.0))(1).conf) == 0


def test_oracle_never_emits_occluded():
    sc = generate_scenario(one_object(occlusions=((3, 6),)), HEADER, seed=1)
    detector = OracleDetector(sc, DetectorConfig())
    assert len(detector(4).conf) == 0
    assert len(detector(2).conf) == 1


def test_oracle_miss_rate_expectation():
    # 10 objects, miss_rate 0.3: mean detections over many trials = 7.0 +- 0.5
    objs = tuple(ObjectScript(id=i, enter=1, exit=2, x=20 + 15 * i, y=60, w=12, h=12) for i in range(1, 11))
    header = StreamHeader(width=640, height=128, block=16, gop=12)
    sc = generate_scenario(MotionScript(frames=2, objects=objs), header, seed=0)
    counts = [
        len(OracleDetector(sc, DetectorConfig(miss_rate=0.3, rng_seed=seed))(1).conf) for seed in range(1000)
    ]
    assert np.mean(counts) == pytest.approx(7.0, abs=0.5)


def test_oracle_fp_rate_poisson_mean():
    sc = generate_scenario(one_object(), HEADER, seed=0)
    counts = [
        len(OracleDetector(sc, DetectorConfig(miss_rate=1.0, fp_rate=2.0, rng_seed=seed))(1).conf)
        for seed in range(500)
    ]
    assert np.mean(counts) == pytest.approx(2.0, abs=0.3)


def test_oracle_deterministic_per_frame():
    sc = generate_scenario(one_object(), HEADER, seed=0)
    cfg = DetectorConfig(noise_center=0.05, feature_noise=0.1, rng_seed=9)
    a = OracleDetector(sc, cfg)(4)
    b = OracleDetector(sc, cfg)(4)
    for column_a, column_b in zip(a, b):
        assert column_a.tobytes() == column_b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_objects=st.integers(0, 5),
    miss_rate=st.sampled_from([0.0, 0.3, 1.0]),
    fp_rate=st.sampled_from([0.0, 0.7, 3.0]),
    noise=st.sampled_from([0.0, 0.05]),
    feature_noise=st.sampled_from([0.0, 0.1]),
    conf_min=st.sampled_from([0.5, 0.95]),
)
def test_oracle_detector_matches_per_row_oracle(seed, n_objects, miss_rate, fp_rate, noise, feature_noise, conf_min):
    # shuffled ground-truth rows and occlusions, so the id sort and the
    # visibility filter both matter; frame 9 is past the script and has no
    # ground truth
    rng = np.random.default_rng(seed)
    frames = 8
    objs = []
    for obj_id in rng.permutation(np.arange(1, 40))[:n_objects].tolist():
        enter = int(rng.integers(1, frames + 1))
        start = int(rng.integers(1, frames + 1))
        objs.append(ObjectScript(
            id=obj_id, enter=enter, exit=int(rng.integers(enter, frames + 1)),
            x=float(rng.uniform(10, 180)), y=float(rng.uniform(10, 120)),
            w=float(rng.uniform(6, 40)), h=float(rng.uniform(6, 40)),
            vx=float(rng.uniform(-3, 3)), vy=float(rng.uniform(-3, 3)),
            occlusions=((start, start + 1),) if rng.random() < 0.5 else (),
        ))
    sc = generate_scenario(MotionScript(frames=frames, objects=tuple(objs)), HEADER, seed=seed)
    sc.gt = [sc.gt[i] for i in rng.permutation(len(sc.gt))]
    cfg = DetectorConfig(noise_center=noise, noise_size=noise, miss_rate=miss_rate, fp_rate=fp_rate,
                         feature_noise=feature_noise, conf_min=conf_min, rng_seed=seed)
    calls = []
    feature_of = sc.feature_of
    sc.feature_of = lambda *args: calls.append(args[0]) or feature_of(*args)
    detector = OracleDetector(sc, cfg)
    m, c = HEADER.feature_bins, HEADER.feature_channels
    for t in range(1, frames + 2):
        calls.clear()
        got = detector(t)
        got_calls = list(calls)
        calls.clear()
        want = oracles.oracle_detect(sc, t, cfg)
        assert got_calls == calls
        n = len(want)
        assert (got.boxes.shape, got.conf.shape, got.features.shape) == ((n, 4), (n,), (n, m, m, c))
        assert got.boxes.tobytes() == np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in want]).reshape(-1, 4).tobytes()
        assert got.conf.tobytes() == np.array([d.confidence for d in want], dtype=float).tobytes()
        assert got.features.tobytes() == np.array([d.feature for d in want]).reshape(-1, m, m, c).tobytes()


def test_oracle_detector_empty_frame_shapes():
    sc = generate_scenario(one_object(occlusions=((3, 6),)), HEADER, seed=1)
    m, c = HEADER.feature_bins, HEADER.feature_channels
    for dets in (OracleDetector(sc, DetectorConfig())(4), OracleDetector(sc, DetectorConfig(miss_rate=1.0))(1)):
        assert (dets.boxes.shape, dets.conf.shape, dets.features.shape) == ((0, 4), (0,), (0, m, m, c))


# --- scenario container I/O ---


def test_scenario_round_trip_byte_identical(tmp_path):
    sc = generate_scenario(one_object(x=50.25, y=60.5, vx=2, zoom=1.01), HEADER, seed=4)
    p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    write_scenario(sc, p1)
    back = read_scenario(p1)
    write_scenario(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.header == sc.header
    assert back.feature_seeds == sc.feature_seeds
    assert len(back.gt) == len(sc.gt)
    for a, b in zip(back.frames, sc.frames):
        assert a.kind == b.kind
        np.testing.assert_array_equal(a.mv, b.mv)
        np.testing.assert_array_equal(a.residual, b.residual)


def test_truncated_file_names_last_complete_frame(tmp_path):
    sc = generate_scenario(one_object(), HEADER, seed=4)
    p = tmp_path / "s.txt"
    write_scenario(sc, p)
    lines = p.read_text().splitlines()
    # cut in the middle of frame 5's records (frame 5 line is followed by mv/res)
    idx = lines.index("frame 5 P")
    (tmp_path / "cut.txt").write_text("\n".join(lines[: idx + 2]) + "\n")
    with pytest.raises(ScenarioFormatError, match="last complete frame is 4"):
        read_scenario(tmp_path / "cut.txt")


@pytest.mark.parametrize(
    "lineno, record, message",
    [
        (5, "gt 1 1 96.0 64.0 32.0", "line 5: malformed ground-truth record"),
        (4, "seed 1", "line 4: malformed seed record"),
        (6, "gt 2 1 96.0 64.0 0.0 32.0 1", "line 6: malformed ground-truth record: box size must be positive"),
        (6, "gt 2 1 nan 64.0 32.0 32.0 1", "line 6: malformed ground-truth record: non-finite number"),
        (7, "gt 99 1 96.0 64.0 32.0 32.0 1", "line 7: ground-truth frame 99 outside 1..12"),
        (8, "gt 4 7 96.0 64.0 32.0 32.0 1", "line 8: ground-truth id 7 has no feature seed"),
    ],
)
def test_bad_seed_or_gt_record_names_line(tmp_path, lineno, record, message):
    p = tmp_path / "s.txt"
    write_scenario(generate_scenario(one_object(), HEADER, seed=4), p)
    lines = p.read_text().splitlines()
    assert lines[lineno - 1].split()[0] == record.split()[0]
    lines[lineno - 1] = record
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioFormatError, match=message):
        read_scenario(tmp_path / "bad.txt")


def test_gop_rule_enforced_on_read(tmp_path):
    sc = generate_scenario(one_object(frames=13), HEADER, seed=4)
    p = tmp_path / "s.txt"
    write_scenario(sc, p)
    text = p.read_text().replace("frame 12 I", "frame 12 P")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(ScenarioFormatError, match="frame 12"):
        read_scenario(tmp_path / "bad.txt")


def test_malformed_header(tmp_path):
    (tmp_path / "bad.txt").write_text("not a scenario\n")
    with pytest.raises(ScenarioFormatError, match="malformed header"):
        read_scenario(tmp_path / "bad.txt")


def test_non_monotone_frame_index(tmp_path):
    sc = generate_scenario(one_object(), HEADER, seed=4)
    p = tmp_path / "s.txt"
    write_scenario(sc, p)
    text = p.read_text().replace("frame 3 P", "frame 7 P")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(ScenarioFormatError, match="expected 3, got 7"):
        read_scenario(tmp_path / "bad.txt")


def test_grid_mismatch(tmp_path):
    sc = generate_scenario(one_object(), HEADER, seed=4)
    p = tmp_path / "s.txt"
    write_scenario(sc, p)
    lines = p.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("mv "))
    lines[idx] = lines[idx] + " 0 0"
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioFormatError, match="grid size mismatch"):
        read_scenario(tmp_path / "bad.txt")


def _first_line(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _set_token(k, value):
    def edit(line):
        parts = line.split(" ")
        parts[k] = value
        return " ".join(parts)

    return edit


@pytest.mark.parametrize(
    "prefix, edit, message",
    [
        ("header ", _set_token(3, "16 12"), "malformed header: 'header' record has 8 fields, expected 7"),
        ("header ", _set_token(5, "nan"), "malformed header: fps must be positive and finite"),
        ("counts ", _set_token(2, "x"), "malformed header: invalid literal"),
        ("counts ", _set_token(3, "-1"), "malformed header: negative count"),
        ("seed ", _set_token(2, "-5"), "malformed seed record: negative seed -5"),
        ("seed ", _set_token(0, "sed"), "malformed seed record: missing 'seed' record"),
        ("gt ", _set_token(0, "gx"), "expected a ground-truth record, got 'gx 1 1 "),
        ("frame 1 ", _set_token(1, "x"), "malformed frame record: invalid literal"),
        ("frame 1 ", lambda line: "frame 1", "malformed frame record: 'frame' record has 1 fields, expected 2"),
        ("frame 2 ", lambda line: line + " P", "malformed frame record: 'frame' record has 3 fields"),
        ("gt ", _set_token(7, "2"), "malformed ground-truth record: visibility must be 0 or 1, got 2"),
        ("gt ", _set_token(7, "yes"), "malformed ground-truth record: could not convert string 'yes' to int64"),
        ("mv ", _set_token(5, "0.5"), "malformed mv record: could not convert string '0.5' to int32"),
        ("mv ", _set_token(5, "#"), "malformed mv record: could not convert string '#' to int32"),
        ("mv ", _set_token(5, "99999999999"), "malformed mv record: could not convert string '99999999999' to int32"),
        ("mv ", lambda line: "mv ", "malformed mv record: no values"),
        ("mv ", lambda line: line + " 1 1", "grid size mismatch: 194 values, header grid 12x8 needs 192"),
        ("res ", _set_token(3, "x"), "malformed res record: could not convert string 'x' to float64"),
        ("res ", _set_token(3, "nan"), "malformed res record: non-finite residual"),
        ("res ", _set_token(3, "-inf"), "malformed res record: non-finite residual"),
        ("res ", _set_token(3, "1e308"), r"malformed res record: non-finite residual or one above 1e\+100 in magnitude"),
        ("res ", _set_token(0, "mv"), "frame 1: expected res record, got 'mv 0.0 0.0 "),
        ("end", lambda line: "end 1", "expected 'end' after frame 11, got 'end 1'"),
    ],
)
def test_malformed_record_names_line(tmp_path, prefix, edit, message):
    p = tmp_path / "s.txt"
    write_scenario(generate_scenario(one_object(), HEADER, seed=4), p)
    lines = p.read_text().splitlines()
    i = _first_line(lines, prefix)
    lines[i] = edit(lines[i])
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioFormatError, match=f"^line {i + 1}: {message}"):
        read_scenario(tmp_path / "bad.txt")


def test_all_blank_table_raises_without_numpy_warning(tmp_path):
    # every mv record blank: the bulk parse must not reach np.loadtxt's
    # "input contained no data" warning before the error names the line
    p = tmp_path / "s.txt"
    script = MotionScript(frames=2, objects=(ObjectScript(id=1, enter=1, exit=2, x=64, y=64, w=32, h=32, vx=2),))
    write_scenario(generate_scenario(script, HEADER, seed=4), p)
    lines = p.read_text().splitlines()
    i = _first_line(lines, "mv ")
    lines[i] = "mv "
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioFormatError, match=f"^line {i + 1}: malformed mv record: no values"):
            read_scenario(tmp_path / "bad.txt")


def test_duplicate_seed_id_names_line(tmp_path):
    script = MotionScript(frames=3, objects=tuple(ObjectScript(id=i, enter=1, exit=3, x=40 * i, y=64, w=32, h=32) for i in (1, 2)))
    p = tmp_path / "s.txt"
    write_scenario(generate_scenario(script, HEADER, seed=4), p)
    (tmp_path / "bad.txt").write_text(p.read_text().replace("seed 2 ", "seed 1 "))
    with pytest.raises(ScenarioFormatError, match="^line 5: malformed seed record: duplicate id 1"):
        read_scenario(tmp_path / "bad.txt")


def test_repeated_ground_truth_frame_and_id_names_line_of_the_repeat(tmp_path):
    # gt rows are lines 6-11: (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2);
    # line 10 becomes a second (2, 2) row, after the first on line 9
    script = MotionScript(frames=3, objects=tuple(ObjectScript(id=i, enter=1, exit=3, x=40 * i, y=64, w=32, h=32) for i in (1, 2)))
    p = tmp_path / "s.txt"
    write_scenario(generate_scenario(script, HEADER, seed=4), p)
    lines = p.read_text().splitlines()
    assert lines[9].startswith("gt 3 1 ")
    lines[9] = lines[9].replace("gt 3 1 ", "gt 2 2 ")
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    message = "line 10: duplicate ground-truth id 2 in frame 2"
    for reader in (read_scenario, oracles.read_scenario):
        with pytest.raises(ScenarioFormatError) as exc:
            reader(tmp_path / "bad.txt")
        assert str(exc.value) == message


def _scenario_bytes(sc, path):
    write_scenario(sc, path)
    return path.read_bytes()


_SMALL = StreamHeader(width=64, height=48, block=16, gop=3, feature_channels=2, feature_bins=1)
_TOKENS = ["", "x", "#", "0", "1", "2", "-1", "+1", "0.5", "-0.0", "1e308", "1e309", "nan", "inf", "-inf",
           "99999999999", "1_0", "0x10", "I", "P", "gt", "mv", "res", "frame", "end", "seed"]


def _small_scenario_text(tmp_path_factory):
    script = MotionScript(frames=5, objects=(
        ObjectScript(id=1, enter=1, exit=5, x=20, y=20, w=16, h=16, vx=3.5, vy=1),
        ObjectScript(id=2, enter=2, exit=4, x=44, y=30, w=12, h=14, vx=-2, occlusions=((3, 3),)),
    ))
    p = tmp_path_factory.mktemp("small") / "s.txt"
    write_scenario(generate_scenario(script, _SMALL, seed=3), p)
    return p.read_text()


@st.composite
def corruptions(draw, text):
    """The file with one line deleted, cut, replaced or changed in one token."""
    lines = text.split("\n")[:-1]
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "truncate", "replace", "token", "insert", "drop"]))
    if op == "delete":
        lines.pop(i)
    elif op == "truncate":
        lines = lines[:i] + [lines[i][: draw(st.integers(0, len(lines[i])))]]
    elif op == "replace":
        lines[i] = draw(st.text(alphabet="0123456789 .-+#eginfmvrsadtxIP", max_size=30))
    else:
        parts = lines[i].split(" ")
        k = draw(st.integers(0, len(parts) - 1))
        token = draw(st.sampled_from(_TOKENS) | st.text(alphabet="0123456789.-e", max_size=6))
        if op == "token":
            parts[k] = token
        elif op == "insert":
            parts.insert(k, token)
        else:
            parts.pop(k)
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def test_single_line_corruption_raises_or_round_trips(tmp_path_factory):
    text = _small_scenario_text(tmp_path_factory)
    work = tmp_path_factory.mktemp("corrupt")

    @settings(max_examples=400, deadline=None)
    @given(corruptions(text))
    def check(corrupted):
        src = work / "in.txt"
        src.write_text(corrupted)
        try:
            sc = read_scenario(src)
        except ScenarioFormatError:
            return
        once = _scenario_bytes(sc, work / "once.txt")
        again = read_scenario(work / "once.txt")
        assert _scenario_bytes(again, work / "again.txt") == once
        assert again.header == sc.header and again.feature_seeds == sc.feature_seeds and again.gt == sc.gt
        for a, b in zip(again.frames, sc.frames, strict=True):
            assert (a.index, a.kind) == (b.index, b.kind)
            assert a.mv.tobytes() == b.mv.tobytes() and a.residual.tobytes() == b.residual.tobytes()

    check()


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1]


@st.composite
def hand_built(draw):
    """A scenario with arbitrary int32 motion vectors, float64 residuals up to
    MAX_INPUT in magnitude and gt boxes; a (frame, id) appears in at most one
    gt row, as a file requires."""
    gw, gh, gop = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = StreamHeader(width=16 * gw - draw(st.integers(0, 15)), height=16 * gh, block=16, gop=gop)
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL)
    residuals = st.floats(-MAX_INPUT, MAX_INPUT) | st.sampled_from([v for v in _SPECIAL if abs(v) <= 1] + [MAX_INPUT, -MAX_INPUT])
    frames = []
    for j in range(draw(st.integers(1, 7))):
        if j % gop == 0:
            frames.append(MotionFrame.intra(j, gw, gh))
        else:
            mv = draw(arrays(np.int32, (2, gw, gh)))
            res = draw(arrays(np.float64, (gw, gh), elements=residuals))
            frames.append(MotionFrame(j, "P", mv, res))
    seeds = draw(st.dictionaries(st.integers(-2**62, 2**62), st.integers(0, 2**62), min_size=1, max_size=3))
    sizes = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    gt = draw(st.lists(st.builds(
        GroundTruthEntry,
        st.integers(1, len(frames)),
        st.sampled_from(sorted(seeds)),
        st.builds(BBox, floats, floats, sizes, sizes),
        st.booleans(),
    ), max_size=6, unique_by=lambda r: (r.frame, r.id)))
    return Scenario(header, frames, gt, seeds)


def test_reader_matches_per_token_oracle_bit_for_bit(tmp_path_factory):
    work = tmp_path_factory.mktemp("differential")

    @settings(max_examples=150, deadline=None)
    @given(hand_built())
    def check(sc):
        p = work / "s.txt"
        write_scenario(sc, p)
        new, old = read_scenario(p), oracles.read_scenario(p)
        assert new.header == old.header == sc.header
        assert new.feature_seeds == old.feature_seeds == sc.feature_seeds
        boxes = lambda s: [(r.frame, r.id, r.visible, *map(float.hex, r.bbox)) for r in s.gt]
        assert boxes(new) == boxes(old) == boxes(sc)
        for a, b, c in zip(new.frames, old.frames, sc.frames, strict=True):
            assert (a.index, a.kind) == (b.index, b.kind) == (c.index, c.kind)
            assert a.mv.dtype == b.mv.dtype == np.int32 and a.residual.dtype == b.residual.dtype == np.float64
            assert a.mv.tobytes() == b.mv.tobytes() == c.mv.tobytes()
            assert a.residual.tobytes() == b.residual.tobytes() == c.residual.tobytes()

    check()


# --- MOTChallenge files ---


def test_motchallenge_line_format(tmp_path):
    p = tmp_path / "r.txt"
    write_motchallenge([(1, 1, BBox(10, 10, 4, 8), 1.0)], p)
    assert p.read_text() == "1,1,8.00,6.00,4.00,8.00,1.00,-1,-1,-1\n"


def test_motchallenge_empty(tmp_path):
    p = tmp_path / "empty.txt"
    write_motchallenge([], p)
    assert p.read_text() == ""
    assert read_motchallenge(p) == []


def test_motchallenge_round_trip(tmp_path):
    rows = [
        (1, 1, (10.0, 10.0, 4.0, 8.0), 1.0),
        (2, 1, (12.5, 9.25, 4.0, 8.5), 0.75),
        (2, 3, (100.0, 50.0, 20.0, 30.0), 1.0),
    ]
    p = tmp_path / "r.txt"
    write_motchallenge(rows, p)
    back = read_motchallenge(p)
    assert back == rows
    assert [tuple(map(type, row)) for row in back] == [(int, int, tuple, float)] * 3
    assert [tuple(map(type, box)) for _, _, box, _ in back] == [(float,) * 4] * 3


@pytest.mark.parametrize("box, shown", [((10.0, 10.0, 0.0, 8.0), "w=0.0 h=8.0"), ((10.0, 10.0, 4.0, math.nan), "w=4.0 h=nan")])
def test_motchallenge_writer_rejects_box_without_positive_size(tmp_path, box, shown):
    p = tmp_path / "r.txt"
    with pytest.raises(ValueError, match=f"^box size must be positive, got {shown}$"):
        write_motchallenge([(1, 1, (10.0, 10.0, 4.0, 8.0), 1.0), (2, 1, box, 1.0)], p)
    assert not p.exists()


def test_motchallenge_rejects_frame_zero(tmp_path):
    with pytest.raises(ValueError, match="1-based"):
        write_motchallenge([(0, 1, BBox(10, 10, 4, 8), 1.0)], tmp_path / "r.txt")


def test_motchallenge_malformed_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1,1,8.00,6.00,4.00,8.00,1.00,-1,-1,-1\n1,2,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        read_motchallenge(p)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2,nan,6.00,4.00,8.00,1.00,-1,-1,-1", "line 2: non-finite"),
        ("1,2,8.00,6.00,inf,8.00,1.00,-1,-1,-1", "line 2: non-finite"),
        ("1,2,8.00,6.00,0.00,8.00,1.00,-1,-1,-1", "line 2: box size must be positive"),
        ("1,2,8.00,6.00,4.00,-8.00,1.00,-1,-1,-1", "line 2: box size must be positive"),
        ("0,2,8.00,6.00,4.00,8.00,1.00,-1,-1,-1", "line 2: MOTChallenge frames are 1-based, got 0"),
        ("-4,2,8.00,6.00,4.00,8.00,1.00,-1,-1,-1", "line 2: MOTChallenge frames are 1-based, got -4"),
    ],
)
def test_motchallenge_rejects_bad_numbers(tmp_path, row, message):
    p = tmp_path / "bad.txt"
    p.write_text("1,1,8.00,6.00,4.00,8.00,1.00,-1,-1,-1\n" + row + "\n")
    with pytest.raises(ValueError, match=message):
        read_motchallenge(p)


_MOT_FIELDS = ["1", "2", "-3", "12", "8.00", "-1", "0", "0.00", "1e308", "5e-324", "-0.0", "nan", "inf", "x", ""]


@st.composite
def motchallenge_texts(draw):
    """MOTChallenge text: rows of 7 to 10 fields, some of them blank, whitespace or bad."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "space", "short", "token"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        else:
            ints = [str(draw(st.integers(-5, 2**40))) for _ in range(2)]
            floats = [repr(draw(st.floats(min_value=1e-300, max_value=1e300))) for _ in range(5)]
            fields = ints + floats + ["-1"] * draw(st.integers(0, 3))
            if kind == "short":
                fields = fields[: draw(st.integers(1, 6))]
            elif kind == "token":
                fields[draw(st.integers(0, 6))] = draw(st.sampled_from(_MOT_FIELDS))
            lines.append(",".join(fields))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


def test_motchallenge_reader_matches_per_token_oracle(tmp_path_factory):
    p = tmp_path_factory.mktemp("mot") / "r.txt"

    @settings(max_examples=300, deadline=None)
    @given(motchallenge_texts())
    def check(text):
        p.write_text(text)
        try:
            old = oracles.read_motchallenge(p)
        except ValueError as exc:
            with pytest.raises(ValueError) as new_exc:
                read_motchallenge(p)
            assert str(new_exc.value).split(":")[0] == str(exc).split(":")[0]  # the same "line N"
            return
        new = read_motchallenge(p)
        assert new == old
        key = lambda rows: [(f, i, *map(float.hex, (*b, c))) for f, i, b, c in rows]
        assert key(new) == key(old)
        assert box_corners(read_mot_table(p).boxes).tolist() == [list(b.corners()) for _, _, b, _ in old]

    check()


def test_gt_rows_round_trip(tmp_path):
    sc = generate_scenario(one_object(occlusions=((3, 4),)), HEADER, seed=2)
    p = tmp_path / "gt.txt"
    write_motchallenge(gt_to_rows(sc.gt), p)
    back = rows_to_gt(read_motchallenge(p))
    assert [(g.frame, g.id, g.visible) for g in back] == [(g.frame, g.id, g.visible) for g in sc.gt]
