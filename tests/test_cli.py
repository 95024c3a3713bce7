import contextlib
import io
import json
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mvtrack.cli
import mvtrack.metrics
import oracles
from mvtrack.affinity import AffinityHeadParams
from mvtrack.cli import METRIC_COLUMNS, _metric_row, delayed, main
from mvtrack.engine import TrackerModels
from mvtrack.modelio import read_models, write_models
from mvtrack.motion import F_IN, RegressorParams
from mvtrack.stream import GroundTruthEntry, gt_to_rows, read_mot_table, read_motchallenge, read_scenario, write_motchallenge
from test_metrics import scripts


def write_script(path, frames=36, objects=None, camera=(0, 0)):
    if objects is None:
        objects = [
            {"id": 1, "x": 80, "y": 100, "w": 32, "h": 48, "vx": 3, "vy": 1},
            {"id": 2, "x": 300, "y": 200, "w": 40, "h": 40, "vx": -2},
        ]
    path.write_text(json.dumps({"frames": frames, "camera": list(camera), "objects": objects}, indent=1))
    return path


def test_models_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = 3
    models = TrackerModels(
        regressor=RegressorParams(rng.standard_normal((4 * m * m, F_IN)), rng.standard_normal(4 * m * m), m),
        affinity=AffinityHeadParams(12.345678901234567, -8.87654321, "withps"),
    )
    p = tmp_path / "models.txt"
    write_models(models, p)
    back = read_models(p)
    np.testing.assert_array_equal(back.regressor.W, models.regressor.W)
    np.testing.assert_array_equal(back.regressor.bias, models.regressor.bias)
    assert back.affinity == models.affinity
    # exact byte round trip
    p2 = tmp_path / "models2.txt"
    write_models(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_models_file_partial_sections(tmp_path):
    p = tmp_path / "models.txt"
    write_models(TrackerModels(affinity=AffinityHeadParams(3.0, -1.0, "nops")), p)
    back = read_models(p)
    assert back.regressor is None and back.affinity.mode == "nops"


def test_models_file_malformed(tmp_path):
    p = tmp_path / "models.txt"
    p.write_text("garbage\n")
    with pytest.raises(ValueError, match="magic"):
        read_models(p)


@pytest.mark.parametrize(
    "lineno, edit, message",
    [
        (2, lambda l: "regressor 3", "line 2: malformed model file: 'regressor' record has 1 fields, expected 2"),
        (2, lambda l: "regressor 0 7", "line 2: malformed model file: regressor bins must be >= 1, got 0"),
        (2, lambda l: "regressor 1 5", "line 2: malformed model file: model file expects 5 input statistics"),
        (4, lambda l: l.rsplit(" ", 1)[0], "line 4: malformed model file: 'w' record has 6 fields, expected 7"),
        (4, lambda l: l.replace(" 1.0", " x", 1), "line 4: malformed model file: could not convert string to float: 'x'"),
        (4, lambda l: l.replace(" 1.0", " nan", 1), "line 2: malformed model file: regressor parameters must be finite"),
        (4, lambda l: l.replace(" 1.0", " 1e308", 1),
         r"line 2: malformed model file: regressor parameters must be finite and at most 1e\+100 in magnitude, got 1e\+308"),
        (7, lambda l: l.replace(" 0.0", " -1e101", 1), r"line 2: malformed model file: .* at most 1e\+100 in magnitude, got -1e\+101"),
        (7, lambda l: "w" + l[1:], "line 7: malformed model file: missing 'b' record"),
        (7, lambda l: l + " 0.0", "line 7: malformed model file: 'b' record has 5 fields, expected 4"),
        (8, lambda l: "affinity withps 1.0", "line 8: malformed model file: 'affinity' record has 2 fields, expected 3"),
        (8, lambda l: "affinity other 1.0 2.0", "line 8: malformed model file: unknown affinity mode 'other'"),
        (8, lambda l: "affinity withps 1.0 y", "line 8: malformed model file: could not convert string to float: 'y'"),
        (8, lambda l: "bias 1 2", "line 8: malformed model file: unexpected record 'bias'"),
    ],
)
def test_models_file_bad_record_names_line(tmp_path, lineno, edit, message):
    models = TrackerModels(
        regressor=RegressorParams(np.ones((4, F_IN)), np.zeros(4), 1),
        affinity=AffinityHeadParams(3.0, -1.0, "withps"),
    )
    p = tmp_path / "models.txt"
    write_models(models, p)
    lines = p.read_text().splitlines()
    assert [l.split()[0] for l in lines] == ["mvmodels", "regressor", "w", "w", "w", "w", "b", "affinity"]
    lines[lineno - 1] = edit(lines[lineno - 1])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{message}"):
        read_models(p)


def test_generate_deterministic_and_readable(tmp_path, capsys):
    script = write_script(tmp_path / "script.json")
    out1, out2 = tmp_path / "a.scn", tmp_path / "b.scn"
    assert main(["generate", "--script", str(script), "--out", str(out1), "--seed", "7",
                 "--width", "480", "--height", "360"]) == 0
    assert main(["generate", "--script", str(script), "--out", str(out2), "--seed", "7",
                 "--width", "480", "--height", "360"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sc = read_scenario(out1)
    assert sc.n_frames == 36
    assert "36 frames" in capsys.readouterr().out


def test_generate_bad_script_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"frames": 10,\n "objects": [}\n')
    assert main(["generate", "--script", str(bad), "--out", str(tmp_path / "x.scn")]) == 1
    assert "line" in capsys.readouterr().err


def test_generate_check_K_exit_2(tmp_path, capsys):
    script = write_script(tmp_path / "script.json")
    code = main(["generate", "--script", str(script), "--out", str(tmp_path / "x.scn"),
                 "--gop", "12", "--check-K", "5"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--out", "x.scn", "--check-K", "0"], "key-frame period 0 must be a positive divisor of gop 12"),
        (["generate", "--out", "x.scn", "--check-K", "-3"], "key-frame period -3 must be a positive divisor of gop 12"),
        (["bench", "--repeat", "0"], "--repeat must be >= 1, got 0"),
        (["bench", "--repeat", "-1"], "--repeat must be >= 1, got -1"),
        (["generate", "--out", "x.scn", "--width", "0"], "frame dimensions must be positive, got 0x540"),
        (["track", "--out", "x.txt", "--det-miss-rate", "1.5"], "miss_rate must lie in [0,1], got 1.5"),
        (["track", "--out", "x.txt", "--det-fp-rate", "-1"], "fp_rate must be non-negative and finite, got -1.0"),
        (["bench", "--det-noise-center", "inf"], "noise_center must be non-negative and finite, got inf"),
        (["fit", "--target", "regressor", "--out", "m.txt", "--lr", "nan"], "--lr must be positive and finite, got nan"),
        (["fit", "--target", "regressor", "--out", "m.txt", "--lr", "0"], "--lr must be positive and finite, got 0.0"),
        (["fit", "--target", "regressor", "--out", "m.txt", "--epochs", "-3"], "--epochs must be >= 0, got -3"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--holdout", "1.5"], "--holdout must lie in (0, 1), got 1.5"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--holdout", "0"], "--holdout must lie in (0, 1), got 0.0"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--pairs-per-id", "0"], "--pairs-per-id must be >= 1, got 0"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--feature-noise", "-0.1"], "--feature-noise must be non-negative and finite, got -0.1"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--feature-noise", "nan"], "--feature-noise must be non-negative and finite, got nan"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--feature-noise", "inf"], "--feature-noise must be non-negative and finite, got inf"),
        (["fit", "--target", "affinity", "--out", "m.txt", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["generate", "--out", "x.scn", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["evaluate", "--iou-min", "0"], "iou_min must be finite and lie in (0, 1], got 0.0"),
        (["evaluate", "--iou-min", "nan"], "iou_min must be finite and lie in (0, 1], got nan"),
        (["track", "--out", "x.txt", "--alpha", "1.5"], "alpha must lie in [0,1], got 1.5"),
        (["bench", "--K-list", "0"], "K must be >= 1, got 0"),
        (["bench", "--K-list", "3", "-2"], "K must be >= 1, got -2"),
    ],
)
def test_nonpositive_check_K_and_repeat_exit_2_before_reading(tmp_path, capsys, argv, message):
    # the input paths do not exist: the flag is rejected before any file is read
    missing = str(tmp_path / "missing")
    flags = {"generate": ["script"], "fit": ["scenarios"], "evaluate": ["gt", "results"]}.get(argv[0], ["scenario"])
    inputs = [arg for flag in flags for arg in ("--" + flag, missing)]
    assert main([*argv, *inputs]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_fit_track_evaluate_pipeline(tmp_path, capsys):
    # generate training + tracking scenarios, fit both models, track, evaluate
    train_script = write_script(
        tmp_path / "train.json",
        frames=25,
        objects=[
            {"id": 1, "x": 150, "y": 120, "w": 48, "h": 48, "vx": 2, "vy": 1},
            {"id": 2, "x": 320, "y": 240, "w": 48, "h": 48, "vx": -2, "vy": 0},
            {"id": 3, "x": 240, "y": 100, "w": 48, "h": 48, "vx": 0, "vy": 2},
        ],
    )
    track_script = write_script(
        tmp_path / "track.json",
        frames=36,
        objects=[
            {"id": 1, "x": 100, "y": 120, "w": 48, "h": 48, "vx": 2, "vy": 1},
            {"id": 2, "x": 360, "y": 240, "w": 48, "h": 48, "vx": -2},
        ],
    )
    train_scn = tmp_path / "train.scn"
    track_scn = tmp_path / "track.scn"
    for script, scn in ((train_script, train_scn), (track_script, track_scn)):
        assert main(["generate", "--script", str(script), "--out", str(scn),
                     "--width", "480", "--height", "360", "--seed", "3"]) == 0

    models = tmp_path / "models.txt"
    assert main(["fit", "--scenarios", str(train_scn), "--target", "regressor",
                 "--out", str(models), "--lr", "1.0", "--epochs", "200"]) == 0
    out = capsys.readouterr().out
    assert "final loss" in out
    assert main(["fit", "--scenarios", str(train_scn), "--target", "affinity",
                 "--out", str(models), "--epochs", "600", "--pairs-per-id", "10"]) == 0
    out = capsys.readouterr().out
    assert "held-out accuracy" in out
    stored = read_models(models)
    assert stored.regressor is not None and stored.affinity is not None

    results = tmp_path / "results.txt"
    timing = tmp_path / "timing.txt"
    assert main(["track", "--scenario", str(track_scn), "--models", str(models),
                 "--out", str(results), "--timing-out", str(timing), "--K", "3"]) == 0
    capsys.readouterr()
    rows = read_motchallenge(results)
    assert rows and all(len(r) == 4 for r in rows)
    assert "speedup_modeled" in timing.read_text()

    gt_file = tmp_path / "gt.txt"
    write_motchallenge(gt_to_rows(read_scenario(track_scn).gt), gt_file)
    assert main(["evaluate", "--gt", str(gt_file), "--results", str(results)]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header.split("\t")[:3] == ["MOTA", "MOTP", "IDF1"]
    mota = float(row.split("\t")[0])
    assert mota > 0.6


def test_evaluate_gt_against_itself(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    assert main(["generate", "--script", str(script), "--out", str(scn),
                 "--width", "480", "--height", "360"]) == 0
    capsys.readouterr()
    gt_file = tmp_path / "gt.txt"
    write_motchallenge(gt_to_rows(read_scenario(scn).gt), gt_file)
    assert main(["evaluate", "--gt", str(gt_file), "--results", str(gt_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("1.000")


GT_ROWS = (
    "1,1,40.00,40.00,20.00,20.00,1.00,-1,-1,-1\n"
    "2,1,45.00,40.00,20.00,20.00,1.00,-1,-1,-1\n"
    "2,2,80.00,40.00,20.00,20.00,0.00,-1,-1,-1\n"  # invisible
)
HEADER = "\t".join(METRIC_COLUMNS) + "\n"


def evaluate(gt_file, results_file, *flags):
    """Exit code and stdout of `mvtrack evaluate`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["evaluate", "--gt", str(gt_file), "--results", str(results_file), *flags])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scripts(), st.sampled_from([0.5, 0.6, 1 / 3]))
def test_evaluate_equals_loop_oracles_through_files(tmp_path, script, iou_min):
    gt, results = script
    gt_file, results_file = tmp_path / "gt.txt", tmp_path / "results.txt"
    write_motchallenge(gt_to_rows(gt), gt_file)
    write_motchallenge([(f, i, b, 1.0) for f, i, b in results], results_file)
    gt = [GroundTruthEntry(f, i, b, c > 0.5) for f, i, b, c in oracles.read_motchallenge(gt_file)]
    results = [(f, i, b) for f, i, b, _ in oracles.read_motchallenge(results_file)]
    scores = _metric_row(oracles.clear_mot(gt, results, iou_min), oracles.idf1(gt, results, iou_min))
    assert evaluate(gt_file, results_file, "--iou-min", repr(iou_min)) == (0, HEADER + scores + "\n")


@pytest.mark.parametrize(
    "gt_text, results_text, scores",
    [
        (GT_ROWS, "", "0.000\t0.000\t0.000\t0\t1\t0\t2\t0\t0\t0.000\t0.000\t0.000"),
        # TrackEval's max(1, .) denominators: no ground truth, so each FP costs 1
        ("", GT_ROWS, "-3.000\t0.000\t0.000\t0\t0\t3\t0\t0\t0\t0.000\t0.000\t-3.000"),
        ("", "", "0.000\t0.000\t0.000\t0\t0\t0\t0\t0\t0\t0.000\t0.000\t0.000"),
    ],
)
def test_evaluate_empty_files(tmp_path, gt_text, results_text, scores):
    (tmp_path / "gt.txt").write_text(gt_text)
    (tmp_path / "results.txt").write_text(results_text)
    assert evaluate(tmp_path / "gt.txt", tmp_path / "results.txt") == (0, HEADER + scores + "\n")


@pytest.mark.parametrize("side, what", [("gt", "ground-truth"), ("results", "hypothesis")])
def test_evaluate_duplicate_rows_name_first_repeat_in_file_order(tmp_path, capsys, side, what):
    # the first repeat in file order is (frame 5, id 9), whose first row is
    # invisible as ground truth; (frame 1, id 3) sorts first but repeats later
    rows = ["1,3,40.00,40.00,20.00,20.00,1.00,-1,-1,-1", "5,9,40.00,40.00,20.00,20.00,0.00,-1,-1,-1",
            "5,9,60.00,40.00,20.00,20.00,1.00,-1,-1,-1", "1,3,60.00,40.00,20.00,20.00,1.00,-1,-1,-1"]
    files = {"gt": tmp_path / "gt.txt", "results": tmp_path / "results.txt"}
    files["gt"].write_text(GT_ROWS)
    files["results"].write_text(GT_ROWS)
    files[side].write_text("\n".join(rows) + "\n")
    assert evaluate(files["gt"], files["results"]) == (1, "")
    assert capsys.readouterr().err == f"error: duplicate {what} id 9 in frame 5\n"


@pytest.mark.parametrize("side", ["gt", "results"])
def test_evaluate_rejects_box_past_envelope_naming_line(tmp_path, capsys, side):
    # unchecked, such a box overflows inside the IoU matrix, which names no line
    files = {"gt": tmp_path / "gt.txt", "results": tmp_path / "results.txt"}
    files["gt"].write_text(GT_ROWS)
    files["results"].write_text(GT_ROWS)
    files[side].write_text("1,1,-1e308,-1e308,1.5e308,1.5e308,1,-1,-1,-1\n")
    assert evaluate(files["gt"], files["results"]) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: line 1: box has a number above 1e+09 in magnitude, got [-1e+308, -1e+308, 1.5e+308, 1.5e+308]\n"


@pytest.mark.parametrize("iou_min", ["nan", "0", "-0.1", "1.5", "inf"])
def test_evaluate_rejects_invalid_iou_min(tmp_path, capsys, iou_min):
    (tmp_path / "gt.txt").write_text(GT_ROWS)
    assert evaluate(tmp_path / "gt.txt", tmp_path / "gt.txt", "--iou-min", iou_min) == (2, "")
    assert "configuration error: iou_min must be finite and lie in (0, 1]" in capsys.readouterr().err


def test_evaluate_calls_each_scorer_once_by_its_cli_name(tmp_path, monkeypatch):
    # the benchmark reads MOTA, IDS and IDF1 by wrapping these two names
    calls = []
    for name in ("clear_mot", "idf1"):
        scorer = getattr(mvtrack.cli, name)
        counted = lambda *a, name=name, scorer=scorer, **k: calls.append(name) or scorer(*a, **k)
        monkeypatch.setattr(mvtrack.cli, name, counted)
    (tmp_path / "gt.txt").write_text(GT_ROWS)
    code, out = evaluate(tmp_path / "gt.txt", tmp_path / "gt.txt", "--iou-min", "1")
    # the invisible gt row is a false positive when the file is scored as results
    assert (code, out.splitlines()[1]) == (0, "0.500\t1.000\t0.800\t1\t0\t1\t0\t0\t0\t1.000\t0.667\t0.500")
    assert sorted(calls) == ["clear_mot", "idf1"]


def test_evaluate_computes_each_frame_iou_once(tmp_path, monkeypatch):
    # both scores read one frame index: one IoU matrix per indexed frame
    shapes = []
    iou_matrix = mvtrack.metrics.iou_matrix
    monkeypatch.setattr(mvtrack.metrics, "iou_matrix", lambda a, b: shapes.append((len(a), len(b))) or iou_matrix(a, b))
    (tmp_path / "gt.txt").write_text(GT_ROWS + "4,3,40.00,40.00,20.00,20.00,0.00,-1,-1,-1\n")  # frame 4: invisible only
    (tmp_path / "results.txt").write_text(
        "2,7,40.00,40.00,20.00,20.00,1.00,-1,-1,-1\n2,8,90.00,40.00,20.00,20.00,1.00,-1,-1,-1\n"
        "3,7,40.00,40.00,20.00,20.00,1.00,-1,-1,-1\n"
    )
    code, _ = evaluate(tmp_path / "gt.txt", tmp_path / "results.txt")
    assert code == 0
    assert shapes == [(1, 0), (1, 2), (0, 1)]  # frames 1, 2 and 3, in order


def test_track_k_not_dividing_gop_exit_2(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    code = main(["track", "--scenario", str(scn), "--out", str(tmp_path / "r.txt"),
                 "--K", "5", "--propagator", "bboxavg", "--assoc", "onestep", "--alpha", "1.0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_track_missing_models_exit_2(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    code = main(["track", "--scenario", str(scn), "--out", str(tmp_path / "r.txt"), "--K", "3"])
    assert code == 2
    capsys.readouterr()


def test_fit_epochs_zero(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    models = tmp_path / "m.txt"
    assert main(["fit", "--scenarios", str(scn), "--target", "regressor",
                 "--out", str(models), "--epochs", "0"]) == 0
    out = capsys.readouterr().out
    assert "final loss" in out
    stored = read_models(models)
    assert not stored.regressor.W.any()


def test_fit_affinity_split_with_one_training_label_exit_2(tmp_path, capsys):
    # 2 identities x 1 pair each: 4 pairs, of which --holdout 0.9 holds out 3
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    capsys.readouterr()
    models = tmp_path / "m.txt"
    argv = ["fit", "--scenarios", str(scn), "--target", "affinity", "--out", str(models), "--pairs-per-id", "1"]
    assert main([*argv, "--holdout", "0.9"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --holdout 0.9 and --pairs-per-id 1 leave 1 training pairs with one label; "
        "lower --holdout or raise --pairs-per-id\n"
    )
    assert not models.exists()
    # the same pairs split at 0.25 train on both labels
    assert main([*argv, "--holdout", "0.25"]) == 0
    assert "affinity head fitted" in capsys.readouterr().out


def test_missing_file_runtime_error(tmp_path, capsys):
    assert main(["evaluate", "--gt", str(tmp_path / "none.txt"), "--results", str(tmp_path / "none.txt")]) == 1
    capsys.readouterr()


def test_bench_smoke(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=24)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    capsys.readouterr()
    code = main(["bench", "--scenario", str(scn), "--K-list", "1", "2", "3",
                 "--propagator", "bboxavg", "--assoc", "onestep", "--alpha", "1.0",
                 "--force-ratio", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0].split("\t") == ["K", "MOTA", "Hz", "modeled_s", "measured_s"]
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    hz = [float(r[2]) for r in rows]
    assert hz[0] < hz[1] < hz[2]  # sparser key frames, faster tracking


def test_bench_force_ratio_models_expected_speedup(tmp_path, capsys):
    script = write_script(tmp_path / "s.json", frames=24)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    capsys.readouterr()
    code = main(["bench", "--scenario", str(scn), "--K-list", "3",
                 "--propagator", "bboxavg", "--assoc", "onestep", "--alpha", "1.0",
                 "--force-ratio", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    modeled = float(lines[-1].split("\t")[3])
    assert modeled == pytest.approx(2.5, abs=0.025)


@pytest.mark.parametrize("ratio", ["0", "-0.1", "inf", "nan"])
def test_bench_force_ratio_must_be_positive_and_finite(tmp_path, capsys, ratio):
    script = write_script(tmp_path / "s.json", frames=24)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    capsys.readouterr()
    code = main(["bench", "--scenario", str(scn), "--K-list", "3", "--propagator", "bboxavg",
                 "--assoc", "onestep", "--alpha", "1.0", "--force-ratio", ratio])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error: --force-ratio must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ratio, stage", [("1e-300", "detect"), ("1e300", "propagate")])
def test_bench_force_ratio_past_padding_cap_exit_2(tmp_path, capsys, ratio, stage):
    # such a ratio needs a stage call padded far past a second; it is
    # refused after the probe run instead of busy-waiting
    script = write_script(tmp_path / "s.json", frames=24)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    capsys.readouterr()
    code = main(["bench", "--scenario", str(scn), "--K-list", "3", "--propagator", "bboxavg",
                 "--assoc", "onestep", "--alpha", "1.0", "--force-ratio", ratio])
    captured = capsys.readouterr()
    assert code == 2
    assert re.fullmatch(rf"configuration error: force ratio {re.escape(f'{float(ratio):g}')} needs a {stage} target of \S+ s, "
                        r"above the 1 s cap\n", captured.err)
    assert captured.out == ""


def test_delayed_pads_a_cheap_call_to_its_target():
    t0 = time.perf_counter()
    assert delayed(lambda a, b: a + b, 0.05)(2, 3) == 5
    assert time.perf_counter() - t0 >= 0.05


def test_delayed_adds_no_wait_to_a_call_past_its_target():
    # the clock starts before the call, so work longer than the target is
    # not followed by a wait; the margin leaves room for a busy host
    def work():
        time.sleep(0.3)
        return "done"

    t0 = time.perf_counter()
    assert delayed(work, 0.3)() == "done"
    assert time.perf_counter() - t0 < 0.55


def test_track_huge_size_noise_exits_0(tmp_path, capsys):
    # exp(1000 * g) of the oracle detector's size noise would overflow
    script = write_script(tmp_path / "s.json", frames=24)
    scn, out = tmp_path / "s.scn", tmp_path / "out.txt"
    assert main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"]) == 0
    assert main(["track", "--scenario", str(scn), "--out", str(out), "--propagator", "bboxavg", "--assoc", "onestep",
                 "--alpha", "1.0", "--det-noise-size", "1000"]) == 0
    assert capsys.readouterr().err == ""
    table = read_mot_table(out)
    assert np.isfinite(table.boxes).all()


def test_fit_defaults_per_call(tmp_path, capsys, monkeypatch):
    # the parser is built once; each call must still get its target's defaults
    script = write_script(tmp_path / "s.json", frames=13)
    scn = tmp_path / "s.scn"
    main(["generate", "--script", str(script), "--out", str(scn), "--width", "480", "--height", "360"])
    seen = []

    def fit_regressor(scenarios, hyper):
        seen.append(("regressor", hyper.lr, hyper.epochs))
        return RegressorParams.zeros(2), 0.0

    def fit_affinity_head(pairs, hyper, mode):
        seen.append(("affinity", hyper.lr, hyper.epochs))
        return AffinityHeadParams(1.0, 0.0, mode), 0.0

    monkeypatch.setattr(mvtrack.cli, "fit_regressor", fit_regressor)
    monkeypatch.setattr(mvtrack.cli, "fit_affinity_head", fit_affinity_head)
    fit = ["fit", "--scenarios", str(scn), "--out", str(tmp_path / "m.txt"), "--target"]
    for extra in (["regressor"], ["affinity"], ["regressor", "--epochs", "5", "--lr", "0.5"], ["regressor"]):
        assert main(fit + extra) == 0
    capsys.readouterr()
    assert seen == [("regressor", 1e-2, 200), ("affinity", 1.0, 2000), ("regressor", 0.5, 5), ("regressor", 1e-2, 200)]
