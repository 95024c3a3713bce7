"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines while the suite runs.
"""
import itertools
import time

import numpy as np
import pytest

from mvtrack.affinity import normalize_channels
from mvtrack.association import hungarian
from mvtrack.cli import delayed
from mvtrack.engine import OracleDetector, TrackerModels, make_propagator, speedup_model, track
from mvtrack.metrics import clear_mot, idf1
from mvtrack.model import MotionFrame, TrackerConfig, box_velocities, predict_boxes
from mvtrack.motion import (
    F_IN,
    FitHyper,
    RegressorParams,
    fit_regressor,
    smooth_l1,
)
from mvtrack.stream import (
    DetectorConfig,
    GroundTruthEntry,
    MotionScript,
    ObjectScript,
    StreamHeader,
    generate_scenario,
    write_motchallenge,
)
import oracles
from oracles import BBox, bbox_iou, exhaustive_idf1, ps_maps, regressor_grad, regressor_loss


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class reported:
    """Context manager printing the criterion's FAIL line if its body raises."""

    def __init__(self, criterion: int):
        self.criterion = criterion

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"ACCEPTANCE {self.criterion} FAIL: {exc}")
        return False


# ---------------------------------------------------------------------------
# 1. Speedup model under a calibrated propagate/detect ratio of 0.1


def benchmark_scenario():
    rng = np.random.default_rng(42)
    width, height, frames = 1280, 720, 600
    objs = []
    for i in range(1, 51):
        vx = int(rng.integers(-1, 2))
        vy = int(rng.integers(-1, 2))
        x_lo = 60 + max(0, -vx) * (frames - 1)
        x_hi = width - 60 - max(0, vx) * (frames - 1)
        y_lo = 50 + max(0, -vy) * (frames - 1)
        y_hi = height - 50 - max(0, vy) * (frames - 1)
        x0 = float(rng.uniform(min(x_lo, x_hi - 1), max(x_hi, x_lo + 1)))
        y0 = float(rng.uniform(min(y_lo, y_hi - 1), max(y_hi, y_lo + 1)))
        objs.append(ObjectScript(id=i, enter=1, exit=frames, x=x0, y=y0, w=48, h=48, vx=float(vx), vy=float(vy)))
    header = StreamHeader(width=width, height=height, block=16, gop=12)
    return generate_scenario(MotionScript(frames=frames, objects=tuple(objs)), header, seed=9)


def fit_translation_regressor(header, box=48, epochs=200):
    velo = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0)]
    train = []
    for i, (vx, vy) in enumerate(velo):
        rng = np.random.default_rng(50 + i)
        objs = (
            ObjectScript(
                id=1,
                enter=1,
                exit=25,
                x=400 - vx * 12 + float(rng.uniform(0, 16)),
                y=300 - vy * 12 + float(rng.uniform(0, 16)),
                w=box,
                h=box,
                vx=vx,
                vy=vy,
            ),
        )
        train.append(generate_scenario(MotionScript(frames=25, objects=objs), header, seed=100 + i))
    params, _ = fit_regressor(train, FitHyper(lr=1.0, epochs=epochs))
    return params


def test_criterion_1_speedup_model(head7):
    t_start = time.perf_counter()
    sc = benchmark_scenario()
    models = TrackerModels(regressor=fit_translation_regressor(sc.header), affinity=head7)
    detector = OracleDetector(sc, DetectorConfig(noise_center=0.01, noise_size=0.01, conf_min=0.995, rng_seed=0))

    cfg3 = TrackerConfig(K=3, propagator="regressor")
    propagate = make_propagator(cfg3, models)
    _, probe = track(sc, detector, cfg3, models)
    d0, a0, _ = probe.mean_key()
    p0 = probe.mean_pro()
    # force T_pro / (T_det + T_ass) = 0.1 with calibrated synthetic delays
    ratio = 0.1
    key_da = max(0.04, 1.5 * (d0 + a0), 1.25 * p0 / ratio)
    detect_delay = key_da - (d0 + a0)
    propagate_delay = ratio * key_da - p0
    # Between long delays the stage work itself runs slower than back to back
    # (a shared host evicts its caches while it waits), so measure the work
    # again with the delays in place, and time the K=3 run right after that.
    _, cal = track(sc, delayed(detector, detect_delay), cfg3, models, delayed(propagate, propagate_delay))
    d1, a1, _ = cal.mean_key()
    detect_delay = key_da - (d1 + a1 - detect_delay)
    propagate_delay = ratio * key_da - (cal.mean_pro() - propagate_delay)
    slow_detector, slow_propagate = delayed(detector, detect_delay), delayed(propagate, propagate_delay)

    t3 = time.perf_counter()
    _, tm3 = track(sc, slow_detector, cfg3, models, slow_propagate)
    wall3 = time.perf_counter() - t3
    t1 = time.perf_counter()
    track(sc, slow_detector, TrackerConfig(K=1, propagator="regressor"), models, slow_propagate)
    wall1 = time.perf_counter() - t1

    d3, a3, _ = tm3.mean_key()
    achieved = tm3.mean_pro() / (d3 + a3)
    modeled = speedup_model(tm3, 3)
    measured = wall1 / wall3
    elapsed = time.perf_counter() - t_start
    ok = abs(modeled - 2.5) <= 0.025 and measured >= 1.8 and elapsed < 60.0
    report(
        1,
        ok,
        f"modeled speedup {modeled:.3f} (target 2.5 +-1% at forced ratio, achieved {achieved:.4f}), "
        f"measured K=3 vs K=1 speedup {measured:.2f} (>=1.8), runtime {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 2. Scale handling: zoom scenario separates the regressor from MV averaging


def test_criterion_2_scale_handling():
    t_start = time.perf_counter()
    header = StreamHeader(width=800, height=600, block=16, gop=12)
    rng = np.random.default_rng(3)
    train = []
    i = 0
    for zoom in (1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08):
        for _ in range(3):
            objs = (
                ObjectScript(
                    id=1,
                    enter=1,
                    exit=13,
                    x=400 + float(rng.uniform(-40, 40)),
                    y=300 + float(rng.uniform(-30, 30)),
                    w=float(rng.uniform(115, 165)),
                    h=float(rng.uniform(115, 165)),
                    zoom=zoom,
                ),
            )
            train.append(generate_scenario(MotionScript(frames=13, objects=objs), header, seed=i))
            i += 1
    params, _ = fit_regressor(train, FitHyper(lr=1.0, epochs=400))

    # 5%-per-frame zoom, eleven consecutive non-key frames under K = 12
    ev = generate_scenario(
        MotionScript(frames=13, objects=(ObjectScript(id=1, enter=1, exit=13, x=400, y=300, w=150, h=150, zoom=1.05),)),
        header,
        seed=99,
    )
    # tracked by the engine: frame 1 is the key frame (a noiseless detection
    # of the ground-truth box), frames 2-12 are the non-key frames
    gt_box = {r.frame: r.bbox for r in ev.gt}

    def propagated_ious(propagator):
        cfg = TrackerConfig(K=12, association_mode="onestep", alpha=1.0, conf_min=0.995, propagator=propagator)
        detector = OracleDetector(ev, DetectorConfig(conf_min=0.995))
        rows, _ = track(ev, detector, cfg, TrackerModels(regressor=params))
        boxes = {t: b for t, _, b in rows}
        return [bbox_iou(boxes[t], gt_box[t]) for t in range(2, 13)]

    ious_reg = propagated_ious("regressor")
    ious_avg = propagated_ious("bboxavg")
    elapsed = time.perf_counter() - t_start
    ok = min(ious_reg) >= 0.85 and ious_avg[-1] < 0.6 and elapsed < 30.0
    report(
        2,
        ok,
        f"regressor per-frame IoU >= {min(ious_reg):.3f} over 11 non-key frames (>=0.85), "
        f"averaging baseline IoU at frame 12 = {ious_avg[-1]:.3f} (<0.6), runtime {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 3. Occlusion re-identification: appearance recovers the identity


def test_criterion_3_occlusion_reid(head7):
    t_start = time.perf_counter()
    frames = 45
    header = StreamHeader(width=480, height=360, block=16, gop=12)
    script = MotionScript(
        frames=frames,
        objects=(
            ObjectScript(id=1, enter=1, exit=frames, x=60, y=100, w=40, h=40, vx=4, occlusions=((14, 20),)),
            ObjectScript(id=2, enter=1, exit=frames, x=300, y=280, w=40, h=40),
        ),
    )
    sc = generate_scenario(script, header, seed=8)
    det_cfg = DetectorConfig(feature_noise=0.1, rng_seed=1)
    models = TrackerModels(affinity=head7)
    two_rows, _ = track(sc, OracleDetector(sc, det_cfg), TrackerConfig(K=3, propagator="bboxavg"), models)
    iou_rows, _ = track(
        sc,
        OracleDetector(sc, det_cfg),
        TrackerConfig(K=3, propagator="bboxavg", association_mode="onestep", alpha=1.0),
        models,
    )
    ids_two = clear_mot(sc.gt, two_rows).ids
    ids_iou = clear_mot(sc.gt, iou_rows).ids
    elapsed = time.perf_counter() - t_start
    ok = ids_two == 0 and ids_iou >= 1 and elapsed < 10.0
    report(
        3,
        ok,
        f"two-step association IDS = {ids_two} (expected 0), IoU-only IDS = {ids_iou} (expected >=1), "
        f"runtime {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 4. Association-mode ordering over a 20-seed crossing suite


def crossing_scenario(seed, header):
    rng = np.random.default_rng(seed)
    v_a = float(rng.integers(2, 6))
    v_b = -float(rng.integers(2, 6))
    dy = float(rng.uniform(44, 60))
    occ_len = int(rng.integers(2, 10))
    frames = 72
    xa0, xb0 = 200.0, 440.0
    t_meet = (xb0 - xa0) / (v_a - v_b)
    occ_start = max(14, int(1 + t_meet - occ_len / 2))
    objs = (
        ObjectScript(id=1, enter=1, exit=frames, x=xa0, y=150, w=40, h=40, vx=v_a),
        ObjectScript(
            id=2, enter=1, exit=frames, x=xb0, y=150 + dy, w=40, h=40, vx=v_b,
            occlusions=((occ_start, occ_start + occ_len - 1),),
        ),
    )
    return generate_scenario(MotionScript(frames=frames, objects=objs), header, seed=seed)


def test_criterion_4_association_mode_ordering(head7):
    header = StreamHeader(width=640, height=360, block=16, gop=12)
    models = TrackerModels(affinity=head7)
    means = {}
    for mode, alpha in (("twostep", 0.5), ("onestep", 0.5), ("onestep", 1.0)):
        ids_counts = []
        for seed in range(20):
            sc = crossing_scenario(1000 + seed, header)
            cfg = TrackerConfig(K=3, propagator="bboxavg", association_mode=mode, alpha=alpha)
            detector = OracleDetector(sc, DetectorConfig(noise_center=0.01, feature_noise=0.1, rng_seed=seed))
            rows, _ = track(sc, detector, cfg, models)
            ids_counts.append(clear_mot(sc.gt, rows).ids)
        means[(mode, alpha)] = float(np.mean(ids_counts))
    two = means[("twostep", 0.5)]
    blend = means[("onestep", 0.5)]
    iou_only = means[("onestep", 1.0)]
    ok = two <= blend <= iou_only
    report(
        4,
        ok,
        f"mean IDS over 20 seeds: two-step {two:.2f} <= blended {blend:.2f} <= IoU-only {iou_only:.2f}",
    )


# ---------------------------------------------------------------------------
# 5. Oracle equivalences


def brute_force_min_cost(cost):
    n, m = cost.shape
    if n > m:
        return brute_force_min_cost(cost.T)
    best = None
    for cols in itertools.permutations(range(m), n):
        total = sum(cost[r, c] for r, c in enumerate(cols))
        if best is None or total < best:
            best = total
    return best


def test_criterion_5_oracle_equivalences(head7):
    with reported(5):
        _run_criterion_5(head7)


def _run_criterion_5(head7):
    rng = np.random.default_rng(77)
    # Hungarian vs exhaustive search, 100 random matrices up to 7x7
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, (n, m))
        total = cost[hungarian(cost)].sum()
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)

    # IDF1 vs exhaustive trajectory pairing on small cases
    for _ in range(25):
        n_gt = int(rng.integers(1, 4))
        n_hyp = int(rng.integers(1, 4))
        frames = int(rng.integers(2, 11))
        gt = []
        for g in range(n_gt):
            start = int(rng.integers(1, frames))
            for t in range(start, frames + 1):
                gt.append(GroundTruthEntry(t, g + 1, BBox(100.0 * g + 2.0 * t, 50, 20, 20)))
        results = []
        seen = set()
        for h in range(n_hyp):
            src = int(rng.integers(0, n_gt))
            for r in gt:
                if r.id == src + 1 and rng.random() < 0.7 and (r.frame, 100 + h) not in seen:
                    seen.add((r.frame, 100 + h))
                    results.append((r.frame, 100 + h, BBox(r.bbox.x + float(rng.uniform(-3, 3)), 50, 20, 20)))
        assert idf1(gt, results) == pytest.approx(exhaustive_idf1(gt, results), abs=1e-12)

    # CLEAR-MOT and IDF1 vs the per-pair loops on tracked crossing scenarios,
    # with misses and clutter, two-step at K=3 and IoU-only at K=1
    header = StreamHeader(width=640, height=360, block=16, gop=12)
    models = TrackerModels(affinity=head7)
    det_cfg = DetectorConfig(noise_center=0.03, noise_size=0.02, miss_rate=0.1, fp_rate=0.5, feature_noise=0.1, rng_seed=5)
    configs = (
        TrackerConfig(K=3, propagator="bboxavg"),
        TrackerConfig(K=1, propagator="bboxavg", association_mode="onestep", alpha=1.0),
    )
    for seed in range(4):
        sc = crossing_scenario(1000 + seed, header)
        for cfg in configs:
            rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, models)
            assert clear_mot(sc.gt, rows) == oracles.clear_mot(sc.gt, rows)
            assert idf1(sc.gt, rows) == oracles.idf1(sc.gt, rows)

    # PS map value multisets vs double-loop brute force
    for _ in range(5):
        fi = normalize_channels(rng.standard_normal((7, 7, 16)))
        fj = normalize_channels(rng.standard_normal((7, 7, 16)))
        mij, mji = ps_maps(fi, fj)
        brute = np.array([[fi[u, v] @ fj[p // 7, p % 7] for p in range(49)] for u in range(7) for v in range(7)])
        assert np.allclose(mij.reshape(49, 49), brute, atol=1e-12)
        assert np.allclose(np.sort(mij.ravel()), np.sort(mji.ravel()), atol=1e-12)

    # regressor gradients vs central finite differences
    m = 3
    gw, gh = 14, 10
    batch = []
    for _ in range(4):
        mv = rng.integers(-4, 5, size=(2, gw, gh)).astype(np.int32)
        fr = MotionFrame(1, "P", mv, np.abs(rng.standard_normal((gw, gh))))
        prev = BBox(*rng.uniform(60, 140, 2), *rng.uniform(40, 100, 2))
        nxt = BBox(prev.x + rng.uniform(-6, 6), prev.y + rng.uniform(-6, 6), prev.w * 1.05, prev.h * 0.97)
        batch.append((fr, prev, nxt))
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        params = RegressorParams(0.05 * rng.standard_normal((4 * m * m, F_IN)), 0.05 * rng.standard_normal(4 * m * m), m)
        dW, db = regressor_grad(params, batch, 16)
        for _ in range(5):
            i = int(rng.integers(4 * m * m))
            j = int(rng.integers(F_IN))
            w_hi, w_lo = params.W.copy(), params.W.copy()
            w_hi[i, j] += eps
            w_lo[i, j] -= eps
            fd = (
                regressor_loss(RegressorParams(w_hi, params.bias, m), batch, 16)
                - regressor_loss(RegressorParams(w_lo, params.bias, m), batch, 16)
            ) / (2 * eps)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(dW[i, j] - fd) / max(abs(fd), abs(dW[i, j])))
    assert worst < 1e-5
    report(5, True, f"Hungarian, IDF1, metric-loop, PS-map, and gradient oracles all agree (worst gradient rel err {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. Formula invariants


def test_criterion_6_formula_invariants():
    with reported(6):
        _run_criterion_6()


def _run_criterion_6():
    rng = np.random.default_rng(7)
    pairs = np.array([[*rng.uniform(-100, 100, 2), *rng.uniform(0.5, 80, 2),
                       *rng.uniform(-100, 100, 2), *rng.uniform(0.5, 80, 2)] for _ in range(1000)])
    a, b = pairs[:, :4], pairs[:, 4:]
    out = predict_boxes(box_velocities(a, b), a)
    worst = max(np.abs(out[:, :2] - b[:, :2]).max(), (np.abs(out[:, 2:] - b[:, 2:]) / b[:, 2:]).max())
    assert worst <= 1e-9

    assert smooth_l1(1.0) == 0.5 and smooth_l1(-1.0) == 0.5  # branch agreement, exact

    header = StreamHeader(width=320, height=240, block=16, gop=12)
    for seed, script in enumerate(
        (
            MotionScript(frames=24, objects=(ObjectScript(id=1, enter=1, exit=24, x=80, y=60, w=24, h=24, vx=2),)),
            MotionScript(
                frames=24,
                objects=(
                    ObjectScript(id=1, enter=1, exit=20, x=60, y=60, w=24, h=24, vx=3),
                    ObjectScript(id=2, enter=5, exit=24, x=250, y=180, w=30, h=30, vx=-2, vy=-1),
                ),
            ),
            MotionScript(frames=24, objects=(ObjectScript(id=1, enter=1, exit=24, x=160, y=120, w=60, h=60, zoom=1.02),)),
        )
    ):
        sc = generate_scenario(script, header, seed=seed)
        perfect = [(r.frame, r.id, r.bbox) for r in sc.gt if r.visible]
        scores = clear_mot(sc.gt, perfect)
        assert scores.mota == 1.0 and scores.motp == 1.0
        assert (scores.fp, scores.fn, scores.ids) == (0, 0, 0)

    # MOTA hand case: |GT| = 10, FP = 1, FN = 2, IDS = 1 -> 0.6 exactly
    gt = [GroundTruthEntry(t, 1, BBox(50, 50, 20, 20)) for t in range(1, 11)]
    results = [(t, 1, BBox(50, 50, 20, 20)) for t in range(1, 5)]
    results += [(t, 2, BBox(50, 50, 20, 20)) for t in range(5, 9)]
    results += [(20, 9, BBox(500, 50, 20, 20))]
    scores = clear_mot(gt, results)
    assert (scores.fp, scores.fn, scores.ids) == (1, 2, 1)
    assert scores.mota == 0.6

    report(6, True, f"round-trip worst err {worst:.2e} (<=1e-9), smooth-L1 knee exact, "
                    "clear_mot(gt, gt) perfect, MOTA hand case = 0.6 exact")


# ---------------------------------------------------------------------------
# 7. Determinism and online causality


def test_criterion_7_determinism_and_causality(tmp_path, head7):
    header = StreamHeader(width=480, height=360, block=16, gop=12)
    script = MotionScript(
        frames=36,
        objects=(
            ObjectScript(id=1, enter=1, exit=36, x=80, y=100, w=32, h=48, vx=3, vy=1),
            ObjectScript(id=2, enter=1, exit=36, x=300, y=200, w=40, h=40, vx=-2),
            ObjectScript(id=3, enter=7, exit=30, x=240, y=280, w=36, h=36, vx=1, vy=-2),
        ),
    )
    sc = generate_scenario(script, header, seed=21)
    det_cfg = DetectorConfig(noise_center=0.03, noise_size=0.02, miss_rate=0.1, fp_rate=0.3, feature_noise=0.1, rng_seed=5)
    cfg = TrackerConfig(K=3, propagator="bboxavg")
    models = TrackerModels(affinity=head7)

    paths = []
    for name in ("run1.txt", "run2.txt"):
        rows, _ = track(sc, OracleDetector(sc, det_cfg), cfg, models)
        p = tmp_path / name
        write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], p)
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    rows_full, _ = track(sc, OracleDetector(sc, det_cfg), cfg, models)
    cut = 20
    truncated = type(sc)(
        header=sc.header,
        frames=sc.frames[:cut],
        gt=[r for r in sc.gt if r.frame <= cut],
        feature_seeds=sc.feature_seeds,
    )
    rows_cut, _ = track(truncated, OracleDetector(truncated, det_cfg), cfg, models)
    causal = [r for r in rows_full if r[0] <= cut] == rows_cut

    report(7, identical and causal, f"byte-identical reruns: {identical}; truncated-prefix outputs unchanged: {causal}")
