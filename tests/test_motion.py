import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrack.model import BBox, MotionFrame, box_array, predict_boxes
from mvtrack.motion import (
    F_IN,
    FieldReadout,
    FitHyper,
    RegressorParams,
    encode_motion,
    fit_regressor,
    propagate_bbox_avg,
    propagate_pixel_shift,
    propagation_samples,
    regressor_grad,
    smooth_l1,
)
from mvtrack.stream import MotionScript, ObjectScript, StreamHeader, generate_scenario
import oracles
from oracles import encode_motion_gradient, psroi_readout, regressor_loss, velocity_field

BLOCK = 16


def uniform_frame(dx, dy, gw=12, gh=8):
    mv = np.zeros((2, gw, gh), dtype=np.int32)
    mv[0] = dx
    mv[1] = dy
    return MotionFrame(1, "P", mv, np.zeros((gw, gh)))


def split_frame(gw=12, gh=8, split=6):
    mv = np.zeros((2, gw, gh), dtype=np.int32)
    mv[0, :split, :] = -1
    mv[0, split:, :] = 1
    return MotionFrame(1, "P", mv, np.zeros((gw, gh)))


# --- closed-form baselines ---


def test_bbox_avg_uniform_field():
    (out,) = propagate_bbox_avg(box_array([BBox(50, 50, 32, 32)]), uniform_frame(3, -2), BLOCK)
    assert out.tolist() == [53, 48, 32, 32]


def test_bbox_avg_zero_field_identity():
    b = box_array([BBox(50, 50, 32, 32)])
    assert propagate_bbox_avg(b, uniform_frame(0, 0), BLOCK).tolist() == b.tolist()


def test_bbox_avg_antisymmetric_field_blind_to_scale():
    # box symmetric about the split: equal counts of -1 and +1 cancel
    (out,) = propagate_bbox_avg(box_array([BBox(96, 64, 32, 32)]), split_frame(), BLOCK)
    assert out.tolist() == [96, 64, 32, 32]


def test_bbox_avg_no_covered_center_is_identity():
    b = box_array([BBox(-100, -100, 8, 8)])
    assert propagate_bbox_avg(b, uniform_frame(3, 3), BLOCK).tolist() == b.tolist()


def test_pixel_shift_uniform_field():
    (out,) = propagate_pixel_shift(box_array([BBox(50, 50, 32, 32)]), uniform_frame(3, -2), BLOCK)
    assert out.tolist() == pytest.approx((53, 48, 32, 32))


def test_pixel_shift_split_grows_box():
    (out,) = propagate_pixel_shift(box_array([BBox(96, 64, 32, 32)]), split_frame(), BLOCK)
    assert out.tolist() == pytest.approx((96, 64, 34, 32))


def test_pixel_shift_zero_identity():
    b = BBox(77.5, 41.25, 20, 10)
    (out,) = propagate_pixel_shift(box_array([b]), uniform_frame(0, 0), BLOCK)
    assert out.tolist() == pytest.approx((b.x, b.y, b.w, b.h))


@st.composite
def frames_and_boxes(draw):
    """A P-frame and boxes on it: inside, partly or wholly off the grid,
    smaller than a block, on block edges, at any block size."""
    block = draw(st.sampled_from([16, 10, 7, 1]))
    gw, gh = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mv = rng.integers(-20, 21, (2, gw, gh)).astype(np.int32)
    frame = MotionFrame(1, "P", mv, np.zeros((gw, gh)))
    coord = st.one_of(
        st.floats(-3 * block, (max(gw, gh) + 3) * block, allow_nan=False),
        st.integers(-3, max(gw, gh) + 3).map(lambda c: float(c * block)),
    )
    size = st.one_of(st.floats(0.01, 6 * block), st.integers(1, 6).map(lambda c: float(c * block)))
    boxes = draw(st.lists(st.builds(BBox, coord, coord, size, size), min_size=1, max_size=8))
    return frame, boxes, block


@settings(max_examples=300, deadline=None)
@given(frames_and_boxes())
def test_pixel_shift_matches_scalar_oracle_bit_for_bit(case):
    frame, boxes, block = case
    got = propagate_pixel_shift(box_array(boxes), frame, block)
    want = box_array([oracles.propagate_pixel_shift(b, frame, block) for b in boxes])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(frames_and_boxes())
def test_bbox_avg_matches_list_oracle_bit_for_bit(case):
    frame, boxes, block = case
    got = propagate_bbox_avg(box_array(boxes), frame, block)
    want = box_array(oracles.propagate_bbox_avg(boxes, frame, block))
    assert got.tobytes() == want.tobytes()


# --- encoding ---


def test_encode_zero_frame():
    enc = encode_motion(uniform_frame(0, 0))
    assert enc.shape == (F_IN, 12, 8)
    assert not enc.any()


def test_encode_uniform_field():
    enc = encode_motion(uniform_frame(3, -2))
    np.testing.assert_allclose(enc[0], 3.0)
    np.testing.assert_allclose(enc[1], -2.0)
    np.testing.assert_allclose(enc[2:], 0.0)


def test_encode_linear_ramp_derivative():
    gw, gh = 10, 6
    mv = np.zeros((2, gw, gh), dtype=np.int32)
    mv[0] = (2 * np.arange(gw))[:, None]  # dx = 2 * cell index
    fr = MotionFrame(1, "P", mv, np.zeros((gw, gh)))
    enc = encode_motion(fr)
    np.testing.assert_allclose(enc[3], 2.0)  # d(dx)/dx per cell
    np.testing.assert_allclose(enc[4], 0.0)


@pytest.mark.parametrize("gw,gh", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 7), (12, 8)])
def test_encode_matches_np_gradient(gw, gh):
    rng = np.random.default_rng(gw * 100 + gh)
    mv = rng.integers(-40, 41, (2, gw, gh)).astype(np.int32)
    res = rng.standard_normal((gw, gh)) * 1e3
    fr = MotionFrame(1, "P", mv, res)
    enc = encode_motion(fr)
    ref = encode_motion_gradient(fr)
    assert enc.shape == ref.shape == (F_IN, gw, gh)
    assert enc.dtype == ref.dtype and enc.tobytes() == ref.tobytes()


def test_encode_carries_residual():
    mv = np.zeros((2, 4, 4), dtype=np.int32)
    res = np.full((4, 4), 0.25)
    enc = encode_motion(MotionFrame(1, "P", mv, res))
    np.testing.assert_allclose(enc[2], 0.25)


# --- velocity field and readout ---


def test_velocity_field_zero_params():
    enc = encode_motion(uniform_frame(4, 1))
    params = RegressorParams.zeros(3)
    assert not velocity_field(params, enc).any()


def test_velocity_field_bias_only():
    m = 3
    params = RegressorParams.zeros(m)
    bias = np.zeros(4 * m * m)
    for k, val in enumerate([0.5, -0.25, 0.1, 0.2]):
        bias[k * m * m : (k + 1) * m * m] = val
    params = RegressorParams(params.W, bias, m)
    field = velocity_field(params, encode_motion(uniform_frame(0, 0)))
    for k, val in enumerate([0.5, -0.25, 0.1, 0.2]):
        np.testing.assert_allclose(field[k * m * m : (k + 1) * m * m], val)


def test_velocity_field_shape_mismatch():
    params = RegressorParams.zeros(3)
    with pytest.raises(ValueError):
        velocity_field(params, np.zeros((F_IN + 1, 4, 4)))


def test_velocity_field_single_cell_matrix():
    m = 1
    rng = np.random.default_rng(0)
    W = rng.standard_normal((4, F_IN))
    bias = rng.standard_normal(4)
    params = RegressorParams(W, bias, m)
    enc = np.zeros((F_IN, 1, 1))
    enc[0, 0, 0] = 1.0  # e_1 input
    field = velocity_field(params, enc)
    np.testing.assert_allclose(field[:, 0, 0], W[:, 0] + bias)


def test_psroi_two_cell_mean():
    field = np.zeros((4, 2, 1))
    field[0, 0, 0] = 1.0
    field[0, 1, 0] = 3.0
    v = psroi_readout(field, BBox(16, 8, 32, 16), BLOCK)
    assert (v.vx, v.vy, v.vw, v.vh) == (2.0, 0.0, 0.0, 0.0)


def test_psroi_all_zero_field():
    field = np.zeros((4 * 49, 12, 8))
    v = psroi_readout(field, BBox(90, 60, 100, 80), BLOCK)
    assert (v.vx, v.vy, v.vw, v.vh) == (0, 0, 0, 0)


def test_psroi_constant_field_pools_to_itself():
    # every bin occupied: box spans >= m cells per side
    m = 7
    field = np.zeros((4 * m * m, 12, 8))
    vals = [0.5, -0.25, 0.1, 0.2]
    for k, val in enumerate(vals):
        field[k * m * m : (k + 1) * m * m] = val
    for box in (BBox(96, 64, 180, 120), BBox(100, 60, 112, 112), BBox(90, 70, 150, 126)):
        v = psroi_readout(field, box, BLOCK)
        assert (v.vx, v.vy, v.vw, v.vh) == pytest.approx(tuple(vals))


def test_psroi_small_box_zero_fill_attenuation():
    # documented convention: empty bins contribute zero, so a single-cell box
    # reads the constant attenuated by 1/m^2
    m = 7
    field = np.zeros((4 * m * m, 12, 8))
    field[: m * m] = 1.0
    v = psroi_readout(field, BBox(50, 50, 16, 16), BLOCK)
    assert v.vx == pytest.approx(1.0 / 49)


def test_readout_paths_agree():
    rng = np.random.default_rng(3)
    m = 7
    gw, gh = 30, 20
    params = RegressorParams(rng.standard_normal((4 * m * m, F_IN)), rng.standard_normal(4 * m * m), m)
    mv = rng.integers(-6, 7, size=(2, gw, gh)).astype(np.int32)
    fr = MotionFrame(1, "P", mv, np.abs(rng.standard_normal((gw, gh))))
    enc = encode_motion(fr)
    field = velocity_field(params, enc)
    readout = FieldReadout(params, enc)
    boxes = [
        BBox(float(rng.uniform(0, 480)), float(rng.uniform(0, 320)), float(rng.uniform(5, 300)), float(rng.uniform(5, 300)))
        for _ in range(40)
    ] + [BBox(-200, -200, 10, 10)]
    batched = readout.velocities(boxes, BLOCK)
    assert readout.velocities(box_array(boxes), BLOCK).tobytes() == batched.tobytes()
    single = [readout.velocities([box], BLOCK)[0] for box in boxes]
    for box, vb, vc in zip(boxes, batched, single):
        va = psroi_readout(field, box, BLOCK)
        for a, b, c in zip((va.vx, va.vy, va.vw, va.vh), vb, vc):
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(c, abs=1e-12)

    # m = 1 on the raw MV grid: bboxavg's shift is the mean MV over the
    # cells whose centers the box covers (empty: no shift)
    moved = propagate_bbox_avg(box_array(boxes), fr, BLOCK)
    mv_field = np.concatenate([mv, np.zeros((2, gw, gh))]).astype(float)
    for box, (x, y, w, h) in zip(boxes, moved.tolist()):
        oracle = psroi_readout(mv_field, box, BLOCK)
        assert (x - box.x, y - box.y) == pytest.approx((oracle.vx, oracle.vy), abs=1e-12)
        assert (w, h) == (box.w, box.h)


# --- smooth L1 and loss ---


def test_smooth_l1_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(1.0) == 0.5  # both branches agree at the knee
    assert smooth_l1(-1.0) == 0.5
    assert smooth_l1(2.0) == 1.5
    assert smooth_l1(-0.5) == 0.125


def test_smooth_l1_continuous_even_monotone():
    xs = np.linspace(0, 3, 301)
    ys = smooth_l1(xs)
    assert np.all(np.diff(ys) >= 0)
    np.testing.assert_allclose(smooth_l1(-xs), ys)
    assert abs(smooth_l1(1 - 1e-9) - smooth_l1(1 + 1e-9)) < 1e-8


def test_regressor_loss_zero_when_exact():
    # bias-only params that exactly reproduce a velocity on a full-bin box
    m = 7
    v = oracles.Velocity(0.01, -0.02, 0.003, 0.0)
    bias = np.concatenate([np.full(m * m, c) for c in (v.vx, v.vy, v.vw, v.vh)])
    params = RegressorParams(np.zeros((4 * m * m, F_IN)), bias, m)
    prev = BBox(96, 64, 150, 120)
    nxt = BBox(prev.w * v.vx + prev.x, prev.h * v.vy + prev.y, prev.w * math.exp(v.vw), prev.h)
    batch = [(uniform_frame(0, 0), prev, nxt)]
    assert regressor_loss(params, batch, BLOCK) == pytest.approx(0.0, abs=1e-12)


def test_regressor_loss_single_knee_sample():
    # predicted velocity zero, true velocity (1, 0, 0, 0): loss = smooth_l1(1) = 0.5
    m = 3
    params = RegressorParams.zeros(m)
    prev = BBox(96, 64, 64, 64)
    nxt = BBox(prev.x + prev.w, prev.y, prev.w, prev.h)
    assert regressor_loss(params, [(uniform_frame(0, 0), prev, nxt)], BLOCK) == pytest.approx(0.5)


def test_regressor_loss_batch_order_invariant():
    m = 3
    rng = np.random.default_rng(1)
    params = RegressorParams(rng.standard_normal((4 * m * m, F_IN)) * 0.01, rng.standard_normal(4 * m * m) * 0.01, m)
    batch = []
    for _ in range(5):
        prev = BBox(*rng.uniform(60, 120, 2), *rng.uniform(30, 90, 2))
        nxt = BBox(prev.x + rng.uniform(-5, 5), prev.y + rng.uniform(-5, 5), prev.w * 1.02, prev.h * 0.99)
        batch.append((uniform_frame(int(rng.integers(-3, 4)), 0), prev, nxt))
    a = regressor_loss(params, batch, BLOCK)
    b = regressor_loss(params, list(reversed(batch)), BLOCK)
    assert a == pytest.approx(b, rel=1e-12)


def test_regressor_loss_empty_batch():
    with pytest.raises(ValueError):
        regressor_loss(RegressorParams.zeros(3), [], BLOCK)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
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
    for trial in range(10):
        params = RegressorParams(
            0.05 * rng.standard_normal((4 * m * m, F_IN)), 0.05 * rng.standard_normal(4 * m * m), m
        )
        dW, db = regressor_grad(params, batch, BLOCK)
        # probe a handful of coordinates per trial with central differences
        for _ in range(6):
            i = int(rng.integers(4 * m * m))
            j = int(rng.integers(F_IN))
            W_hi = params.W.copy()
            W_lo = params.W.copy()
            W_hi[i, j] += eps
            W_lo[i, j] -= eps
            fd = (
                regressor_loss(RegressorParams(W_hi, params.bias, m), batch, BLOCK)
                - regressor_loss(RegressorParams(W_lo, params.bias, m), batch, BLOCK)
            ) / (2 * eps)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(dW[i, j] - fd) / max(abs(fd), abs(dW[i, j])))
        i = int(rng.integers(4 * m * m))
        b_hi = params.bias.copy()
        b_lo = params.bias.copy()
        b_hi[i] += eps
        b_lo[i] -= eps
        fd = (
            regressor_loss(RegressorParams(params.W, b_hi, m), batch, BLOCK)
            - regressor_loss(RegressorParams(params.W, b_lo, m), batch, BLOCK)
        ) / (2 * eps)
        if abs(fd) > 1e-8:
            worst = max(worst, abs(db[i] - fd) / max(abs(fd), abs(db[i])))
    assert worst < 1e-5


# --- fitting ---


HEADER = StreamHeader(width=480, height=360, block=16, gop=12)


def translation_scenarios():
    rng = np.random.default_rng(0)
    velo = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (2, 0), (0, 2), (-2, 1), (1, -2)]
    out = []
    for i, (vx, vy) in enumerate(velo):
        for rep in range(3):
            x0 = 240 - vx * 12 + float(rng.uniform(0, 16))
            y0 = 180 - vy * 12 + float(rng.uniform(0, 16))
            objs = (ObjectScript(id=1, enter=1, exit=25, x=x0, y=y0, w=128, h=128, vx=vx, vy=vy),)
            out.append(generate_scenario(MotionScript(frames=25, objects=objs), HEADER, seed=i * 3 + rep))
    return out


def test_fit_translations_reproduces_mean_mv():
    params, loss = fit_regressor(translation_scenarios(), FitHyper(lr=1.0, epochs=300))
    assert loss < 1e-3
    gw, gh = HEADER.grid
    worst = 0.0
    for dx, dy in [(2, -1), (1, 0), (-2, 2)]:
        mv = np.zeros((2, gw, gh), dtype=np.int32)
        mv[0] = dx
        mv[1] = dy
        fr = MotionFrame(1, "P", mv, np.zeros((gw, gh)))
        for off in (0.0, 5.3, 11.8):
            b = BBox(200 + off, 170 + off / 2, 128, 128)
            v = FieldReadout(params, encode_motion(fr)).velocities([b], BLOCK)
            (x, y, w, h), = predict_boxes(v, box_array([b])).tolist()
            worst = max(worst, abs(x - b.x - dx), abs(y - b.y - dy), abs(w - b.w), abs(h - b.h))
    assert worst < 1e-3


def test_fit_zero_motion_degenerate():
    objs = (ObjectScript(id=1, enter=1, exit=13, x=240, y=180, w=128, h=128),)
    sc = generate_scenario(MotionScript(frames=13, objects=objs), HEADER, seed=0)
    params, loss = fit_regressor([sc], FitHyper(lr=1.0, epochs=200))
    assert loss < 1e-6
    (v,) = FieldReadout(params, encode_motion(sc.frames[1])).velocities([BBox(240, 180, 128, 128)], BLOCK)
    assert np.abs(v).max() < 1e-3


def test_fit_epochs_zero_returns_initialization():
    sc = generate_scenario(MotionScript(frames=13, objects=(ObjectScript(id=1, enter=1, exit=13, x=240, y=180, w=64, h=64, vx=1),)), HEADER, seed=0)
    params, loss = fit_regressor([sc], FitHyper(epochs=0))
    assert not params.W.any() and not params.bias.any()
    assert loss > 0


def test_fit_zoom_beats_averaging_on_scale():
    rng = np.random.default_rng(3)
    train = []
    header = StreamHeader(width=640, height=480, block=16, gop=12)
    for i, zoom in enumerate([1.0, 1.02, 1.05, 1.08]):
        for rep in range(2):
            objs = (
                ObjectScript(
                    id=1,
                    enter=1,
                    exit=13,
                    x=320 + float(rng.uniform(-20, 20)),
                    y=240 + float(rng.uniform(-15, 15)),
                    w=float(rng.uniform(115, 135)),
                    h=float(rng.uniform(115, 135)),
                    zoom=zoom,
                ),
            )
            train.append(generate_scenario(MotionScript(frames=13, objects=objs), header, seed=i * 2 + rep))
    params, _ = fit_regressor(train, FitHyper(lr=1.0, epochs=600))
    ev = generate_scenario(
        MotionScript(frames=13, objects=(ObjectScript(id=1, enter=1, exit=13, x=320, y=240, w=120, h=120, zoom=1.05),)),
        header,
        seed=50,
    )
    fr = ev.frames[4]
    prev = {r.frame: r.bbox for r in ev.gt}[4]
    ((_, _, vw, _),) = FieldReadout(params, encode_motion(fr)).velocities([prev], BLOCK)
    assert vw > 0.02  # sees the scale change
    ((_, _, w, _),) = propagate_bbox_avg(box_array([prev]), fr, BLOCK)
    assert w == prev.w  # the averaging baseline cannot


def test_propagation_samples_skip_occluded_and_single_frame():
    objs = (
        ObjectScript(id=1, enter=1, exit=13, x=100, y=100, w=32, h=32, vx=2, occlusions=((5, 7),)),
        ObjectScript(id=2, enter=6, exit=6, x=300, y=200, w=32, h=32),
    )
    sc = generate_scenario(MotionScript(frames=13, objects=objs), HEADER, seed=0)
    samples = propagation_samples(sc)
    # id 2 exists for a single frame: never sampled; id 1 skips occluded ends
    frames_used = {fr.index for fr, _, _ in samples}
    assert 4 not in frames_used and 5 not in frames_used and 7 not in frames_used
    assert 2 in frames_used and 8 in frames_used


def test_fit_diverges_reports_epoch():
    # the clipped gradient keeps any finite step size from blowing up, so a
    # non-finite step is the remaining way to poison the iteration
    sc = generate_scenario(MotionScript(frames=13, objects=(ObjectScript(id=1, enter=1, exit=13, x=240, y=180, w=64, h=64, vx=1),)), HEADER, seed=0)
    with pytest.raises(ValueError, match="epoch"):
        fit_regressor([sc], FitHyper(lr=math.nan, epochs=50))
