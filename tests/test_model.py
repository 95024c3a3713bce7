import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mvtrack.model import (
    BBox,
    MotionFrame,
    TrackerConfig,
    box_array,
    box_corners,
    box_velocities,
    corner_boxes,
    iou_matrix,
    predict_boxes,
)
from oracles import bbox_iou


def boxes(min_size=0.1, max_size=500.0):
    coord = st.floats(-1e4, 1e4, allow_nan=False)
    size = st.floats(min_size, max_size, allow_nan=False)
    return st.builds(BBox, coord, coord, size, size)


def iou(a, b):
    """IoU of one pair of boxes through the (n, k) matrix."""
    return float(iou_matrix(box_corners([a]), box_corners([b]))[0, 0])


def test_bbox_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 10)
    with pytest.raises(ValueError):
        BBox(0, 0, 10, -1)


def test_corner_round_trip_exact():
    b = BBox(12.5, -3.25, 7.0, 9.5)
    assert BBox.from_corners(*b.corners()) == b


def test_iou_identical_boxes():
    b = BBox(10, 10, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 4, 4), BBox(100, 100, 4, 4)) == 0.0


def test_iou_hand_case():
    # overlap 5x10 = 50, union 100 + 100 - 50 = 150
    assert iou(BBox(10, 10, 10, 10), BBox(15, 10, 10, 10)) == pytest.approx(1 / 3)


def test_iou_touching_boxes_is_zero():
    assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)


@given(boxes(), boxes(), st.floats(-100, 100), st.floats(-100, 100))
def test_iou_translation_invariant(a, b, dx, dy):
    shifted = iou(BBox(a.x + dx, a.y + dy, a.w, a.h), BBox(b.x + dx, b.y + dy, b.w, b.h))
    assert shifted == pytest.approx(iou(a, b), abs=1e-9)


@st.composite
def related_boxes(draw):
    """Boxes around one offset (0 or near 1e8), each free, copied from an
    earlier box, touching its right or bottom edge, or nested inside it."""
    offset = draw(st.sampled_from([0.0, 1e8 - 512.0, 1e8]))
    coord = st.floats(-1e3, 1e3)
    size = st.one_of(st.just(1e-9), st.floats(1e-9, 500.0))  # 1e-9 has no width near 1e8
    out = [BBox(offset + draw(coord), offset + draw(coord), 1.0 + draw(size), 1.0 + draw(size))]
    for _ in range(draw(st.integers(0, 5))):
        p = draw(st.sampled_from(out))
        kind = draw(st.sampled_from(["free", "copy", "right", "below", "nested"]))
        if kind == "free":  # corners may coincide near 1e8: a zero-area box
            out.append(BBox(offset + draw(coord), offset + draw(coord), draw(size), draw(size)))
            continue
        if kind == "copy":
            corners = p.corners()
        elif kind == "right":
            corners = (p.right, p.top + draw(coord), p.right + draw(size), p.bottom + draw(size))
        elif kind == "below":
            corners = (p.left + draw(coord), p.bottom, p.right + draw(size), p.bottom + draw(size))
        else:
            f = draw(st.floats(1e-3, 1.0))
            corners = (p.x - p.w * f / 2, p.y - p.h * f / 2, p.x + p.w * f / 2, p.y + p.h * f / 2)
        left, top, right, bottom = corners
        if right > left and bottom > top:  # tiny sizes can round away near 1e8
            out.append(BBox.from_corners(left, top, right, bottom))
    return out


@given(related_boxes(), st.data())
def test_iou_matrix_equals_scalar_oracle_bit_for_bit(boxes, data):
    others = data.draw(st.permutations(boxes))[: data.draw(st.integers(0, len(boxes)))]
    got = iou_matrix(box_corners(boxes), box_corners(others))
    want = np.array([[bbox_iou(a, b) for b in others] for a in boxes]).reshape(len(boxes), len(others))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def predict(v, box):
    """predict_boxes for one velocity and one BBox."""
    return BBox(*predict_boxes(np.array([v], dtype=float), box_array([box]))[0].tolist())


def inverse(prev, nxt):
    """box_velocities for one pair of BBoxes, as a tuple."""
    return tuple(box_velocities(box_array([prev]), box_array([nxt]))[0].tolist())


def test_predict_zero_velocity_is_identity():
    b = BBox(3.5, -2.0, 11.0, 4.5)
    assert predict((0, 0, 0, 0), b) == b
    assert oracles.predict_bbox(oracles.Velocity(0, 0, 0, 0), b) == b


def test_predict_hand_case():
    out = predict((0.5, -0.25, math.log(2), 0.0), BBox(10, 10, 4, 8))
    assert (out.x, out.y, out.w, out.h) == pytest.approx((12, 8, 8, 8))


def test_predict_shrink():
    out = predict((0, 0, -math.log(2), -math.log(2)), BBox(0, 0, 8, 8))
    assert (out.x, out.y, out.w, out.h) == pytest.approx((0, 0, 4, 4))


def test_inverse_identity():
    b = BBox(5, 6, 7, 8)
    assert inverse(b, b) == (0, 0, 0, 0)
    v = oracles.inverse_velocity(b, b)
    assert (v.vx, v.vy, v.vw, v.vh) == (0, 0, 0, 0)


def test_inverse_hand_case():
    assert inverse(BBox(10, 10, 4, 8), BBox(12, 8, 8, 8)) == pytest.approx((0.5, -0.25, math.log(2), 0.0))


def test_round_trip_1000_random_pairs():
    rng = np.random.default_rng(7)
    pairs = np.array([[*rng.uniform(-100, 100, 2), *rng.uniform(0.5, 80, 2),
                       *rng.uniform(-100, 100, 2), *rng.uniform(0.5, 80, 2)] for _ in range(1000)])
    a, b = pairs[:, :4], pairs[:, 4:]
    out = predict_boxes(box_velocities(a, b), a)
    worst = max(np.abs(out[:, :2] - b[:, :2]).max(), (np.abs(out[:, 2:] - b[:, 2:]) / b[:, 2:]).max())
    assert worst < 1e-9


@settings(max_examples=200)
@given(st.lists(st.tuples(boxes(), st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 4)), min_size=1, max_size=20))
def test_predict_boxes_matches_scalar_oracle_bit_for_bit(pairs):
    got = predict_boxes(np.array([v for _, v in pairs]), box_array([b for b, _ in pairs]))
    want = box_array([oracles.predict_bbox(oracles.Velocity(*v), b) for b, v in pairs])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200)
@given(st.lists(st.tuples(boxes(min_size=1e-3, max_size=1e4), boxes(min_size=1e-3, max_size=1e4)), max_size=20))
def test_box_velocities_matches_scalar_oracle_bit_for_bit(pairs):
    got = box_velocities(box_array([a for a, _ in pairs]), box_array([b for _, b in pairs]))
    want = [oracles.inverse_velocity(a, b) for a, b in pairs]
    assert got.shape == (len(pairs), 4)
    assert got.tobytes() == np.array([(v.vx, v.vy, v.vw, v.vh) for v in want]).reshape(-1, 4).tobytes()


def test_predict_boxes_uses_math_exp():
    # np.exp rounds some float64 inputs differently from math.exp; the batched
    # step must give the scalar step's sizes
    v = np.random.default_rng(1).uniform(-1, 1, (2000, 4))
    boxes = np.ones((2000, 4))
    got = predict_boxes(v, boxes)[:, 2:].ravel().tolist()
    assert got == [math.exp(c) for c in v[:, 2:].ravel().tolist()]


def test_predict_boxes_rejects_like_velocity_and_bbox():
    boxes = box_array([BBox(10, 10, 4, 4), BBox(20, 20, 4, 4)])
    for v, message in (
        ([[0, 0, 0, 0], [0, math.inf, 0, 0]], "velocity component vy must be finite"),
        ([[0, 0, 0, math.nan], [math.nan, 0, 0, 0]], "velocity component vh must be finite"),
        ([[0, 0, 0, 0], [0, 0, -800.0, 0]], "box size must be positive, got w=0.0 h=4.0"),
    ):
        with pytest.raises(ValueError, match=message):
            predict_boxes(np.array(v, dtype=float), boxes)
    with pytest.raises(OverflowError):
        predict_boxes(np.array([[0, 0, 800.0, 0]]), boxes[:1])


def test_corner_helpers_take_boxes_or_arrays():
    bs = [BBox(12.5, -3.25, 7.0, 9.5), BBox(0.1, 0.2, 0.3, 0.7)]
    want = np.array([b.corners() for b in bs])
    assert box_corners(bs).tobytes() == want.tobytes()
    assert box_corners(box_array(bs)).tobytes() == want.tobytes()
    assert corner_boxes(want).tolist() == [[b.x, b.y, b.w, b.h] for b in (BBox.from_corners(*c) for c in want.tolist())]
    assert box_corners([]).shape == box_array([]).shape == (0, 4)


def test_velocity_rejects_non_finite():
    box = box_array([BBox(10, 10, 4, 4)])
    for v in ([math.nan, 0, 0, 0], [0, math.inf, 0, 0], [0, 0, -math.inf, 0]):
        with pytest.raises(ValueError, match="must be finite"):
            predict_boxes(np.array([v]), box)
    with pytest.raises(ValueError):
        oracles.Velocity(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        oracles.Velocity(0, math.inf, 0, 0)


def test_motion_frame_intra_must_be_empty():
    mv = np.zeros((2, 4, 3), dtype=np.int32)
    mv[0, 1, 1] = 2
    with pytest.raises(ValueError):
        MotionFrame(0, "I", mv, np.zeros((4, 3)))
    MotionFrame(0, "I", np.zeros((2, 4, 3), np.int32), np.zeros((4, 3)))  # ok


def test_tracker_config_defaults_and_validation():
    cfg = TrackerConfig()
    assert (cfg.K, cfg.tau_iou, cfg.tau_app, cfg.conf_min) == (3, 0.3, 0.25, 0.95)
    assert (cfg.c_confirm, cfg.l_confirm, cfg.l_demote, cfg.l_delete) == (0.99, 3, 2, 10)
    assert (cfg.l_f, cfg.alpha) == (24, 0.5)
    with pytest.raises(ValueError):
        TrackerConfig(tau_iou=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(l_f=0)
    with pytest.raises(ValueError):
        TrackerConfig(association_mode="both")
    with pytest.raises(ValueError):
        TrackerConfig(propagator="kalman")


def test_every_export_resolves():
    import mvtrack

    assert [name for name in mvtrack.__all__ if not hasattr(mvtrack, name)] == []
    assert len(set(mvtrack.__all__)) == len(mvtrack.__all__)
