"""Property and differential tests of the whole tracker on random scripts.

`engine.track` must give the same rows as the object-list loop in
`oracles.track`, bit for bit, under every propagator, association mode and
key-frame period; and its output must keep the tracker's invariants.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvtrack.engine
import oracles
from mvtrack.engine import OracleDetector, TrackerModels, track
from mvtrack.model import PROPAGATORS, BBox, TrackerConfig
from mvtrack.motion import FitHyper, fit_regressor
from mvtrack.stream import DetectorConfig, MotionScript, ObjectScript, Scenario, StreamHeader, generate_scenario

HEADER = StreamHeader(width=256, height=192, block=16, gop=12)
ASSOCIATION = {
    "twostep": dict(association_mode="twostep"),
    "onestep-0": dict(association_mode="onestep", alpha=0.0),
    "onestep-0.5": dict(association_mode="onestep", alpha=0.5),
    "onestep-1": dict(association_mode="onestep", alpha=1.0),
}


@pytest.fixture(scope="module")
def models(head7):
    objs = (
        ObjectScript(id=1, enter=1, exit=24, x=60, y=60, w=40, h=32, vx=2, vy=1, zoom=1.02),
        ObjectScript(id=2, enter=1, exit=24, x=180, y=120, w=48, h=48, vx=-1.5, zoom=0.98),
    )
    scenario = generate_scenario(MotionScript(frames=24, objects=objs), HEADER, seed=2)
    regressor, _ = fit_regressor([scenario], FitHyper(lr=1.0, epochs=100))
    return TrackerModels(regressor=regressor, affinity=head7)


@st.composite
def free_scripts(draw):
    """Objects anywhere, crossing, zooming, occluded, entering and leaving,
    partly or wholly outside the frame, under a panning camera."""
    frames = draw(st.integers(4, 24))
    objects = []
    for i in range(1, draw(st.integers(1, 6)) + 1):
        enter = draw(st.integers(1, frames))
        exit = draw(st.integers(enter, frames))
        a = draw(st.integers(enter, exit))
        occlusions = ((a, draw(st.integers(a, exit))),) if draw(st.booleans()) else ()
        objects.append(ObjectScript(
            id=i, enter=enter, exit=exit,
            x=draw(st.floats(-40, 296)), y=draw(st.floats(-40, 232)),
            w=draw(st.floats(8, 80)), h=draw(st.floats(8, 80)),
            vx=draw(st.floats(-8, 8)), vy=draw(st.floats(-8, 8)),
            zoom=draw(st.floats(0.97, 1.03)), occlusions=occlusions,
        ))
    camera = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    return MotionScript(frames=frames, objects=tuple(objects), camera=camera)


@st.composite
def lane_scripts(draw):
    """Up to three slow objects, one per horizontal lane, never occluded and
    never overlapping one another."""
    frames = draw(st.integers(1, 24))
    objects = []
    for i in range(1, draw(st.integers(1, 3)) + 1):
        enter = draw(st.integers(1, frames))
        objects.append(ObjectScript(
            id=i, enter=enter, exit=draw(st.integers(enter, frames)),
            x=draw(st.floats(-20, 276)), y=32.0 + 64 * (i - 1),
            w=draw(st.floats(24, 64)), h=draw(st.floats(24, 40)),
            vx=draw(st.floats(-1.5, 1.5)), vy=draw(st.floats(-0.3, 0.3)),
            zoom=draw(st.floats(0.995, 1.005)),
        ))
    return MotionScript(frames=frames, objects=tuple(objects))


@st.composite
def cases(draw):
    """A scenario, a detector configuration and the lifecycle settings."""
    scenario = generate_scenario(draw(free_scripts()), HEADER, seed=draw(st.integers(0, 99)))
    det = DetectorConfig(
        noise_center=draw(st.sampled_from([0.0, 0.02, 0.1])),
        noise_size=draw(st.sampled_from([0.0, 0.05])),
        miss_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        fp_rate=draw(st.sampled_from([0.0, 1.0, 3.0])),
        feature_noise=draw(st.sampled_from([0.0, 0.1, 0.8])),
        conf_min=draw(st.sampled_from([0.95, 0.98])),
        rng_seed=draw(st.integers(0, 999)),
    )
    lifecycle = dict(
        conf_min=det.conf_min,
        c_confirm=draw(st.sampled_from([0.97, 0.99])),
        l_confirm=draw(st.integers(1, 3)),
        l_demote=draw(st.integers(1, 2)),
        l_delete=draw(st.sampled_from([1, 3, 10])),
        l_f=draw(st.sampled_from([2, 24])),
        tau_iou=draw(st.sampled_from([0.3, 0.6])),
    )
    return scenario, det, lifecycle


def bits(rows):
    return [(f, i, *(float.hex(v) for v in (b.x, b.y, b.w, b.h))) for f, i, b in rows]


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("assoc", sorted(ASSOCIATION))
@pytest.mark.parametrize("propagator", PROPAGATORS)
@settings(max_examples=15, deadline=None)
@given(case=cases())
def test_engine_matches_object_loop_oracle(models, propagator, assoc, K, case):
    scenario, det, lifecycle = case
    cfg = TrackerConfig(K=K, propagator=propagator, **ASSOCIATION[assoc], **lifecycle)
    rows, _ = track(scenario, OracleDetector(scenario, det), cfg, models)
    want = oracles.track(scenario, OracleDetector(scenario, det), cfg, models)
    assert bits(rows) == bits(want)


def _prefix(scenario: Scenario, n: int) -> Scenario:
    return Scenario(scenario.header, scenario.frames[:n], [r for r in scenario.gt if r.frame <= n], scenario.feature_seeds)


@settings(max_examples=150, deadline=None)
@given(
    case=cases(),
    propagator=st.sampled_from(PROPAGATORS),
    assoc=st.sampled_from(sorted(ASSOCIATION)),
    K=st.sampled_from([1, 2, 3]),
    cut=st.floats(0, 1),
)
def test_tracker_invariants(models, case, propagator, assoc, K, cut):
    scenario, det, lifecycle = case
    cfg = TrackerConfig(K=K, propagator=propagator, **ASSOCIATION[assoc], **lifecycle)
    rows, _ = track(scenario, OracleDetector(scenario, det), cfg, models)
    # at most one row per (frame, id)
    assert len({(f, i) for f, i, _ in rows}) == len(rows)
    # every emitted box lies inside the frame and has positive size
    slack = 1e-9 * max(HEADER.width, HEADER.height)
    for _, _, b in rows:
        assert type(b.x) is type(b.y) is type(b.w) is type(b.h) is float
        assert b.w > 0 and b.h > 0
        assert -slack <= b.left and b.right <= HEADER.width + slack
        assert -slack <= b.top and b.bottom <= HEADER.height + slack
    # online: the first n frames alone give exactly the rows up to frame n
    n = round(cut * scenario.n_frames)
    head = _prefix(scenario, n)
    head_rows, _ = track(head, OracleDetector(head, det), cfg, models)
    assert bits(head_rows) == bits([r for r in rows if r[0] <= n])


@settings(max_examples=100, deadline=None)
@given(
    case=cases(),
    propagator=st.sampled_from(PROPAGATORS),
    assoc=st.sampled_from(sorted(ASSOCIATION)),
    K=st.sampled_from([1, 2, 3]),
)
def test_ids_are_never_reused(models, case, propagator, assoc, K):
    scenario, det, lifecycle = case
    cfg = TrackerConfig(K=K, propagator=propagator, **ASSOCIATION[assoc], **lifecycle)
    update = mvtrack.engine.update
    tables = []

    def recording_update(*args):
        out = update(*args)
        tables.append(out.ids.tolist())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mvtrack.engine, "update", recording_update)
        track(scenario, OracleDetector(scenario, det), cfg, models)
    assert len(tables) == len(range(1, scenario.n_frames + 1, K))
    live, gone = [], set()
    for ids in tables:
        assert all(a < b for a, b in zip(ids, ids[1:])), ids  # birth order is id order
        assert not gone & set(ids), (sorted(gone & set(ids)), ids)
        gone |= set(live) - set(ids)
        live = ids


def _clip(b: BBox):
    left, top = max(b.left, 0.0), max(b.top, 0.0)
    right, bottom = min(b.right, float(HEADER.width)), min(b.bottom, float(HEADER.height))
    return BBox.from_corners(left, top, right, bottom) if right > left and bottom > top else None


@settings(max_examples=100, deadline=None)
@given(
    script=lane_scripts(),
    propagator=st.sampled_from(PROPAGATORS),
    assoc=st.sampled_from(sorted(ASSOCIATION)),
    seed=st.integers(0, 999),
)
def test_k1_noiseless_reproduces_ground_truth(models, script, propagator, assoc, seed):
    scenario = generate_scenario(script, HEADER, seed=seed)
    det = DetectorConfig(conf_min=0.995, rng_seed=seed)
    cfg = TrackerConfig(K=1, propagator=propagator, conf_min=0.995, **ASSOCIATION[assoc])
    assert cfg.conf_min > cfg.c_confirm  # every detection is confirmed at birth
    rows, _ = track(scenario, OracleDetector(scenario, det), cfg, models)
    emitted = {}
    for f, _, b in rows:
        emitted.setdefault(f, set()).add(b)
    for r in scenario.gt:
        clipped = _clip(r.bbox)
        if r.visible and clipped is not None:
            assert clipped in emitted.get(r.frame, set()), (r.frame, r.id)


def test_detector_boxes_and_rows_hold_float(models):
    objs = (ObjectScript(id=1, enter=1, exit=12, x=60.5, y=60, w=40, h=32, vx=2),
            ObjectScript(id=2, enter=1, exit=12, x=180, y=120, w=48, h=48, vx=-1))
    scenario = generate_scenario(MotionScript(frames=12, objects=objs), HEADER, seed=1)
    det = DetectorConfig(noise_center=0.02, noise_size=0.02, fp_rate=1.0, feature_noise=0.1, rng_seed=3)
    boxes = [d.bbox for t in (1, 4, 7) for d in OracleDetector(scenario, det)(t)]
    rows, _ = track(scenario, OracleDetector(scenario, det), TrackerConfig(conf_min=0.95), models)
    assert boxes and rows
    for b in boxes + [b for _, _, b in rows]:
        assert [type(v) for v in (b.x, b.y, b.w, b.h)] == [float] * 4, repr(b)
