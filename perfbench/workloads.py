"""Benchmark workloads: scenario, detector and tracker settings, and the
inputs they make from one integer seed.

`build_scenario(wl, seed)` makes a workload's scenario and
`fit_models(wl, seed)` fits the models its tracker needs. Nothing here is
timed. Why each workload exists, and what the seed varies in it, is in
README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvtrack.affinity import AffinityFitHyper, fit_affinity_head
from mvtrack.engine import TrackerModels
from mvtrack.motion import FitHyper, fit_regressor
from mvtrack.model import TrackerConfig
from mvtrack.stream import DetectorConfig, MotionScript, ObjectScript, StreamHeader, generate_scenario


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    frames: int
    objects: int
    box: int
    layout: str  # "grid" (random walkers), "rows" or "crossing" (paired lanes)
    detector: dict = field(default_factory=dict)
    tracker: dict = field(default_factory=dict)
    # A fixed stream, as (layout rng seed, generator seed), or a fixed
    # detection draw, in place of ones drawn from the benchmark seed.
    scene_seed: tuple | None = None
    detector_seed: int | None = None

    def header(self) -> StreamHeader:
        return StreamHeader(width=self.width, height=self.height, block=16, gop=12)

    def det_seed(self, seed: int) -> int:
        return seed if self.detector_seed is None else self.detector_seed

    def detector_config(self, seed: int) -> DetectorConfig:
        return DetectorConfig(rng_seed=self.det_seed(seed), **self.detector)

    def tracker_config(self, k: int) -> TrackerConfig:
        conf_min = self.detector.get("conf_min", DetectorConfig.conf_min)
        return TrackerConfig(K=k, conf_min=conf_min, **self.tracker)

    def track_flags(self, k: int, seed: int) -> list:
        """The same tracker and detector configuration as `mvtrack track` flags."""
        cfg = self.tracker_config(k)
        out = ["--K", str(k), "--propagator", cfg.propagator, "--assoc", cfg.association_mode,
               "--alpha", repr(cfg.alpha), "--conf-min", repr(cfg.conf_min), "--det-seed", str(self.det_seed(seed))]
        for key, value in self.detector.items():
            if key != "conf_min":
                out += ["--det-" + key.replace("_", "-"), repr(value)]
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clean-50",
            width=1280, height=720, frames=600, objects=50, box=48, layout="grid",
            detector=dict(noise_center=0.01, noise_size=0.01, conf_min=0.995),
            tracker=dict(propagator="regressor", association_mode="twostep"),
            scene_seed=(42, 9),
        ),
        Workload(
            name="noisy-20",
            width=960, height=540, frames=120, objects=20, box=48, layout="rows",
            detector=dict(noise_center=0.02, noise_size=0.02, miss_rate=0.2, fp_rate=2.0, feature_noise=0.1),
            tracker=dict(propagator="bboxavg", association_mode="twostep"),
            detector_seed=0,
        ),
        Workload(
            name="crowd-onestep",
            width=960, height=540, frames=72, objects=8, box=96, layout="crossing",
            detector=dict(noise_center=0.01, feature_noise=0.1),
            tracker=dict(propagator="pixelshift", association_mode="onestep", alpha=0.5),
        ),
    )
}

K = 3


def _grid_objects(rng, wl: Workload) -> list:
    """Random walkers at +-1 px/frame that stay inside the frame throughout."""
    objs = []
    mx, my = wl.box / 2 + 36, wl.box / 2 + 26
    span = wl.frames - 1
    for i in range(1, wl.objects + 1):
        vx = int(rng.integers(-1, 2))
        vy = int(rng.integers(-1, 2))
        x_lo, x_hi = mx + max(0, -vx) * span, wl.width - mx - max(0, vx) * span
        y_lo, y_hi = my + max(0, -vy) * span, wl.height - my - max(0, vy) * span
        x0 = float(rng.uniform(min(x_lo, x_hi - 1), max(x_hi, x_lo + 1)))
        y0 = float(rng.uniform(min(y_lo, y_hi - 1), max(y_hi, y_lo + 1)))
        objs.append(ObjectScript(id=i, enter=1, exit=wl.frames, x=x0, y=y0, w=wl.box, h=wl.box,
                                 vx=float(vx), vy=float(vy)))
    return objs


def _row_objects(rng, wl: Workload) -> list:
    """Rows of objects; each row moves at its own horizontal speed, so
    objects never overlap and every association failure comes from a miss
    or a false positive."""
    objs = []
    rows = 4
    cols = wl.objects // rows
    span = wl.frames - 1
    margin = wl.box / 2 + 30
    pitch_y = (wl.height - 2 * margin) / (rows - 1)
    pitch_x = (wl.width - 2 * margin - span) / (cols - 1)
    for r in range(rows):
        vx = float(rng.choice([-1, 1]))
        x_start = margin + (span if vx < 0 else 0)
        for c in range(cols):
            jx, jy = rng.uniform(-0.15, 0.15, size=2) * (pitch_x, pitch_y)
            objs.append(ObjectScript(id=r * cols + c + 1, enter=1, exit=wl.frames, x=x_start + c * pitch_x + jx,
                                     y=margin + r * pitch_y + jy, w=wl.box, h=wl.box, vx=vx))
    return objs


def _crossing_objects(rng, wl: Workload) -> list:
    """Pairs of objects in adjacent lanes that meet mid-stream, moving in
    opposite directions, so every pair overlaps while it crosses."""
    objs = []
    lanes = wl.objects // 2
    pitch = (wl.height - wl.box) / lanes
    span = wl.frames - 1
    margin = wl.box / 2 + 8
    for k in range(lanes):
        y = wl.box / 2 + 4 + k * pitch
        dy = float(rng.uniform(0.3, 0.6)) * wl.box
        v_right, v_left = (float(v) for v in rng.integers(2, 5, size=2))
        t_meet = float(rng.uniform(0.35, 0.65)) * span
        # the meeting point keeps both objects inside the frame for the whole stream
        lo = margin + max(v_right * t_meet, v_left * (span - t_meet))
        hi = wl.width - margin - max(v_right * (span - t_meet), v_left * t_meet)
        x_meet = float(rng.uniform(lo, hi))
        objs.append(ObjectScript(id=2 * k + 1, enter=1, exit=wl.frames, x=x_meet - v_right * t_meet, y=y,
                                 w=wl.box, h=wl.box, vx=v_right))
        objs.append(ObjectScript(id=2 * k + 2, enter=1, exit=wl.frames, x=x_meet + v_left * t_meet, y=y + dy,
                                 w=wl.box, h=wl.box, vx=-v_left))
    return objs


def build_scenario(wl: Workload, seed: int):
    if wl.scene_seed is not None:
        rng, gen_seed = np.random.default_rng(wl.scene_seed[0]), wl.scene_seed[1]
    else:
        rng = np.random.default_rng([seed, 1])
        gen_seed = int(rng.integers(0, 2**31))
    layouts = {"grid": _grid_objects, "rows": _row_objects, "crossing": _crossing_objects}
    objs = layouts[wl.layout](rng, wl)
    script = MotionScript(frames=wl.frames, objects=tuple(objs))
    return generate_scenario(script, wl.header(), seed=gen_seed)


def _translation_regressor(header: StreamHeader, seed: int, box: int = 48, epochs: int = 200):
    """The acceptance criterion-1 regressor: one short scenario per unit velocity."""
    velo = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0)]
    train = []
    for i, (vx, vy) in enumerate(velo):
        rng = np.random.default_rng([seed, 2, i])
        obj = ObjectScript(id=1, enter=1, exit=25, x=400 - vx * 12 + float(rng.uniform(0, 16)),
                           y=300 - vy * 12 + float(rng.uniform(0, 16)), w=box, h=box, vx=vx, vy=vy)
        train.append(generate_scenario(MotionScript(frames=25, objects=(obj,)), header, seed=int(rng.integers(0, 2**31))))
    params, _ = fit_regressor(train, FitHyper(lr=1.0, epochs=epochs))
    return params


def _affinity_head(seed: int, m: int = 7, c: int = 16):
    """A head fitted on generic identity-correlated patches, like the tests' fixture."""
    rng = np.random.default_rng([seed, 3])
    pairs = []
    for _ in range(150):
        base = rng.standard_normal((m, m, c))
        a = base + 0.1 * rng.standard_normal((m, m, c))
        b = base + 0.1 * rng.standard_normal((m, m, c))
        d = rng.standard_normal((m, m, c)) + 0.1 * rng.standard_normal((m, m, c))
        pairs.append((a, b, 1))
        pairs.append((a, d, 0))
    params, _ = fit_affinity_head(pairs, AffinityFitHyper(lr=1.0, epochs=600))
    return params


def fit_models(wl: Workload, seed: int) -> TrackerModels:
    regressor = _translation_regressor(wl.header(), seed) if wl.tracker["propagator"] == "regressor" else None
    return TrackerModels(regressor=regressor, affinity=_affinity_head(seed))
