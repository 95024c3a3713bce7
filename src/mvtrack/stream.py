"""Block-motion stream container, synthetic scenario generation, and file I/O.

A scenario bundles a stream header, one MotionFrame per video frame, ground
truth, and per-identity feature seeds. Frames are stored 0-based
(frames[t].index == t, frames[0] is intra); ground-truth and tracker output
use 1-based frame numbers, so engine frame t reads frames[t-1].

The generator synthesizes motion-vector grids from scripted trajectories:
a block belongs to the object whose previous-frame box contains the block
center (the latest-entering object wins ties), foreground blocks carry the
object's integer-rounded displacement, background blocks carry the global
camera displacement. Blocks of an occluded object carry background motion
plus an elevated residual, so occlusion genuinely interrupts propagation.
A box goes in and comes out as an (x, y, w, h) tuple of floats: the
scripts' `box_at`, the ground truth's `bbox` and the MOTChallenge rows.

`OracleDetector` indexes the visible ground truth by frame once, in the
columns of `mot_table(gt_to_rows(gt))`, and returns each key frame's
detections as one `Detections` table; the per-row reference it reproduces
bit for bit lives in `tests/oracles.py`, as does `Scenario.feature_of`
without its cache of each identity's base pattern.

The container is line-delimited text. `read_scenario` walks the header and
frame records in Python but parses the ground-truth, motion-vector and
residual records each as one numpy table (`_load_table`, one np.loadtxt
call), as `read_mot_table` does for MOTChallenge files, which it returns as
columns (`read_motchallenge` is their row view); a malformed record raises
an error naming its line. The per-token readers they reproduce bit
for bit live in `tests/oracles.py`.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .model import MAX_INPUT, ConfigError, Detections, FeaturePatch, MotionFrame, MotTable, box_corners, center_cells
from .model import first_repeat, frame_spans, mot_table, out_of_bounds


class ScenarioFormatError(ValueError):
    """Malformed scenario container file."""


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    block: int = 16
    gop: int = 12
    fps: float = 30.0
    feature_channels: int = 16
    feature_bins: int = 7

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.block < 1:
            raise ConfigError(f"block size must be >= 1, got {self.block}")
        if self.gop < 1:
            raise ConfigError(f"gop must be >= 1, got {self.gop}")
        if not 0 < self.fps < math.inf:
            raise ConfigError(f"fps must be positive and finite, got {self.fps}")
        if self.feature_bins < 1 or self.feature_channels < 1:
            raise ConfigError(f"feature shape must be positive, got m={self.feature_bins} c={self.feature_channels}")

    @property
    def grid(self) -> tuple[int, int]:
        """Block-grid dimensions (gw, gh)."""
        return (
            math.ceil(self.width / self.block),
            math.ceil(self.height / self.block),
        )


@dataclass(frozen=True)
class GroundTruthEntry:
    frame: int  # 1-based
    id: int
    bbox: tuple  # (x, y, w, h)
    visible: bool = True


@dataclass
class Scenario:
    header: StreamHeader
    frames: list
    gt: list
    feature_seeds: dict
    # base pattern of each (seed, m, c) drawn so far; not part of the value
    _patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def feature_of(self, obj_id: int, noise: float, rng=None) -> FeaturePatch:
        """Appearance patch for an identity: a seeded base pattern plus noise.

        Two calls with the same id correlate strongly, different ids weakly.
        The base pattern is drawn from the identity's seed once and cached;
        every call returns a new array, so a caller may keep or change it.
        """
        try:
            seed = self.feature_seeds[obj_id]
        except KeyError:
            raise ValueError(f"object id {obj_id} has no latent feature seed")
        m, c = self.header.feature_bins, self.header.feature_channels
        base = self._patterns.get((seed, m, c))
        if base is None:
            base = self._patterns[seed, m, c] = np.random.default_rng(seed).standard_normal((m, m, c))
        if noise > 0:
            if rng is None:
                raise ValueError("an rng is required when noise > 0")
            return base + noise * rng.standard_normal((m, m, c))
        return base.copy()


@dataclass(frozen=True)
class ObjectScript:
    """Parametric trajectory: linear translation plus constant zoom rate.

    The object exists on engine frames enter..exit (inclusive) and is
    invisible during the listed occlusion intervals (inclusive frame pairs).
    """

    id: int
    enter: int
    exit: int
    x: float
    y: float
    w: float
    h: float
    vx: float = 0.0
    vy: float = 0.0
    zoom: float = 1.0
    occlusions: tuple = ()
    occlusion_residual: float = 0.5

    def alive_at(self, t: int) -> bool:
        return self.enter <= t <= self.exit

    def visible_at(self, t: int) -> bool:
        if not self.alive_at(t):
            return False
        return not any(a <= t <= b for a, b in self.occlusions)

    def box_at(self, t: int) -> tuple:
        """The (x, y, w, h) box on frame t."""
        dt = t - self.enter
        s = self.zoom**dt
        return (self.x + self.vx * dt, self.y + self.vy * dt, self.w * s, self.h * s)


@dataclass(frozen=True)
class MotionScript:
    frames: int
    objects: tuple
    camera: tuple = (0, 0)


def load_script(path) -> MotionScript:
    """Parse a JSON motion script; bad JSON is reported with its line number."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid script at line {exc.lineno}: {exc.msg}") from exc
    return script_from_dict(data)


def script_from_dict(data: dict) -> MotionScript:
    try:
        frames = int(data["frames"])
        camera = tuple(map(int, data.get("camera", (0, 0))))
        objects = []
        for entry in data["objects"]:
            objects.append(
                ObjectScript(
                    id=int(entry["id"]),
                    enter=int(entry.get("enter", 1)),
                    exit=int(entry.get("exit", frames)),
                    x=float(entry["x"]),
                    y=float(entry["y"]),
                    w=float(entry["w"]),
                    h=float(entry["h"]),
                    vx=float(entry.get("vx", 0.0)),
                    vy=float(entry.get("vy", 0.0)),
                    zoom=float(entry.get("zoom", 1.0)),
                    occlusions=tuple((int(a), int(b)) for a, b in entry.get("occlusions", ())),
                    occlusion_residual=float(entry.get("occlusion_residual", 0.5)),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid script: {exc}") from exc
    return MotionScript(frames=frames, objects=tuple(objects), camera=camera)


def _validate_script(script: MotionScript, header: StreamHeader) -> None:
    if script.frames < 1:
        raise ValueError("script must cover at least one frame")
    seen = set()
    for obj in script.objects:
        if obj.id in seen:
            raise ValueError(f"duplicate object id {obj.id} in script")
        seen.add(obj.id)
        if obj.enter < 1 or obj.exit > script.frames or obj.enter > obj.exit:
            raise ValueError(f"object {obj.id}: lifetime [{obj.enter},{obj.exit}] outside 1..{script.frames}")
        if obj.w <= 0 or obj.h <= 0 or obj.zoom <= 0:
            raise ValueError(f"object {obj.id}: size and zoom must be positive")
        for t in (obj.enter, obj.exit):  # sizes are monotone in t
            _, _, w, h = obj.box_at(t)
            if not (w > 0 and h > 0):
                raise ValueError(f"object {obj.id}: box size must be positive, got w={w} h={h}")
            if w > header.width or h > header.height:
                raise ValueError(f"object {obj.id}: larger than the frame at frame {t}")


def generate_scenario(script: MotionScript, header: StreamHeader, seed: int) -> Scenario:
    """Build a scenario whose ground truth follows the script exactly.

    Deterministic given (script, header, seed): the seed only drives the
    per-identity feature seeds.
    """
    _validate_script(script, header)
    gw, gh = header.grid
    block = header.block

    gt = []
    for t in range(1, script.frames + 1):
        for obj in sorted(script.objects, key=lambda o: o.id):
            if obj.alive_at(t):
                gt.append(GroundTruthEntry(t, obj.id, obj.box_at(t), obj.visible_at(t)))

    # Painter order: earlier-entering objects first so the latest-entering
    # (frontmost) object overwrites shared blocks.
    paint_order = sorted(script.objects, key=lambda o: (o.enter, o.id))
    cam_x, cam_y = script.camera

    frames = []
    xs = (np.arange(gw) + 0.5) * block
    ys = (np.arange(gh) + 0.5) * block
    for j in range(script.frames):
        if j % header.gop == 0:
            frames.append(MotionFrame.intra(j, gw, gh))
            continue
        t_prev, t_cur = j, j + 1  # engine frame numbers bridged by this frame
        mv = np.zeros((2, gw, gh), dtype=np.int32)
        mv[0].fill(cam_x)
        mv[1].fill(cam_y)
        residual = np.zeros((gw, gh))
        moving = [obj for obj in paint_order if obj.alive_at(t_prev) and obj.alive_at(t_cur)]
        prevs = [obj.box_at(t_prev) for obj in moving]
        cells = center_cells(box_corners(prevs), block, gw, gh)
        for obj, (px, py, pw, ph), (x0, y0, x1, y1) in zip(moving, prevs, cells):
            if x0 >= x1 or y0 >= y1:
                continue
            sel = np.s_[x0:x1, y0:y1]
            if obj.visible_at(t_prev) and obj.visible_at(t_cur):
                cx, cy, cw, ch = obj.box_at(t_cur)
                sx = cw / pw
                sy = ch / ph
                dx = (cx - px) + (xs[x0:x1, None] - px) * (sx - 1)
                dy = (cy - py) + (ys[None, y0:y1] - py) * (sy - 1)
                dx = np.broadcast_to(dx, (x1 - x0, y1 - y0))
                dy = np.broadcast_to(dy, (x1 - x0, y1 - y0))
                rx = np.rint(dx)
                ry = np.rint(dy)
                mv[0][sel] = rx.astype(np.int32)
                mv[1][sel] = ry.astype(np.int32)
                residual[sel] = np.abs(dx - rx) + np.abs(dy - ry)
            else:
                # Occluded: the block shows whatever covers the object, so no
                # usable motion, only an appearance-change residual.
                mv[0][sel] = cam_x
                mv[1][sel] = cam_y
                residual[sel] = obj.occlusion_residual
        frames.append(MotionFrame(j, "P", mv, residual))

    rng = np.random.default_rng(seed)
    seeds = {}
    for obj_id in sorted(o.id for o in script.objects):
        seeds[obj_id] = int(rng.integers(0, 2**62))
    return Scenario(header=header, frames=frames, gt=gt, feature_seeds=seeds)


@dataclass(frozen=True)
class DetectorConfig:
    """Synthetic detector: perturbed ground truth plus uniform clutter."""

    noise_center: float = 0.0
    noise_size: float = 0.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0
    feature_noise: float = 0.0
    conf_min: float = 0.95
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("miss_rate", "conf_min"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        for name in ("fp_rate", "noise_center", "noise_size", "feature_noise"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite, got {v}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be non-negative, got {self.rng_seed}")


class OracleDetector:
    """Default detector: perturbed ground truth from the scenario itself,
    deterministic given (rng_seed, frame).

    Visible ground-truth objects are emitted in id order with probability
    1 - miss_rate, with perturbed boxes and confidence in [conf_min, 1);
    occluded objects are never emitted; Poisson(fp_rate) false positives
    carry fresh identities.
    """

    def __init__(self, scenario: Scenario, cfg: DetectorConfig = DetectorConfig()):
        self.scenario, self.cfg = scenario, cfg
        gt = mot_table(gt_to_rows(scenario.gt))
        visible = np.flatnonzero(gt.conf > 0.5)
        order = visible[np.lexsort((gt.id[visible], gt.frame[visible]))]
        self._ids, self._boxes = gt.id[order], gt.boxes[order]
        self._spans = frame_spans(gt.frame[order])

    def __call__(self, frame: int) -> Detections:
        cfg, header = self.cfg, self.scenario.header
        m, c = header.feature_bins, header.feature_channels
        rng = np.random.default_rng([cfg.rng_seed, frame])
        span = self._spans.get(frame, slice(0))
        hit, noise, conf, features = [], [], [], []
        for row, obj_id in enumerate(self._ids[span].tolist()):
            if rng.random() < cfg.miss_rate:
                continue
            hit.append(row)
            noise.append(rng.standard_normal(4))
            conf.append(rng.uniform(cfg.conf_min, 1.0))
            features.append(self.scenario.feature_of(obj_id, cfg.feature_noise, rng))
        b, g = self._boxes[span][hit], np.array(noise).reshape(-1, 4)
        # math.exp, not np.exp: the two round some inputs differently
        scale = np.array([math.exp(v) for v in (cfg.noise_size * g[:, 2:]).ravel().tolist()]).reshape(-1, 2)
        boxes = [np.concatenate([b[:, :2] + cfg.noise_center * b[:, 2:] * g[:, :2], b[:, 2:] * scale], axis=1)]
        for _ in range(rng.poisson(cfg.fp_rate)):
            w = rng.uniform(8, max(9, header.width / 3))
            h = rng.uniform(8, max(9, header.height / 3))
            boxes.append(np.array([[rng.uniform(0, header.width), rng.uniform(0, header.height), w, h]]))
            conf.append(rng.uniform(cfg.conf_min, 1.0))
            feat = np.random.default_rng(int(rng.integers(0, 2**62))).standard_normal((m, m, c))
            if cfg.feature_noise > 0:
                feat = feat + cfg.feature_noise * rng.standard_normal((m, m, c))
            features.append(feat)
        features = np.array(features, dtype=float).reshape(-1, m, m, c)
        return Detections(np.concatenate(boxes), np.array(conf, dtype=float), features)


# ---------------------------------------------------------------------------
# Scenario container file: line-delimited text, canonical formatting so that
# a freshly read file re-serializes byte-identically.

def _fmt(v: float) -> str:
    return repr(float(v))


def write_scenario(scenario: Scenario, path) -> None:
    header = scenario.header
    lines = ["mvscene 1"]
    lines.append(
        "header %d %d %d %d %s %d %d"
        % (
            header.width,
            header.height,
            header.block,
            header.gop,
            _fmt(header.fps),
            header.feature_channels,
            header.feature_bins,
        )
    )
    lines.append("counts %d %d %d" % (len(scenario.frames), len(scenario.feature_seeds), len(scenario.gt)))
    for obj_id in sorted(scenario.feature_seeds):
        lines.append("seed %d %d" % (obj_id, scenario.feature_seeds[obj_id]))
    for row in scenario.gt:
        lines.append("gt %d %d %s %s %s %s %d" % (row.frame, row.id, *map(_fmt, row.bbox), 1 if row.visible else 0))
    for fr in scenario.frames:
        lines.append("frame %d %s" % (fr.index, fr.kind))
        if fr.kind == "P":
            lines.append("mv " + " ".join(str(int(v)) for v in fr.mv.ravel()))
            lines.append("res " + " ".join(_fmt(v) for v in fr.residual.ravel()))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fields(lines, pos: int, tag: str, n: int) -> list:
    """The n whitespace-separated fields of the `tag` record on lines[pos]."""
    parts = lines[pos].split() if pos < len(lines) else []
    if not parts or parts[0] != tag:
        raise ValueError(f"missing {tag!r} record")
    if len(parts) != n + 1:
        raise ValueError(f"{tag!r} record has {len(parts) - 1} fields, expected {n}")
    return parts[1:]


def _load_table(lines, rows, dtype, check, what: str, skip: int = 0, ndmin: int = 1, **layout) -> np.ndarray:
    """Parse lines[i][skip:] for i in rows as one numpy table, with a single
    np.loadtxt call; `layout` passes its delimiter and usecols.

    `check(table)` raises ValueError for a bad row. When the bulk parse fails
    (a token that does not convert, rows of differing width, a blank row,
    which loadtxt would skip, or a failed check), the rows are parsed one at
    a time by the same call, and the ValueError names the first bad line."""
    if not rows:
        return np.empty((0,) * ndmin, dtype)

    def load(texts):
        return np.loadtxt(texts, dtype=dtype, comments=None, ndmin=ndmin, **layout)

    # loadtxt skips blank rows (the length check below catches them) and warns when all are
    if lines[rows[0]][skip:].strip():
        try:
            table = load(lines[i][skip:] for i in rows)
            if len(table) == len(rows):
                check(table)
                return table
        except ValueError:
            pass
    for i in rows:
        text = lines[i][skip:]
        if not text.strip():
            raise ValueError(f"line {i + 1}: malformed {what}: no values")
        try:
            row = load([text])
        except ValueError as exc:  # drop numpy's row number, which counts from this one row
            raise ValueError(f"line {i + 1}: malformed {what}: {re.sub(r' at row [0-9]+|;.*', '', str(exc))}") from None
        try:
            check(row)
        except ValueError as exc:
            raise ValueError(f"line {i + 1}: {exc}") from None
    raise ValueError(f"lines {rows[0] + 1}..{rows[-1] + 1}: malformed {what}s")


_GT_ROW = np.dtype([("frame", np.int64), ("id", np.int64), ("box", np.float64, (4,)), ("visible", np.int64)])


def read_scenario(path) -> Scenario:
    """Read a scenario file. The gt, mv and res records are each parsed as one
    numpy table; a malformed file raises ScenarioFormatError naming the bad
    line (for a ground-truth (frame, id) given twice, the second), or for a
    truncated file its last complete frame."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    if not lines or lines[0] != "mvscene 1":
        raise ScenarioFormatError("line 1: malformed header: missing 'mvscene 1' magic")
    try:
        width, height, block, gop, fps, channels, bins = _fields(lines, 1, "header", 7)
        header = StreamHeader(int(width), int(height), int(block), int(gop), float(fps), int(channels), int(bins))
    except ValueError as exc:
        raise ScenarioFormatError(f"line 2: malformed header: {exc}") from exc
    try:
        n_frames, n_seeds, n_gt = map(int, _fields(lines, 2, "counts", 3))
        if min(n_frames, n_seeds, n_gt) < 0:
            raise ValueError("negative count")
    except ValueError as exc:
        raise ScenarioFormatError(f"line 3: malformed header: {exc}") from exc

    seeds = {}
    for pos in range(3, 3 + n_seeds):
        if pos >= len(lines):
            raise ScenarioFormatError("truncated file: incomplete seed table")
        try:
            obj_id, value = map(int, _fields(lines, pos, "seed", 2))
            if obj_id in seeds:
                raise ValueError(f"duplicate id {obj_id}")
            if value < 0:
                raise ValueError(f"negative seed {value}")
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos + 1}: malformed seed record: {exc}") from exc
        seeds[obj_id] = value

    gt_rows = range(3 + n_seeds, 3 + n_seeds + n_gt)
    if gt_rows.stop > len(lines):
        raise ScenarioFormatError("truncated file: incomplete ground-truth table")
    for i in gt_rows:
        if not lines[i].startswith("gt "):
            raise ScenarioFormatError(f"line {i + 1}: expected a ground-truth record, got {lines[i][:40]!r}")

    # One pass over the frame records; the mv and res lines are only located.
    gw, gh = header.grid
    mv_rows = []
    pos = gt_rows.stop
    last_complete = None
    for idx in range(n_frames):
        if pos >= len(lines):
            raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
        try:
            got, kind = _fields(lines, pos, "frame", 2)
            got = int(got)
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos + 1}: malformed frame record: {exc}") from exc
        if got != idx:
            raise ScenarioFormatError(f"line {pos + 1}: non-monotone frame index: expected {idx}, got {got}")
        want = "I" if idx % header.gop == 0 else "P"
        if kind != want:
            raise ScenarioFormatError(f"line {pos + 1}: frame {idx}: must be {want} under gop={header.gop}, got {kind}")
        if kind == "P":
            if pos + 2 >= len(lines):
                raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
            for i, tag in ((pos + 1, "mv "), (pos + 2, "res ")):
                if not lines[i].startswith(tag):
                    raise ScenarioFormatError(f"line {i + 1}: frame {idx}: expected {tag}record, got {lines[i][:40]!r}")
            mv_rows.append(pos + 1)
            pos += 2
        pos += 1
        last_complete = idx
    if pos >= len(lines):
        raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
    if lines[pos] != "end":
        raise ScenarioFormatError(f"line {pos + 1}: expected 'end' after frame {last_complete}, got {lines[pos][:40]!r}")

    known_ids = np.array(list(seeds), dtype=np.int64)

    def check_gt(t):
        box, frame, ids, visible = t["box"], t["frame"], t["id"], t["visible"]
        if not np.isfinite(box).all():
            raise ValueError("malformed ground-truth record: non-finite number")
        bad = ~((box[:, 2] > 0) & (box[:, 3] > 0))
        if bad.any():
            w, h = box[bad][0, 2:]
            raise ValueError(f"malformed ground-truth record: box size must be positive, got w={w} h={h}")
        bad = (visible != 0) & (visible != 1)
        if bad.any():
            raise ValueError(f"malformed ground-truth record: visibility must be 0 or 1, got {visible[bad][0]}")
        bad = (frame < 1) | (frame > n_frames)
        if bad.any():
            raise ValueError(f"ground-truth frame {frame[bad][0]} outside 1..{n_frames}")
        bad = ~np.isin(ids, known_ids)
        if bad.any():
            raise ValueError(f"ground-truth id {ids[bad][0]} has no feature seed")

    def check_grid(size):
        def check(t):
            if t.shape[1] != size:
                raise ValueError(f"grid size mismatch: {t.shape[1]} values, header grid {gw}x{gh} needs {size}")
            bad = out_of_bounds(t)
            if bad is not None:
                raise ValueError(f"malformed res record: non-finite residual or one above {MAX_INPUT:g} in magnitude, got {bad}")

        return check

    try:
        table = _load_table(lines, gt_rows, _GT_ROW, check_gt, "ground-truth record", skip=3)
        mv = _load_table(lines, mv_rows, np.int32, check_grid(2 * gw * gh), "mv record", skip=3, ndmin=2)
        res = _load_table(lines, [i + 1 for i in mv_rows], np.float64, check_grid(gw * gh), "res record", skip=4, ndmin=2)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    row = first_repeat(table["frame"], table["id"])
    if row is not None:
        raise ScenarioFormatError(
            f"line {gt_rows.start + row + 1}: duplicate ground-truth id {table['id'][row]} in frame {table['frame'][row]}"
        )

    gt = [
        GroundTruthEntry(frame, obj_id, tuple(box), visible == 1)
        for frame, obj_id, box, visible in zip(
            table["frame"].tolist(), table["id"].tolist(), table["box"].tolist(), table["visible"].tolist()
        )
    ]
    p_frames = iter(zip(mv.reshape(-1, 2, gw, gh), res.reshape(-1, gw, gh)))
    frames = [
        MotionFrame.intra(idx, gw, gh) if idx % header.gop == 0 else MotionFrame(idx, "P", *next(p_frames))
        for idx in range(n_frames)
    ]
    return Scenario(header=header, frames=frames, gt=gt, feature_seeds=seeds)


# ---------------------------------------------------------------------------
# MOTChallenge-format result files: 1-based frames, corner coordinates,
# 2-decimal fixed point.

def write_motchallenge(rows, path) -> None:
    """Write (frame, id, (x, y, w, h), confidence) rows in MOTChallenge
    format, each box as its left, top, w and h; a frame below 1 or a box
    without positive width and height raises ValueError."""
    lines = []
    for frame, obj_id, (x, y, w, h), conf in rows:
        if frame < 1:
            raise ValueError(f"MOTChallenge frames are 1-based, got {frame}")
        if not (w > 0 and h > 0):
            raise ValueError(f"box size must be positive, got w={w} h={h}")
        lines.append("%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1" % (frame, obj_id, x - w / 2, y - h / 2, w, h, conf))
    with open(path, "w") as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


_MOT_ROW = np.dtype([("frame", np.int64), ("id", np.int64), ("values", np.float64, (5,))])


def _check_mot(t) -> None:
    frame, values = t["frame"], t["values"]
    bad = frame < 1
    if bad.any():
        raise ValueError(f"MOTChallenge frames are 1-based, got {frame[bad][0]}")
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    w, h = values[:, 2], values[:, 3]
    bad = ~((w > 0) & (h > 0))
    if bad.any():
        raise ValueError(f"box size must be positive, got w={w[bad][0]} h={h[bad][0]}")


def read_mot_table(path) -> MotTable:
    """Read a MOTChallenge file as one MotTable, parsing the first seven
    columns of the non-blank lines as one numpy table; the centre is
    left + w/2.

    A malformed line, a frame below 1, a non-finite number or a box without
    positive width and height raises ValueError naming the line."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    rows = [i for i, line in enumerate(lines) if line.strip()]
    t = _load_table(lines, rows, _MOT_ROW, _check_mot, "row", delimiter=",", usecols=range(7))
    left, top, w, h, conf = t["values"].T
    return MotTable(t["frame"], t["id"], np.stack([left + w / 2, top + h / 2, w, h], axis=1), conf)


def read_motchallenge(path) -> list:
    """The rows of `read_mot_table` as (frame, id, (x, y, w, h), confidence) tuples."""
    t = read_mot_table(path)
    return list(zip(t.frame.tolist(), t.id.tolist(), map(tuple, t.boxes.tolist()), t.conf.tolist()))


def gt_to_rows(gt) -> list:
    """Ground truth as MOTChallenge rows; the confidence column carries the
    visibility flag (1 = counted, 0 = ignore)."""
    return [(r.frame, r.id, r.bbox, 1.0 if r.visible else 0.0) for r in gt]


def rows_to_gt(rows) -> list:
    return [GroundTruthEntry(frame, obj_id, bbox, conf > 0.5) for frame, obj_id, bbox, conf in rows]
