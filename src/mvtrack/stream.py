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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import BBox, Detection, FeaturePatch, MotionFrame, box_corners, center_cells


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
            raise ValueError("frame dimensions must be positive")
        if self.block < 1:
            raise ValueError("block size must be >= 1")
        if self.gop < 1:
            raise ValueError("gop must be >= 1")
        if self.feature_bins < 1 or self.feature_channels < 1:
            raise ValueError("feature shape must be positive")

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
    bbox: BBox
    visible: bool = True


@dataclass
class Scenario:
    header: StreamHeader
    frames: list
    gt: list
    feature_seeds: dict

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def gt_by_frame(self) -> dict:
        out: dict[int, list[GroundTruthEntry]] = {}
        for row in self.gt:
            out.setdefault(row.frame, []).append(row)
        return out

    def feature_of(self, obj_id: int, noise: float, rng=None) -> FeaturePatch:
        """Appearance patch for an identity: a seeded base pattern plus noise.

        Two calls with the same id correlate strongly, different ids weakly.
        """
        try:
            seed = self.feature_seeds[obj_id]
        except KeyError:
            raise ValueError(f"object id {obj_id} has no latent feature seed")
        m, c = self.header.feature_bins, self.header.feature_channels
        patch = np.random.default_rng(seed).standard_normal((m, m, c))
        if noise > 0:
            if rng is None:
                raise ValueError("an rng is required when noise > 0")
            patch = patch + noise * rng.standard_normal((m, m, c))
        return patch


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

    def box_at(self, t: int) -> BBox:
        dt = t - self.enter
        s = self.zoom**dt
        return BBox(self.x + self.vx * dt, self.y + self.vy * dt, self.w * s, self.h * s)


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
        camera = tuple(int(v) for v in data.get("camera", (0, 0)))
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
        for t in (obj.enter, obj.exit):
            b = obj.box_at(t)
            if b.w > header.width or b.h > header.height:
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
        for obj, prev, (x0, y0, x1, y1) in zip(moving, prevs, cells):
            if x0 >= x1 or y0 >= y1:
                continue
            sel = np.s_[x0:x1, y0:y1]
            if obj.visible_at(t_prev) and obj.visible_at(t_cur):
                cur = obj.box_at(t_cur)
                sx = cur.w / prev.w
                sy = cur.h / prev.h
                dx = (cur.x - prev.x) + (xs[x0:x1, None] - prev.x) * (sx - 1)
                dy = (cur.y - prev.y) + (ys[None, y0:y1] - prev.y) * (sy - 1)
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
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must lie in [0,1]")
        if self.fp_rate < 0 or self.noise_center < 0 or self.noise_size < 0 or self.feature_noise < 0:
            raise ValueError("rates and noise levels must be non-negative")
        if not 0.0 <= self.conf_min <= 1.0:
            raise ValueError("conf_min must lie in [0,1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def oracle_detect(scenario: Scenario, frame: int, cfg: DetectorConfig, rows=None) -> list:
    """Detections for one key frame, deterministic given (rng_seed, frame).

    Visible ground-truth objects are emitted with probability 1 - miss_rate,
    with perturbed boxes and confidence in [conf_min, 1); occluded objects are
    never emitted; Poisson(fp_rate) false positives carry fresh identities.
    `rows` may carry the frame's pre-indexed ground-truth entries.
    """
    rng = np.random.default_rng([cfg.rng_seed, frame])
    header = scenario.header
    out = []
    if rows is None:
        rows = [r for r in scenario.gt if r.frame == frame]
    for row in sorted(rows, key=lambda r: r.id):
        if not row.visible:
            continue
        if rng.random() < cfg.miss_rate:
            continue
        b = row.bbox
        g = rng.standard_normal(4)
        bbox = BBox(
            b.x + cfg.noise_center * b.w * g[0],
            b.y + cfg.noise_center * b.h * g[1],
            b.w * math.exp(cfg.noise_size * g[2]),
            b.h * math.exp(cfg.noise_size * g[3]),
        )
        conf = float(rng.uniform(cfg.conf_min, 1.0))
        feat = scenario.feature_of(row.id, cfg.feature_noise, rng)
        out.append(Detection(bbox, conf, feat))
    m, c = header.feature_bins, header.feature_channels
    for _ in range(rng.poisson(cfg.fp_rate)):
        w = float(rng.uniform(8, max(9, header.width / 3)))
        h = float(rng.uniform(8, max(9, header.height / 3)))
        bbox = BBox(float(rng.uniform(0, header.width)), float(rng.uniform(0, header.height)), w, h)
        conf = float(rng.uniform(cfg.conf_min, 1.0))
        fresh = int(rng.integers(0, 2**62))
        feat = np.random.default_rng(fresh).standard_normal((m, m, c))
        if cfg.feature_noise > 0:
            feat = feat + cfg.feature_noise * rng.standard_normal((m, m, c))
        out.append(Detection(bbox, conf, feat))
    return out


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
        b = row.bbox
        lines.append(
            "gt %d %d %s %s %s %s %d"
            % (row.frame, row.id, _fmt(b.x), _fmt(b.y), _fmt(b.w), _fmt(b.h), 1 if row.visible else 0)
        )
    for fr in scenario.frames:
        lines.append("frame %d %s" % (fr.index, fr.kind))
        if fr.kind == "P":
            lines.append("mv " + " ".join(str(int(v)) for v in fr.mv.ravel()))
            lines.append("res " + " ".join(_fmt(v) for v in fr.residual.ravel()))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scenario(path) -> Scenario:
    """Read a scenario file; a malformed file raises ScenarioFormatError, and
    a bad seed or ground-truth record names its line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            return None
        line = lines[pos]
        pos += 1
        return line

    if next_line() != "mvscene 1":
        raise ScenarioFormatError("malformed header: missing 'mvscene 1' magic")
    head = next_line()
    if head is None or not head.startswith("header "):
        raise ScenarioFormatError("malformed header: missing 'header' record")
    try:
        parts = head.split()
        header = StreamHeader(
            width=int(parts[1]),
            height=int(parts[2]),
            block=int(parts[3]),
            gop=int(parts[4]),
            fps=float(parts[5]),
            feature_channels=int(parts[6]),
            feature_bins=int(parts[7]),
        )
    except (IndexError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed header: {exc}") from exc
    counts = next_line()
    if counts is None or not counts.startswith("counts "):
        raise ScenarioFormatError("malformed header: missing 'counts' record")
    try:
        n_frames, n_seeds, n_gt = (int(v) for v in counts.split()[1:4])
    except (IndexError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed header: {exc}") from exc

    seeds = {}
    for _ in range(n_seeds):
        line = next_line()
        if line is None or not line.startswith("seed "):
            raise ScenarioFormatError("truncated file: incomplete seed table")
        try:
            _, obj_id, value = line.split()
            seeds[int(obj_id)] = int(value)
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos}: malformed seed record: {exc}") from exc

    gt = []
    for _ in range(n_gt):
        line = next_line()
        if line is None or not line.startswith("gt "):
            raise ScenarioFormatError("truncated file: incomplete ground-truth table")
        try:
            _, frame, obj_id, x, y, w, h, visible = line.split()
            box = [float(x), float(y), float(w), float(h)]
            if not all(map(math.isfinite, box)):
                raise ValueError("non-finite number")
            row = GroundTruthEntry(int(frame), int(obj_id), BBox(*box), visible == "1")
        except ValueError as exc:
            raise ScenarioFormatError(f"line {pos}: malformed ground-truth record: {exc}") from exc
        if not 1 <= row.frame <= n_frames:
            raise ScenarioFormatError(f"line {pos}: ground-truth frame {row.frame} outside 1..{n_frames}")
        if row.id not in seeds:
            raise ScenarioFormatError(f"line {pos}: ground-truth id {row.id} has no feature seed")
        gt.append(row)

    gw, gh = header.grid
    frames = []
    last_complete = None
    for _ in range(n_frames):
        line = next_line()
        if line is None:
            raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
        if not line.startswith("frame "):
            raise ScenarioFormatError(f"expected frame record after frame {last_complete}, got {line!r}")
        _, idx_s, kind = line.split()
        idx = int(idx_s)
        expected = len(frames)
        if idx != expected:
            raise ScenarioFormatError(f"non-monotone frame index: expected {expected}, got {idx}")
        is_intra = idx % header.gop == 0
        if is_intra and kind != "I":
            raise ScenarioFormatError(f"frame {idx}: must be I under gop={header.gop}, got {kind}")
        if not is_intra and kind != "P":
            raise ScenarioFormatError(f"frame {idx}: must be P under gop={header.gop}, got {kind}")
        if kind == "I":
            frames.append(MotionFrame.intra(idx, gw, gh))
        else:
            mv_line = next_line()
            res_line = next_line()
            if mv_line is None or res_line is None or not mv_line.startswith("mv ") or not res_line.startswith("res "):
                raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
            mv_vals = np.array([int(v) for v in mv_line.split()[1:]], dtype=np.int32)
            res_vals = np.array([float(v) for v in res_line.split()[1:]])
            if mv_vals.size != 2 * gw * gh or res_vals.size != gw * gh:
                raise ScenarioFormatError(f"frame {idx}: grid size mismatch (header grid {gw}x{gh})")
            frames.append(MotionFrame(idx, "P", mv_vals.reshape(2, gw, gh), res_vals.reshape(gw, gh)))
        last_complete = idx
    if next_line() != "end":
        raise ScenarioFormatError(f"truncated file: last complete frame is {last_complete}")
    return Scenario(header=header, frames=frames, gt=gt, feature_seeds=seeds)


# ---------------------------------------------------------------------------
# MOTChallenge-format result files: 1-based frames, corner coordinates,
# 2-decimal fixed point.

def write_motchallenge(rows, path) -> None:
    """Write (frame, id, BBox, confidence) rows in MOTChallenge format."""
    lines = []
    for frame, obj_id, bbox, conf in rows:
        if frame < 1:
            raise ValueError(f"MOTChallenge frames are 1-based, got {frame}")
        lines.append(
            "%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1" % (frame, obj_id, bbox.left, bbox.top, bbox.w, bbox.h, conf)
        )
    with open(path, "w") as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


def read_motchallenge(path) -> list:
    """Read MOTChallenge rows back as (frame, id, BBox, confidence).

    A malformed line, a non-finite number or a box without positive width
    and height raises ValueError naming the line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ValueError(f"line {lineno}: expected at least 7 fields, got {len(parts)}")
            try:
                frame = int(parts[0])
                obj_id = int(parts[1])
                left, top, w, h, conf = values = [float(v) for v in parts[2:7]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {lineno}: non-finite number in {line!r}")
            if not (w > 0 and h > 0):
                raise ValueError(f"line {lineno}: box size must be positive, got w={w} h={h}")
            out.append((frame, obj_id, BBox(left + w / 2, top + h / 2, w, h), conf))
    return out


def gt_to_rows(gt) -> list:
    """Ground truth as MOTChallenge rows; the confidence column carries the
    visibility flag (1 = counted, 0 = ignore)."""
    return [(r.frame, r.id, r.bbox, 1.0 if r.visible else 0.0) for r in gt]


def rows_to_gt(rows) -> list:
    return [GroundTruthEntry(frame, obj_id, bbox, conf > 0.5) for frame, obj_id, bbox, conf in rows]
