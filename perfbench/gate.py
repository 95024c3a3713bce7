"""Correctness gate for a tracker's MOTChallenge output."""
from __future__ import annotations

import math

# Boxes are printed with two decimals, so a clipped box may overhang the
# frame edge by two roundings.
EDGE_TOLERANCE = 0.011


def check_motchallenge(text: str, n_frames: int, width: int, height: int) -> list:
    """Problems with a tracker output file's content; empty when well formed.

    Each line holds ten comma-separated fields; (frame, id) pairs are
    unique; frames lie in 1..n_frames; boxes are finite, have positive size
    and lie inside the frame.
    """
    problems = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        if len(fields) != 10:
            problems.append(f"line {lineno}: {len(fields)} fields, expected 10")
            continue
        try:
            frame, obj_id = int(fields[0]), int(fields[1])
            left, top, w, h = (float(v) for v in fields[2:6])
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        if (frame, obj_id) in seen:
            problems.append(f"line {lineno}: duplicate id {obj_id} in frame {frame}")
        seen.add((frame, obj_id))
        if not 1 <= frame <= n_frames:
            problems.append(f"line {lineno}: frame {frame} outside 1..{n_frames}")
        if not all(math.isfinite(v) for v in (left, top, w, h)):
            problems.append(f"line {lineno}: non-finite box")
        elif w <= 0 or h <= 0:
            problems.append(f"line {lineno}: box of size {w}x{h}")
        elif (left < 0 or top < 0 or left + w > width + EDGE_TOLERANCE
              or top + h > height + EDGE_TOLERANCE):
            problems.append(f"line {lineno}: box ({left}, {top}, {w}, {h}) outside the {width}x{height} frame")
    return problems
