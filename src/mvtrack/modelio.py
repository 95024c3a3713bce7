"""Fitted-parameter files: regressor and affinity head side by side.

Structured text, full decimal precision, exact read/write round trip.
Either section may be absent; `fit` writes its own section and preserves
the other when updating an existing file.
"""
from __future__ import annotations

import numpy as np

from .affinity import AffinityHeadParams
from .engine import TrackerModels
from .motion import F_IN, RegressorParams
from .stream import _fields, _fmt


def write_models(models: TrackerModels, path) -> None:
    lines = ["mvmodels 1"]
    if models.regressor is not None:
        reg = models.regressor
        lines.append(f"regressor {reg.m} {F_IN}")
        for row in reg.W:
            lines.append("w " + " ".join(_fmt(v) for v in row))
        lines.append("b " + " ".join(_fmt(v) for v in reg.bias))
    if models.affinity is not None:
        aff = models.affinity
        lines.append(f"affinity {aff.mode} {_fmt(aff.w)} {_fmt(aff.b)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_models(path) -> TrackerModels:
    """Read a model file; a malformed record raises ValueError naming its line."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    def fail(pos, why) -> ValueError:
        return ValueError(f"line {pos + 1}: malformed model file: {why}")

    def record(pos, tag, n, parse=float) -> list:
        """The n fields of the `tag` record on line pos + 1, read by `parse`."""
        try:
            return [parse(v) for v in _fields(lines, pos, tag, n)]
        except ValueError as exc:
            raise fail(pos, exc) from None

    if not lines or lines[0] != "mvmodels 1":
        raise fail(0, "missing 'mvmodels 1' magic")
    models = TrackerModels()
    pos = 1
    while pos < len(lines):
        tag = lines[pos].split()[0] if lines[pos].strip() else None
        start = pos
        if tag == "regressor":
            m, fin = record(pos, tag, 2, int)
            if m < 1:
                raise fail(pos, f"regressor bins must be >= 1, got {m}")
            if fin != F_IN:
                raise fail(pos, f"model file expects {fin} input statistics, this build uses {F_IN}")
            n = 4 * m * m
            W = [record(pos + 1 + r, "w", F_IN) for r in range(n)]
            bias = record(pos + 1 + n, "b", n)
            pos += n + 2
            try:
                models.regressor = RegressorParams(np.array(W), np.array(bias), m)
            except ValueError as exc:
                raise fail(start, exc) from None
        elif tag == "affinity":
            mode, w, b = record(pos, tag, 3, str)
            pos += 1
            try:
                models.affinity = AffinityHeadParams(float(w), float(b), mode)
            except ValueError as exc:
                raise fail(start, exc) from None
        elif tag is None:
            pos += 1
        else:
            raise fail(pos, f"unexpected record {tag!r}")
    return models
