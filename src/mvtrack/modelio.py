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
from .stream import _fmt


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
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "mvmodels 1":
        raise ValueError("malformed model file: missing 'mvmodels 1' magic")
    models = TrackerModels()
    pos = 1
    while pos < len(lines):
        line = lines[pos]
        if line.startswith("regressor "):
            _, m_s, fin_s = line.split()
            m, fin = int(m_s), int(fin_s)
            if fin != F_IN:
                raise ValueError(f"model file expects {fin} input statistics, this build uses {F_IN}")
            rows = []
            pos += 1
            for _ in range(4 * m * m):
                if pos >= len(lines) or not lines[pos].startswith("w "):
                    raise ValueError("malformed model file: truncated regressor weights")
                rows.append([float(v) for v in lines[pos].split()[1:]])
                pos += 1
            if pos >= len(lines) or not lines[pos].startswith("b "):
                raise ValueError("malformed model file: missing regressor bias")
            bias = np.array([float(v) for v in lines[pos].split()[1:]])
            pos += 1
            models.regressor = RegressorParams(np.array(rows), bias, m)
        elif line.startswith("affinity "):
            _, mode, w_s, b_s = line.split()
            models.affinity = AffinityHeadParams(float(w_s), float(b_s), mode)
            pos += 1
        elif not line.strip():
            pos += 1
        else:
            raise ValueError(f"malformed model file: unexpected record {line.split()[0]!r}")
    return models
