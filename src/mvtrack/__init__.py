"""mvtrack: online multi-object tracking on block-motion streams.

Detection and data association run only on sparse key frames; in between,
objects ride the stream's motion-vector field. See the cli module for the
batch entry points (generate, fit, track, evaluate, bench).
"""

from .model import (
    BBox,
    ConfigError,
    Detection,
    MotionFrame,
    TrackerConfig,
)
from .stream import (
    DetectorConfig,
    GroundTruthEntry,
    MotionScript,
    ObjectScript,
    Scenario,
    StreamHeader,
    generate_scenario,
    oracle_detect,
    read_motchallenge,
    read_scenario,
    write_motchallenge,
    write_scenario,
)
from .engine import FileDetector, FrameTimings, OracleDetector, TrackerModels, is_key_frame, speedup_model, track
from .metrics import MotScores, clear_mot, idf1
from .modelio import read_models, write_models

__all__ = [
    "BBox",
    "ConfigError",
    "Detection",
    "DetectorConfig",
    "FileDetector",
    "FrameTimings",
    "GroundTruthEntry",
    "MotScores",
    "MotionFrame",
    "MotionScript",
    "ObjectScript",
    "OracleDetector",
    "Scenario",
    "StreamHeader",
    "TrackerConfig",
    "TrackerModels",
    "clear_mot",
    "generate_scenario",
    "idf1",
    "is_key_frame",
    "oracle_detect",
    "read_models",
    "read_motchallenge",
    "read_scenario",
    "speedup_model",
    "track",
    "write_models",
    "write_motchallenge",
    "write_scenario",
]
