"""mvtrack: online multi-object tracking on block-motion streams.

Detection and data association run only on sparse key frames; in between,
objects ride the stream's motion-vector field. A detector is a callable
from a 1-based frame number to a `Detections` table of columns. See the
cli module for the batch entry points (generate, fit, track, evaluate,
bench).
"""

from .model import (
    ConfigError,
    Detections,
    MotionFrame,
    TrackerConfig,
)
from .stream import (
    DetectorConfig,
    GroundTruthEntry,
    MotionScript,
    ObjectScript,
    OracleDetector,
    Scenario,
    StreamHeader,
    generate_scenario,
    read_motchallenge,
    read_scenario,
    write_motchallenge,
    write_scenario,
)
from .engine import FileDetector, FrameTimings, TrackerModels, is_key_frame, speedup_model, track
from .metrics import MotScores, clear_mot, idf1
from .modelio import read_models, write_models

__all__ = [
    "ConfigError",
    "Detections",
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
    "read_models",
    "read_motchallenge",
    "read_scenario",
    "speedup_model",
    "track",
    "write_models",
    "write_motchallenge",
    "write_scenario",
]
