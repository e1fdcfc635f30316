"""BEV 3D multi-object tracking toolkit.

Building blocks: oriented-box geometry with buffered rotated IoU, a
constant-velocity Kalman filter, multi-clue appearance association with
cascaded scale-aware IoU matching, object-masked feature refinement with
deformable temporal fusion, a deterministic scenario simulator, and
AMOTA/AMOTP evaluation.
"""

from .association import AppearanceState, ClueWeights
from .geometry import Box3D, bev_iou, iou_backend
from .metrics import EvalConfig, MetricsReport, evaluate
from .motion import KalmanState, NoiseConfig
from .simulator import ScenarioConfig, generate, standard_suites
from .tracker import Detection, DetectionFrame, Tracker, TrackerConfig, \
    Tracklet, as_frame, number_frames, run_sequence, track_stream

__version__ = "0.1.0"

__all__ = [
    "AppearanceState", "ClueWeights", "Box3D", "bev_iou", "iou_backend",
    "EvalConfig", "MetricsReport", "evaluate", "KalmanState", "NoiseConfig",
    "ScenarioConfig", "generate", "standard_suites", "Detection",
    "DetectionFrame", "Tracker", "TrackerConfig", "Tracklet", "as_frame",
    "number_frames", "run_sequence",
    "track_stream", "__version__",
]
