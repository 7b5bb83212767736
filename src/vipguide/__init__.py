"""Guidance planning for a drone escorting a visually impaired pedestrian.

The library turns per-frame perception (detections, masks, relative depth)
into guidance: a pose envelope for the drone, metric distances via a
calibrated quadratic, per-frame heading cues with obstacle severities and
road-edge warnings, and graph-level rerouting when the local view is
exhausted. A deterministic scenario simulator provides test streams.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    FrameDecodeError,
    GeometryError,
    GraphError,
    InfeasibleConfigError,
    InsufficientHistoryError,
    PlannerError,
    UnreachableError,
    VipGuideError,
)
from .perception import (
    REV_MAX,
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    rle_decode,
    rle_encode,
    rle_encode_rect,
)
from .geometry import (
    GeometricConfig,
    PoseEnvelope,
    lookahead,
    min_distance_for_visibility,
    pose_envelope,
    safety_distance,
    validate_pose,
    visibility_offset,
)
from .calibration import (
    CalibrationModel,
    CalibrationSample,
    detection_distance,
    fit,
    predict,
    region_rev,
)
from .tracking import Track, Tracker, approach_rate, iou
from .local_planner import (
    GuidanceDecision,
    Heading,
    ObstacleAssessment,
    Partition,
    PartitionProfile,
    RerouteNeeded,
    classify_obstacle,
    decide,
    free_segments,
    heading_angle,
    partition_bounds,
    partition_profiles,
    partition_scores,
    road_edge_check,
    width_threshold_px,
)
from .global_planner import NavGraph, Route, load_graph, shortest_path
from .scenario import (
    Camera,
    GroundTruth,
    SceneObject,
    ScenarioSpec,
    calibration_frames,
    default_model,
    direction_name,
    generate,
    read_ground_truth,
    write_scenario,
)
from .config import Config, PlannerConfig, PipelineTuning, default_config, load_config
from .pipeline import Pipeline, StageStats
from .annotate import annotate_frame, write_ppm
from .frameio import read_dataset, write_dataset

__version__ = "0.1.0"
