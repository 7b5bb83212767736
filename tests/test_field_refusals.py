"""The exact text and error class of every sign refusal on a value type's
fields and of every refusal of a config section of the wrong type.

Each positive field is refused at -1 and at 0 (`... not positive`), each
non-negative one at -1 (`... < 0`); each reader of a config section is
given None in its place.
"""
import numpy as np
import pytest

from vipguide.calibration import CalibrationSample
from vipguide.config import Config, PipelineTuning, PlannerConfig
from vipguide.errors import CalibrationError, ConfigError, ConsistencyError, GeometryError
from vipguide.geometry import (
    GeometricConfig,
    lookahead,
    min_distance_for_visibility,
    pose_envelope,
    validate_pose,
)
from vipguide.local_planner import classify_obstacle, road_edge_check, width_threshold_px
from vipguide.perception import BoundingBox, rle_encode
from vipguide.scenario import Camera, ScenarioSpec
from vipguide.tracking import Tracker

# (type, keyword arguments that build it, error class, message prefix,
#  fields that must be above 0, fields that must not be below 0)
SIGN_RULES = [
    (
        GeometricConfig, {}, GeometryError, "",
        ("h_vip_m", "perception_range_m"),
        ("walk_speed_mps", "t_detect_s", "t_react_s", "buffer_factor"),
    ),
    (Camera, {}, ConsistencyError, "camera ", ("width", "height", "ground_height"), ()),
    (PlannerConfig, {}, ConfigError, "", ("width_margin", "edge_box_px"), ()),
    (PipelineTuning, {}, ConfigError, "", (), ("vip_hold_frames", "max_misses")),
    (ScenarioSpec, {"kind": "random"}, ConsistencyError, "", (), ("seed", "rev_jitter_sigma")),
    (CalibrationSample, {"rev": 0.5}, CalibrationError, "", ("distance",), ()),
]

SIGN_CASES = [
    (cls, kwargs, error, f"{what}{name} {value} not positive", name, value)
    for cls, kwargs, error, what, positive, _ in SIGN_RULES
    for name in positive
    for value in (-1, 0)
] + [
    (cls, kwargs, error, f"{what}{name} -1 < 0", name, -1)
    for cls, kwargs, error, what, _, nonnegative in SIGN_RULES
    for name in nonnegative
]


@pytest.mark.parametrize(
    "cls, kwargs, error, message, name, value",
    SIGN_CASES,
    ids=[f"{case[0].__name__}.{case[4]}={case[5]}" for case in SIGN_CASES],
)
def test_sign_refusal(cls, kwargs, error, message, name, value):
    with pytest.raises(error) as info:
        cls(**kwargs, **{name: value})
    assert info.type is error
    assert str(info.value) == message


def test_sign_refusals_cover_sixteen_fields():
    assert len({(case[0], case[4]) for case in SIGN_CASES}) == 16


ROAD = rle_encode(np.ones((4, 4), dtype=bool))

# (id, call given None for its section, the message)
SECTION_CASES = [
    (
        "classify_obstacle",
        lambda: classify_obstacle(1.0, 1.0, None),
        "cfg None not a PlannerConfig",
    ),
    (
        "road_edge_check",
        lambda: road_edge_check(BoundingBox(1, 1, 3, 3), ROAD, None),
        "cfg None not a PlannerConfig",
    ),
    ("width_threshold_px", lambda: width_threshold_px(10, None), "cfg None not a PlannerConfig"),
    ("lookahead", lambda: lookahead(1.0, 1.0, None), "cfg None not a GeometricConfig"),
    (
        "min_distance_for_visibility",
        lambda: min_distance_for_visibility(1.0, None),
        "cfg None not a GeometricConfig",
    ),
    ("pose_envelope", lambda: pose_envelope(None), "cfg None not a GeometricConfig"),
    ("validate_pose", lambda: validate_pose(2.0, 5.0, None), "cfg None not a GeometricConfig"),
    ("Tracker", lambda: Tracker(None), "tuning None not a PipelineTuning"),
    ("Config.geometry", lambda: Config(geometry=None), "geometry None not a GeometricConfig"),
    ("Config.planner", lambda: Config(planner=None), "planner None not a PlannerConfig"),
    ("Config.pipeline", lambda: Config(pipeline=None), "pipeline None not a PipelineTuning"),
]


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in SECTION_CASES], ids=[case[0] for case in SECTION_CASES]
)
def test_section_type_refusal(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert info.type is ConfigError
    assert str(info.value) == message
