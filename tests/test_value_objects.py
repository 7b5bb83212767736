"""The per-frame value objects are slotted dataclasses: no instance carries
a __dict__, while replace, == and hash behave as for any dataclass."""
import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import vipguide
from vipguide.calibration import CalibrationModel, CalibrationSample
from vipguide.geometry import PoseEnvelope
from vipguide.global_planner import Route
from vipguide.local_planner import (
    GuidanceDecision,
    Heading,
    ObstacleAssessment,
    Partition,
    PartitionProfile,
    RerouteNeeded,
    partition_bounds,
)
from vipguide.perception import BitMask, BoundingBox, DepthMap, Detection, PerceptionFrame
from vipguide.scenario import GroundTruth, SceneObject
from vipguide.tracking import Track, TrackPoint

from conftest import ob

# the dataclasses that keep a class dict: the config classes and ScenarioSpec
# hold each default as a class attribute, Camera and World use cached_property
UNSLOTTED = {
    "GeometricConfig", "PlannerConfig", "PipelineTuning", "Config", "ScenarioSpec",
    "Camera", "World",
}


def box():
    return BoundingBox(1, 2, 3, 4)


def depth():
    return DepthMap(4, 4, np.arange(16, dtype=np.uint16).reshape(4, 4))


def frame():
    return PerceptionFrame(
        3, 0.1, 4, 4, depth(),
        detections=(Detection("vip", box(), 0.9, 1),),
        instance_masks={1: BitMask(4, 4, (5, 3, 8))},
    )


# class -> (build an instance, a field, a different value for it)
CASES = {
    CalibrationSample: (lambda: CalibrationSample(0.5, 2.0), "rev", 0.25),
    CalibrationModel: (lambda: CalibrationModel(1.0, 2.0, 3.0, 0.1, 5), "n_samples", 6),
    PoseEnvelope: (lambda: PoseEnvelope(1.0, 4.0, 0.0, 9.0), "d_max", 10.0),
    Route: (lambda: Route(("A", "B"), 3.0), "nodes", ("A", "C")),
    Partition: (lambda: Partition(0, 0, 213), "x_end", 214),
    PartitionProfile: (
        lambda: PartitionProfile(Partition(0, 0, 213), 0.5, False, 100), "empty", True
    ),
    ObstacleAssessment: (lambda: ob(1, 2, 3, 4, 5.0, "warning"), "severity", "danger"),
    Heading: (lambda: Heading(1, 0.0), "angle_deg", 10.0),
    RerouteNeeded: (RerouteNeeded, "new_route", ("A", "B")),
    GuidanceDecision: (
        lambda: GuidanceDecision(
            7, Heading(1, 0.0), (ob(1, 2, 3, 4, 5.0),), "safe", partition_bounds(640, 3)
        ),
        "outcome",
        RerouteNeeded(),
    ),
    BoundingBox: (box, "x2", 4),
    Detection: (lambda: Detection("car", box(), 0.9, 2), "confidence", 0.5),
    BitMask: (lambda: BitMask(3, 2, (1, 2, 3)), "runs", (0, 6)),
    DepthMap: (depth, "values", np.zeros((4, 4), dtype=np.uint16)),
    PerceptionFrame: (frame, "timestamp", 0.2),
    SceneObject: (lambda: SceneObject("person", 0.5, 3.0, 0.5, 1.7), "z", 4.0),
    GroundTruth: (lambda: GroundTruth(0, 1, "center"), "expected_direction", "left"),
    Track: (lambda: Track(1, "car", box(), [TrackPoint(0.0, 5.0)]), "misses", 1),
}
# hash raises TypeError: Track is mutable; DepthMap defines its own __eq__;
# a frame holds its instance masks in a dict
UNHASHABLE = {Track, DepthMap, PerceptionFrame}


def test_every_other_dataclass_is_slotted():
    classes = {
        cls
        for info in pkgutil.iter_modules(vipguide.__path__)
        for cls in vars(importlib.import_module(f"vipguide.{info.name}")).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__.startswith("vipguide.")
    }
    assert len(CASES) == 18
    assert {cls for cls in classes if cls.__name__ not in UNSLOTTED} == set(CASES)
    assert all("__slots__" in vars(cls) for cls in CASES)
    assert all("__slots__" not in vars(cls) for cls in classes if cls.__name__ in UNSLOTTED)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_object_has_no_dict_and_replaces_compares_and_hashes(cls):
    make, name, value = CASES[cls]
    obj, twin = make(), make()
    assert type(obj) is cls
    assert not hasattr(obj, "__dict__")

    assert obj == twin and obj is not twin
    assert not obj == object() and obj != object()

    same = dataclasses.replace(obj)
    assert same == obj and same is not obj
    changed = dataclasses.replace(obj, **{name: value})
    assert changed != obj and obj == twin  # the original is left as it was
    for f in dataclasses.fields(cls):
        if f.name != name and f.compare:
            assert getattr(changed, f.name) == getattr(obj, f.name)

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        # a frozen dataclass hashes the tuple of its compared fields
        assert hash(obj) == hash(twin)
        compared = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls) if f.compare)
        assert hash(obj) == hash(compared)


def test_replaced_frame_finds_its_vip_again():
    vip = frame()
    car = dataclasses.replace(vip, detections=(Detection("car", box(), 0.9, 1),))
    assert vip.vip_detection == vip.detections[0]
    assert car.vip_detection is None
