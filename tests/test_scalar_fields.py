"""Every int, float and str field of the checked value types refuses what
its annotation does not allow, with the type's own error class and a
message that names the field.

The cases are read from `dataclasses.fields`, so a field left out of its
type's `int_fields` or `real_fields` call fails here.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from vipguide import calibration, perception, scenario
from vipguide.errors import CalibrationError, ConsistencyError

BOX = perception.BoundingBox(0, 0, 2, 2)
DEPTH = perception.DepthMap(width=2, height=2, values=np.zeros((2, 2), dtype=np.uint16))

# each checked type: its error class and keyword arguments that build it
CHECKED = {
    perception.BoundingBox: (ConsistencyError, dict(x1=0, y1=0, x2=2, y2=2)),
    perception.Detection: (
        ConsistencyError,
        dict(class_label="car", bbox=BOX, confidence=0.5, track_id=1),
    ),
    perception.BitMask: (ConsistencyError, dict(width=2, height=2, runs=(4,))),
    perception.DepthMap: (ConsistencyError, dict(width=2, height=2, values=DEPTH.values)),
    perception.PerceptionFrame: (
        ConsistencyError,
        dict(frame_id=0, timestamp=0.0, width=2, height=2, depth=DEPTH),
    ),
    scenario.Camera: (ConsistencyError, dict(width=64, height=48, ground_height=2.2)),
    scenario.SceneObject: (
        ConsistencyError,
        dict(kind="person", x=0.0, z=3.5, width=0.6, height=1.75),
    ),
    scenario.ScenarioSpec: (ConsistencyError, dict(kind="random", rev_jitter_sigma=0.0)),
    calibration.CalibrationSample: (CalibrationError, dict(rev=0.5, distance=2.0)),
    calibration.CalibrationModel: (
        CalibrationError,
        dict(a=1.0, b=1.0, c=1.0, rmse=0.0, n_samples=3),
    ),
}

# (id, value) pairs each annotation refuses
INT_BAD = [("bool", True), ("str", "1"), ("fraction", 3.5)]
BAD = {
    "int": INT_BAD,
    "int | None": INT_BAD,
    "float": [
        ("bool", True),
        ("str", "1"),
        ("nan", math.nan),
        ("inf", math.inf),
        ("-inf", -math.inf),
        ("10**400", 10**400),
    ],
    "str": [("int", 5), ("None", None)],
}
# annotations of fields that are not scalars, or not checked as one
OTHER = {
    "BoundingBox",
    "tuple[int, ...]",
    "np.ndarray",
    "DepthMap",
    "tuple[Detection, ...]",
    "BitMask | None",
    "dict[int, BitMask]",
    "Detection | None",
    "bool",
}


def init_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.init]


CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}-{label}")
    for cls in CHECKED
    for f in init_fields(cls)
    for label, value in BAD.get(f.type, ())
]


def test_table_covers_every_checked_type():
    checked = {
        cls
        for module in (perception, scenario, calibration)
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
        and "__post_init__" in vars(cls)
    }
    assert checked == set(CHECKED)


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_every_annotation_is_known(cls):
    # a new scalar annotation needs its refused values in BAD
    unknown = [(f.name, f.type) for f in init_fields(cls) if f.type not in {*BAD, *OTHER}]
    assert unknown == []


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_base_arguments_build(cls):
    cls(**CHECKED[cls][1])


@pytest.mark.parametrize("cls, name, value", CASES)
def test_field_refuses_value(cls, name, value):
    error, kwargs = CHECKED[cls]
    with pytest.raises(error, match=rf"\b{re.escape(name)} ") as info:
        cls(**{**kwargs, name: value})
    assert type(info.value) is error
