"""The readers of outside JSON leave every value's type to the type that
holds it, and still refuse exactly what they refused when they tested
types themselves.

The oracles below are those former reader rules: the config reader's
per-annotation test, the graph reader's id, pos, u, v and w tests, the
model reader's number kinds and the frame reader's detection tests. For
one field set to a drawn JSON value, each reader must refuse when its
oracle does, with the error class it raised then. When the oracle
accepts, the reader once passed the value on to the type, so it must
then refuse exactly when building the type directly does, and read what
the type holds when it does not.
"""
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vipguide.calibration import CalibrationModel, load_model
from vipguide.config import Config, config_from_dict, load_config
from vipguide.errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    FrameDecodeError,
    GraphError,
    VipGuideError,
)
from vipguide.frameio import decode_record
from vipguide.global_planner import NavGraph, graph_from_dict, load_graph
from vipguide.perception import BoundingBox, DepthMap, Detection, PerceptionFrame

# what json.load can yield: bools, ints of any size, floats with NaN and
# ±Infinity, strings, null, lists and objects
SCALARS = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([0, 1, 3, 0.5, 2.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.none(),
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, min_size=2, max_size=2),  # most often a position's shape
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)
EXAMPLES = settings(max_examples=400, deadline=None)


def refusal(build, *args):
    """The class of the VipGuideError `build(*args)` raises, or None."""
    try:
        build(*args)
    except VipGuideError as exc:
        return type(exc)
    return None


def is_number(value) -> bool:
    # json.load yields exact ints and floats, so the type test rules out bools
    return type(value) in (int, float)


# -- config ----------------------------------------------------------------------


def config_accepts(kind: str, value) -> bool:
    """The config reader's former rule for a field declared `kind`."""
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    if not isinstance(value, int if kind == "int" else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


# (section, section class, field name, declared type) of every field; the
# JSON key is the field's name
CONFIG_FIELDS = [
    (section.name, section.default_factory, f.name, f.type)
    for section in fields(Config)
    for f in fields(section.default_factory)
]


def config_directly(section, cls, name, value) -> Config:
    return Config(**{section: cls(**{name: value})})


@EXAMPLES
@given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES)
def test_config_reader(field, value):
    section, cls, name, kind = field
    obj = {section: {name: value}}
    if not config_accepts(kind, value):
        assert refusal(config_from_dict, obj) is ConfigError
    elif refusal(config_directly, section, cls, name, value):
        assert refusal(config_from_dict, obj) is ConfigError
    else:
        assert config_from_dict(obj) == config_directly(section, cls, name, value)


# -- graph -----------------------------------------------------------------------

GRAPH_ORACLES = {
    "id": lambda v: isinstance(v, str),
    "pos": lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_number, v)),
    "u": lambda v: isinstance(v, str),
    "v": lambda v: isinstance(v, str),
    "w": is_number,
}


def graph_with(field, value) -> dict:
    """Two joined nodes and a third, lone node; `field` set on the edge, on
    the first node's pos or on the lone node's id."""
    nodes = [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}, {"id": "C", "pos": [2, 0]}]
    edge = {"u": "A", "v": "B", "w": 1.0}
    if field == "id":
        nodes[2]["id"] = value
    elif field == "pos":
        nodes[0]["pos"] = value
    else:
        edge[field] = value
    return {"nodes": nodes, "edges": [edge]}


def graph_directly(data) -> NavGraph:
    graph = NavGraph()
    for node in data["nodes"]:
        graph.add_node(node["id"], tuple(node["pos"]))
    for edge in data["edges"]:
        graph.add_edge(edge["u"], edge["v"], edge["w"])
    return graph


@EXAMPLES
@given(st.sampled_from(sorted(GRAPH_ORACLES)), JSON_VALUES)
def test_graph_reader(field, value):
    data = graph_with(field, value)
    if not GRAPH_ORACLES[field](value) or refusal(graph_directly, data):
        assert refusal(graph_from_dict, data) is GraphError
    else:
        graph, want = graph_from_dict(data), graph_directly(data)
        assert (graph.positions, graph.edge_list()) == (want.positions, want.edge_list())


# -- calibration model -------------------------------------------------------------

MODEL = {"a": 1.0, "b": 1.0, "c": 1.0, "rmse": 0.0, "n_samples": 3}
MODEL_ORACLES = {
    **{key: is_number for key in ("a", "b", "c", "rmse")},
    "n_samples": lambda v: type(v) is int,
}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("model") / "model.json"


@EXAMPLES
@given(field=st.sampled_from(sorted(MODEL_ORACLES)), value=JSON_VALUES)
def test_model_reader(model_path, field, value):
    obj = {**MODEL, field: value}
    model_path.write_text(json.dumps(obj))
    if not MODEL_ORACLES[field](value) or refusal(CalibrationModel, *obj.values()):
        assert refusal(load_model, model_path) is CalibrationError
    else:
        assert load_model(model_path) == CalibrationModel(**obj)


# -- frame detections --------------------------------------------------------------

W, H = 8, 6
DEPTH = DepthMap(W, H, np.zeros((H, W), dtype=np.uint16))
DETECTION = {"class": "car", "bbox": [0, 0, 3, 4], "confidence": 0.77, "track_id": 4}
RECORD = {"frame_id": 0, "timestamp": 0.0, "width": W, "height": H, "detections": []}
DETECTION_ORACLES = {
    "class": lambda v: isinstance(v, str),
    **{f"bbox{k}": lambda v: type(v) is int for k in range(4)},
    "confidence": is_number,
    "track_id": lambda v: v is None or type(v) is int,
}


def detection_with(field, value) -> dict:
    det = {**DETECTION, "bbox": list(DETECTION["bbox"])}
    if field.startswith("bbox"):
        det["bbox"][int(field[-1])] = value
    else:
        det[field] = value
    return det


def frame_directly(det) -> PerceptionFrame:
    """What the frame reader built from a detection it accepted: a bad
    detection is a decode error, a detection the frame refuses is not."""
    try:
        bbox = BoundingBox(*det["bbox"])
        detection = Detection(det["class"], bbox, det["confidence"], det["track_id"])
    except ConsistencyError as exc:
        raise FrameDecodeError(str(exc)) from exc
    return PerceptionFrame(
        frame_id=0, timestamp=0.0, width=W, height=H, depth=DEPTH, detections=(detection,)
    )


@EXAMPLES
@given(st.sampled_from(sorted(DETECTION_ORACLES)), JSON_VALUES)
def test_detection_reader(field, value):
    det = detection_with(field, value)
    record = {**RECORD, "detections": [det]}
    if not DETECTION_ORACLES[field](value):
        assert refusal(decode_record, record, DEPTH) is FrameDecodeError
    elif refusal(frame_directly, det):
        assert refusal(decode_record, record, DEPTH) is refusal(frame_directly, det)
    else:
        assert decode_record(record, DEPTH) == frame_directly(det)


# -- whole files -------------------------------------------------------------------

# (kind, loader, what the loader builds the parsed value with, a mistyped object)
WHOLE_FILES = [
    ("graph", load_graph, graph_from_dict, {"nodes": [{"id": "A", "pos": [1, "x"]}], "edges": []}),
    ("config", load_config, config_from_dict, {"planner": {"n_partitions": 3.0}}),
    ("model", load_model, lambda obj: CalibrationModel(**obj), {**MODEL, "a": "1.5"}),
]


@pytest.mark.parametrize("kind, load, build, obj", WHOLE_FILES, ids=[f[0] for f in WHOLE_FILES])
def test_whole_file_refusal_names_the_file(tmp_path, kind, load, build, obj):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(VipGuideError) as built:
        build(obj)
    with pytest.raises(type(built.value)) as loaded:
        load(path)
    assert str(loaded.value) == f"bad {kind} file {path}: {built.value}"
    cause = loaded.value.__cause__
    assert (type(cause), str(cause)) == (type(built.value), str(built.value))
