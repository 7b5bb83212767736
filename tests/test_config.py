import json
from dataclasses import fields

import pytest

from vipguide.config import (
    Config,
    PipelineTuning,
    PlannerConfig,
    config_from_dict,
    default_config,
    load_config,
)
from vipguide.errors import ConfigError
from vipguide.geometry import GeometricConfig

from conftest import DEEP_NESTING, LONG_INT

# a valid non-default value for every planner and pipeline field
NON_DEFAULT = {
    "planner": {
        "n_partitions": 5,
        "width_margin": 1.5,
        "danger_mult": 0.5,
        "warning_mult": 3.0,
        "edge_box_px": 60,
        "edge_threshold": 100.0,
    },
    "pipeline": {
        "vip_hold_frames": 10,
        "reroute_patience": 3,
        "live_speed": True,
        "iou_threshold": 0.5,
        "max_misses": 7,
    },
}


def test_defaults():
    cfg = default_config()
    assert cfg.geometry.f_deg == 90.0
    assert cfg.geometry.walk_speed_mps == 1.2
    assert cfg.planner.n_partitions == 3
    assert cfg.pipeline.vip_hold_frames == 30
    assert cfg.pipeline.live_speed is False


def test_empty_object_is_all_defaults():
    assert config_from_dict({}) == default_config()


def test_geometry_keys_map_to_fields():
    cfg = config_from_dict(
        {
            "geometry": {
                "f_deg": 80.0,
                "h_vip_m": 1.6,
                "h_max_m": 2.8,
                "walk_speed_mps": 1.0,
                "t_detect_s": 0.2,
                "t_react_s": 0.8,
                "buffer_factor": 0.1,
                "perception_range_m": 12.0,
                "visible_fraction": 0.7,
                "hfov_deg": 70.0,
            }
        }
    )
    g = cfg.geometry
    assert (g.f_deg, g.h_vip_m, g.h_max_m) == (80.0, 1.6, 2.8)
    assert (g.walk_speed_mps, g.t_detect_s, g.t_react_s) == (1.0, 0.2, 0.8)
    assert (g.buffer_factor, g.perception_range_m) == (0.1, 12.0)
    assert (g.visible_fraction, g.hfov_deg) == (0.7, 70.0)


@pytest.mark.parametrize(
    "section,cls", [("planner", PlannerConfig), ("pipeline", PipelineTuning)]
)
def test_every_field_has_a_non_default_case(section, cls):
    assert set(NON_DEFAULT[section]) == {f.name for f in fields(cls)}


@pytest.mark.parametrize(
    "section,key,value",
    [
        (section, key, value)
        for section, values in NON_DEFAULT.items()
        for key, value in values.items()
    ],
)
def test_every_field_settable_by_its_name(section, key, value):
    default = getattr(default_config(), section)
    assert getattr(default, key) != value
    cfg = config_from_dict({section: {key: value}})
    got = getattr(cfg, section)
    assert getattr(got, key) == value
    for f in fields(got):
        if f.name != key:
            assert getattr(got, f.name) == getattr(default, f.name)


def test_partial_section_keeps_other_defaults():
    cfg = config_from_dict({"planner": {"n_partitions": 5}})
    assert cfg.planner.n_partitions == 5
    assert cfg.planner.width_margin == 1.2
    assert cfg.geometry == default_config().geometry


def test_config_must_be_object():
    with pytest.raises(ConfigError) as info:
        config_from_dict([])
    assert str(info.value) == "config must be a JSON object"


def test_negative_vip_hold_frames():
    with pytest.raises(ConfigError) as info:
        PipelineTuning(vip_hold_frames=-1)
    assert str(info.value) == "vip_hold_frames -1 < 0"


def test_unknown_section():
    with pytest.raises(ConfigError, match="unknown config section 'tracker'"):
        config_from_dict({"tracker": {}})


def test_unknown_key_names_section_and_key():
    with pytest.raises(ConfigError, match="geometry.fov"):
        config_from_dict({"geometry": {"fov": 90}})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="planner"):
        config_from_dict({"planner": 3})


OUT_OF_RANGE = [
    ("planner", "n_partitions", 4, "n_partitions must be odd and positive, got 4"),  # even
    ("planner", "n_partitions", 0, "n_partitions must be odd and positive, got 0"),
    ("planner", "width_margin", 0.0, "width_margin 0.0 not positive"),
    ("planner", "edge_box_px", 0, "edge_box_px 0 not positive"),
    ("planner", "edge_threshold", 255.0, "edge_threshold 255.0 outside [0, 255)"),
    ("pipeline", "reroute_patience", 0, "reroute_patience 0 < 1"),
    ("pipeline", "iou_threshold", 1.5, "iou_threshold 1.5 outside (0,1)"),
    ("pipeline", "iou_threshold", 0.0, "iou_threshold 0.0 outside (0,1)"),
    ("pipeline", "iou_threshold", 1.0, "iou_threshold 1.0 outside (0,1)"),
    ("pipeline", "iou_threshold", -0.5, "iou_threshold -0.5 outside (0,1)"),
    ("pipeline", "max_misses", -1, "max_misses -1 < 0"),
    ("geometry", "walk_speed_mps", -1.0, "walk_speed_mps -1.0 < 0"),
]


@pytest.mark.parametrize(
    "section,key,value,expected",
    OUT_OF_RANGE,
    ids=[f"{section}-{key}-{value}" for section, key, value, _ in OUT_OF_RANGE],
)
def test_invalid_values_rejected(section, key, value, expected):
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {key: value}})
    assert str(info.value) == f"bad '{section}' section: {expected}"


@pytest.mark.parametrize(
    "geometry",
    [{"walk_speed_mps": 0}, {"t_detect_s": 0, "t_react_s": 0}],
    ids=["zero_speed", "zero_times"],
)
def test_zero_safety_distance_rejected(geometry):
    """d' = walk speed * (t_detect + t_react) must be positive: the planner
    classifies every obstacle against it."""
    pattern = r"walk_speed_mps \* \(t_detect_s \+ t_react_s\) must be positive"
    with pytest.raises(ConfigError, match=pattern):
        config_from_dict({"geometry": geometry})


def test_geometry_alone_accepts_zero_speed():
    # the pose envelope needs no walk speed; only a planner config needs d'
    assert GeometricConfig(walk_speed_mps=0.0).walk_speed_mps == 0.0


def test_severity_band_ordering_enforced():
    with pytest.raises(ConfigError, match="danger_mult"):
        config_from_dict({"planner": {"danger_mult": 3.0, "warning_mult": 2.0}})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "geometry": {"walk_speed_mps": 0.9},
                "pipeline": {"live_speed": True, "reroute_patience": 2},
            }
        )
    )
    cfg = load_config(path)
    assert cfg.geometry.walk_speed_mps == 0.9
    assert cfg.pipeline.live_speed is True
    assert cfg.pipeline.reroute_patience == 2


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_config(path)


# the nesting once ended in a bare RecursionError
@pytest.mark.parametrize(
    "text",
    ['{"planner": {"n_partitions": %s}}' % LONG_INT, DEEP_NESTING],
    ids=["long_int", "deep_nesting"],
)
def test_load_config_past_parser_limits(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"config\.json: malformed JSON: "):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "section,key,value,expected",
    [
        ("pipeline", "live_speed", "no", "live_speed 'no' not a bool"),
        ("pipeline", "live_speed", 1, "live_speed 1 not a bool"),
        ("planner", "n_partitions", 3.0, "n_partitions 3.0 not an integer"),
        ("planner", "edge_box_px", 90.5, "edge_box_px 90.5 not an integer"),
        ("pipeline", "max_misses", 1.5, "max_misses 1.5 not an integer"),
        ("pipeline", "max_misses", True, "max_misses True not an integer"),
        ("pipeline", "max_misses", "x", "max_misses 'x' not an integer"),
        ("planner", "n_partitions", 10**400, "n_partitions beyond float range"),
        ("geometry", "walk_speed_mps", True, "walk_speed_mps True not a real number"),
        ("geometry", "walk_speed_mps", "1.2", "walk_speed_mps '1.2' not a real number"),
        ("pipeline", "iou_threshold", "x", "iou_threshold 'x' not a real number"),
        ("planner", "width_margin", float("nan"), "width_margin nan not finite"),
        ("geometry", "perception_range_m", float("inf"), "perception_range_m inf not finite"),
        ("planner", "edge_threshold", None, "edge_threshold None not a real number"),
    ],
    ids=[
        "bool_str", "bool_int", "int_float", "int_half", "int_fraction", "int_bool",
        "int_str", "int_huge", "float_bool", "float_str", "float_str_iou", "float_nan",
        "float_inf", "float_null",
    ],
)
def test_value_must_match_field_type(section, key, value, expected):
    # the section's type gives the verdict; the reader names the section
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {key: value}})
    assert str(info.value) == f"bad '{section}' section: {expected}"


# (section, field name) of every settable value
CONFIG_KEYS = [
    (section.name, f.name)
    for section in fields(Config)
    for f in fields(section.default_factory)
]


@pytest.mark.parametrize("section,key", CONFIG_KEYS, ids=[".".join(k) for k in CONFIG_KEYS])
def test_every_refusal_names_a_key_the_file_accepts(section, key):
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {key: "x"}})
    assert str(info.value).startswith(f"bad '{section}' section: {key} ")
    valid = getattr(getattr(default_config(), section), key)
    assert config_from_dict({section: {key: valid}}) == default_config()


# one case per range check of GeometricConfig: open interval, positive, not negative
@pytest.mark.parametrize(
    "key,value,expected",
    [
        ("hfov_deg", 180, "hfov_deg 180 outside (0, 180)"),
        ("perception_range_m", 0.0, "perception_range_m 0.0 not positive"),
        ("t_react_s", -1, "t_react_s -1 < 0"),
    ],
    ids=["open_interval", "positive", "not_negative"],
)
def test_geometry_range_refusal_names_its_key(key, value, expected):
    with pytest.raises(ConfigError) as info:
        config_from_dict({"geometry": {key: value}})
    assert str(info.value) == f"bad 'geometry' section: {expected}"


@pytest.mark.parametrize(
    "section,value,expected",
    [
        ("planner", None, "planner None not a PlannerConfig"),
        ("geometry", None, "geometry None not a GeometricConfig"),
        (
            "pipeline",
            {"live_speed": True},
            "pipeline {'live_speed': True} not a PipelineTuning",
        ),
        ("planner", PipelineTuning(), f"planner {PipelineTuning()!r} not a PlannerConfig"),
    ],
    ids=["planner_none", "geometry_none", "pipeline_dict", "planner_swapped"],
)
def test_section_must_be_its_class(section, value, expected):
    # once a None planner built, and its first frame died on an AttributeError
    with pytest.raises(ConfigError) as info:
        Config(**{section: value})
    assert str(info.value) == expected


def test_float_field_takes_an_int():
    assert config_from_dict({"geometry": {"walk_speed_mps": 1}}).geometry.walk_speed_mps == 1


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"planner": {"\xff": 1}}')
    with pytest.raises(ConfigError, match="config.json: malformed JSON"):
        load_config(path)
