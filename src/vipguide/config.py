"""Run configuration: one JSON file, grouped keys, validated on load.

Lengths are meters, times seconds, angles degrees. Unknown keys are
rejected so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .geometry import GeometricConfig, GeometryError

GEOMETRY_KEYS = {
    "f_deg": "f_deg",
    "h_vip_m": "h_vip",
    "h_max_m": "h_max",
    "walk_speed_mps": "walk_speed",
    "t_detect_s": "t_detect",
    "t_react_s": "t_react",
    "buffer_factor": "buffer_factor",
    "perception_range_m": "perception_range",
    "visible_fraction": "visible_fraction",
    "hfov_deg": "hfov_deg",
}


@dataclass(frozen=True)
class PlannerConfig:
    n_partitions: int = 3
    width_margin: float = 1.2      # clearance factor on the VIP's apparent width
    danger_mult: float = 1.0       # danger when distance <= 1.0 * d'
    warning_mult: float = 2.0      # warning when distance <= 2.0 * d'
    edge_box_px: int = 90          # road-edge probe side, ~0.5 m at typical range
    edge_threshold: float = 128.0  # probe mean (road=255) must exceed this

    def __post_init__(self):
        if self.n_partitions < 1 or self.n_partitions % 2 == 0:
            raise ConfigError(
                f"planner.n_partitions must be odd and positive, got {self.n_partitions}"
            )
        if self.width_margin <= 0:
            raise ConfigError(f"planner.width_margin {self.width_margin} not positive")
        if not 0 < self.danger_mult <= self.warning_mult:
            raise ConfigError(
                f"planner thresholds need 0 < danger_mult <= warning_mult, "
                f"got {self.danger_mult}, {self.warning_mult}"
            )
        if self.edge_box_px <= 0:
            raise ConfigError(f"planner.edge_box_px {self.edge_box_px} not positive")
        if not 0 <= self.edge_threshold < 255:
            raise ConfigError(
                f"planner.edge_threshold {self.edge_threshold} outside [0, 255)"
            )


@dataclass(frozen=True)
class PipelineTuning:
    vip_hold_frames: int = 30   # frames to coast on a lost VIP before flagging
    reroute_patience: int = 5   # consecutive exhausted frames before replanning
    live_speed: bool = False    # recompute d' from tracked VIP speed
    iou_threshold: float = 0.3
    max_misses: int = 15        # ~0.5 s at 30 fps

    def __post_init__(self):
        if self.vip_hold_frames < 0:
            raise ConfigError(f"pipeline.vip_hold_frames {self.vip_hold_frames} < 0")
        if self.reroute_patience < 1:
            raise ConfigError(
                f"pipeline.reroute_patience {self.reroute_patience} < 1"
            )
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(
                f"pipeline.iou_threshold {self.iou_threshold} outside (0,1)"
            )
        if self.max_misses < 0:
            raise ConfigError(f"pipeline.max_misses {self.max_misses} < 0")


@dataclass(frozen=True)
class Config:
    geometry: GeometricConfig = field(default_factory=GeometricConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    pipeline: PipelineTuning = field(default_factory=PipelineTuning)


def default_config() -> Config:
    return Config()


# what a value for each declared field type must be, as error messages say it
_EXPECTED = {"bool": "true or false", "int": "an int", "float": "a finite number"}


def _accepts(kind: str, value) -> bool:
    """A bool fills only a bool field; an int fills an int or float field, a
    float only a float field, and either must be finite."""
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    if not isinstance(value, int if kind == "int" else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _build(section: str, raw: dict, key_map: dict, cls):
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in key_map:
            raise ConfigError(f"unknown key '{section}.{key}'")
        kind = kinds[key_map[key]]
        if not _accepts(kind, value):
            raise ConfigError(
                f"'{section}.{key}': expected {_EXPECTED[kind]}, "
                f"got {json.dumps(value)}"
            )
        kwargs[key_map[key]] = value
    try:
        return cls(**kwargs)
    except GeometryError as exc:
        raise ConfigError(f"bad '{section}' section: {exc}") from exc


def config_from_dict(obj: dict) -> Config:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    sections = {f.name: f.default_factory for f in fields(Config)}
    for section in obj:
        if section not in sections:
            raise ConfigError(f"unknown config section '{section}'")
    for section, raw in obj.items():
        if not isinstance(raw, dict):
            raise ConfigError(f"config section '{section}' must be an object")
    built = {}
    for section, cls in sections.items():
        if cls is GeometricConfig:
            key_map = GEOMETRY_KEYS
        else:
            key_map = {f.name: f.name for f in fields(cls)}
        built[section] = _build(section, obj.get(section, {}), key_map, cls)
    return Config(**built)


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return config_from_dict(obj)
