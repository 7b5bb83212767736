"""Run configuration: one JSON file, grouped keys, validated on load.

Lengths are meters, times seconds, angles degrees. Unknown keys are
rejected so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .frameio import load_json
from .geometry import GeometricConfig, GeometryError, safety_distance
from .perception import int_fields, real_fields

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
        ints = ("n_partitions", "edge_box_px")
        int_fields(self, *ints, error=ConfigError)
        # an int field is a real too, so an int beyond float range is refused
        reals = ("width_margin", "danger_mult", "warning_mult", "edge_threshold")
        real_fields(self, *ints, *reals, error=ConfigError)
        if self.n_partitions < 1 or self.n_partitions % 2 == 0:
            raise ConfigError(
                f"n_partitions must be odd and positive, got {self.n_partitions}"
            )
        if self.width_margin <= 0:
            raise ConfigError(f"width_margin {self.width_margin} not positive")
        if not 0 < self.danger_mult <= self.warning_mult:
            raise ConfigError(
                f"thresholds need 0 < danger_mult <= warning_mult, "
                f"got {self.danger_mult}, {self.warning_mult}"
            )
        if self.edge_box_px <= 0:
            raise ConfigError(f"edge_box_px {self.edge_box_px} not positive")
        if not 0 <= self.edge_threshold < 255:
            raise ConfigError(f"edge_threshold {self.edge_threshold} outside [0, 255)")


@dataclass(frozen=True)
class PipelineTuning:
    vip_hold_frames: int = 30   # frames to coast on a lost VIP before flagging
    reroute_patience: int = 5   # consecutive exhausted frames before replanning
    live_speed: bool = False    # recompute d' from tracked VIP speed
    iou_threshold: float = 0.3
    max_misses: int = 15        # ~0.5 s at 30 fps

    def __post_init__(self):
        if type(self.live_speed) is not bool:
            raise ConfigError(f"live_speed {self.live_speed!r} not a bool")
        ints = ("vip_hold_frames", "reroute_patience", "max_misses")
        int_fields(self, *ints, error=ConfigError)
        real_fields(self, *ints, "iou_threshold", error=ConfigError)
        if self.vip_hold_frames < 0:
            raise ConfigError(f"vip_hold_frames {self.vip_hold_frames} < 0")
        if self.reroute_patience < 1:
            raise ConfigError(f"reroute_patience {self.reroute_patience} < 1")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"iou_threshold {self.iou_threshold} outside (0,1)")
        if self.max_misses < 0:
            raise ConfigError(f"max_misses {self.max_misses} < 0")


@dataclass(frozen=True)
class Config:
    geometry: GeometricConfig = field(default_factory=GeometricConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    pipeline: PipelineTuning = field(default_factory=PipelineTuning)

    def __post_init__(self):
        # the planner classifies against d', so a zero d' fails every frame
        geo = self.geometry
        if safety_distance(geo.walk_speed, geo.t_detect, geo.t_react) <= 0:
            raise ConfigError(
                "geometry.walk_speed_mps * (t_detect_s + t_react_s) must be "
                f"positive, got {geo.walk_speed} * ({geo.t_detect} + {geo.t_react})"
            )


def default_config() -> Config:
    return Config()


def _build(section: str, raw: dict, key_map: dict, cls):
    kwargs = {}
    for key, value in raw.items():
        if key not in key_map:
            raise ConfigError(f"unknown key '{section}.{key}'")
        kwargs[key_map[key]] = value
    try:
        return cls(**kwargs)
    except (ConfigError, GeometryError) as exc:
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
    return config_from_dict(load_json(path, ConfigError))
