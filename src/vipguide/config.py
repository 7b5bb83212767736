"""Run configuration: one JSON file, grouped keys, validated on load.

Lengths are meters, times seconds, angles degrees. Unknown keys are
rejected so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .frameio import load_json
from .geometry import GeometricConfig, GeometryError
from .perception import check_section, int_fields, real_fields, sign_fields

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
        sign_fields(self, positive=("width_margin", "edge_box_px"), error=ConfigError)
        if not 0 < self.danger_mult <= self.warning_mult:
            raise ConfigError(
                f"thresholds need 0 < danger_mult <= warning_mult, "
                f"got {self.danger_mult}, {self.warning_mult}"
            )
        if not 0 <= self.edge_threshold < 255:
            raise ConfigError(f"edge_threshold {self.edge_threshold} outside [0, 255)")


@dataclass(frozen=True)
class PipelineTuning:
    vip_hold_frames: int = 30   # frames to coast on a lost VIP before flagging
    reroute_patience: int = 5   # consecutive exhausted frames before replanning
    live_speed: bool = False    # d' from the fastest tracked approach rate
    iou_threshold: float = 0.3
    max_misses: int = 15        # ~0.5 s at 30 fps

    def __post_init__(self):
        if type(self.live_speed) is not bool:
            raise ConfigError(f"live_speed {self.live_speed!r} not a bool")
        ints = ("vip_hold_frames", "reroute_patience", "max_misses")
        int_fields(self, *ints, error=ConfigError)
        real_fields(self, *ints, "iou_threshold", error=ConfigError)
        sign_fields(self, nonnegative=("vip_hold_frames", "max_misses"), error=ConfigError)
        if self.reroute_patience < 1:
            raise ConfigError(f"reroute_patience {self.reroute_patience} < 1")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"iou_threshold {self.iou_threshold} outside (0,1)")


@dataclass(frozen=True)
class Config:
    geometry: GeometricConfig = field(default_factory=GeometricConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    pipeline: PipelineTuning = field(default_factory=PipelineTuning)

    def __post_init__(self):
        for f in fields(self):
            check_section(getattr(self, f.name), f.default_factory, f.name)
        # the planner classifies against d', so a zero d' fails every frame
        geo = self.geometry
        if geo.d_prime <= 0:
            raise ConfigError(
                "geometry.walk_speed_mps * (t_detect_s + t_react_s) must be positive, "
                f"got {geo.walk_speed_mps} * ({geo.t_detect_s} + {geo.t_react_s})"
            )


def default_config() -> Config:
    return Config()


def _build(section: str, raw: dict, cls):
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown key '{section}.{key}'")
    try:
        return cls(**raw)
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
    built = {name: _build(name, obj.get(name, {}), cls) for name, cls in sections.items()}
    return Config(**built)


def load_config(path) -> Config:
    return load_json(path, config_from_dict, ConfigError, "config")
