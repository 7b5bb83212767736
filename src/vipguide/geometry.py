"""Drone pose geometry relative to the escorted pedestrian.

The drone flies ahead of and above the VIP. Two constraints shape where it
may hover: the camera's vertical field of view must keep (a fraction of)
the VIP in frame, and the forward distance must leave enough sensing range
to react to obstacles at walking speed. The admissible poses form a
segment between a near/high endpoint and a far/low endpoint.

All angles are degrees at the API surface, lengths meters, times seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, GeometryError, InfeasibleConfigError
from .perception import real_fields

D_MIN_FLOOR = 1.0
D_MAX_CEILING = 10.0


@dataclass(frozen=True)
class GeometricConfig:
    """Camera, VIP and timing parameters that fix the pose envelope."""

    f_deg: float = 90.0            # vertical field of view
    h_vip_m: float = 1.7           # VIP height
    h_max_m: float = 3.0           # highest allowed height offset above the VIP's head
    walk_speed_mps: float = 1.2
    t_detect_s: float = 0.161      # perception latency
    t_react_s: float = 1.0         # human reaction allowance
    buffer_factor: float = 0.05
    perception_range_m: float = 15.0
    visible_fraction: float = 2.0 / 3.0
    hfov_deg: float = 90.0

    def __post_init__(self):
        real_fields(self, *(f.name for f in fields(self)), error=GeometryError)
        for name in ("f_deg", "hfov_deg"):
            if not 0.0 < getattr(self, name) < 180.0:
                raise GeometryError(f"{name} {getattr(self, name)} outside (0, 180)")
        for name in ("h_vip_m", "perception_range_m"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} {getattr(self, name)} not positive")
        for name in ("walk_speed_mps", "t_detect_s", "t_react_s", "buffer_factor"):
            if getattr(self, name) < 0:
                raise GeometryError(f"{name} {getattr(self, name)} < 0")
        if self.h_max_m < self.h_vip_m:
            raise GeometryError(f"h_max_m {self.h_max_m} below h_vip_m {self.h_vip_m}")
        if not 0.0 < self.visible_fraction <= 1.0:
            raise GeometryError(f"visible_fraction {self.visible_fraction} outside (0, 1]")

    @property
    def d_prime(self) -> float:
        """The safety distance d' at walk_speed_mps."""
        return safety_distance(self.walk_speed_mps, self.t_detect_s, self.t_react_s)


@dataclass(frozen=True, slots=True)
class PoseEnvelope:
    """Admissible (height offset, forward distance) segment.

    near endpoint: (h_max, d_min) — high and close;
    far endpoint: (h_vip, d_max) — level with the VIP's head and far out.
    """

    h_near: float
    d_min: float
    h_far: float
    d_max: float

    def interpolate(self, t: float) -> tuple[float, float]:
        """Pose at parameter t in [0,1]; t=0 near endpoint, t=1 far."""
        h = self.h_near + t * (self.h_far - self.h_near)
        d = self.d_min + t * (self.d_max - self.d_min)
        return h, d


def visibility_offset(f_deg: float, d: float) -> float:
    """Height offset at which the head-top ray grazes the upper FoV edge.

    h' = d * tan(f/2)
    """
    if not 0.0 < f_deg < 180.0:
        raise GeometryError(f"fov {f_deg} outside (0, 180)")
    if not d > 0:
        raise GeometryError(f"distance {d} not positive")
    return d * math.tan(math.radians(f_deg) / 2.0)


def safety_distance(walk_speed: float, t_detect: float, t_react: float) -> float:
    """Stopping margin: d' = x * (t_detect + t_react)."""
    if not (walk_speed >= 0 and t_detect >= 0 and t_react >= 0):
        raise GeometryError("safety distance inputs must be nonnegative")
    return walk_speed * (t_detect + t_react)


def lookahead(d: float, d_prime: float, cfg: GeometricConfig = GeometricConfig()) -> float:
    """Forward range the camera must cover: d + d' plus a buffer fraction of d'."""
    if not isinstance(cfg, GeometricConfig):
        raise ConfigError(f"cfg {cfg!r} not a GeometricConfig")
    return d + d_prime + cfg.buffer_factor * d_prime


def min_distance_for_visibility(h_prime: float, cfg: GeometricConfig) -> float:
    """Smallest distance keeping the top visible_fraction of the VIP in frame.

    At height offset h' the camera must fit h' + phi*h_vip of vertical extent
    below its axis within half the FoV, so d >= (h' + phi*h_vip)/tan(f/2).
    Clamped to the 1 m proximity floor.
    """
    if not isinstance(cfg, GeometricConfig):
        raise ConfigError(f"cfg {cfg!r} not a GeometricConfig")
    if not h_prime >= 0:
        raise GeometryError(f"negative height offset {h_prime}")
    tan_half = math.tan(math.radians(cfg.f_deg) / 2.0)
    need = (h_prime + cfg.visible_fraction * cfg.h_vip_m) / tan_half
    return max(D_MIN_FLOOR, need)


def _distance_bounds(cfg: GeometricConfig) -> tuple[float, float]:
    """The envelope's (d_min, d_max); d_min > d_max when it is empty."""
    if not isinstance(cfg, GeometricConfig):
        raise ConfigError(f"cfg {cfg!r} not a GeometricConfig")
    d_min = min_distance_for_visibility(cfg.h_max_m, cfg)
    d_prime = cfg.d_prime
    # lookahead(d_max, d') must not exceed perception_range_m
    d_max = cfg.perception_range_m - d_prime - cfg.buffer_factor * d_prime
    return d_min, min(D_MAX_CEILING, d_max)


def pose_envelope(cfg: GeometricConfig) -> PoseEnvelope:
    """Compute the admissible pose segment for a configuration.

    The near endpoint sits at the maximum height offset and the closest
    distance that still shows enough of the VIP; the far endpoint sits
    level with the VIP's head at the largest distance whose lookahead the
    sensor can still cover (capped at 10 m).
    """
    d_min, d_max = _distance_bounds(cfg)
    if d_min > d_max:
        raise InfeasibleConfigError(
            f"pose envelope empty: d_min {d_min:.3f} m > d_max {d_max:.3f} m"
        )
    return PoseEnvelope(h_near=cfg.h_max_m, d_min=d_min, h_far=cfg.h_vip_m, d_max=d_max)


def validate_pose(h_prime: float, d: float, cfg: GeometricConfig) -> list[str]:
    """List every constraint the pose violates; empty list = admissible.

    Violations are data, not errors: this stays total even for configs
    whose envelope is empty (every pose then violates a distance bound).
    Only a distance d not > 0 (NaN too), which is no pose at all, raises GeometryError,
    and a cfg that is not a GeometricConfig ConfigError.
    """
    violations = []
    d_min, d_max = _distance_bounds(cfg)
    h_top = visibility_offset(cfg.f_deg, d)
    eps = 1e-9
    # the h' checks are negated so that a NaN h' fails each of them
    if not h_prime <= h_top + eps:
        violations.append(
            f"head not visible: h'={h_prime:.3f} > d*tan(f/2)={h_top:.3f}"
        )
    if d < d_min - eps:
        violations.append(f"d={d:.3f} below minimum distance {d_min:.3f}")
    if d > d_max + eps:
        violations.append(f"d={d:.3f} beyond maximum distance {d_max:.3f}")
    if not h_prime >= cfg.h_vip_m - eps:
        violations.append(f"h'={h_prime:.3f} below VIP head height {cfg.h_vip_m:.3f}")
    if not h_prime <= cfg.h_max_m + eps:
        violations.append(f"h'={h_prime:.3f} above height ceiling {cfg.h_max_m:.3f}")
    return violations
