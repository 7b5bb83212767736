"""Synthetic perception streams with ground truth.

Renders billboard scenes through an ideal pinhole camera into the same
detection/mask/depth form a live perception stack would produce, plus a
per-frame ground-truth record saying which partition should stay free.
Three authored scenes cover the canonical cases — an overhanging tree the
detector cannot label, parked cars crowding the left, a knot of
pedestrians center-right — and a seeded random mode feeds property tests.

Depth convention: REV rises toward the camera following
``z = Z_FAR - (Z_FAR - Z_NEAR) * rev^2``, so metric distance is exactly
quadratic in normalized REV and a quadratic calibration can invert it.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .calibration import CalibrationModel, CalibrationSample, fit, region_rev
from .config import PlannerConfig
from .errors import ConsistencyError
from .frameio import json_records, record_to_line, require_field, write_dataset
from .geometry import GeometricConfig
from .local_planner import partition_bounds
from .perception import (
    REV_MAX,
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    clip_rect,
    int_fields,
    real_fields,
    rle_encode_rect,
    sign_fields,
)

Z_NEAR = 1.0
Z_FAR = 50.0
GROUND_ATTENUATION = 0.55  # matte ground reads farther than solid objects

GROUND_TRUTH_FILE = "ground_truth.jsonl"


@dataclass(frozen=True)
class Camera:
    width: int = 640
    height: int = 480
    hfov_deg: float = GeometricConfig.hfov_deg
    vfov_deg: float = GeometricConfig.f_deg
    ground_height: float = 2.2  # camera height above ground, meters

    def __post_init__(self):
        int_fields(self, "width", "height", what="camera ")
        real_fields(self, "hfov_deg", "vfov_deg", "ground_height", what="camera ")
        sign_fields(self, positive=("width", "height", "ground_height"), what="camera ")
        for name in ("hfov_deg", "vfov_deg"):
            if not 0.0 < getattr(self, name) < 180.0:
                raise ConsistencyError(f"camera {name} {getattr(self, name)} outside (0, 180)")

    # intrinsics, computed on first read; the frozen fields never change them
    @cached_property
    def fx(self) -> float:
        return (self.width / 2.0) / math.tan(math.radians(self.hfov_deg) / 2.0)

    @cached_property
    def fy(self) -> float:
        return (self.height / 2.0) / math.tan(math.radians(self.vfov_deg) / 2.0)

    @cached_property
    def cx(self) -> float:
        return self.width / 2.0

    @cached_property
    def cy(self) -> float:
        return self.height / 2.0


@dataclass(frozen=True, slots=True)
class SceneObject:
    """Billboard: vertical rectangle facing the camera.

    x is lateral offset (right positive) and z forward distance, in the frame
    its holder names; elevation is its bottom edge's height above the ground.
    """

    kind: str
    x: float
    z: float
    width: float
    height: float
    elevation: float = 0.0
    labeled: bool = True

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ConsistencyError(f"kind {self.kind!r} not a str")
        real_fields(self, "x", "z", "width", "height", "elevation", what=f"{self.kind} ")
        if type(self.labeled) is not bool:
            raise ConsistencyError(f"{self.kind} labeled {self.labeled!r} not a bool")
        if self.z <= 0:
            raise ConsistencyError(f"{self.kind} at nonpositive z {self.z}")
        if self.width <= 0 or self.height <= 0:
            raise ConsistencyError(f"{self.kind} with nonpositive size")


def rev_from_z(z: float) -> float:
    """Normalized relative depth in [0,1]; 1 at Z_NEAR, 0 from Z_FAR out."""
    if z <= Z_NEAR:
        return 1.0
    if z >= Z_FAR:
        return 0.0
    return math.sqrt((Z_FAR - z) / (Z_FAR - Z_NEAR))


def _round_px(v: float) -> int:
    return int(math.floor(v + 0.5))


def rev16_from_z(z: float) -> int:
    return _round_px(REV_MAX * rev_from_z(z))


def _pixel_rect(obj: SceneObject, cam: Camera) -> tuple[int, int, int, int] | None:
    """Projected, rounded, frame-clipped (x1, y1, x2, y2); None if off-frame."""
    y_bottom = cam.ground_height - obj.elevation          # camera frame, y down
    y_top = y_bottom - obj.height
    u_lo = cam.cx + cam.fx * (obj.x - obj.width / 2.0) / obj.z
    u_hi = cam.cx + cam.fx * (obj.x + obj.width / 2.0) / obj.z
    v_lo = cam.cy + cam.fy * y_top / obj.z
    v_hi = cam.cy + cam.fy * y_bottom / obj.z
    rect = _round_px(u_lo), _round_px(v_lo), _round_px(u_hi), _round_px(v_hi)
    return clip_rect(rect, (0, 0, cam.width, cam.height))


def project_bbox(obj: SceneObject, cam: Camera) -> BoundingBox | None:
    rect = _pixel_rect(obj, cam)
    if rect is None:
        return None
    return BoundingBox(*rect)


def ground_rev_rows(cam: Camera) -> np.ndarray:
    """Per-row background REV for the visible ground plane (0 above horizon)."""
    rows = (np.arange(cam.height, dtype=np.float64) + 0.5 - cam.cy).tolist()
    rev = np.array([rev_from_z(cam.fy * cam.ground_height / r) if r > 0 else 0.0 for r in rows])
    return np.floor(REV_MAX * GROUND_ATTENUATION * rev + 0.5).astype(np.uint16)


def _ground_image(cam: Camera) -> np.ndarray:
    """The ground gradient as a full frame, before any object is painted."""
    return np.tile(ground_rev_rows(cam)[:, None], (1, cam.width))


def _paint(
    objects: list[SceneObject], cam: Camera, depth: np.ndarray
) -> list[tuple[int, tuple[int, int, int, int]]]:
    """Paint each object's REV into `depth`, far to near (painter's order).

    Returns the paint layout: (index, pixel rect) of every on-frame object,
    in the order painted. Equal depths keep index order (sorted is stable),
    so the later index wins.
    """
    layout = []
    for i in sorted(range(len(objects)), key=lambda i: -objects[i].z):
        rect = _pixel_rect(objects[i], cam)
        if rect is None:
            continue
        x1, y1, x2, y2 = rect
        depth[y1:y2, x1:x2] = rev16_from_z(objects[i].z)
        layout.append((i, rect))
    return layout


def render_scene(
    objects: list[SceneObject], cam: Camera
) -> tuple[DepthMap, np.ndarray]:
    """Rasterize billboards over the ground gradient, painter's order.

    Returns the depth map and an owner grid holding, per pixel, the index
    of the visible object (-1 for background).
    """
    depth = _ground_image(cam)
    owner = np.full((cam.height, cam.width), -1, dtype=np.int32)
    for i, (x1, y1, x2, y2) in _paint(objects, cam, depth):
        owner[y1:y2, x1:x2] = i
    return DepthMap(width=cam.width, height=cam.height, values=depth), owner


def _render(
    objects: list[SceneObject],
    cam: Camera,
    ground: np.ndarray,
    frame_id: int,
    timestamp: float,
    road_mask: BitMask | None = None,
) -> PerceptionFrame:
    """One frame of camera-space `objects` painted over a copy of `ground`, and what stays in view.

    Labeled objects and the VIP are detected, in index order, when some
    pixel of theirs is visible. The visible part is the object's rect minus
    the rects painted after it, the same pixels render_scene's owner grid
    gives it, and its mask is built from those rects alone.
    """
    values = ground.copy()
    layout = _paint(objects, cam, values)
    detections = []
    vip_mask = None
    instance_masks: dict[int, BitMask] = {}
    for k in sorted(range(len(layout)), key=lambda k: layout[k][0]):  # index order
        idx, rect = layout[k]
        kind = objects[idx].kind
        if not objects[idx].labeled and kind != "vip":
            continue
        cuts = [cut for _, cut in layout[k + 1 :]]
        mask = rle_encode_rect(rect, cuts, cam.width, cam.height)
        if mask is None:
            continue
        detections.append(Detection(kind, BoundingBox(*rect), CONFIDENCE[kind], track_id=idx))
        if kind == "vip":
            vip_mask = mask
        else:
            instance_masks[idx] = mask
    return PerceptionFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        width=cam.width,
        height=cam.height,
        depth=DepthMap(width=cam.width, height=cam.height, values=values),
        detections=detections,
        vip_mask=vip_mask,
        road_mask=road_mask,
        instance_masks=instance_masks,
    )


def default_road_mask(cam: Camera) -> BitMask:
    """Walkway band: central 60% of columns, everything below the horizon."""
    x1 = _round_px(0.2 * cam.width)
    x2 = _round_px(0.8 * cam.width)
    y1 = cam.height // 2
    return rle_encode_rect((x1, y1, x2, cam.height), (), cam.width, cam.height)


# -- scenario authoring ---------------------------------------------------------

CAMERA = Camera()  # every generated stream and calibration frame uses it
FPS = 30.0
WALK_SPEED = GeometricConfig.walk_speed_mps  # m/s, every generated walk's pace

CONFIDENCE = {"vip": 0.98, "person": 0.91, "car": 0.93, "tree": 0.85, "wall": 0.8}

VIP_SIZE = (0.5, GeometricConfig.h_vip_m)  # (width, height), meters
VIP_Z = 3.0
FREEZE_GAP = 0.3  # scene stops advancing this close to the nearest obstacle

# (width, height) in meters; random scenes draw kinds in this order
SIZES = {"person": (0.6, 1.75), "car": (2.0, 1.5), "wall": (1.5, 2.0), "tree": (2.5, 2.0)}

# kind -> (expected partition, obstacles in World's coordinates). Each x is
# jittered in list order.
AUTHORED = {
    # low canopy over the left/center walkway; no detector class for it
    "footpath_tree": (2, (
        SceneObject("tree", -1.5, 1.5, 3.5, 2.5, elevation=3.0, labeled=False),
    )),
    "parked_vehicles": (2, (
        SceneObject("car", -1.1, 1.5, *SIZES["car"]),
        SceneObject("car", -1.8, 2.6, *SIZES["car"]),
    )),
    "crowded_street": (0, (
        SceneObject("person", 0.8, 1.6, *SIZES["person"]),
        SceneObject("person", 2.0, 2.0, *SIZES["person"]),
        SceneObject("person", 0.45, 2.2, *SIZES["person"]),
    )),
}

SCENARIO_KINDS = (*AUTHORED, "random")

CALIBRATION_Z = tuple(1.0 + 0.5 * i for i in range(19))  # wall distances, 1.0 .. 10.0 m


@dataclass(frozen=True, slots=True)
class GroundTruth:
    frame_id: int
    expected_partition: int
    expected_direction: str


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    seed: int = 1  # seed and n_frames: the CLI defaults for unset --seed, --n-frames
    n_frames: int = 30
    rev_jitter_sigma: float = 0.0  # optional Gaussian REV noise, 16-bit units

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConsistencyError(
                f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}"
            )
        int_fields(self, "seed", "n_frames")
        real_fields(self, "rev_jitter_sigma")
        if self.n_frames < 1:
            raise ConsistencyError(f"n_frames {self.n_frames} < 1")
        sign_fields(self, nonnegative=("seed", "rev_jitter_sigma"))


def direction_name(partition_index: int) -> str:
    center = PlannerConfig.n_partitions // 2
    if partition_index < center:
        return "left"
    if partition_index > center:
        return "right"
    return "center"


def _jitter(rng: np.random.Generator) -> float:
    return float(rng.uniform(-0.05, 0.05))


def _in_camera(o: SceneObject, advance: float) -> SceneObject:
    """Obstacle `o` seen by the camera, at x 0 and VIP_Z behind a VIP `advance` m on."""
    return SceneObject(o.kind, o.x, VIP_Z + o.z - advance, o.width, o.height, o.elevation, o.labeled)


@dataclass(frozen=True)
class World:
    """One stream's scene and walk, in world coordinates: x lateral from the
    camera's line of flight (right positive), z forward from the VIP's start,
    elevation up from the ground. The VIP starts at x `vip_x` and walks at
    WALK_SPEED until the nearest obstacle is FREEZE_GAP ahead, then holds."""

    vip_x: float
    obstacles: tuple[SceneObject, ...]
    expected_partition: int  # the partition kept clear

    @cached_property
    def freeze_distance(self) -> float:
        return min((o.z for o in self.obstacles), default=math.inf) - FREEZE_GAP

    @cached_property
    def _vip_in_camera(self) -> SceneObject:  # the escort keeps station
        return SceneObject("vip", self.vip_x, VIP_Z, *VIP_SIZE)

    def objects_at(self, t: float) -> list[SceneObject]:
        """The VIP, then each obstacle, in camera space at time `t`."""
        advance = min(WALK_SPEED * t, self.freeze_distance)
        return [self._vip_in_camera] + [_in_camera(o, advance) for o in self.obstacles]


def _build_world(spec: ScenarioSpec, rng: np.random.Generator) -> World:
    """Draw the stream's world from `rng`: the obstacles, then the VIP's jitter."""
    if spec.kind in AUTHORED:
        expected, base = AUTHORED[spec.kind]
        obstacles = [replace(o, x=o.x + _jitter(rng)) for o in base]
    else:
        obstacles, expected = _random_scene(rng)
    return World(_jitter(rng), tuple(obstacles), expected)


def _random_scene(rng: np.random.Generator):
    """Scatter obstacles while keeping one randomly chosen partition clear."""
    partitions = partition_bounds(CAMERA.width)  # the default tiling
    expected = int(rng.integers(0, len(partitions)))
    keep = partitions[expected]
    kinds = list(SIZES)
    obstacles = []
    for _ in range(int(rng.integers(1, 6))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        w, h = SIZES[kind]
        z = float(rng.uniform(1.2, 3.0))
        elevation = 3.0 if kind == "tree" else 0.0
        for _attempt in range(20):
            x = float(rng.uniform(-3.0, 3.0))
            candidate = SceneObject(
                kind,
                x=x,
                z=z,
                width=w,
                height=h,
                elevation=elevation,
                labeled=bool(rng.random() < 0.8) if kind != "tree" else False,
            )
            # edge columns are monotone in z, so overlap extremes happen
            # at the first depth and at the freeze, which vip_x leaves alone
            for advance in (0.0, World(0.0, (*obstacles, candidate), expected).freeze_distance):
                rect = _pixel_rect(_in_camera(candidate, advance), CAMERA)
                if rect is not None and rect[0] < keep.x_end and rect[2] > keep.x_start:
                    break  # overlaps the kept partition: draw x again
            else:
                obstacles.append(candidate)
                break
    return obstacles, expected


def generate(spec: ScenarioSpec):
    """Yield (PerceptionFrame, GroundTruth) pairs, a pure function of `spec`."""
    rng = np.random.default_rng(spec.seed)
    world = _build_world(spec, rng)
    road_mask = default_road_mask(CAMERA)
    direction = direction_name(world.expected_partition)
    ground = _ground_image(CAMERA)

    for frame_id in range(spec.n_frames):
        t = frame_id / FPS
        frame = _render(world.objects_at(t), CAMERA, ground, frame_id, t, road_mask)
        if spec.rev_jitter_sigma > 0:
            noise = rng.normal(0.0, spec.rev_jitter_sigma, frame.depth.values.shape)
            values = np.clip(np.floor(frame.depth.values + noise + 0.5), 0, REV_MAX)
            frame = replace(frame, depth=DepthMap(CAMERA.width, CAMERA.height, values))
        yield frame, GroundTruth(
            frame_id=frame_id,
            expected_partition=world.expected_partition,
            expected_direction=direction,
        )


def write_scenario(directory, spec: ScenarioSpec) -> int:
    """Write the dataset plus a parallel ground-truth JSONL; returns frame count.

    Frames stream into the dataset as they are generated: one frame is
    held at a time, plus the small ground-truth records.
    """
    truths = []

    def frames():
        for frame, truth in generate(spec):
            truths.append(truth)
            yield frame

    count = write_dataset(directory, frames())
    path = os.path.join(directory, GROUND_TRUTH_FILE)
    with open(path, "w", encoding="ascii") as fh:
        for truth in truths:
            fh.write(record_to_line(asdict(truth)))
            fh.write("\n")
    return count


def read_ground_truth(directory) -> list[GroundTruth]:
    """Read the ground-truth JSONL; FrameDecodeError names path:line and field."""

    def truth_from(obj: dict) -> GroundTruth:
        return GroundTruth(
            frame_id=require_field(obj, "frame_id", int, "int"),
            expected_partition=require_field(obj, "expected_partition", int, "int"),
            expected_direction=require_field(obj, "expected_direction", str, "str"),
        )

    return list(json_records(os.path.join(directory, GROUND_TRUTH_FILE), truth_from))


def calibration_frames(z_values) -> Iterator[tuple[PerceptionFrame, float]]:
    """Yield one frame per distance: a lone labeled wall at known z, for calibration.

    Frames are rendered as the iterator reaches them, so one is held at a
    time; a wall that projects off-frame raises when iteration reaches it.
    """
    ground = _ground_image(CAMERA)
    for frame_id, z in enumerate(z_values):
        wall = SceneObject("wall", x=0.0, z=float(z), width=1.5, height=1.5, elevation=0.35)
        frame = _render([wall], CAMERA, ground, frame_id, float(frame_id))
        if not frame.detections:
            raise ConsistencyError(f"calibration wall at z={z} projects off-frame")
        yield frame, float(z)


def default_model() -> CalibrationModel:
    """Calibration fit against the synthetic depth law (for generated frames)."""
    samples = [
        CalibrationSample(rev=region_rev(frame, frame.detections[0]) / REV_MAX, distance=z)
        for frame, z in calibration_frames(CALIBRATION_Z)
    ]
    return fit(samples)
