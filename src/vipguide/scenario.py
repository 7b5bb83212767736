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

import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Iterator

import numpy as np

from .calibration import CalibrationModel, CalibrationSample, fit, region_rev
from .errors import ConsistencyError, FrameDecodeError
from .frameio import _json_records, _require, write_dataset
from .local_planner import partition_bounds
from .perception import (
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    rle_encode_rect,
)

Z_NEAR = 1.0
Z_FAR = 50.0
GROUND_ATTENUATION = 0.55  # matte ground reads farther than solid objects

SCENARIO_KINDS = ("footpath_tree", "parked_vehicles", "crowded_street", "random")

GROUND_TRUTH_FILE = "ground_truth.jsonl"


@dataclass(frozen=True)
class Camera:
    width: int = 640
    height: int = 480
    hfov_deg: float = 90.0
    vfov_deg: float = 90.0
    ground_height: float = 2.2  # camera height above ground, meters

    @property
    def fx(self) -> float:
        return (self.width / 2.0) / math.tan(math.radians(self.hfov_deg) / 2.0)

    @property
    def fy(self) -> float:
        return (self.height / 2.0) / math.tan(math.radians(self.vfov_deg) / 2.0)

    @property
    def cx(self) -> float:
        return self.width / 2.0

    @property
    def cy(self) -> float:
        return self.height / 2.0


@dataclass(frozen=True)
class SceneObject:
    """Billboard: vertical rectangle facing the camera.

    x is lateral offset (right positive), z forward distance, elevation the
    height of the rectangle's bottom edge above the ground plane.
    """

    kind: str
    x: float
    z: float
    width: float
    height: float
    elevation: float = 0.0
    labeled: bool = True

    def __post_init__(self):
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


def z_from_rev(rev: float) -> float:
    return Z_FAR - (Z_FAR - Z_NEAR) * rev * rev


def rev16_from_z(z: float) -> int:
    return int(math.floor(65535.0 * rev_from_z(z) + 0.5))


def _round_px(v: float) -> int:
    return int(math.floor(v + 0.5))


def _pixel_rect(obj: SceneObject, cam: Camera) -> tuple[int, int, int, int] | None:
    """Projected, rounded, frame-clipped (x1, y1, x2, y2); None if off-frame."""
    if obj.z <= 0:
        return None
    y_bottom = cam.ground_height - obj.elevation          # camera frame, y down
    y_top = y_bottom - obj.height
    u_lo = cam.cx + cam.fx * (obj.x - obj.width / 2.0) / obj.z
    u_hi = cam.cx + cam.fx * (obj.x + obj.width / 2.0) / obj.z
    v_lo = cam.cy + cam.fy * y_top / obj.z
    v_hi = cam.cy + cam.fy * y_bottom / obj.z
    x1 = max(0, _round_px(u_lo))
    x2 = min(cam.width, _round_px(u_hi))
    y1 = max(0, _round_px(v_lo))
    y2 = min(cam.height, _round_px(v_hi))
    if x1 >= x2 or y1 >= y2:
        return None
    return x1, y1, x2, y2


def project_bbox(obj: SceneObject, cam: Camera) -> BoundingBox | None:
    rect = _pixel_rect(obj, cam)
    if rect is None:
        return None
    return BoundingBox(*rect)


def ground_rev_rows(cam: Camera) -> np.ndarray:
    """Per-row background REV for the visible ground plane (0 above horizon)."""
    rows = np.arange(cam.height, dtype=np.float64) + 0.5 - cam.cy
    rev = np.zeros(cam.height, dtype=np.float64)
    visible = rows > 0
    z = np.full(cam.height, np.inf)
    z[visible] = cam.fy * cam.ground_height / rows[visible]
    in_range = visible & (z < Z_FAR)
    rev[in_range] = np.sqrt((Z_FAR - np.minimum(z[in_range], Z_FAR)) / (Z_FAR - Z_NEAR))
    rev[visible & (z <= Z_NEAR)] = 1.0
    return np.floor(65535.0 * GROUND_ATTENUATION * rev + 0.5).astype(np.uint16)


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
    objects: list[SceneObject], cam: Camera, ground: np.ndarray
) -> tuple[np.ndarray, list[Detection], BitMask | None, dict[int, BitMask]]:
    """Paint `objects` over a copy of `ground`; detect what stays in view.

    Returns (depth values, detections, VIP mask, instance masks). Labeled
    objects and the VIP are detected, in index order, when some pixel of
    theirs is visible. The visible part is the object's rect minus the
    rects painted after it, the same pixels render_scene's owner grid
    gives it, and its mask is built from those rects alone.
    """
    values = ground.copy()
    layout = _paint(objects, cam, values)
    visible = {}
    for k, (idx, rect) in enumerate(layout):
        obj = objects[idx]
        if not obj.labeled and obj.kind != "vip":
            continue
        cuts = [cut for _, cut in layout[k + 1 :]]
        mask = rle_encode_rect(rect, cuts, cam.width, cam.height)
        if mask is not None:
            visible[idx] = (BoundingBox(*rect), mask)
    detections = []
    vip_mask = None
    instance_masks: dict[int, BitMask] = {}
    for idx in sorted(visible):
        bbox, mask = visible[idx]
        kind = objects[idx].kind
        detections.append(Detection(kind, bbox, CONFIDENCE.get(kind, 0.8), track_id=idx))
        if kind == "vip":
            vip_mask = mask
        else:
            instance_masks[idx] = mask
    return values, detections, vip_mask, instance_masks


def default_road_mask(cam: Camera) -> BitMask:
    """Walkway band: central 60% of columns, everything below the horizon."""
    x1 = _round_px(0.2 * cam.width)
    x2 = _round_px(0.8 * cam.width)
    y1 = cam.height // 2
    return rle_encode_rect((x1, y1, x2, cam.height), (), cam.width, cam.height)


# -- scenario authoring ---------------------------------------------------------

CONFIDENCE = {"vip": 0.98, "person": 0.91, "car": 0.93, "tree": 0.85, "wall": 0.8}

VIP_SIZE = (0.5, 1.7)
VIP_Z = 3.0
FREEZE_GAP = 0.3  # scene stops advancing this close to the nearest obstacle


@dataclass(frozen=True)
class GroundTruth:
    frame_id: int
    expected_partition: int
    expected_direction: str


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    seed: int
    n_frames: int = 30
    camera: Camera = Camera()
    walk_speed: float = 1.2  # m/s
    fps: float = 30.0
    rev_jitter_sigma: float = 0.0  # optional Gaussian REV noise, 16-bit units

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConsistencyError(
                f"unknown scenario '{self.kind}', expected one of {SCENARIO_KINDS}"
            )
        if self.n_frames < 1:
            raise ConsistencyError(f"n_frames {self.n_frames} < 1")
        if self.seed < 0:
            raise ConsistencyError(f"seed {self.seed} < 0")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ConsistencyError(f"fps {self.fps} not finite and > 0")
        for name in ("walk_speed", "rev_jitter_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConsistencyError(f"{name} {value} not finite and >= 0")


def direction_name(partition_index: int, n_partitions: int = 3) -> str:
    center = (n_partitions - 1) // 2
    if partition_index < center:
        return "left"
    if partition_index > center:
        return "right"
    return "center"


def _jitter(rng: np.random.Generator, amount: float = 0.05) -> float:
    return float(rng.uniform(-amount, amount))


def _base_scene(spec: ScenarioSpec, rng: np.random.Generator):
    """Obstacles at their first-frame positions, plus the expected partition.

    Obstacle z is expressed relative to the VIP (who stands VIP_Z ahead of
    the camera); the walk closes that gap over the stream.
    """
    j = lambda: _jitter(rng)
    if spec.kind == "footpath_tree":
        # low canopy over the left/center walkway; no detector class for it
        obstacles = [
            SceneObject(
                "tree",
                x=-1.5 + j(),
                z=1.5,
                width=3.5,
                height=2.5,
                elevation=3.0,
                labeled=False,
            )
        ]
        expected = 2
    elif spec.kind == "parked_vehicles":
        obstacles = [
            SceneObject("car", x=-1.1 + j(), z=1.5, width=2.0, height=1.5),
            SceneObject("car", x=-1.8 + j(), z=2.6, width=2.0, height=1.5),
        ]
        expected = 2
    elif spec.kind == "crowded_street":
        obstacles = [
            SceneObject("person", x=0.8 + j(), z=1.6, width=0.6, height=1.75),
            SceneObject("person", x=2.0 + j(), z=2.0, width=0.6, height=1.75),
            SceneObject("person", x=0.45 + j(), z=2.2, width=0.6, height=1.75),
        ]
        expected = 0
    else:
        obstacles, expected = _random_scene(spec, rng)
    return obstacles, expected


def _random_scene(spec: ScenarioSpec, rng: np.random.Generator):
    """Scatter obstacles while keeping one randomly chosen partition clear."""
    cam = spec.camera
    expected = int(rng.integers(0, 3))
    keep = partition_bounds(cam.width, 3)[expected]
    kinds = ["person", "car", "wall", "tree"]
    sizes = {
        "person": (0.6, 1.75),
        "car": (2.0, 1.5),
        "wall": (1.5, 2.0),
        "tree": (2.5, 2.0),
    }
    obstacles = []
    for _ in range(int(rng.integers(1, 6))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        w, h = sizes[kind]
        z_rel = float(rng.uniform(1.2, 3.0))
        elevation = 3.0 if kind == "tree" else 0.0
        for _attempt in range(20):
            x = float(rng.uniform(-3.0, 3.0))
            candidate = SceneObject(
                kind,
                x=x,
                z=z_rel,
                width=w,
                height=h,
                elevation=elevation,
                labeled=bool(rng.random() < 0.8) if kind != "tree" else False,
            )
            # edge columns are monotone in z, so overlap extremes happen
            # at the first- and last-frame depths
            clear = True
            for z_rel_t in (z_rel, max(FREEZE_GAP, z_rel - _max_advance(spec, obstacles + [candidate]))):
                rect = _pixel_rect(replace(candidate, z=VIP_Z + z_rel_t), cam)
                if rect is not None and rect[0] < keep.x_end and rect[2] > keep.x_start:
                    clear = False
                    break
            if clear:
                obstacles.append(candidate)
                break
    return obstacles, expected


def _max_advance(spec: ScenarioSpec, obstacles: list[SceneObject]) -> float:
    """Total forward walk distance before the scene freezes."""
    if not obstacles:
        return spec.walk_speed * (spec.n_frames - 1) / spec.fps
    cap = min(o.z for o in obstacles) - FREEZE_GAP
    return max(0.0, cap)


def generate(spec: ScenarioSpec):
    """Yield (PerceptionFrame, GroundTruth) pairs, a pure function of `spec`."""
    rng = np.random.default_rng(spec.seed)
    cam = spec.camera
    obstacles, expected = _base_scene(spec, rng)
    cap = _max_advance(spec, obstacles)
    road_mask = default_road_mask(cam)
    vip_x = _jitter(rng, 0.05)
    direction = direction_name(expected)
    ground = _ground_image(cam)
    vip = SceneObject("vip", x=vip_x, z=VIP_Z, width=VIP_SIZE[0], height=VIP_SIZE[1])

    for frame_id in range(spec.n_frames):
        t = frame_id / spec.fps
        advance = min(spec.walk_speed * t, cap)
        objects = [vip] + [replace(o, z=VIP_Z + o.z - advance) for o in obstacles]
        values, detections, vip_mask, instance_masks = _render(objects, cam, ground)
        if spec.rev_jitter_sigma > 0:
            noise = rng.normal(0.0, spec.rev_jitter_sigma, values.shape)
            values = np.clip(
                np.floor(values.astype(np.float64) + noise + 0.5), 0, 65535
            ).astype(np.uint16)

        frame = PerceptionFrame(
            frame_id=frame_id,
            timestamp=t,
            width=cam.width,
            height=cam.height,
            depth=DepthMap(width=cam.width, height=cam.height, values=values),
            detections=tuple(detections),
            vip_mask=vip_mask,
            road_mask=road_mask,
            instance_masks=instance_masks,
        )
        yield frame, GroundTruth(
            frame_id=frame_id,
            expected_partition=expected,
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
            fh.write(json.dumps(asdict(truth), separators=(",", ":")))
            fh.write("\n")
    return count


def read_ground_truth(directory) -> list[GroundTruth]:
    """Read the ground-truth JSONL; FrameDecodeError names path:line and field."""
    path = os.path.join(directory, GROUND_TRUTH_FILE)
    out = []
    for lineno, obj in _json_records(path):
        try:
            out.append(
                GroundTruth(
                    frame_id=_require(obj, "frame_id", int, "int"),
                    expected_partition=_require(obj, "expected_partition", int, "int"),
                    expected_direction=_require(obj, "expected_direction", str, "str"),
                )
            )
        except FrameDecodeError as exc:
            raise FrameDecodeError(f"{path}:{lineno}: {exc}") from None
    return out


def calibration_frames(
    z_values, cam: Camera = Camera()
) -> Iterator[tuple[PerceptionFrame, float]]:
    """Yield one frame per distance: a lone labeled wall at known z, for calibration.

    Frames are rendered as the iterator reaches them, so one is held at a
    time; a wall that projects off-frame raises when iteration reaches it.
    """
    ground = _ground_image(cam)
    for frame_id, z in enumerate(z_values):
        wall = SceneObject("wall", x=0.0, z=float(z), width=1.5, height=1.5, elevation=0.35)
        values, detections, _, instance_masks = _render([wall], cam, ground)
        if not detections:
            raise ConsistencyError(f"calibration wall at z={z} projects off-frame")
        frame = PerceptionFrame(
            frame_id=frame_id,
            timestamp=float(frame_id),
            width=cam.width,
            height=cam.height,
            depth=DepthMap(width=cam.width, height=cam.height, values=values),
            detections=tuple(detections),
            instance_masks=instance_masks,
        )
        yield frame, float(z)


def default_model() -> CalibrationModel:
    """Calibration fit against the synthetic depth law (for generated frames)."""
    frames = calibration_frames([1.0 + 0.5 * i for i in range(19)])
    samples = [
        CalibrationSample(
            rev=region_rev(frame, frame.detections[0]) / 65535.0, distance=z
        )
        for frame, z in frames
    ]
    return fit(samples)
