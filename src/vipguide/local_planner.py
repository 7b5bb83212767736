"""Per-frame heading selection: partition scoring, free space, road edges.

The frame is split into n (odd) vertical partitions. Each partition gets a
depth score H(i) — the mean REV over its columns with the VIP's own pixels
excluded — so a partition hiding a close obstacle scores high even when the
obstacle was never detected as a box. Detected obstacles near the VIP mark
columns as occupied; the gaps are free space. The heading goes to the
lowest-scoring partition that still has a wide-enough gap; if none does,
the frame escalates to a global reroute.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import PlannerConfig
from .errors import PlannerError
from .perception import (
    REV_MAX, BitMask, BoundingBox, DepthMap, _exact_int, check_section, clip_rect, free_runs,
    int_fields,
)

Severity = str  # "danger" | "warning" | "clear"
EdgeStatus = str  # "safe" | "warn_left" | "warn_right" | "warn_both" | "unknown"


@dataclass(frozen=True, slots=True)
class Partition:
    index: int
    x_start: int
    x_end: int

    def __post_init__(self):
        int_fields(self, "index", "x_start", "x_end", error=PlannerError)

    @property
    def center_column(self) -> float:
        return (self.x_start + self.x_end) / 2.0


@dataclass(frozen=True, slots=True)
class PartitionProfile:
    partition: Partition
    h_score: float
    empty: bool  # every pixel excluded -> score forced to 0
    max_free_width: int  # widest free column run inside the partition


@dataclass(frozen=True, slots=True)
class ObstacleAssessment:
    """One obstacle of one frame: its box, its distance from the VIP and the
    severity that distance earns."""

    track_id: int
    class_label: str
    bbox: BoundingBox
    distance_m: float
    severity: Severity


@dataclass(frozen=True, slots=True)
class Heading:
    partition: int
    angle_deg: float


@dataclass(frozen=True, slots=True)
class RerouteNeeded:
    """No partition is wide enough. `new_route` is the route found by a replan
    fired on this frame: None when none fired, () when no path is left."""

    new_route: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class GuidanceDecision:
    frame_id: int
    outcome: Heading | RerouteNeeded | None  # None = vip lost
    assessments: tuple[ObstacleAssessment, ...]
    edge_status: EdgeStatus
    partitions: tuple[Partition, ...]


def partition_bounds(width: int, n: int = PlannerConfig.n_partitions) -> tuple[Partition, ...]:
    """Tile [0, width) into n near-equal strips, remainder going leftmost.
    Both are exact ints; numpy ints convert."""
    ints = _exact_int(width), _exact_int(n)
    if None in ints:
        name, value = ("width", width) if ints[0] is None else ("partition count", n)
        raise PlannerError(f"{name} {value!r} not an integer")
    return _tiling(*ints)


# one tiling per width, shared; bounded as widths change; its keys are exact ints
@functools.lru_cache(maxsize=8)
def _tiling(width: int, n: int) -> tuple[Partition, ...]:
    if n < 1 or n % 2 == 0:
        raise PlannerError(f"partition count must be odd and positive, got {n}")
    if width < n:
        raise PlannerError(f"width {width} cannot hold {n} partitions")
    base, extra = divmod(width, n)
    bounds = []
    x = 0
    for i in range(n):
        w = base + (1 if i < extra else 0)
        bounds.append(Partition(index=i, x_start=x, x_end=x + w))
        x += w
    return tuple(bounds)


UINT32_EXACT_ROWS = (2**32 - 1) // REV_MAX  # rows whose uint32 column sum is exact


def partition_scores(
    depth: DepthMap, partitions: Sequence[Partition], exclude: BitMask | None = None
) -> list[tuple[float, bool]]:
    """H(i) for every partition from one column sum of the whole frame.

    The excluded pixels (the VIP's mask, cut to the rows and columns its
    foreground spans) are subtracted from the column sums and counts;
    each partition's total and count are then exact Python ints divided
    once, so every score is bit-identical to a naive wide-integer loop.
    A partition whose pixels are all excluded scores (0.0, True).
    """
    h, w = depth.height, depth.width
    for p in partitions:
        if not 0 <= p.x_start <= p.x_end <= w:
            raise PlannerError(f"partition [{p.x_start},{p.x_end}) outside width {w}")
    values = depth.values
    acc = np.uint32 if h <= UINT32_EXACT_ROWS else np.uint64
    col_sum = values.sum(axis=0, dtype=acc)
    col_count = np.full(w, h, dtype=acc)
    if exclude is not None:
        if (exclude.width, exclude.height) != (w, h):
            raise PlannerError(
                f"exclusion mask {exclude.width}x{exclude.height} != depth {w}x{h}"
            )
        y1, y2 = exclude.foreground_rows()
        grid = exclude.decode((y1, y2))
        cols = np.flatnonzero(grid.any(axis=0))
        if cols.size:
            x1, x2 = int(cols[0]), int(cols[-1]) + 1
            grid = grid[:, x1:x2]
            col_sum[x1:x2] -= (values[y1:y2, x1:x2] * grid).sum(axis=0, dtype=acc)
            col_count[x1:x2] -= grid.sum(axis=0, dtype=acc)
    scores = []
    for p in partitions:
        count = int(col_count[p.x_start : p.x_end].sum(dtype=np.uint64))
        if count == 0:
            scores.append((0.0, True))
        else:
            total = int(col_sum[p.x_start : p.x_end].sum(dtype=np.uint64))
            scores.append((total / count, False))
    return scores


def free_segments(
    obstacles: Sequence[ObstacleAssessment], d_filter: float, width: int
) -> list[tuple[int, int]]:
    """Frame-level maximal free column runs, as half-open (start, end) pairs.

    A column is occupied when any obstacle within d_filter covers it.
    """
    if not d_filter > 0:
        raise PlannerError(f"d_filter {d_filter} not positive")
    boxes = sorted((ob.bbox.x1, ob.bbox.x2) for ob in obstacles if ob.distance_m <= d_filter)
    return free_runs(0, width, boxes)


def partition_profiles(
    depth: DepthMap,
    partitions: Sequence[Partition],
    obstacles: Sequence[ObstacleAssessment],
    d_filter: float,
    exclude: BitMask | None = None,
) -> list[PartitionProfile]:
    """Bundle H(i) scores and free space into one profile per partition."""
    segments = free_segments(obstacles, d_filter, depth.width)
    scores = partition_scores(depth, partitions, exclude)
    profiles = []
    for p, (score, empty) in zip(partitions, scores):
        widest = 0
        for s, e in segments:
            widest = max(widest, min(e, p.x_end) - max(s, p.x_start))
        profiles.append(PartitionProfile(p, score, empty, widest))
    return profiles


def classify_obstacle(
    distance_m: float, d_prime: float, cfg: PlannerConfig = PlannerConfig()
) -> Severity:
    """Severity by distance: danger <= danger_mult * d', warning <= warning_mult * d'."""
    check_section(cfg, PlannerConfig)
    if not distance_m >= 0:
        raise PlannerError(f"negative distance {distance_m}")
    if not d_prime > 0:
        raise PlannerError(f"d' {d_prime} not positive")
    if distance_m <= cfg.danger_mult * d_prime:
        return "danger"
    if distance_m <= cfg.warning_mult * d_prime:
        return "warning"
    return "clear"


def _probe_mean(road: np.ndarray, probe) -> float | None:
    """Mean of road?255:0 over the probe clipped to the frame; None when fully off-frame."""
    h, w = road.shape
    rect = clip_rect(probe, (0, 0, w, h))
    if rect is None:
        return None
    x1, y1, x2, y2 = rect
    patch = road[y1:y2, x1:x2]
    return 255.0 * float(np.count_nonzero(patch)) / patch.size


def road_edge_check(
    vip_bbox: BoundingBox, road_mask: BitMask | None, cfg: PlannerConfig = PlannerConfig()
) -> EdgeStatus:
    """Probe road coverage on both sides of the VIP, at their feet.

    Each probe is an edge_box_px square hugging the VIP bbox, bottom-aligned
    to its lower edge. A side is safe when the probe's mean (road pixels as
    255, rest 0) exceeds edge_threshold; a probe pushed fully off-frame
    counts as a warning, since the margin is unobserved.
    """
    if road_mask is None:
        return "unknown"
    check_section(cfg, PlannerConfig)
    road = road_mask.decode()
    box_px, threshold = cfg.edge_box_px, cfg.edge_threshold
    y1, y2 = vip_bbox.y2 - box_px, vip_bbox.y2
    left = _probe_mean(road, (vip_bbox.x1 - box_px, y1, vip_bbox.x1, y2))
    right = _probe_mean(road, (vip_bbox.x2, y1, vip_bbox.x2 + box_px, y2))
    left_safe = left is not None and left > threshold
    right_safe = right is not None and right > threshold
    if left_safe and right_safe:
        return "safe"
    if left_safe:
        return "warn_right"
    if right_safe:
        return "warn_left"
    return "warn_both"


def decide(
    profiles: list[PartitionProfile],
    vip_partition: int | None,
    width_threshold: int,
    hfov_deg: float,
    frame_width: int,
) -> Heading | RerouteNeeded:
    """Pick the heading partition, or escalate when nothing is wide enough.

    Candidates are taken in ascending H(i) (farther obstacles first) and
    rejected while max_free_width < width_threshold. Score ties prefer the
    VIP's own partition, then the more central one, then the lower index.
    """
    center = (len(profiles) - 1) / 2.0

    def rank(profile: PartitionProfile):
        idx = profile.partition.index
        return (
            profile.h_score,
            0 if idx == vip_partition else 1,
            abs(idx - center),
            idx,
        )

    for profile in sorted(profiles, key=rank):
        if profile.max_free_width >= width_threshold:
            return Heading(
                partition=profile.partition.index,
                angle_deg=heading_angle(profile.partition, frame_width, hfov_deg),
            )
    return RerouteNeeded()


def heading_angle(partition: Partition, width: int, hfov_deg: float) -> float:
    """Signed cue angle toward the partition center; positive = right."""
    if not (0 <= partition.x_start < partition.x_end <= width):
        raise PlannerError(
            f"partition [{partition.x_start},{partition.x_end}) outside width {width}"
        )
    return (partition.center_column - width / 2.0) / width * hfov_deg


def width_threshold_px(vip_bbox_width: int, cfg: PlannerConfig = PlannerConfig()) -> int:
    """Minimum free-gap width: the VIP's apparent width times width_margin."""
    check_section(cfg, PlannerConfig)
    return math.ceil(cfg.width_margin * vip_bbox_width)
