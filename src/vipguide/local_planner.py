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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import PlannerConfig
from .errors import PlannerError
from .perception import REV_MAX, BitMask, BoundingBox, DepthMap

Severity = str  # "danger" | "warning" | "clear"
EdgeStatus = str  # "safe" | "warn_left" | "warn_right" | "warn_both" | "unknown"


@dataclass(frozen=True)
class Partition:
    index: int
    x_start: int
    x_end: int

    @property
    def center_column(self) -> float:
        return (self.x_start + self.x_end) / 2.0


@dataclass(frozen=True)
class PartitionProfile:
    partition: Partition
    h_score: float
    empty: bool  # every pixel excluded -> score forced to 0
    max_free_width: int  # widest free column run inside the partition


@dataclass(frozen=True)
class ObstacleAssessment:
    """One obstacle of one frame: its box, its distance from the VIP and the
    severity that distance earns."""

    track_id: int
    class_label: str
    bbox: BoundingBox
    distance_m: float
    severity: Severity


@dataclass(frozen=True)
class Heading:
    partition: int
    angle_deg: float


@dataclass(frozen=True)
class RerouteNeeded:
    pass


@dataclass(frozen=True)
class GuidanceDecision:
    frame_id: int
    outcome: Heading | RerouteNeeded | None  # None = vip lost
    assessments: tuple[ObstacleAssessment, ...]
    edge_status: EdgeStatus
    partitions: tuple[Partition, ...]
    new_route: tuple[str, ...] | None  # None = no replan; () = no route left


def partition_bounds(width: int, n: int = PlannerConfig.n_partitions) -> list[Partition]:
    """Tile [0, width) into n near-equal strips, remainder going leftmost."""
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
    return bounds


UINT32_EXACT_ROWS = (2**32 - 1) // REV_MAX  # rows whose uint32 column sum is exact

Exclusion = BitMask | BoundingBox | None


def partition_scores(
    depth: DepthMap, partitions: list[Partition], exclude: Exclusion = None
) -> list[tuple[float, bool]]:
    """H(i) for every partition from one column sum of the whole frame.

    The excluded pixels (the VIP's mask, cut to the rows it spans,
    or its clipped bbox) are subtracted from the column sums and counts;
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
    if isinstance(exclude, BoundingBox):
        x1, x2 = exclude.x1, min(exclude.x2, w)
        y1, y2 = exclude.y1, min(exclude.y2, h)
        if x1 < x2 and y1 < y2:
            col_sum[x1:x2] -= values[y1:y2, x1:x2].sum(axis=0, dtype=acc)
            col_count[x1:x2] -= y2 - y1
    elif exclude is not None:
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
    """Frame-level maximal free column runs.

    A column is occupied when any obstacle within d_filter covers it;
    the gaps between occupied intervals, taken in sorted order with a
    running end, are returned as half-open (start, end) pairs.
    """
    if d_filter <= 0:
        raise PlannerError(f"d_filter {d_filter} not positive")
    intervals = []
    for ob in obstacles:
        if ob.distance_m > d_filter:
            continue
        x1 = max(0, ob.bbox.x1)
        x2 = min(width, ob.bbox.x2)
        if x1 < x2:
            intervals.append((x1, x2))
    intervals.sort()
    segments = []
    cursor = 0  # end of the occupied columns so far
    for x1, x2 in intervals:
        if cursor < x1:
            segments.append((cursor, x1))
        cursor = max(cursor, x2)
    if cursor < width:
        segments.append((cursor, width))
    return segments


def partition_profiles(
    depth: DepthMap,
    partitions: list[Partition],
    obstacles: Sequence[ObstacleAssessment],
    d_filter: float,
    exclude: Exclusion = None,
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
    distance_m: float,
    d_prime: float,
    danger_mult: float = PlannerConfig.danger_mult,
    warning_mult: float = PlannerConfig.warning_mult,
) -> Severity:
    """Severity by distance thresholds: danger <= d', warning <= 2d'."""
    if distance_m < 0:
        raise PlannerError(f"negative distance {distance_m}")
    if d_prime <= 0:
        raise PlannerError(f"d' {d_prime} not positive")
    if distance_m <= danger_mult * d_prime:
        return "danger"
    if distance_m <= warning_mult * d_prime:
        return "warning"
    return "clear"


def _probe_mean(road: np.ndarray, x1: int, x2: int, y1: int, y2: int) -> float | None:
    """Mean of road?255:0 over a clamped probe; None when fully off-frame."""
    h, w = road.shape
    cx1, cx2 = max(0, x1), min(w, x2)
    cy1, cy2 = max(0, y1), min(h, y2)
    if cx1 >= cx2 or cy1 >= cy2:
        return None
    patch = road[cy1:cy2, cx1:cx2]
    return 255.0 * float(np.count_nonzero(patch)) / patch.size


def road_edge_check(
    vip_bbox: BoundingBox,
    road_mask: BitMask | None,
    box_px: int = PlannerConfig.edge_box_px,
    threshold: float = PlannerConfig.edge_threshold,
) -> EdgeStatus:
    """Probe road coverage on both sides of the VIP, at their feet.

    Each probe is a box_px square hugging the VIP bbox, bottom-aligned to
    its lower edge. A side is safe when the probe's mean (road pixels as
    255, rest 0) exceeds the threshold; a probe pushed fully off-frame
    counts as a warning, since the margin is unobserved.
    """
    if road_mask is None:
        return "unknown"
    road = road_mask.decode()
    y1, y2 = vip_bbox.y2 - box_px, vip_bbox.y2
    left = _probe_mean(road, vip_bbox.x1 - box_px, vip_bbox.x1, y1, y2)
    right = _probe_mean(road, vip_bbox.x2, vip_bbox.x2 + box_px, y1, y2)
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


def width_threshold_px(
    vip_bbox_width: int, margin: float = PlannerConfig.width_margin
) -> int:
    """Minimum free-gap width: the VIP's apparent width plus clearance."""
    return math.ceil(margin * vip_bbox_width)
