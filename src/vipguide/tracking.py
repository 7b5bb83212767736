"""Greedy IoU tracking with constant-position hold.

Gives detections stable ids across frames and, once per-track distances
are attached, estimates how fast the VIP closes on each obstacle. A full
motion-model tracker can be swapped in behind the same interface; id
stability and approach rate are all the planner needs.

Each track keeps one approach-rate window of history (APPROACH_WINDOW_S
seconds back from its newest point), which is all `approach_rate` reads
at that window, so per-frame cost and memory stay bounded however long
the stream runs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .config import PipelineTuning
from .errors import ConsistencyError, InsufficientHistoryError
from .perception import BoundingBox, Detection

APPROACH_WINDOW_S = 1.0  # history kept per track; the planner's rate window


@dataclass(frozen=True)
class TrackPoint:
    timestamp: float
    bbox: BoundingBox
    distance_m: float | None = None


@dataclass(frozen=True)
class Track:
    track_id: int
    class_label: str
    history: tuple[TrackPoint, ...]
    misses: int = 0

    def __post_init__(self):
        if self.misses < 0:
            raise ValueError(f"negative misses {self.misses}")
        times = [p.timestamp for p in self.history]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("history timestamps not strictly increasing")

    @property
    def last_bbox(self) -> BoundingBox:
        return self.history[-1].bbox


def iou(b1: BoundingBox, b2: BoundingBox) -> float:
    """Intersection-over-union of two boxes."""
    ix = min(b1.x2, b2.x2) - max(b1.x1, b2.x1)
    iy = min(b1.y2, b2.y2) - max(b1.y1, b2.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = b1.width * b1.height + b2.width * b2.height - inter
    return inter / union


class Tracker:
    """Owns track state and the never-reused id counter for one stream."""

    def __init__(
        self,
        iou_threshold: float = PipelineTuning.iou_threshold,
        max_misses: int = PipelineTuning.max_misses,
    ):
        if not 0.0 < iou_threshold < 1.0:
            raise ValueError(f"iou_threshold {iou_threshold} outside (0,1)")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(
        self,
        timestamp: float,
        detections: list[Detection],
        distances: list[float | None] | None = None,
    ) -> list[Detection]:
        """Associate one frame's detections; returns them with track_ids set.

        Matching is greedy over same-class (track, detection) pairs in
        descending IoU at or above the threshold; ties broken toward the
        lower detection index, then the older track. Unmatched detections
        open new tracks. Unmatched tracks accrue a miss, hold their last
        bbox, and retire once misses exceed max_misses. A matched track
        gains a point at `timestamp` and drops the points older than
        APPROACH_WINDOW_S before it; a `timestamp` not after the track's
        newest point raises ConsistencyError.
        """
        if distances is None:
            distances = [None] * len(detections)

        candidates = []
        for t_pos, track in enumerate(self.tracks):
            for d_idx, det in enumerate(detections):
                if det.class_label != track.class_label:
                    continue
                overlap = iou(track.last_bbox, det.bbox)
                if overlap >= self.iou_threshold:
                    candidates.append((-overlap, d_idx, t_pos))
        candidates.sort()

        det_match: dict[int, int] = {}  # det idx -> track position
        used_tracks: set[int] = set()
        for neg_overlap, d_idx, t_pos in candidates:
            if d_idx in det_match or t_pos in used_tracks:
                continue
            det_match[d_idx] = t_pos
            used_tracks.add(t_pos)

        new_tracks: list[Track] = []
        matched_by_pos = {t_pos: d_idx for d_idx, t_pos in det_match.items()}
        for t_pos, track in enumerate(self.tracks):
            if t_pos in matched_by_pos:
                newest = track.history[-1].timestamp
                if timestamp <= newest:
                    raise ConsistencyError(
                        f"track {track.track_id}: timestamp {timestamp} "
                        f"not after its last point at {newest}"
                    )
                d_idx = matched_by_pos[t_pos]
                point = TrackPoint(
                    timestamp=timestamp,
                    bbox=detections[d_idx].bbox,
                    distance_m=distances[d_idx],
                )
                # same cut-off expression as approach_rate's window filter
                horizon = timestamp - APPROACH_WINDOW_S
                kept = tuple(p for p in track.history if p.timestamp >= horizon)
                new_tracks.append(
                    Track(track.track_id, track.class_label, kept + (point,))
                )
            else:
                if track.misses + 1 > self.max_misses:
                    continue  # retired
                new_tracks.append(replace(track, misses=track.misses + 1))

        labeled: list[Detection] = []
        for d_idx, det in enumerate(detections):
            if d_idx in det_match:
                tid = self.tracks[det_match[d_idx]].track_id
            else:
                tid = self._next_id
                self._next_id += 1
                new_tracks.append(
                    Track(
                        track_id=tid,
                        class_label=det.class_label,
                        history=(
                            TrackPoint(
                                timestamp=timestamp,
                                bbox=det.bbox,
                                distance_m=distances[d_idx],
                            ),
                        ),
                    )
                )
            labeled.append(replace(det, track_id=tid))

        self.tracks = new_tracks
        return labeled


def approach_rate(track: Track, window: float) -> float:
    """Closing speed (m/s, positive = approaching) from recent distances.

    Least-squares slope of distance vs time over the trailing window,
    negated so shrinking distance reads as a positive rate.
    """
    if not track.history:
        raise InsufficientHistoryError(f"track {track.track_id} has no history")
    t_end = track.history[-1].timestamp
    points = [
        (p.timestamp, p.distance_m)
        for p in track.history
        if p.distance_m is not None and p.timestamp >= t_end - window
    ]
    if len(points) < 2:
        raise InsufficientHistoryError(
            f"track {track.track_id}: {len(points)} usable points in window"
        )
    n = len(points)
    mean_t = sum(t for t, _ in points) / n
    mean_d = sum(d for _, d in points) / n
    num = sum((t - mean_t) * (d - mean_d) for t, d in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    return -num / den
