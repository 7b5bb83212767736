"""Greedy IoU tracking with constant-position hold.

Gives detections stable ids across frames and, from the distances
`Tracker.attach_distances` writes, estimates how fast the VIP closes on
each obstacle. A full motion-model tracker can be swapped in behind the
same interface; id stability and approach rate are all the planner needs.

Each track keeps one approach-rate window of history (APPROACH_WINDOW_S
seconds back from its newest point), which is all `approach_rate` reads
at that window, so per-frame cost and memory stay bounded however long
the stream runs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .config import PipelineTuning
from .errors import ConfigError, ConsistencyError, InsufficientHistoryError
from .perception import BoundingBox, Detection

APPROACH_WINDOW_S = 1.0  # history kept per track; the planner's rate window


@dataclass(frozen=True)
class TrackPoint:
    timestamp: float
    bbox: BoundingBox
    distance_m: float | None = None


@dataclass
class Track:
    """One tracked object, live: `Tracker.step` updates its history and
    misses in place each frame, so a track read from `Tracker.tracks` is
    the tracker's own state, not a snapshot."""

    track_id: int
    class_label: str
    history: list[TrackPoint]
    misses: int = 0

    def __post_init__(self):
        if self.misses < 0:
            raise ConsistencyError(f"negative misses {self.misses}")
        times = [p.timestamp for p in self.history]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ConsistencyError("history timestamps not strictly increasing")

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
            raise ConfigError(f"iou_threshold {iou_threshold} outside (0,1)")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(self, timestamp: float, detections: Sequence[Detection]) -> list[int]:
        """Associate one frame's detections; returns each one's track id, in order.

        Matching is greedy over same-class (track, detection) pairs in
        descending IoU at or above the threshold; ties broken toward the
        lower detection index, then the older track. Unmatched detections
        open new tracks. Tracks are updated in place: an unmatched track
        accrues a miss, holds its last bbox, and retires once misses exceed
        max_misses; a matched track drops the points older than
        APPROACH_WINDOW_S before `timestamp` and gains a point there. A
        `timestamp` not after a matched track's newest point raises
        ConsistencyError, naming the first such track in match order,
        before any track is touched.
        """
        candidates = []
        for t_pos, track in enumerate(self.tracks):
            label, last_bbox = track.class_label, track.last_bbox
            for d_idx, det in enumerate(detections):
                if det.class_label != label:
                    continue
                overlap = iou(last_bbox, det.bbox)
                if overlap >= self.iou_threshold:
                    candidates.append((-overlap, d_idx, t_pos))
        candidates.sort()

        det_match: dict[int, Track] = {}  # det idx -> its track
        matched: set[int] = set()  # track positions taken
        for neg_overlap, d_idx, t_pos in candidates:
            if d_idx in det_match or t_pos in matched:
                continue
            track = self.tracks[t_pos]
            newest = track.history[-1].timestamp
            if timestamp <= newest:
                raise ConsistencyError(
                    f"track {track.track_id}: timestamp {timestamp} "
                    f"not after its last point at {newest}"
                )
            det_match[d_idx] = track
            matched.add(t_pos)

        kept: list[Track] = []
        for t_pos, track in enumerate(self.tracks):
            if t_pos not in matched:
                if track.misses >= self.max_misses:
                    continue  # retired
                track.misses += 1
            kept.append(track)

        # same cut-off expression as approach_rate's window filter
        horizon = timestamp - APPROACH_WINDOW_S
        ids: list[int] = []
        for d_idx, det in enumerate(detections):
            track = det_match.get(d_idx)
            if track is None:  # opens empty and gains its point like a matched one
                track = Track(self._next_id, det.class_label, [])
                self._next_id += 1
                kept.append(track)
            history = track.history
            while history and history[0].timestamp < horizon:
                del history[0]
            history.append(TrackPoint(timestamp, det.bbox))
            track.misses = 0
            ids.append(track.track_id)

        self.tracks = kept
        return ids

    def attach_distances(self, timestamp: float, distances: dict[int, float]) -> None:
        """Write `distances` (metres by track id) into each track's point at
        `timestamp`, for approach-rate estimates. Tracks coasting past this
        frame, or with no entry, are left as they are."""
        for track in self.tracks:
            last = track.history[-1]
            if track.track_id in distances and last.timestamp == timestamp:
                track.history[-1] = TrackPoint(
                    timestamp, last.bbox, distances[track.track_id]
                )


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
