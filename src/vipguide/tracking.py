"""Greedy IoU tracking with constant-position hold.

Gives detections stable ids across frames and, from the distances
`Tracker.attach_distances` writes, estimates how fast the VIP closes on
each obstacle. A full motion-model tracker can be swapped in behind the
same interface; id stability and approach rate are all the planner needs.

A track matches on its newest box alone. Its history holds only the
distances written to it, and is its approach window: `Tracker.step`
keeps only the points at most APPROACH_WINDOW_S seconds older than the
frame that last matched the track, and `approach_rate` fits them all.
So per-frame cost and memory stay bounded however long the stream runs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .config import PipelineTuning
from .errors import ConsistencyError, InsufficientHistoryError
from .perception import BoundingBox, Detection, check_section

APPROACH_WINDOW_S = 1.0  # history kept per track; the planner's rate window


class TrackPoint(NamedTuple):
    timestamp: float
    distance_m: float


@dataclass(slots=True)
class Track:
    """One tracked object, live: `Tracker.step` updates its box and misses
    and `Tracker.attach_distances` its history in place each frame, so a
    track read from `Tracker.tracks` is the tracker's own state, not a
    snapshot."""

    track_id: int
    class_label: str
    bbox: BoundingBox  # the newest box; held while the track coasts
    history: list[TrackPoint]
    misses: int = 0

    def __post_init__(self):
        if self.misses < 0:
            raise ConsistencyError(f"negative misses {self.misses}")
        times = [p.timestamp for p in self.history]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ConsistencyError("history timestamps not strictly increasing")


def iou(b1: BoundingBox, b2: BoundingBox) -> float:
    """Intersection-over-union of two boxes.

    Read from the corners alone, with no property or min/max call: it runs
    for every same-class track×detection pair of every frame.
    """
    ax1, ay1, ax2, ay2 = b1.x1, b1.y1, b1.x2, b1.y2
    bx1, by1, bx2, by2 = b2.x1, b2.y1, b2.x2, b2.y2
    ix = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
    if ix <= 0:
        return 0.0
    iy = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


class Tracker:
    """Owns track state and the never-reused id counter for one stream; matches
    and retires tracks by its tuning's `iou_threshold` and `max_misses`."""

    def __init__(self, tuning: PipelineTuning = PipelineTuning()):
        check_section(tuning, PipelineTuning, "tuning")  # so both limits passed its checks
        self.tuning = tuning
        self.tracks: list[Track] = []
        self._next_id = 0
        self._timestamp: float | None = None  # the last step's

    def step(self, timestamp: float, detections: Sequence[Detection]) -> list[int]:
        """Associate one frame's detections; returns each one's track id, in order.

        Matching is greedy over same-class (track, detection) pairs in
        descending IoU at or above the threshold; ties broken toward the
        lower detection index, then the older track. Unmatched detections
        open new tracks. Tracks are updated in place: an unmatched track
        accrues a miss, holds its box, and retires once misses exceed
        max_misses; a matched track takes the detection's box and drops the
        history points older than APPROACH_WINDOW_S before `timestamp`. A
        `timestamp` not after the previous step's raises ConsistencyError
        before any track is touched.
        """
        if self._timestamp is not None and timestamp <= self._timestamp:
            raise ConsistencyError(
                f"timestamp {timestamp} not after the previous step's {self._timestamp}"
            )
        self._timestamp = timestamp
        threshold, max_misses = self.tuning.iou_threshold, self.tuning.max_misses
        candidates = []
        for t_pos, track in enumerate(self.tracks):
            label, bbox = track.class_label, track.bbox
            for d_idx, det in enumerate(detections):
                if det.class_label != label:
                    continue
                overlap = iou(bbox, det.bbox)
                if overlap >= threshold:
                    candidates.append((-overlap, d_idx, t_pos))
        candidates.sort()

        det_match: dict[int, Track] = {}  # det idx -> its track
        matched: set[int] = set()  # track positions taken
        for _, d_idx, t_pos in candidates:
            if d_idx not in det_match and t_pos not in matched:
                det_match[d_idx] = self.tracks[t_pos]
                matched.add(t_pos)

        kept: list[Track] = []
        for t_pos, track in enumerate(self.tracks):
            if t_pos not in matched:
                if track.misses >= max_misses:
                    continue  # retired
                track.misses += 1
            kept.append(track)

        horizon = timestamp - APPROACH_WINDOW_S
        ids: list[int] = []
        for d_idx, det in enumerate(detections):
            track = det_match.get(d_idx)
            if track is None:
                track = Track(self._next_id, det.class_label, det.bbox, [])
                self._next_id += 1
                kept.append(track)
            history = track.history
            while history and history[0].timestamp < horizon:
                del history[0]
            track.bbox = det.bbox
            track.misses = 0
            ids.append(track.track_id)

        self.tracks = kept
        return ids

    def attach_distances(self, distances: dict[int, float]) -> None:
        """Append `distances` (metres by track id) to the histories of the
        tracks the last step matched or opened, for approach-rate estimates;
        call it once per step. Tracks coasting past that step, or with no
        entry, are left as they are."""
        for track in self.tracks:
            if track.misses == 0 and track.track_id in distances:
                track.history.append(
                    TrackPoint(self._timestamp, distances[track.track_id])
                )

    def closing_speed(self) -> float:
        """The fastest positive `approach_rate` over the tracks that hold at
        least two distances (only obstacles' tracks hold any); 0.0 when none
        approaches. Coasting tracks count, with the history they hold."""
        live = 0.0
        for track in self.tracks:
            if len(track.history) >= 2:
                live = max(live, approach_rate(track))
        return live


def approach_rate(track: Track) -> float:
    """Closing speed (m/s, positive = approaching) from the track's distances.

    Least-squares slope of distance vs time over the history, negated so
    shrinking distance reads as a positive rate. The history is the
    approach window: `Tracker.step` trims it.
    """
    points = track.history
    if len(points) < 2:
        raise InsufficientHistoryError(
            f"track {track.track_id}: {len(points)} points with a distance"
        )
    n = len(points)
    mean_t = sum(t for t, _ in points) / n
    mean_d = sum(d for _, d in points) / n
    num = sum((t - mean_t) * (d - mean_d) for t, d in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    return -num / den
