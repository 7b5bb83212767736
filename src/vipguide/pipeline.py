"""Per-frame orchestration: track, measure, assess, decide, maybe replan.

Holds the mutable run state (tracker, route, loss/reroute counters,
latency tallies) and turns each PerceptionFrame into a GuidanceDecision
plus a JSON-ready trace record. Decisions are emitted strictly in
frame_id order; the graph is only touched from here (single writer).

VIP-loss policy: while the VIP is undetected the planner coasts on the
last sighting for a bounded number of frames (exclusion, clearance width
and partition tie-breaks keep using the remembered bbox, though the road
edge is reported unknown); past that the trace switches to vip_lost
records carrying no heading. Before the first sighting there is nothing
to coast on: frames are planned with no exclusion and no width gate.

Reroute policy: a single exhausted frame does not rewrite the map. Only
after `reroute_patience` consecutive RerouteNeeded frames is the route's
current edge blocked and a fresh route computed from the current node.
"""
from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import global_planner
from .calibration import CalibrationModel, detection_distance
from .config import Config
from .errors import ConfigError, ConsistencyError, InsufficientHistoryError
from .geometry import safety_distance
from .global_planner import NavGraph, Route
from .local_planner import (
    GuidanceDecision,
    Heading,
    ObstacleAssessment,
    RerouteNeeded,
    classify_obstacle,
    decide,
    partition_bounds,
    partition_profiles,
    road_edge_check,
    width_threshold_px,
)
from .perception import BoundingBox, Detection, PerceptionFrame
from .tracking import APPROACH_WINDOW_S, Tracker, TrackPoint, approach_rate


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0,1]) of a nonempty sequence.

    The rank is ceil(q*n), taken on q's shortest decimal form: in binary
    0.07 * 100 comes to 7.000000000000001, whose ceiling would be 8.
    """
    if not 0 < q <= 1:
        raise ConsistencyError(f"percentile {q} outside (0, 1]")
    if not values:
        raise ConsistencyError("percentile of empty list")
    ordered = sorted(values)
    rank = math.ceil(Fraction(repr(float(q))) * len(ordered))
    return ordered[rank - 1]


STAGE_SAMPLES = 4096  # latency samples kept per stage; older ones are dropped


def _recent_samples() -> deque[float]:
    return deque(maxlen=STAGE_SAMPLES)


@dataclass
class StageStats:
    """Per-stage latency samples in milliseconds, the most recent STAGE_SAMPLES.

    Memory stays bounded over an unbounded stream; `frames` counts every
    frame recorded, so the summary's `n` is the total, not the window.
    """

    decode: deque[float] = field(default_factory=_recent_samples)
    track: deque[float] = field(default_factory=_recent_samples)
    plan: deque[float] = field(default_factory=_recent_samples)
    frames: int = 0

    def record(self, decode_ms: float, track_ms: float, plan_ms: float) -> None:
        self.decode.append(decode_ms)
        self.track.append(track_ms)
        self.plan.append(plan_ms)
        self.frames += 1

    def summary(self) -> dict:
        out = {}
        for stage in ("decode", "track", "plan"):
            samples = getattr(self, stage)
            if samples:
                out[stage] = {
                    "p50": nearest_rank(samples, 0.50),
                    "p90": nearest_rank(samples, 0.90),
                    "n": self.frames,
                }
        return out


class Pipeline:
    def __init__(
        self,
        config: Config,
        model: CalibrationModel,
        graph: NavGraph | None = None,
        route: Route | None = None,
    ):
        if model is None:
            raise ConfigError("pipeline needs a calibration model")
        self.config = config
        self.model = model
        self.graph = graph
        self.route = route
        if route is not None and graph is None:
            raise ConfigError("a route needs its graph")
        tuning = config.pipeline
        self.tracker = Tracker(
            iou_threshold=tuning.iou_threshold, max_misses=tuning.max_misses
        )
        self.stats = StageStats()
        self._last_frame_id: int | None = None
        self._last_timestamp: float | None = None
        self._last_vip_bbox: BoundingBox | None = None
        self._last_vip_distance: float | None = None
        self._vip_miss_streak = 0
        self._vip_ever_seen = False
        self._reroute_streak = 0
        # tracked detections of the frame just processed; ids match the trace
        self.last_detections: list[Detection] = []

    # -- helpers ---------------------------------------------------------------

    def _vip_partition(self, bbox: BoundingBox, partitions) -> int | None:
        cx = bbox.center_x
        for p in partitions:
            if p.x_start <= cx < p.x_end:
                return p.index
        return None

    def _safety_distance(self) -> float:
        geo = self.config.geometry
        speed = geo.walk_speed
        if self.config.pipeline.live_speed:
            rates = []
            for track in self.tracker.tracks:
                if track.class_label == "vip":
                    continue
                try:
                    rates.append(approach_rate(track, window=APPROACH_WINDOW_S))
                except InsufficientHistoryError:
                    continue
            live = max((r for r in rates if r > 0), default=None)
            if live is not None:
                speed = live
        return safety_distance(speed, geo.t_detect, geo.t_react)

    def _fire_replan(self) -> list[str] | None:
        """Block the edge being walked and recompute; None when no graph/route."""
        if self.graph is None or self.route is None:
            return None
        current, destination = self.route.nodes[0], self.route.nodes[-1]
        if len(self.route.nodes) >= 2:
            self.graph.block_edge(current, self.route.nodes[1])
        # through the module, so a patched shortest_path sees every replan
        self.route = global_planner.shortest_path(self.graph, current, destination)
        return list(self.route.nodes)

    # -- main entry point --------------------------------------------------------

    def process_frame(
        self, frame: PerceptionFrame, decode_ms: float = 0.0
    ) -> tuple[GuidanceDecision, dict]:
        if self._last_frame_id is not None:
            if frame.frame_id <= self._last_frame_id:
                raise ConsistencyError(
                    f"frame {frame.frame_id} out of order after {self._last_frame_id}"
                )
            if frame.timestamp <= self._last_timestamp:
                raise ConsistencyError(
                    f"frame {frame.frame_id}: timestamp {frame.timestamp} not after "
                    f"the previous frame's {self._last_timestamp}"
                )
        self._last_frame_id = frame.frame_id
        self._last_timestamp = frame.timestamp

        t0 = time.perf_counter()
        labeled = self.tracker.step(frame.timestamp, list(frame.detections))
        self.last_detections = labeled
        t1 = time.perf_counter()

        # -- locate the VIP ------------------------------------------------------
        vip_det = None
        vip_index = None
        for i, det in enumerate(labeled):
            if det.class_label == "vip":
                vip_det, vip_index = det, i
                break

        vip_lost = False
        if vip_det is not None:
            self._vip_ever_seen = True
            self._vip_miss_streak = 0
            self._last_vip_bbox = vip_det.bbox
        else:
            if self._vip_ever_seen:
                self._vip_miss_streak += 1
                if self._vip_miss_streak > self.config.pipeline.vip_hold_frames:
                    vip_lost = True

        # -- per-detection camera distances (original ids key the masks) --------
        cam_distances: list[float] = []
        for det in frame.detections:
            cam_distances.append(detection_distance(frame, det, self.model))
        if vip_index is not None:
            self._last_vip_distance = cam_distances[vip_index]

        # distances relative to the VIP; camera-relative before first sighting
        d_vip = self._last_vip_distance
        obstacles: list[Detection] = []
        rel_distances: list[float] = []
        for i, det in enumerate(labeled):
            if i == vip_index:
                continue
            rel = cam_distances[i] if d_vip is None else max(0.0, cam_distances[i] - d_vip)
            obstacles.append(det)
            rel_distances.append(rel)

        d_prime = self._safety_distance()
        planner_cfg = self.config.planner
        assessments = tuple(
            ObstacleAssessment(
                track_id=det.track_id,
                class_label=det.class_label,
                distance_m=rel,
                severity=classify_obstacle(
                    rel,
                    d_prime,
                    danger_mult=planner_cfg.danger_mult,
                    warning_mult=planner_cfg.warning_mult,
                ),
            )
            for det, rel in zip(obstacles, rel_distances)
        )

        # feed distances into track history for approach-rate estimates
        self._attach_distances(frame.timestamp, obstacles, rel_distances, vip_det)

        # -- road edge ------------------------------------------------------------
        if vip_det is not None:
            edge_status = road_edge_check(
                vip_det.bbox,
                frame.road_mask,
                box_px=planner_cfg.edge_box_px,
                threshold=planner_cfg.edge_threshold,
            )
        else:
            edge_status = "unknown"

        # -- partitions -------------------------------------------------------------
        partitions = partition_bounds(frame.width, planner_cfg.n_partitions)
        reference_bbox = vip_det.bbox if vip_det is not None else self._last_vip_bbox
        if vip_det is not None and frame.vip_mask is not None:
            exclude = frame.vip_mask
        else:
            exclude = reference_bbox
        vip_partition = (
            self._vip_partition(reference_bbox, partitions)
            if reference_bbox is not None
            else None
        )
        width_threshold = (
            width_threshold_px(reference_bbox.width, planner_cfg.width_margin)
            if reference_bbox is not None
            else 0
        )

        profiles = partition_profiles(
            frame.depth,
            partitions,
            obstacles,
            rel_distances,
            d_prime,
            exclude=exclude,
        )

        outcome: Heading | RerouteNeeded | None
        new_route: list[str] | None = None
        if vip_lost:
            outcome = None
            self._reroute_streak = 0
        else:
            outcome = decide(
                profiles,
                vip_partition,
                width_threshold,
                self.config.geometry.hfov_deg,
                frame.width,
            )
            if isinstance(outcome, RerouteNeeded):
                self._reroute_streak += 1
                if self._reroute_streak >= self.config.pipeline.reroute_patience:
                    new_route = self._fire_replan()
                    self._reroute_streak = 0
            else:
                self._reroute_streak = 0
        t2 = time.perf_counter()

        decision = GuidanceDecision(
            frame_id=frame.frame_id,
            outcome=outcome,
            assessments=assessments,
            edge_status=edge_status,
        )

        track_ms = (t1 - t0) * 1000.0
        plan_ms = (t2 - t1) * 1000.0
        self.stats.record(decode_ms, track_ms, plan_ms)

        record = trace_record(decision, new_route, decode_ms, track_ms, plan_ms)
        return decision, record

    def _attach_distances(self, timestamp, obstacles, rel_distances, vip_det):
        """Rewrite the newest history point of each matched track with distance."""
        by_id = {det.track_id: rel for det, rel in zip(obstacles, rel_distances)}
        if vip_det is not None and self._last_vip_distance is not None:
            by_id[vip_det.track_id] = self._last_vip_distance
        updated = []
        for track in self.tracker.tracks:
            if track.track_id in by_id and track.history:
                last = track.history[-1]
                if last.timestamp == timestamp and last.distance_m is None:
                    point = TrackPoint(
                        timestamp=last.timestamp,
                        bbox=last.bbox,
                        distance_m=by_id[track.track_id],
                    )
                    track = replace(track, history=track.history[:-1] + (point,))
            updated.append(track)
        self.tracker.tracks = updated


def trace_record(
    decision: GuidanceDecision,
    new_route: list[str] | None,
    decode_ms: float,
    track_ms: float,
    plan_ms: float,
) -> dict:
    if decision.outcome is None:
        outcome: dict = {"type": "vip_lost"}
    elif isinstance(decision.outcome, Heading):
        outcome = {
            "type": "heading",
            "partition": decision.outcome.partition,
            "angle_deg": decision.outcome.angle_deg,
        }
    else:
        outcome = {"type": "reroute", "new_route": new_route}
    return {
        "frame_id": decision.frame_id,
        "outcome": outcome,
        "assessments": [
            {
                "track_id": a.track_id,
                "class": a.class_label,
                "distance_m": a.distance_m,
                "severity": a.severity,
            }
            for a in decision.assessments
        ],
        "edge_status": decision.edge_status,
        "latency_ms": {
            "decode": round(decode_ms, 3),
            "track": round(track_ms, 3),
            "plan": round(plan_ms, 3),
        },
    }
