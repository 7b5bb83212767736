"""Per-frame orchestration: track, measure, assess, decide, maybe replan.

Holds the mutable run state (tracker, route, loss/reroute counters,
latency tallies) and turns each PerceptionFrame into a GuidanceDecision
plus a JSON-ready trace record; the decision gathers what the named
stages of `process_frame` found. Decisions are emitted strictly in
frame_id order; the graph is only touched from here (single writer).

VIP-loss policy: while the VIP is undetected the planner coasts on the
last sighting for a bounded number of frames (exclusion, clearance width
and partition tie-breaks keep using the remembered bbox, though the road
edge is reported unknown); past that the trace switches to vip_lost
records carrying no heading, and no partition is scored. Before the
first sighting there is nothing to coast on: frames are planned with no
exclusion and no width gate.

Reroute policy: a single exhausted frame does not rewrite the map. Only
after `reroute_patience` consecutive RerouteNeeded frames is an edge
blocked and a fresh route computed. Progress along the route is not
tracked yet, so the walk is taken to be at the route's start: the
blocked edge is the route's first, and the new route starts from the
same node. When no unblocked path remains, that frame's record carries
an empty `new_route`, the pipeline drops its route and keeps guiding
locally; later exhausted frames only signal, as with no graph.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from collections.abc import Sequence
from fractions import Fraction

from . import global_planner
from .calibration import CalibrationModel, detection_distance
from .config import Config
from .errors import (
    ConfigError,
    ConsistencyError,
    InsufficientHistoryError,
    UnreachableError,
)
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
from .tracking import Tracker, approach_rate


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


class StageStats:
    """Latency samples in milliseconds by stage name, the most recent
    STAGE_SAMPLES of each.

    Memory stays bounded over an unbounded stream; `frames` counts every
    frame recorded, so the summary's `n` is the total, not the window.
    """

    def __init__(self):
        self.samples: defaultdict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=STAGE_SAMPLES)
        )
        self.frames = 0

    def record(self, latency_ms: dict[str, float]) -> None:
        for stage, ms in latency_ms.items():
            self.samples[stage].append(ms)
        self.frames += 1

    def summary(self) -> dict:
        return {
            stage: {
                "p50": nearest_rank(samples, 0.50),
                "p90": nearest_rank(samples, 0.90),
                "n": self.frames,
            }
            for stage, samples in self.samples.items()
            if samples
        }


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
        self._reroute_streak = 0
        self._partitions = ()  # one tiling per frame width, shared by its decisions

    def process_frame(
        self, frame: PerceptionFrame, decode_ms: float = 0.0
    ) -> tuple[GuidanceDecision, dict]:
        self._check_order(frame)
        t0 = time.perf_counter()
        ids = self.tracker.step(frame.timestamp, frame.detections)
        t1 = time.perf_counter()
        vip = self._locate_vip(frame)
        d_prime, assessments = self._assess(frame, ids, vip)
        self.tracker.attach_distances(
            frame.timestamp, {a.track_id: a.distance_m for a in assessments}
        )
        edge_status = self._road_edge(frame, vip)
        partitions = self._tiling(frame.width)
        if self._vip_miss_streak > self.config.pipeline.vip_hold_frames:
            outcome = None  # lost past the hold
        else:
            profiles = self._score_partitions(frame, vip, partitions, assessments, d_prime)
            outcome = self._decide(frame, partitions, profiles)
        new_route = self._replan(outcome)
        t2 = time.perf_counter()

        decision = GuidanceDecision(
            frame_id=frame.frame_id,
            outcome=outcome,
            assessments=assessments,
            edge_status=edge_status,
            partitions=partitions,
            new_route=new_route,
        )
        latency_ms = {
            "decode": decode_ms, "track": (t1 - t0) * 1e3, "plan": (t2 - t1) * 1e3
        }
        self.stats.record(latency_ms)
        return decision, trace_record(decision, latency_ms)

    # -- stages, in the order process_frame runs them ---------------------------

    def _check_order(self, frame: PerceptionFrame) -> None:
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

    def _locate_vip(self, frame):
        """The frame's VIP detection, or None; a miss extends the streak."""
        vip = frame.vip_detection
        if vip is not None:
            self._vip_miss_streak = 0
            self._last_vip_bbox = vip.bbox
        elif self._last_vip_bbox is not None:
            self._vip_miss_streak += 1
        return vip

    def _assess(self, frame, ids, vip):
        """d' and the assessment of each obstacle (each of the frame's non-VIP
        detections): its track id, box, distance from the VIP and severity.

        Distances are camera-relative before the VIP's first sighting.
        """
        if vip is not None:
            self._last_vip_distance = detection_distance(frame, vip, self.model)
        d_vip = self._last_vip_distance
        d_prime = self._safety_distance()
        planner_cfg = self.config.planner
        assessments: list[ObstacleAssessment] = []
        for det, track_id in zip(frame.detections, ids):
            if det is vip:
                continue
            cam = detection_distance(frame, det, self.model)
            rel = cam if d_vip is None else max(0.0, cam - d_vip)
            severity = classify_obstacle(
                rel,
                d_prime,
                danger_mult=planner_cfg.danger_mult,
                warning_mult=planner_cfg.warning_mult,
            )
            assessments.append(
                ObstacleAssessment(track_id, det.class_label, det.bbox, rel, severity)
            )
        return d_prime, tuple(assessments)

    def _road_edge(self, frame: PerceptionFrame, vip: Detection | None) -> str:
        if vip is None:
            return "unknown"
        planner_cfg = self.config.planner
        return road_edge_check(
            vip.bbox,
            frame.road_mask,
            box_px=planner_cfg.edge_box_px,
            threshold=planner_cfg.edge_threshold,
        )

    def _tiling(self, width: int):
        """The partitions of a frame `width` wide, built once per width."""
        if not self._partitions or self._partitions[-1].x_end != width:
            self._partitions = tuple(
                partition_bounds(width, self.config.planner.n_partitions)
            )
        return self._partitions

    def _score_partitions(self, frame, vip, partitions, assessments, d_prime):
        """The partitions' profiles, the VIP's pixels excluded (its mask when
        seen this frame, else its remembered bbox)."""
        if vip is not None and frame.vip_mask is not None:
            exclude = frame.vip_mask
        else:
            exclude = self._last_vip_bbox
        return partition_profiles(
            frame.depth, partitions, assessments, d_prime, exclude=exclude
        )

    def _decide(self, frame, partitions, profiles) -> Heading | RerouteNeeded:
        """The heading, gated and tie-broken by the latest VIP sighting."""
        vip_bbox = self._last_vip_bbox
        vip_partition = None
        width_threshold = 0
        if vip_bbox is not None:
            cx = vip_bbox.center_x
            vip_partition = next(
                (p.index for p in partitions if p.x_start <= cx < p.x_end), None
            )
            width_threshold = width_threshold_px(
                vip_bbox.width, self.config.planner.width_margin
            )
        return decide(
            profiles,
            vip_partition,
            width_threshold,
            self.config.geometry.hfov_deg,
            frame.width,
        )

    def _replan(self, outcome) -> tuple[str, ...] | None:
        """After `reroute_patience` exhausted frames in a row, block the route's
        first edge and route again from its start; None when no replan fired,
        () when no path is left."""
        if not isinstance(outcome, RerouteNeeded):
            self._reroute_streak = 0
            return None
        self._reroute_streak += 1
        if self._reroute_streak < self.config.pipeline.reroute_patience:
            return None
        self._reroute_streak = 0
        if self.route is None:
            return None
        current, destination = self.route.nodes[0], self.route.nodes[-1]
        if len(self.route.nodes) >= 2:
            self.graph.block_edge(current, self.route.nodes[1])
        try:
            # through the module, so a patched shortest_path sees every replan
            self.route = global_planner.shortest_path(self.graph, current, destination)
        except UnreachableError:
            self.route = None
            return ()
        return self.route.nodes

    # -- helpers ---------------------------------------------------------------

    def _safety_distance(self) -> float:
        geo = self.config.geometry
        speed = geo.walk_speed
        if self.config.pipeline.live_speed:
            live = 0.0  # the fastest positive approach rate
            for track in self.tracker.tracks:
                try:  # only obstacles' tracks hold distances
                    live = max(live, approach_rate(track))
                except InsufficientHistoryError:
                    continue
            if live > 0:
                speed = live
        return safety_distance(speed, geo.t_detect, geo.t_react)


def trace_record(decision: GuidanceDecision, latency_ms: dict[str, float]) -> dict:
    if decision.outcome is None:
        outcome: dict = {"type": "vip_lost"}
    elif isinstance(decision.outcome, Heading):
        outcome = {
            "type": "heading",
            "partition": decision.outcome.partition,
            "angle_deg": decision.outcome.angle_deg,
        }
    else:
        new_route = decision.new_route
        outcome = {
            "type": "reroute",
            "new_route": None if new_route is None else list(new_route),
        }
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
        "latency_ms": {stage: round(ms, 3) for stage, ms in latency_ms.items()},
    }
