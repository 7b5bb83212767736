"""Per-frame orchestration: track, measure, assess, decide, maybe replan.

Holds the mutable run state (tracker, route, loss/reroute counters,
latency tallies) and turns each PerceptionFrame into a GuidanceDecision
plus a JSON-ready trace record; the decision gathers what the named
stages of `process_frame` found. Decisions are emitted strictly in
frame_id order; the graph is only touched from here, by `reroute`.

VIP-loss policy: while the VIP is undetected the planner coasts on the
last sighting for a bounded number of frames (exclusion, clearance width
and partition tie-breaks keep using the remembered bbox, though the road
edge is reported unknown); past that the trace switches to vip_lost
records carrying no heading, and no partition is scored. Before the
first sighting there is nothing to coast on: frames are planned with no
exclusion and no width gate.

Replanning counts exhausted frames here; `global_planner.reroute` holds
the reroute policy. Every refusal a frame can meet comes before the
tracker steps (the config's and the model's types and the route's fit
to its graph are checked when the pipeline is built), so a refused frame
changes nothing.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from collections.abc import Sequence
from fractions import Fraction

from .calibration import CalibrationModel, detection_distance
from .config import Config
from .errors import ConfigError, ConsistencyError
from .geometry import safety_distance
from .global_planner import NavGraph, Route, reroute
from .local_planner import (
    GuidanceDecision, Heading, ObstacleAssessment, RerouteNeeded, classify_obstacle, decide,
    partition_bounds, partition_profiles, road_edge_check, width_threshold_px,
)
from .perception import (
    BoundingBox, Detection, PerceptionFrame, check_frame_order, clip_rect, rle_encode_rect
)
from .tracking import Tracker


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
        self, config: Config, model: CalibrationModel, graph: NavGraph | None = None,
        route: Route | None = None,
    ):
        if not isinstance(config, Config):  # else `Tracker` fails reading its section
            raise ConfigError(f"pipeline needs a Config, got {config!r}")
        if not isinstance(model, CalibrationModel):  # else the first frame fails mid-step
            raise ConfigError(f"pipeline needs a calibration model, got {model!r}")
        self.config = config
        self.model = model
        self.graph = graph
        self.route = route
        if route is not None:
            if graph is None:
                raise ConfigError("a route needs its graph")
            # so a replan's block_edge and shortest_path cannot refuse mid-stream
            nodes = route.nodes
            known = bool(nodes) and all(isinstance(n, str) and n in graph.positions for n in nodes)
            if not known or not all(graph.has_edge(u, v) for u, v in zip(nodes, nodes[1:])):
                raise ConfigError(f"route {nodes!r} has a node or an edge its graph lacks")
        self.tracker = Tracker(config.pipeline)
        self.stats = StageStats()
        self._last_frame_id: int | None = None
        self._last_vip_bbox: BoundingBox | None = None
        self._last_vip_distance: float | None = None
        self._vip_miss_streak = 0
        self._reroute_streak = 0

    def process_frame(
        self, frame: PerceptionFrame, decode_ms: float = 0.0
    ) -> tuple[GuidanceDecision, dict]:
        # frame ids here; `Tracker.step` checks that timestamps increase
        check_frame_order(self._last_frame_id, frame.frame_id)
        # the tiling's refusal too comes before the tracker steps
        partitions = partition_bounds(frame.width, self.config.planner.n_partitions)
        t0 = time.perf_counter()
        ids = self.tracker.step(frame.timestamp, frame.detections)
        t1 = time.perf_counter()
        self._last_frame_id = frame.frame_id  # both order checks passed
        vip = self._locate_vip(frame)
        d_prime, assessments = self._assess(frame, ids, vip)
        self.tracker.attach_distances({a.track_id: a.distance_m for a in assessments})
        edge_status = self._road_edge(frame, vip)
        if self._vip_miss_streak > self.config.pipeline.vip_hold_frames:
            outcome = None  # lost past the hold
        else:
            profiles = self._profiles(frame, vip, partitions, assessments, d_prime)
            outcome = self._decide(frame, partitions, profiles)
        outcome = self._replan(outcome)
        t2 = time.perf_counter()

        decision = GuidanceDecision(frame.frame_id, outcome, assessments, edge_status, partitions)
        latency_ms = {"decode": decode_ms, "track": (t1 - t0) * 1e3, "plan": (t2 - t1) * 1e3}
        self.stats.record(latency_ms)
        return decision, trace_record(decision, latency_ms)

    # -- stages, in the order process_frame runs them ---------------------------

    def _locate_vip(self, frame):
        """The frame's VIP detection, or None. A sighting sets the remembered
        box and distance; a miss extends the streak."""
        vip = frame.vip_detection
        if vip is not None:
            self._vip_miss_streak = 0
            self._last_vip_bbox = vip.bbox
            self._last_vip_distance = detection_distance(frame, vip, self.model)
        elif self._last_vip_bbox is not None:
            self._vip_miss_streak += 1
        return vip

    def _assess(self, frame, ids, vip):
        """d' and the assessment of each obstacle (each of the frame's non-VIP
        detections): its track id, box, distance from the VIP and severity.

        Distances are camera-relative before the VIP's first sighting.
        """
        d_vip = self._last_vip_distance
        geo = self.config.geometry
        live = self.tracker.closing_speed() if self.config.pipeline.live_speed else 0.0
        d_prime = geo.d_prime  # the configured d', unless a track closes on the VIP
        if live > 0:
            d_prime = safety_distance(live, geo.t_detect_s, geo.t_react_s)
        assessments: list[ObstacleAssessment] = []
        for det, track_id in zip(frame.detections, ids):
            if det is vip:
                continue
            cam = detection_distance(frame, det, self.model)
            rel = cam if d_vip is None else max(0.0, cam - d_vip)
            severity = classify_obstacle(rel, d_prime, self.config.planner)
            assessments.append(
                ObstacleAssessment(track_id, det.class_label, det.bbox, rel, severity)
            )
        return d_prime, tuple(assessments)

    def _road_edge(self, frame: PerceptionFrame, vip: Detection | None) -> str:
        if vip is None:
            return "unknown"
        return road_edge_check(vip.bbox, frame.road_mask, self.config.planner)

    def _profiles(self, frame, vip, partitions, assessments, d_prime):
        """The partitions' profiles, the VIP's pixels excluded: its mask when
        seen this frame, else its remembered bbox clipped to this frame."""
        box = self._last_vip_bbox
        exclude = None
        if vip is not None and frame.vip_mask is not None:
            exclude = frame.vip_mask
        elif box is not None:
            rect = clip_rect(box.as_list(), (0, 0, frame.width, frame.height))
            if rect is not None:
                exclude = rle_encode_rect(rect, (), frame.width, frame.height)
        return partition_profiles(frame.depth, partitions, assessments, d_prime, exclude=exclude)

    def _decide(self, frame, partitions, profiles) -> Heading | RerouteNeeded:
        """The heading, gated and tie-broken by the latest VIP sighting."""
        vip_bbox = self._last_vip_bbox
        vip_partition = None
        width_threshold = 0
        if vip_bbox is not None:
            cx = vip_bbox.center_x
            vip_partition = next((p.index for p in partitions if p.x_start <= cx < p.x_end), None)
            width_threshold = width_threshold_px(vip_bbox.width, self.config.planner)
        hfov_deg = self.config.geometry.hfov_deg
        return decide(profiles, vip_partition, width_threshold, hfov_deg, frame.width)

    def _replan(self, outcome):
        """After `reroute_patience` exhausted frames in a row, `reroute`.
        Returns the outcome, with the new route on it when a replan fired
        (() when no path is left, and the walk has no route from then on)."""
        if not isinstance(outcome, RerouteNeeded):
            self._reroute_streak = 0
            return outcome
        self._reroute_streak += 1
        if self._reroute_streak < self.config.pipeline.reroute_patience:
            return outcome
        self._reroute_streak = 0
        if self.route is None:
            return outcome
        self.route = reroute(self.graph, self.route)
        return RerouteNeeded(new_route=() if self.route is None else self.route.nodes)


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
        new_route = decision.outcome.new_route
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
