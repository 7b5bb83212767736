import importlib.util
import json
import os
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from vipguide.calibration import CalibrationModel
from vipguide.config import PlannerConfig, default_config
from vipguide.errors import ConfigError, ConsistencyError, PlannerError
from vipguide.frameio import record_to_line
from vipguide.global_planner import NavGraph, Route, shortest_path
from vipguide.local_planner import (
    Heading, RerouteNeeded, classify_obstacle, road_edge_check, width_threshold_px
)
from vipguide import global_planner, perception
from vipguide import pipeline as pipeline_module
from vipguide.pipeline import Pipeline, nearest_rank
from vipguide.perception import BitMask, rle_encode
from vipguide.scenario import SCENARIO_KINDS, ScenarioSpec, default_model, generate
from vipguide.tracking import Tracker

from conftest import det, frame_from_parts, frame_parts, make_frame

W, H = 640, 480


class TestNearestRank:
    def test_decile_list(self):
        values = [float(v) for v in range(1, 11)]
        assert nearest_rank(values, 0.50) == 5.0
        assert nearest_rank(values, 0.90) == 9.0
        assert nearest_rank(values, 1.00) == 10.0

    def test_unsorted_input(self):
        assert nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_single_sample(self):
        assert nearest_rank([7.5], 0.9) == 7.5

    def test_empty(self):
        with pytest.raises(ConsistencyError):
            nearest_rank([], 0.5)

    def test_rank_is_ceil_of_decimal_q_times_n(self):
        # truncating q * 100 picked the 28th of 1..100 for 0.29, the 56th for 0.57
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.29) == 29.0
        assert nearest_rank(values, 0.57) == 57.0
        assert nearest_rank(values, 0.07) == 7.0  # binary 0.07 * 100 is just above 7
        for n in range(1, 41):
            ordered = [float(v) for v in range(1, n + 1)]
            for k in range(1, 101):
                want = -(-k * n // 100)  # exact integer ceil(k/100 * n)
                assert nearest_rank(ordered, k / 100) == want, (n, k)

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.01, 2.0, float("nan")])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ConsistencyError, match="outside"):
            nearest_rank([1.0, 2.0, 3.0], q)

    def test_matches_numpy_higher_method_loosely(self):
        # nearest-rank is within one order statistic of the interpolated value
        rng = np.random.default_rng(2)
        for _ in range(30):
            values = rng.uniform(0, 100, size=int(rng.integers(1, 50))).tolist()
            got = nearest_rank(values, 0.9)
            assert min(values) <= got <= max(values)
            assert got in values


def scaled_model(factor=10.0):
    # distance = factor * rev, a convenient linear stand-in
    return CalibrationModel(a=0.0, b=factor, c=0.0, rmse=0.0, n_samples=3)


def rev_for_distance(d, factor=10.0):
    return int(round(65535.0 * d / factor))


def world_frame(
    frame_id,
    timestamp,
    vip=True,
    vip_distance=1.0,
    obstacles=(),
    road=True,
):
    """Flat far-background frame with box-painted actors.

    obstacles: iterable of (class_label, (x1, y1, x2, y2), camera_distance_m)
    """
    depth = np.zeros((H, W), dtype=np.uint16)
    dets = []
    if vip:
        vb = (280, 200, 360, 440)  # 80 px wide, centered
        depth[vb[1] : vb[3], vb[0] : vb[2]] = rev_for_distance(vip_distance)
        dets.append(det("vip", *vb, confidence=0.98))
    for label, (x1, y1, x2, y2), dist in obstacles:
        depth[y1:y2, x1:x2] = rev_for_distance(dist)
        dets.append(det(label, x1, y1, x2, y2))
    vip_grid = np.zeros((H, W), dtype=bool)
    if vip:
        vip_grid[200:440, 280:360] = True
    road_mask = rle_encode(np.ones((H, W), dtype=bool)) if road else None
    return make_frame(
        depth,
        dets,
        frame_id=frame_id,
        timestamp=timestamp,
        vip_mask=rle_encode(vip_grid) if vip else None,
        road_mask=road_mask,
    )


def make_pipeline(**tuning_overrides):
    config = default_config()
    if tuning_overrides:
        config = replace(config, pipeline=replace(config.pipeline, **tuning_overrides))
    return Pipeline(config, scaled_model())


class TestBasics:
    def test_empty_world_heads_center(self):
        pipe = make_pipeline()
        frame = world_frame(0, 0.0, vip=False)
        decision, record = pipe.process_frame(frame)
        assert isinstance(decision.outcome, Heading)
        assert decision.outcome.partition == 1
        # 640 splits 214/213/213, so the middle partition sits half a
        # pixel right of the optical axis
        assert decision.outcome.angle_deg == pytest.approx(0.0703125)
        assert record["outcome"]["type"] == "heading"
        assert decision.edge_status == "unknown"  # nobody to probe around

    def test_vip_only_stays_center(self):
        pipe = make_pipeline()
        decision, record = pipe.process_frame(world_frame(0, 0.0))
        assert decision.outcome.partition == 1
        assert decision.edge_status == "safe"
        assert record["assessments"] == []  # the VIP is not an obstacle

    def test_obstacle_pushes_heading_away(self):
        pipe = make_pipeline()
        # something big and close on the right third
        frame = world_frame(
            0, 0.0, obstacles=[("car", (430, 100, 640, 440), 1.6)]
        )
        decision, _ = pipe.process_frame(frame)
        assert isinstance(decision.outcome, Heading)
        assert decision.outcome.partition != 2

    def test_assessment_severities(self):
        pipe = make_pipeline()
        # d' = 1.2*(0.161+1.0) = 1.3932; rel distances chosen per band
        frame = world_frame(
            0,
            0.0,
            vip_distance=1.0,
            obstacles=[
                ("car", (0, 100, 100, 300), 2.0),      # rel 1.0  -> danger
                ("person", (430, 100, 500, 300), 3.0),  # rel 2.0  -> warning
                ("tree", (550, 100, 640, 300), 9.0),    # rel 8.0  -> clear
            ],
        )
        decision, record = pipe.process_frame(frame)
        by_class = {a.class_label: a.severity for a in decision.assessments}
        assert by_class == {"car": "danger", "person": "warning", "tree": "clear"}
        assert {a["severity"] for a in record["assessments"]} == {
            "danger",
            "warning",
            "clear",
        }
        rel = {a.class_label: a.distance_m for a in decision.assessments}
        assert rel["car"] == pytest.approx(1.0, abs=0.01)
        assert rel["tree"] == pytest.approx(8.0, abs=0.01)

    def test_distances_are_vip_relative(self):
        pipe = make_pipeline()
        frame = world_frame(
            0, 0.0, vip_distance=2.0, obstacles=[("car", (0, 100, 100, 300), 5.0)]
        )
        decision, _ = pipe.process_frame(frame)
        assert decision.assessments[0].distance_m == pytest.approx(3.0, abs=0.01)

    def test_nearer_than_vip_clamps_to_zero(self):
        pipe = make_pipeline()
        frame = world_frame(
            0, 0.0, vip_distance=4.0, obstacles=[("car", (0, 100, 100, 300), 1.0)]
        )
        decision, _ = pipe.process_frame(frame)
        assert decision.assessments[0].distance_m == 0.0
        assert decision.assessments[0].severity == "danger"

    def test_frame_order_enforced(self):
        pipe = make_pipeline()
        pipe.process_frame(world_frame(5, 0.0))
        with pytest.raises(ConsistencyError, match="not greater than"):
            pipe.process_frame(world_frame(5, 1.0))
        with pytest.raises(ConsistencyError):
            pipe.process_frame(world_frame(3, 2.0))

    def test_repeated_timestamp_raises_consistency_error(self):
        pipe = make_pipeline()
        pipe.process_frame(world_frame(0, 0.5))
        with pytest.raises(ConsistencyError, match="timestamp"):
            pipe.process_frame(world_frame(1, 0.5))
        with pytest.raises(ConsistencyError, match="timestamp"):
            pipe.process_frame(world_frame(2, 0.25))

    def test_frame_timestamp_must_increase_without_tracks(self):
        # no VIP and no obstacle, so no track can catch the clock going back
        pipe = make_pipeline()
        pipe.process_frame(world_frame(0, 0.5, vip=False))
        with pytest.raises(ConsistencyError, match="timestamp 0.25 not after"):
            pipe.process_frame(world_frame(1, 0.25, vip=False))
        with pytest.raises(ConsistencyError, match="timestamp 0.5 not after"):
            pipe.process_frame(world_frame(2, 0.5, vip=False))
        decision, _ = pipe.process_frame(world_frame(3, 0.75, vip=False))
        assert isinstance(decision.outcome, Heading)

    def test_nan_timestamp_cannot_reset_the_order_check(self):
        # a NaN timestamp compares false against everything; were such a
        # frame planned, the next frame's `<=` check would pass whatever its time
        pipe = make_pipeline()
        pipe.process_frame(world_frame(0, 0.0))
        with pytest.raises(ConsistencyError, match="not finite"):
            pipe.process_frame(world_frame(1, float("nan")))
        with pytest.raises(ConsistencyError, match="timestamp 0.0 not after"):
            pipe.process_frame(world_frame(2, 0.0))

    def test_rejected_frames_leave_no_trace(self):
        """Four frames rejected just before frame 20, with tracks live: an id
        out of order, frame 19's timestamp under id 20, a stale timestamp
        under the in-order id 25, and frame 20's id and time on a 2x2 frame
        too narrow to tile. Frame ids are checked by the pipeline, the clock
        by the tracker and the width by the tiling, each before the tracker
        steps; either way the rest of the trace, latency stripped, equals the
        clean run's."""
        spec = ScenarioSpec(kind="crowded_street", seed=1, n_frames=60)
        frames = [frame for frame, _ in generate(spec)]
        model = default_model()

        def trace(pipe, frames):
            records = []
            for frame in frames:
                _, record = pipe.process_frame(frame)
                del record["latency_ms"]
                records.append(record)
            return records

        clean = trace(Pipeline(default_config(), model), frames)
        pipe = Pipeline(default_config(), model)
        records = trace(pipe, frames[:20])
        assert len(pipe.tracker.tracks) > 1
        nxt, last = frames[20], frames[19]
        tiny = make_frame(np.zeros((2, 2)), frame_id=nxt.frame_id, timestamp=nxt.timestamp)
        rejected = [
            (replace(nxt, frame_id=last.frame_id), ConsistencyError, "not greater than"),
            (replace(nxt, timestamp=last.timestamp), ConsistencyError, "not after"),
            (replace(nxt, frame_id=25, timestamp=frames[10].timestamp), ConsistencyError,
             "not after"),
            (tiny, PlannerError, "width 2 cannot hold 3 partitions"),
        ]
        for frame, error, message in rejected:
            with pytest.raises(error, match=message):
                pipe.process_frame(frame)
        assert pipe.stats.frames == 20
        records += trace(pipe, frames[20:])
        assert records == clean

    def test_model_required(self):
        with pytest.raises(ConfigError):
            Pipeline(default_config(), None)

    @pytest.mark.parametrize("model", [3.0, {"a": 0.0, "b": 10.0, "c": 0.0}], ids=["float", "dict"])
    def test_model_of_another_type_refused(self, model):
        # once built, it would fail the first frame just after the tracker stepped
        with pytest.raises(ConfigError) as info:
            Pipeline(default_config(), model)
        assert str(info.value) == f"pipeline needs a calibration model, got {model!r}"

    @pytest.mark.parametrize(
        "config", [None, PlannerConfig(), {"planner": {}}], ids=["none", "section", "dict"]
    )
    def test_config_of_another_type_refused(self, config):
        # refused before `Tracker(config.pipeline)` reads a section of it
        with pytest.raises(ConfigError) as info:
            Pipeline(config, scaled_model())
        assert str(info.value) == f"pipeline needs a Config, got {config!r}"


class TestVipLoss:
    def test_hold_then_lost(self):
        pipe = make_pipeline(vip_hold_frames=3)
        pipe.process_frame(world_frame(0, 0.0))
        # misses 1..3 coast on the remembered bbox
        for k in range(1, 4):
            decision, record = pipe.process_frame(world_frame(k, k / 30, vip=False))
            assert isinstance(decision.outcome, Heading), f"miss {k}"
            assert record["outcome"]["type"] == "heading"
            assert decision.edge_status == "unknown"
        # miss 4 crosses the hold window
        decision, record = pipe.process_frame(world_frame(4, 4 / 30, vip=False))
        assert decision.outcome is None
        assert record["outcome"] == {"type": "vip_lost"}

    def test_lost_frames_score_no_partition(self, monkeypatch):
        hold = 3
        frames = [
            world_frame(
                k, k / 30, vip=k == 0, obstacles=[("car", (40, 100, 140, 300), 2.5)]
            )
            for k in range(hold + 6)
        ]

        def trace():
            pipe = make_pipeline(vip_hold_frames=hold)
            for frame in frames:
                decision, record = pipe.process_frame(frame)
                del record["latency_ms"]
                yield decision, record_to_line(record)

        unpatched = [line for _, line in trace()]
        calls = []
        real_profiles = pipeline_module.partition_profiles

        def counting_profiles(*args, **kwargs):
            calls.append(1)
            return real_profiles(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "partition_profiles", counting_profiles)
        lines = []
        for k, (decision, line) in enumerate(trace()):
            lost = k > hold
            assert len(calls) == (0 if lost else 1), f"frame {k}"
            assert (decision.outcome is None) == lost
            assert len(decision.partitions) == 3  # the tiling is kept when lost
            calls.clear()
            lines.append(line)
        assert lines == unpatched

    def test_reacquisition_resets(self):
        pipe = make_pipeline(vip_hold_frames=2)
        pipe.process_frame(world_frame(0, 0.0))
        for k in range(1, 4):
            pipe.process_frame(world_frame(k, k / 30, vip=False))
        decision, _ = pipe.process_frame(world_frame(4, 4 / 30))  # VIP back
        assert isinstance(decision.outcome, Heading)
        # a fresh miss streak starts over
        decision, _ = pipe.process_frame(world_frame(5, 5 / 30, vip=False))
        assert isinstance(decision.outcome, Heading)

    def test_cold_start_never_goes_lost(self):
        pipe = make_pipeline(vip_hold_frames=2)
        for k in range(6):
            decision, _ = pipe.process_frame(world_frame(k, k / 30, vip=False))
            assert isinstance(decision.outcome, Heading)

    @pytest.mark.parametrize(
        "vip_box",
        [
            (200, 100, 400, 470),
            (250, 50, 310, 200),
            (330, 100, 400, 470),
            (40, 240, 90, 470),
        ],
        ids=["clipped", "inside", "past_right", "past_bottom"],
    )
    def test_coasting_into_a_smaller_frame_excludes_the_clipped_bbox(
        self, monkeypatch, vip_box
    ):
        """The VIP seen in a 640x480 frame, then lost in a 320x240 one: H(i)
        skips the remembered box's pixels inside the smaller frame, and no
        pixel when the box starts past its right or bottom edge."""
        rng = np.random.default_rng(5)
        pipe = make_pipeline()
        vip_grid = np.zeros((H, W), dtype=bool)
        vip_grid[vip_box[1] : vip_box[3], vip_box[0] : vip_box[2]] = True
        pipe.process_frame(
            make_frame(
                np.full((H, W), 100),
                [det("vip", *vip_box, confidence=0.98)],
                vip_mask=rle_encode(vip_grid),
            )
        )
        w, h = 320, 240
        values = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
        profiles = []
        real_profiles = pipeline_module.partition_profiles

        def keep_profiles(*args, **kwargs):
            result = real_profiles(*args, **kwargs)
            profiles.extend(result)
            return result

        monkeypatch.setattr(pipeline_module, "partition_profiles", keep_profiles)
        decision, _ = pipe.process_frame(make_frame(values, frame_id=1, timestamp=1 / 30))
        keep = np.ones((h, w), dtype=bool)
        x1, y1, x2, y2 = vip_box
        keep[y1:y2, x1:x2] = False
        assert len(profiles) == len(decision.partitions) == 3
        for profile in profiles:  # per pixel, in Python ints
            p = profile.partition
            pixels = values[:, p.x_start : p.x_end][keep[:, p.x_start : p.x_end]]
            want = sum(int(v) for v in pixels) / pixels.size if pixels.size else 0.0
            assert (profile.h_score, profile.empty) == (want, pixels.size == 0)

    def test_coasting_keeps_width_gate(self):
        # while coasting, the remembered bbox still vetoes narrow gaps
        pipe = make_pipeline(vip_hold_frames=5)
        pipe.process_frame(world_frame(0, 0.0))
        blocked = world_frame(
            1, 1 / 30, vip=False, obstacles=[("car", (0, 0, 600, 480), 1.2)]
        )
        decision, _ = pipe.process_frame(blocked)
        # 40 free columns < threshold 96 everywhere it matters
        assert isinstance(decision.outcome, RerouteNeeded)


def escort_graph():
    g = NavGraph()
    g.add_node("A", (0.0, 0.0))
    g.add_node("B", (1.0, 0.0))
    g.add_node("C", (2.0, 0.0))
    g.add_edge("A", "B", 1.0)
    g.add_edge("B", "C", 1.0)
    g.add_edge("A", "C", 3.0)
    return g


def blocked_frame(frame_id, ts):
    return world_frame(
        frame_id, ts, obstacles=[("car", (0, 0, 640, 480), 1.2)]
    )


class TestReroute:
    def test_hysteresis_then_replan(self):
        graph = escort_graph()
        route = shortest_path(graph, "A", "C")
        config = default_config()
        config = replace(config, pipeline=replace(config.pipeline, reroute_patience=3))
        pipe = Pipeline(config, scaled_model(), graph=graph, route=route)
        records = []
        for k in range(3):
            _, record = pipe.process_frame(blocked_frame(k, k / 30))
            records.append(record)
        # first two exhausted frames only signal; the third rewrites the map
        assert records[0]["outcome"] == {"type": "reroute", "new_route": None}
        assert records[1]["outcome"] == {"type": "reroute", "new_route": None}
        assert records[2]["outcome"] == {"type": "reroute", "new_route": ["A", "C"]}
        assert graph.is_blocked("A", "B")
        assert pipe.route.nodes == ("A", "C")
        assert pipe.route.total_cost == 3.0

    def test_clear_frame_resets_streak(self):
        graph = escort_graph()
        route = shortest_path(graph, "A", "C")
        config = replace(
            default_config(),
            pipeline=replace(default_config().pipeline, reroute_patience=2),
        )
        pipe = Pipeline(config, scaled_model(), graph=graph, route=route)
        pipe.process_frame(blocked_frame(0, 0.0))
        pipe.process_frame(world_frame(1, 1 / 30))  # clear again
        _, record = pipe.process_frame(blocked_frame(2, 2 / 30))
        assert record["outcome"]["new_route"] is None
        assert not graph.is_blocked("A", "B")

    def test_no_path_left_keeps_guiding(self, campus_graph_path):
        # each replan blocks another of F's edges; at frame 19 none is left
        graph = global_planner.load_graph(campus_graph_path)
        route = shortest_path(graph, "F", "L")
        pipe = Pipeline(default_config(), scaled_model(), graph=graph, route=route)
        records = [pipe.process_frame(blocked_frame(k, k / 30))[1] for k in range(25)]
        assert all(r["outcome"]["type"] == "reroute" for r in records)
        new_routes = {
            r["frame_id"]: r["outcome"]["new_route"]
            for r in records
            if r["outcome"]["new_route"] is not None
        }
        assert new_routes == {
            4: ["F", "J", "K", "L"],
            9: ["F", "B", "C", "D", "H", "L"],
            14: ["F", "E", "I", "J", "K", "L"],
            19: [],
        }
        # with no route left, frame 24's full streak only signals
        assert pipe.route is None

    def test_no_graph_reroute_is_advisory(self):
        pipe = make_pipeline(reroute_patience=1)
        _, record = pipe.process_frame(blocked_frame(0, 0.0))
        assert record["outcome"] == {"type": "reroute", "new_route": None}

    def test_route_requires_graph(self):
        route = shortest_path(escort_graph(), "A", "C")
        with pytest.raises(ConfigError):
            Pipeline(default_config(), scaled_model(), route=route)

    @pytest.mark.parametrize(
        "nodes", [("A", "Z"), ("Z",), ("C", "D"), ("A", "B", "D"), (), (["A"],)],
        ids=["unknown_end", "unknown_only_node", "missing_edge", "missing_later_edge", "empty",
             "unhashable_node"],
    )
    def test_route_off_its_graph_refused(self, nodes):
        """The replan would refuse such a route mid-stream, in `block_edge`
        or the search, after the tracker had stepped; it is refused here."""
        graph = escort_graph()
        graph.add_node("D", (3.0, 0.0))  # known, but joined to nothing
        with pytest.raises(ConfigError) as info:
            Pipeline(default_config(), scaled_model(), graph=graph, route=Route(nodes, 1.0))
        assert str(info.value) == f"route {nodes!r} has a node or an edge its graph lacks"

    def test_one_node_route_replans_to_itself(self):
        graph = escort_graph()
        config = replace(default_config(), pipeline=replace(default_config().pipeline,
                                                            reroute_patience=1))
        pipe = Pipeline(config, scaled_model(), graph=graph, route=Route(("B",), 0.0))
        _, record = pipe.process_frame(blocked_frame(0, 0.0))
        assert record["outcome"] == {"type": "reroute", "new_route": ["B"]}
        assert not any(blocked for *_, blocked in graph.edge_list())


class TestLiveSpeed:
    def approach(self, pipe, distances):
        decision = None
        for k, d in enumerate(distances):
            frame = world_frame(
                k, k * 0.5, obstacles=[("car", (0, 100, 120, 300), d)]
            )
            decision, _ = pipe.process_frame(frame)
        return decision

    def test_fast_approacher_widens_danger_band(self):
        # closing 2 m/s; rel distance ends at 2.0 m
        distances = [5.0, 4.0, 3.0]
        static = self.approach(make_pipeline(live_speed=False), distances)
        live = self.approach(make_pipeline(live_speed=True), distances)
        # d' static = 1.2*1.161 = 1.39; live = 2*1.161 = 2.32
        assert static.assessments[0].severity == "warning"
        assert live.assessments[0].severity == "danger"

    def test_receding_target_keeps_configured_speed(self):
        distances = [2.0, 2.5, 3.0]
        static = self.approach(make_pipeline(live_speed=False), distances)
        live = self.approach(make_pipeline(live_speed=True), distances)
        assert static.assessments[0].severity == live.assessments[0].severity


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_vip_track_never_holds_a_distance(kind):
    """Live speed takes the approach rate of every track. The VIP's never
    has one: distances go only to the tracks of assessed obstacles, the
    VIP is not assessed, and a track's history holds only its distances,
    so the VIP's stays empty."""
    config = default_config()
    config = replace(config, pipeline=replace(config.pipeline, live_speed=True))
    model = default_model()
    vip_tracks = 0
    for seed in (1, 2, 3):
        pipe = Pipeline(config, model)
        for frame, _ in generate(ScenarioSpec(kind=kind, seed=seed, n_frames=60)):
            pipe.process_frame(frame)
            for track in pipe.tracker.tracks:
                if track.class_label == "vip":
                    vip_tracks += 1
                    assert track.history == []
    assert vip_tracks >= 3 * 60


class TestTraceRecords:
    def test_record_shape(self):
        pipe = make_pipeline()
        frame = world_frame(0, 0.0, obstacles=[("car", (0, 100, 100, 300), 2.0)])
        _, record = pipe.process_frame(frame, decode_ms=1.234)
        assert set(record) == {
            "frame_id",
            "outcome",
            "assessments",
            "edge_status",
            "latency_ms",
        }
        assert set(record["latency_ms"]) == {"decode", "track", "plan"}
        assert record["latency_ms"]["decode"] == 1.234
        (a,) = record["assessments"]
        assert set(a) == {"track_id", "class", "distance_m", "severity"}
        line = json.dumps(record, separators=(",", ":"))
        assert json.loads(line) == record

    def test_latency_rounded(self):
        pipe = make_pipeline()
        _, record = pipe.process_frame(world_frame(0, 0.0), decode_ms=0.123456)
        assert record["latency_ms"]["decode"] == 0.123

    def test_track_ids_stable_across_frames(self):
        pipe = make_pipeline()
        ids = []
        for k in range(3):
            frame = world_frame(
                k, k / 30, obstacles=[("car", (0, 100, 100, 300), 2.0)]
            )
            _, record = pipe.process_frame(frame)
            ids.append(record["assessments"][0]["track_id"])
        assert ids[0] == ids[1] == ids[2]

    def test_stats_accumulate(self):
        pipe = make_pipeline()
        for k in range(10):
            pipe.process_frame(world_frame(k, k / 30), decode_ms=float(k))
        summary = pipe.stats.summary()
        assert summary["decode"]["n"] == 10
        assert summary["decode"]["p50"] == 4.0
        assert summary["decode"]["p90"] == 8.0
        assert summary["plan"]["p90"] >= summary["plan"]["p50"] >= 0.0

    def test_stats_keep_recent_window(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "STAGE_SAMPLES", 4)
        pipe = make_pipeline()
        for k in range(10):
            pipe.process_frame(world_frame(k, k / 30), decode_ms=float(k))
        samples = pipe.stats.samples
        assert list(samples) == ["decode", "track", "plan"]
        assert list(samples["decode"]) == [6.0, 7.0, 8.0, 9.0]
        assert len(samples["plan"]) == len(samples["track"]) == 4
        summary = pipe.stats.summary()
        assert summary["decode"]["n"] == 10
        assert summary["decode"]["p50"] == 7.0

    def test_each_mask_decoded_at_most_once(self, monkeypatch):
        spec = ScenarioSpec(kind="crowded_street", seed=1, n_frames=2)
        frames = [frame for frame, _ in generate(spec)]
        pipe = make_pipeline()
        pipe.process_frame(frames[0])
        decoded = Counter()
        real_decode = perception.rle_decode

        def counting_decode(mask, *args, **kwargs):
            decoded[id(mask)] += 1
            return real_decode(mask, *args, **kwargs)

        monkeypatch.setattr(perception, "rle_decode", counting_decode)
        pipe.process_frame(frames[1])
        frame = frames[1]
        masks = [frame.vip_mask, frame.road_mask, *frame.instance_masks.values()]
        assert decoded[id(frame.vip_mask)] == 1
        assert set(decoded) <= {id(m) for m in masks}
        assert max(decoded.values()) == 1

    def test_each_mask_expanded_only_over_its_readers_rows(self, monkeypatch):
        spec = ScenarioSpec(kind="crowded_street", seed=1, n_frames=2)
        frames = [frame for frame, _ in generate(spec)]
        pipe = make_pipeline()
        pipe.process_frame(frames[0])
        shapes = {}
        real_decode = perception.rle_decode

        def recording_decode(mask, *args, **kwargs):
            grid = real_decode(mask, *args, **kwargs)
            shapes[id(mask)] = grid.shape
            return grid

        monkeypatch.setattr(perception, "rle_decode", recording_decode)
        frame = frames[1]
        pipe.process_frame(frame)
        vip_y1, vip_y2 = frame.vip_mask.foreground_rows()
        assert shapes.pop(id(frame.vip_mask)) == (vip_y2 - vip_y1, W)
        assert shapes.pop(id(frame.road_mask)) == (H, W)
        boxes = {d.track_id: d.bbox for d in frame.detections}
        assert len(frame.instance_masks) == 3
        for track_id, mask in frame.instance_masks.items():
            assert shapes.pop(id(mask)) == (boxes[track_id].height, W)
        assert shapes == {}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_assessments_follow_the_frames_non_vip_detections(kind):
    """Each non-VIP detection of a frame, in order, has one assessment that
    carries its label and box. A tracker of the same tuning, run beside the
    pipeline, gives the ids, at the default tuning and at two others."""
    for tuning, seed in product(
        ({}, {"iou_threshold": 0.99}, {"max_misses": 0}), range(1, 6)
    ):
        pipe = make_pipeline(**tuning)
        tracker = Tracker(pipe.config.pipeline)
        for frame, _ in generate(ScenarioSpec(kind=kind, seed=seed, n_frames=30)):
            decision, _ = pipe.process_frame(frame)
            obstacles = [d for d in frame.detections if d.class_label != "vip"]
            assert [a.class_label for a in decision.assessments] == [
                d.class_label for d in obstacles
            ]
            assert [a.bbox for a in decision.assessments] == [d.bbox for d in obstacles]
            track_ids = tracker.step(frame.timestamp, frame.detections)
            ids = [
                track_id
                for d, track_id in zip(frame.detections, track_ids)
                if d.class_label != "vip"
            ]
            assert [a.track_id for a in decision.assessments] == ids


# one valid non-default value for each setting the pipeline hands a stage;
# each moves its stage's output on the frames `handoff_streams` gives
HANDED_OVER = [
    ("pipeline", "iou_threshold", 0.99),
    ("pipeline", "max_misses", 0),
    ("planner", "danger_mult", 0.5),
    ("planner", "warning_mult", 1.2),
    ("planner", "edge_box_px", 300),
    ("planner", "edge_threshold", 254.0),
    ("planner", "width_margin", 10.0),
]


def handoff_streams(key):
    """(model, frames) pairs. On generated streams max_misses 0 and
    edge_threshold 254 move nothing, so those two get built frames: a car
    missing for one frame, and a road mask over 80 of the left probe's 90
    columns (a probe mean of 227)."""
    if key == "max_misses":
        car = [("car", (0, 100, 100, 300), 3.0)]
        frames = [world_frame(0, 0.0, obstacles=car), world_frame(1, 1 / 30),
                  world_frame(2, 2 / 30, obstacles=car)]
        return [(scaled_model(), frames)]
    if key == "edge_threshold":
        road = np.ones((H, W), dtype=bool)
        road[:, 190:200] = False  # the left probe spans columns 190-279
        frame = replace(world_frame(0, 0.0), road_mask=rle_encode(road))
        return [(scaled_model(), [frame])]
    specs = [ScenarioSpec(kind=kind, seed=seed, n_frames=60)
             for kind in SCENARIO_KINDS for seed in (1, 2, 3)]
    return [(default_model(), (frame for frame, _ in generate(spec))) for spec in specs]


@pytest.mark.parametrize(
    "section,key,value", HANDED_OVER, ids=[f"{s}.{k}" for s, k, _ in HANDED_OVER]
)
def test_each_handed_over_setting_reaches_its_stage(section, key, value, monkeypatch):
    """With one setting off its default, each stage's output is its stage
    function's, called directly with the same config section: track ids
    from a `Tracker` of the same tuning run beside the pipeline, severities
    from `classify_obstacle` at the default d', the edge status from
    `road_edge_check` and the width gate `decide` gets from
    `width_threshold_px`. On some frame one of them differs from the same
    call at the default section, so a setting left behind shows."""
    default = default_config()
    config = replace(default, **{section: replace(getattr(default, section), **{key: value})})
    planner, d_prime = config.planner, config.geometry.d_prime
    gates = []
    real_decide = pipeline_module.decide

    def recording_decide(profiles, vip_partition, width_threshold, *rest):
        gates.append(width_threshold)
        return real_decide(profiles, vip_partition, width_threshold, *rest)

    monkeypatch.setattr(pipeline_module, "decide", recording_decide)
    moved = False
    for model, frames in handoff_streams(key):
        pipe = Pipeline(config, model)
        trackers = Tracker(config.pipeline), Tracker(default.pipeline)
        vip_bbox = None
        for frame in frames:
            gates.clear()
            decision, _ = pipe.process_frame(frame)
            vip = frame.vip_detection
            vip_bbox = vip.bbox if vip is not None else vip_bbox
            got = (
                [a.track_id for a in decision.assessments],
                [a.severity for a in decision.assessments],
                decision.edge_status,
                gates,
            )
            want = []
            for tracker, cfg in zip(trackers, (planner, default.planner)):
                ids = tracker.step(frame.timestamp, frame.detections)
                want.append((
                    [i for d, i in zip(frame.detections, ids) if d is not vip],
                    [classify_obstacle(a.distance_m, d_prime, cfg) for a in decision.assessments],
                    "unknown" if vip is None else road_edge_check(vip.bbox, frame.road_mask, cfg),
                    [] if decision.outcome is None
                    else [0 if vip_bbox is None else width_threshold_px(vip_bbox.width, cfg)],
                ))
            assert got == want[0]
            moved = moved or want[0] != want[1]
    assert moved


def test_instance_ids_key_the_masks_and_tracker_ids_label_the_assessments():
    """A detection's `track_id` is its instance id, which keys its mask; an
    assessment's `track_id` is the tracker's. The instance ids here (40, 41)
    differ from the tracker's (0, 1), and each mask covers a fifth of its box
    at a depth the box median misses, so mixing the two ids up shows in the
    distances. On the second frame the obstacles come in the other order and
    swap instance ids; the tracker's ids follow the boxes."""
    boxes = {"car": (0, 100, 100, 300), "person": (430, 100, 530, 300)}
    masked_distance = {"car": 2.0, "person": 3.0}  # camera-relative, m
    depth = np.full((H, W), rev_for_distance(9.0), dtype=np.uint16)
    depth[200:440, 280:360] = rev_for_distance(1.0)  # the VIP
    grids = {}
    for label, (x1, y1, x2, y2) in boxes.items():
        grids[label] = np.zeros((H, W), dtype=bool)
        grids[label][y1 : y1 + (y2 - y1) // 5, x1:x2] = True
        depth[grids[label]] = rev_for_distance(masked_distance[label])
    vip_grid = np.zeros((H, W), dtype=bool)
    vip_grid[200:440, 280:360] = True

    def frame(frame_id, order):
        dets = [det(label, *boxes[label], track_id=iid) for label, iid in order]
        dets.append(det("vip", 280, 200, 360, 440, confidence=0.98))
        return make_frame(
            depth,
            dets,
            frame_id=frame_id,
            timestamp=frame_id / 30,
            vip_mask=rle_encode(vip_grid),
            road_mask=rle_encode(np.ones((H, W), dtype=bool)),
            instance_masks={iid: rle_encode(grids[label]) for label, iid in order},
        )

    pipe = make_pipeline()
    tracker_ids = {"car": 0, "person": 1}
    for frame_id, order in enumerate(
        ([("car", 40), ("person", 41)], [("person", 40), ("car", 41)])
    ):
        decision, _ = pipe.process_frame(frame(frame_id, order))
        labels = [label for label, _ in order]
        assert [a.class_label for a in decision.assessments] == labels
        assert [a.track_id for a in decision.assessments] == [
            tracker_ids[label] for label in labels
        ]
        # relative to the VIP at 1 m; the box medians would give 8 m
        assert [a.distance_m for a in decision.assessments] == pytest.approx(
            [masked_distance[label] - 1.0 for label in labels], abs=0.01
        )
        newest = {t.track_id: t.history[-1:] for t in pipe.tracker.tracks}
        for a in decision.assessments:
            assert newest[a.track_id] == [(frame_id / 30, a.distance_m)]


def test_emptied_instance_mask_is_measured_over_its_box():
    """A person whose instance mask is emptied, as a segmenter that misses
    it would send, is still planned on every frame: it is measured over its
    box alone, as if it had no mask. Instance 3 stands partly behind the
    nearest person, so its box median (the nearer person) differs from its
    mask median."""
    frames = [f for f, _ in generate(ScenarioSpec(kind="crowded_street", n_frames=5))]

    def traces(mask):
        pipe = Pipeline(default_config(), default_model())
        out = []
        for frame in frames:
            masks = {k: v for k, v in frame.instance_masks.items() if k != 3}
            if mask is not None:
                masks[3] = mask(frame)
            _, record = pipe.process_frame(replace(frame, instance_masks=masks))
            del record["latency_ms"]
            out.append(record)
        return out

    def empty(frame):
        return BitMask(frame.width, frame.height, (frame.width * frame.height,))

    emptied = traces(empty)
    assert len(emptied) == 5
    assert emptied == traces(None)  # the box alone
    person = [r["assessments"][2] for r in emptied]
    assert {a["class"] for a in person} == {"person"}
    masked = [r["assessments"][2] for r in traces(lambda frame: frame.instance_masks[3])]
    assert all(a["distance_m"] < b["distance_m"] for a, b in zip(person, masked))


@settings(max_examples=300, deadline=None)
@given(frame_parts())
def test_every_constructed_frame_plans(parts):
    """A frame that constructs, whatever its instance masks cover, gets a
    decision and a trace record from a fresh pipeline."""
    frame = frame_from_parts(parts)
    if frame is None:
        return
    decision, record = Pipeline(default_config(), default_model()).process_frame(frame)
    assert decision.frame_id == record["frame_id"] == frame.frame_id
    assert len(record["assessments"]) == len(decision.assessments)


def load_tracer_module():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tracer layers this test does not drive through the planner: dataset I/O
# and graph loading happen outside process_frame
NOT_PLANNER_LAYERS = {
    "scenario.generate",
    "frameio.write",
    "frameio.read",
    "frameio.record_to_line",
    "global_planner.load",
}


def test_benchmark_patch_points_see_every_call():
    """The traced benchmark times layers by replacing the attributes its
    tracer lists; every planner-layer one must see the calls it times."""
    tracer_module = load_tracer_module()
    planner_layers = {name for name, *_ in tracer_module._targets()} - NOT_PLANNER_LAYERS
    assert {"tracking.step", "pipeline.process_frame"} <= planner_layers

    graph = escort_graph()
    route = global_planner.shortest_path(graph, "A", "C")
    config = default_config()
    config = replace(config, pipeline=replace(config.pipeline, reroute_patience=1))
    routed = Pipeline(config, scaled_model(), graph=graph, route=route)
    frame, _ = next(generate(ScenarioSpec(kind="crowded_street", seed=1, n_frames=1)))
    street = make_pipeline()

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # a routed walk whose first frame fires a replan
        _, record = routed.process_frame(blocked_frame(0, 0.0))
        street.process_frame(frame)
    finally:
        tracer.uninstall()

    assert record["outcome"]["new_route"] == ["A", "C"]
    calls = tracer.calls
    assert {name for name in planner_layers if calls[name] == 0} == set()
    assert calls["pipeline.process_frame"] == 2
    assert calls["tracking.step"] == 2
    assert calls["global_planner.shortest_path"] == 1  # the replan
    assert calls["local_planner.partition_profiles"] == 2
    assert calls["local_planner.road_edge_check"] == 2
    assert calls["calibration.detection_distance"] == 2 + len(frame.detections)
