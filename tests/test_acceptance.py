"""End-to-end gate: one test per release criterion, each printing PASS/FAIL.

Run with -s (or read the -v result lines) to see the per-criterion verdicts.
These tests exercise the public API only and rebuild every oracle locally so
a regression in library code cannot silently weaken the gate.
"""
import json
import math
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from vipguide.calibration import (
    CalibrationSample,
    detection_distance,
    fit,
    predict,
    region_rev,
)
from vipguide.config import default_config
from vipguide.errors import UnreachableError
from vipguide.frameio import record_to_line
from vipguide.geometry import (
    GeometricConfig,
    pose_envelope,
    safety_distance,
    validate_pose,
    visibility_offset,
)
from vipguide.global_planner import NavGraph, Route, shortest_path
from vipguide.local_planner import (
    Heading,
    Partition,
    free_segments,
    partition_bounds,
    partition_scores,
    road_edge_check,
)
from vipguide.perception import BoundingBox, DepthMap, rle_encode
from vipguide.pipeline import Pipeline, nearest_rank
from vipguide.scenario import (
    CALIBRATION_Z,
    Camera,
    ScenarioSpec,
    calibration_frames,
    direction_name,
    generate,
    write_scenario,
)

from conftest import ob


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[gate] {name}: FAIL")
        raise
    print(f"[gate] {name}: PASS")


_MODEL_CACHE = {}


def fitted_model():
    """Quadratic depth model fit against rendered calibration walls."""
    if "model" not in _MODEL_CACHE:
        samples = []
        for frame, z in calibration_frames(CALIBRATION_Z):
            rev = region_rev(frame, frame.detections[0]) / 65535.0
            samples.append(CalibrationSample(rev=rev, distance=z))
        _MODEL_CACHE["model"] = fit(samples)
    return _MODEL_CACHE["model"]


# -- 1. scenario regression ------------------------------------------------------


def test_scenario_regression_headings():
    """Each authored scenario steers the mandated way on >= 95% of frames."""
    mandated = {
        "footpath_tree": "right",
        "parked_vehicles": "right",
        "crowded_street": "left",
    }
    model = fitted_model()
    t0 = time.perf_counter()
    with criterion("scenario regression"):
        for kind, want in mandated.items():
            for seed in (1, 2, 3, 4, 5):
                spec = ScenarioSpec(kind=kind, seed=seed, n_frames=30)
                pipe = Pipeline(default_config(), model)
                with_vip = 0
                matched = 0
                for frame, truth in generate(spec):
                    assert truth.expected_direction == want
                    decision, _ = pipe.process_frame(frame)
                    if frame.vip_detection is None:
                        continue
                    with_vip += 1
                    if (
                        isinstance(decision.outcome, Heading)
                        and direction_name(decision.outcome.partition) == want
                    ):
                        matched += 1
                assert with_vip >= 30
                rate = matched / with_vip
                assert rate >= 0.95, f"{kind} seed {seed}: {matched}/{with_vip}"
        assert time.perf_counter() - t0 < 30.0


# -- 2. free space vs column-occupancy oracle -------------------------------------


def oracle_free_columns(boxes, distances, d_filter, width):
    occupied = np.zeros(width, dtype=bool)
    for (x1, x2), dist in zip(boxes, distances):
        if dist <= d_filter:
            occupied[max(0, x1) : min(width, x2)] = True
    out, start = [], None
    for x in range(width):
        if not occupied[x] and start is None:
            start = x
        elif occupied[x] and start is not None:
            out.append((start, x))
            start = None
    if start is not None:
        out.append((start, width))
    return out


def test_free_space_matches_column_oracle():
    rng = np.random.default_rng(101)
    with criterion("free-space oracle, 1000 frames"):
        for _ in range(1000):
            width = int(rng.integers(2, 1921))
            n_boxes = int(rng.integers(0, 11))
            boxes, dists, obs = [], [], []
            for _ in range(n_boxes):
                x1 = int(rng.integers(0, width))
                x2 = int(rng.integers(x1 + 1, width + 1))
                boxes.append((x1, x2))
                dists.append(float(rng.uniform(0.0, 4.0)))
                obs.append(ob(x1, 0, x2, 1, dists[-1]))
            d_filter = float(rng.uniform(0.5, 3.5))
            got = free_segments(obs, d_filter, width)
            want = oracle_free_columns(boxes, dists, d_filter, width)
            assert got == want


# -- 3. route planner vs exhaustive enumeration -----------------------------------


def enumerate_best(graph, src, dst):
    middles = [n for n in graph.node_ids if n not in (src, dst)]
    if src == dst:
        return Route(nodes=(src,), total_cost=0.0)
    best = None
    for r in range(len(middles) + 1):
        for mid in permutations(middles, r):
            path = (src,) + mid + (dst,)
            cost, ok = 0.0, True
            for u, v in zip(path, path[1:]):
                if not graph.has_edge(u, v) or graph.is_blocked(u, v):
                    ok = False
                    break
                cost += graph.weight(u, v)
            if ok and (best is None or (cost, path) < (best.total_cost, best.nodes)):
                best = Route(nodes=path, total_cost=cost)
    return best


def random_connected_graph(rng):
    n = int(rng.integers(2, 9))
    names = [chr(ord("A") + k) for k in range(n)]
    g = NavGraph()
    for k, name in enumerate(names):
        g.add_node(name, (float(k), 0.0))
    order = list(names)
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b, float(rng.integers(1, 30)))
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(names[i], names[j]) and rng.random() < 0.3:
                g.add_edge(names[i], names[j], float(rng.integers(1, 30)))
    return g, names


def test_route_planner_matches_enumeration():
    rng = np.random.default_rng(211)
    with criterion("route planner oracle, 500 graphs"):
        for _ in range(500):
            g, names = random_connected_graph(rng)
            src, dst = (str(x) for x in rng.choice(names, size=2, replace=False))
            want = enumerate_best(g, src, dst)
            got = shortest_path(g, src, dst)
            assert got.total_cost == want.total_cost
            assert got.nodes == want.nodes

            # knock out one random edge and replan
            edges = g.edge_list()
            u, v, _w, _b = edges[int(rng.integers(0, len(edges)))]
            g.block_edge(u, v)
            want = enumerate_best(g, src, dst)
            if want is None:
                with pytest.raises(UnreachableError):
                    shortest_path(g, src, dst)
            else:
                got = shortest_path(g, src, dst)
                assert got.total_cost == want.total_cost
                assert got.nodes == want.nodes
                steps = list(zip(got.nodes, got.nodes[1:]))
                assert (u, v) not in steps and (v, u) not in steps


# -- 4. standoff geometry identities ----------------------------------------------


def test_geometry_identities_and_bounds():
    with criterion("standoff geometry identities"):
        # height offset: h'/d recovers tan(f/2) to 1e-12 relative
        for f_deg in np.linspace(20.0, 170.0, 31):
            half_tan = math.tan(math.radians(f_deg) / 2.0)
            for d in np.linspace(0.5, 15.0, 30):
                h = visibility_offset(float(f_deg), float(d))
                assert abs(h / d - half_tan) <= 1e-12 * half_tan

        # safety distance: zero and power-of-two scaling are exact
        assert safety_distance(0.0, 0.161, 1.0) == 0.0
        for x in np.linspace(0.1, 4.0, 40):
            base = safety_distance(float(x), 0.161, 1.0)
            assert safety_distance(float(2 * x), 0.161, 1.0) == 2 * base
            assert safety_distance(float(x / 4), 0.161, 1.0) == base / 4
        # general additivity to floating-point precision
        a = safety_distance(1.1, 0.161, 1.0)
        b = safety_distance(0.7, 0.161, 1.0)
        c = safety_distance(1.8, 0.161, 1.0)
        assert abs((a + b) - c) <= 1e-12 * c

        # envelope endpoints validate cleanly and sit inside [1, 10] m
        checked = 0
        for h_max in (2.5, 3.0, 4.0):
            for r in (8.0, 10.0, 15.0, 25.0):
                config = GeometricConfig(h_max=h_max, perception_range=r)
                envelope = pose_envelope(config)
                assert 1.0 <= envelope.d_min <= envelope.d_max <= 10.0
                assert validate_pose(envelope.h_near, envelope.d_min, config) == []
                assert validate_pose(envelope.h_far, envelope.d_max, config) == []
                for t in np.linspace(0.0, 1.0, 21):
                    h, d = envelope.interpolate(float(t))
                    assert validate_pose(h, d, config) == []
                checked += 1
        assert checked == 12


# -- 5. depth calibration accuracy -------------------------------------------------


def test_calibration_accuracy():
    with criterion("depth calibration accuracy"):
        # exact quadratic recovery
        rng = np.random.default_rng(307)
        for _ in range(25):
            a, b = float(rng.uniform(-40, 10)), float(rng.uniform(-5, 5))
            c = float(rng.uniform(30, 60))
            revs = rng.uniform(0.0, 1.0, size=12)
            samples = [
                CalibrationSample(rev=float(r), distance=max(0.1, a * r * r + b * r + c))
                for r in revs
            ]
            if len({s.distance for s in samples}) < 3:
                continue
            model = fit(samples)
            if all(a * r * r + b * r + c > 0.1 for r in revs):
                assert abs(model.a - a) <= 1e-6
                assert abs(model.b - b) <= 1e-6
                assert abs(model.c - c) <= 1e-6

        # noisy fit stays inside the field error budget
        rng = np.random.default_rng(7)
        revs = rng.uniform(0.0, 1.0, size=200)
        noise = rng.normal(0.0, 0.5, size=200)
        samples = [
            CalibrationSample(
                rev=float(r), distance=max(0.05, 50.0 - 49.0 * r * r + float(e))
            )
            for r, e in zip(revs, noise)
        ]
        model = fit(samples)
        assert model.rmse <= 1.2

        # simulator round trip: rendered wall distances recover within 0.3 m
        model = fitted_model()
        held_out = [1.25 + 0.5 * i for i in range(18)]  # between the fit knots
        for frame, z in calibration_frames(held_out):
            got = detection_distance(frame, frame.detections[0], model)
            assert abs(got - z) <= 0.3, f"z={z}: got {got}"


# -- 6. road-edge probe, exhaustive ------------------------------------------------


def test_road_edge_probe_exhaustive():
    vip = BoundingBox(3, 0, 6, 3)  # probes: columns 0-2 (left) and 6-8 (right)
    with criterion("road-edge probe, 512 patterns per side"):
        for bits in range(512):
            cells = np.array([(bits >> k) & 1 for k in range(9)], dtype=bool)
            mean = 255.0 * cells.sum() / 9.0
            road = mean > 128.0

            left_grid = np.zeros((3, 9), dtype=bool)
            left_grid[:, 0:3] = cells.reshape(3, 3)
            left_grid[:, 6:9] = True
            want = "safe" if road else "warn_left"
            assert road_edge_check(vip, rle_encode(left_grid), box_px=3) == want

            right_grid = np.zeros((3, 9), dtype=bool)
            right_grid[:, 0:3] = True
            right_grid[:, 6:9] = cells.reshape(3, 3)
            want = "safe" if road else "warn_right"
            assert road_edge_check(vip, rle_encode(right_grid), box_px=3) == want

            both_grid = np.zeros((3, 9), dtype=bool)
            both_grid[:, 0:3] = cells.reshape(3, 3)
            both_grid[:, 6:9] = cells.reshape(3, 3)
            want = "safe" if road else "warn_both"
            assert road_edge_check(vip, rle_encode(both_grid), box_px=3) == want


# -- 7. partition mean exactness ---------------------------------------------------


def test_partition_mean_matches_wide_integer_loop():
    rng = np.random.default_rng(401)
    with criterion("partition mean exactness"):
        for _ in range(200):
            h = int(rng.integers(1, 24))
            w = int(rng.integers(2, 40))
            values = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
            depth = DepthMap(width=w, height=h, values=values)
            x1 = int(rng.integers(0, w))
            x2 = int(rng.integers(x1 + 1, w + 1))
            part = Partition(0, x1, x2)
            use_mask = bool(rng.random() < 0.5)
            grid = rng.random((h, w)) < 0.4 if use_mask else None

            total, count = 0, 0
            for y in range(h):
                for x in range(x1, x2):
                    if grid is not None and grid[y, x]:
                        continue
                    total += int(values[y, x])
                    count += 1
            want = (0.0, True) if count == 0 else (total / count, False)
            exclude = rle_encode(grid) if grid is not None else None
            assert partition_scores(depth, [part], exclude)[0] == want


# -- 8. planner latency budget -----------------------------------------------------


def test_planner_latency_budget():
    model = fitted_model()
    plan_samples: list[float] = []
    with criterion("planner latency p90 < 10 ms over 650 frames"):
        for kind, n in (
            ("crowded_street", 217),
            ("parked_vehicles", 217),
            ("footpath_tree", 216),
        ):
            pipe = Pipeline(default_config(), model)
            for frame, _ in generate(ScenarioSpec(kind=kind, seed=1, n_frames=n)):
                assert frame.width == 640 and frame.height == 480
                pipe.process_frame(frame)
            plan_samples.extend(pipe.stats.samples["plan"])
        assert len(plan_samples) == 650
        p90 = nearest_rank(plan_samples, 0.90)
        assert p90 < 10.0, f"plan p90 {p90:.3f} ms"


# -- 9. determinism ----------------------------------------------------------------


def strip_wall_clock(record: dict) -> dict:
    # latency fields carry wall-clock time; every decision-bearing byte
    # must still be identical across runs
    return {k: v for k, v in record.items() if k != "latency_ms"}


def test_determinism_byte_identical():
    with criterion("determinism"):
        spec = ScenarioSpec(kind="random", seed=77, n_frames=10)
        model = fitted_model()

        def trace_bytes():
            pipe = Pipeline(default_config(), model)
            lines = []
            for frame, _ in generate(spec):
                _, record = pipe.process_frame(frame)
                lines.append(record_to_line(strip_wall_clock(record)))
            return "\n".join(lines).encode("ascii")

        assert trace_bytes() == trace_bytes()

        # the dataset writer itself is byte-stable too
        import tempfile, os, glob

        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            os.makedirs(a), os.makedirs(b)
            write_scenario(a, spec)
            write_scenario(b, spec)
            names = sorted(os.path.basename(p) for p in glob.glob(os.path.join(a, "*")))
            assert names == sorted(
                os.path.basename(p) for p in glob.glob(os.path.join(b, "*"))
            )
            for name in names:
                with open(os.path.join(a, name), "rb") as fa, open(
                    os.path.join(b, name), "rb"
                ) as fb:
                    assert fa.read() == fb.read(), name
