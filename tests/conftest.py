import csv
import math
import os
from itertools import permutations

import numpy as np
import pytest
from hypothesis import strategies as st

from vipguide.calibration import CalibrationModel, CalibrationSample
from vipguide.errors import ConsistencyError, FrameDecodeError
from vipguide.global_planner import NavGraph, Route
from vipguide.local_planner import ObstacleAssessment
from vipguide.perception import (
    REV_MAX,
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# JSON that every reader must refuse as malformed: an int past Python's
# 4300-digit conversion limit (5000 digits), and arrays nested past the
# recursion limit
LONG_INT = "1" + "0" * 4999
DEEP_NESTING = "[" * 100_000


@pytest.fixture
def campus_graph_path():
    return os.path.join(DATA_DIR, "campus_graph.json")


@pytest.fixture
def identity_model():
    """distance = rev, for tests that want REV/65535 passed straight through."""
    return CalibrationModel(a=0.0, b=1.0, c=0.0, rmse=0.0, n_samples=3)


def make_frame(
    depth_values,
    detections=(),
    frame_id=0,
    timestamp=0.0,
    vip_mask=None,
    road_mask=None,
    instance_masks=None,
):
    """Frame from a raw 2D array plus optional parts; dims inferred."""
    arr = np.asarray(depth_values, dtype=np.uint16)
    h, w = arr.shape
    return PerceptionFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        width=w,
        height=h,
        depth=DepthMap(width=w, height=h, values=arr),
        detections=tuple(detections),
        vip_mask=vip_mask,
        road_mask=road_mask,
        instance_masks=instance_masks or {},
    )


def det(label, x1, y1, x2, y2, confidence=0.9, track_id=None):
    return Detection(
        class_label=label,
        bbox=BoundingBox(x1, y1, x2, y2),
        confidence=confidence,
        track_id=track_id,
    )


def ob(x1, y1, x2, y2, distance_m, severity="clear", label="car", track_id=0):
    """An obstacle record: the box, distance and severity the planner reads."""
    return ObstacleAssessment(
        track_id, label, BoundingBox(x1, y1, x2, y2), distance_m, severity
    )


# -- brute-force oracles the planners must match, and random graphs to route on ---


def oracle_free_segments(boxes, distances, d_filter, width):
    """Brute-force column scan: the semantic definition of free space. Each
    (x1, x2) box at most d_filter away occupies its columns within [0, width)."""
    occupied = np.zeros(width, dtype=bool)
    for (x1, x2), dist in zip(boxes, distances):
        if dist <= d_filter:
            occupied[max(0, x1) : max(0, min(width, x2))] = True
    segments = []
    start = None
    for x in range(width):
        if not occupied[x] and start is None:
            start = x
        elif occupied[x] and start is not None:
            segments.append((start, x))
            start = None
    if start is not None:
        segments.append((start, width))
    return segments


def oracle_shortest(graph: NavGraph, src: str, dst: str):
    """Exhaustive simple-path enumeration, ties to the smallest node sequence;
    None when no unblocked path exists. Only viable on tiny graphs."""
    nodes = [n for n in graph.node_ids if n not in (src, dst)]
    best = None
    if src == dst:
        return Route(nodes=(src,), total_cost=0.0)
    for r in range(len(nodes) + 1):
        for mid in permutations(nodes, r):
            path = (src,) + mid + (dst,)
            cost = 0.0
            ok = True
            for u, v in zip(path, path[1:]):
                if not graph.has_edge(u, v) or graph.is_blocked(u, v):
                    ok = False
                    break
                cost += graph.weight(u, v)
            if ok and (best is None or (cost, path) < (best.total_cost, best.nodes)):
                best = Route(nodes=path, total_cost=cost)
    return best


def random_connected_graph(rng, max_weight: int, p_extra: float):
    """(graph, node names) on 2 to 8 nodes named A, B, ...: a random spanning
    tree, so every node is reachable, then each other pair joined with
    probability p_extra. Weights are integers in [1, max_weight)."""
    n = int(rng.integers(2, 9))
    names = [chr(ord("A") + k) for k in range(n)]
    g = NavGraph()
    for k, name in enumerate(names):
        g.add_node(name, (float(k), 0.0))
    shuffled = list(names)
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        g.add_edge(a, b, float(rng.integers(1, max_weight)))
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(names[i], names[j]) and rng.random() < p_extra:
                g.add_edge(names[i], names[j], float(rng.integers(1, max_weight)))
    return g, names


def oracle_partition_scores(values, partitions, excluded):
    """H(i) by a Python-int loop over every pixel not set in `excluded`: the
    semantic definition. (0.0, True) for a partition with no such pixel."""
    scores = []
    for p in partitions:
        total = count = 0
        for y in range(values.shape[0]):
            for x in range(p.x_start, p.x_end):
                if not excluded[y, x]:
                    total += int(values[y, x])
                    count += 1
        scores.append((0.0, True) if count == 0 else (total / count, False))
    return scores


def oracle_iou(b1: BoundingBox, b2: BoundingBox) -> float:
    """|A∩B| / |A∪B| by counting the boxes' pixels on a canvas holding both,
    as Python ints: the semantic definition of `tracking.iou`."""
    shape = (max(b1.y2, b2.y2), max(b1.x2, b2.x2))
    a = mask_from_bbox(b1, shape[1], shape[0])
    b = mask_from_bbox(b2, shape[1], shape[0])
    return int(np.count_nonzero(a & b)) / int(np.count_nonzero(a | b))


def mask_from_bbox(bbox: BoundingBox, width: int, height: int) -> np.ndarray:
    """Boolean grid with the (clipped) bbox interior set."""
    grid = np.zeros((height, width), dtype=bool)
    x1 = max(0, min(width, bbox.x1))
    x2 = max(0, min(width, bbox.x2))
    y1 = max(0, min(height, bbox.y1))
    y2 = max(0, min(height, bbox.y2))
    grid[y1:y2, x1:x2] = True
    return grid


def read_ppm(path) -> np.ndarray:
    """Read back a binary PPM (P6, maxval 255) as written by write_ppm."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise FrameDecodeError(f"{path}: not a binary PPM")
    try:
        w, h = (int(tok) for tok in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FrameDecodeError(f"{path}: bad PPM header") from exc
    if maxval != 255:
        raise FrameDecodeError(f"{path}: maxval {maxval}, expected 255")
    raster = parts[3]
    if len(raster) != w * h * 3:
        raise FrameDecodeError(
            f"{path}: raster has {len(raster)} bytes, expected {w * h * 3}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def save_samples_csv(path, samples: list[CalibrationSample]) -> None:
    """Write samples in the CSV layout `calibrate --samples` reads."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rev", "distance_m"])
        for s in samples:
            writer.writerow([repr(s.rev), repr(s.distance)])


def mostly(valid, *odd):
    """`valid` seven draws in eight, else one of `odd`: values that some
    field of the frame model refuses, or once took and wrote."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(odd) if k == 0 else valid)


NUMPY_INTS = st.integers(0, 9).map(np.int64)


@st.composite
def frame_parts(draw):
    """(detection arguments, PerceptionFrame keyword arguments) of a 4x3
    frame, most of which the frame model accepts. The depth map is a drawn
    permutation of evenly spaced REVs, so no two pixels are equal; each
    instance mask is all background."""
    width, height = 4, 3
    detections = []
    for _ in range(draw(st.integers(0, 3))):
        x1, y1 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        corners = (x1, y1, draw(st.integers(x1 + 1, width)), draw(st.integers(y1 + 1, height)))
        detections.append((
            draw(mostly(st.sampled_from(["car", "person", "vip"]), 5, None)),
            tuple(map(draw(st.sampled_from([int, np.int32])), corners)),
            draw(mostly(
                st.floats(0, 1) | st.integers(0, 1) | st.floats(0, 1, width=32).map(np.float32),
                True, "0.5", math.nan, 10**400,
            )),
            draw(mostly(st.none() | st.integers(0, 10**20) | NUMPY_INTS, -1, 1.0, True)),
        ))
    keys = draw(st.lists(mostly(st.integers(0, 9) | NUMPY_INTS, 1.0, -1, True, "1"), max_size=3))
    n = width * height
    step = draw(st.integers(1, REV_MAX // (n - 1)))
    depth = np.array(draw(st.permutations(range(n)))).reshape(height, width) * step
    return detections, dict(
        frame_id=draw(mostly(st.integers(0, 10**6) | NUMPY_INTS, 1.0, True, "1")),
        timestamp=draw(mostly(
            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)
            | st.floats(-1e3, 1e3).map(np.float64),
            math.nan, math.inf, 10**400, "0.5", True,
        )),
        width=width,
        height=height,
        depth=DepthMap(width, height, depth),
        instance_masks={key: BitMask(width, height, (n,)) for key in keys},
    )


def frame_from_parts(parts):
    """The PerceptionFrame that `frame_parts` drew, or None when the frame
    model refuses one of its parts."""
    detection_args, frame_args = parts
    try:
        detections = [
            Detection(label, BoundingBox(*corners), confidence, track_id)
            for label, corners, confidence, track_id in detection_args
        ]
        return PerceptionFrame(detections=detections, **frame_args)
    except ConsistencyError:
        return None
