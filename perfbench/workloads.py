"""The three workloads: what one stream of each does, and how it is checked.

A *stream* is one `vipguide plan` invocation's worth of work: a pipeline
built fresh, frames fed to `Pipeline.process_frame` in order, and one trace
line written per frame. A run plays the same list of streams several times
over (passes); run.py turns the per-pass timings into figures.

Every check here derives what is right from the inputs (ground truth, the
benchmark's own route search), never from a stored copy of earlier output.
"""
from __future__ import annotations

import heapq
import json
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from vipguide import frameio, global_planner, scenario
from vipguide.config import default_config
from vipguide.local_planner import Heading, RerouteNeeded
from vipguide.perception import Detection, PerceptionFrame, rle_encode
from vipguide.pipeline import Pipeline

AUTHORED_KINDS = ("footpath_tree", "parked_vehicles", "crowded_street")

# sizes below fill a run of this many seconds; --seconds scales them
RUN_SECONDS = 20

# long_walk: one crowded_street stream this long, played once per pass
WALK_FRAMES = 2000
# dataset_roundtrip: every scenario kind at this many seeds, streams this long
ROUNDTRIP_SEEDS = 14
ROUNDTRIP_FRAMES = 24
# city_reroute: a GRID x GRID street grid, walks of CLEAR + BLOCKED + CLEAR frames
GRID = 40
CITY_WALKS = 110
CITY_CLEAR_FRAMES = 10
CITY_MIN_HOPS = 30  # Manhattan distance between a walk's end nodes
WALL_GAP_M = (0.4, 0.9)  # wall distance ahead of the VIP, meters


@dataclass
class StreamResult:
    frames: int = 0
    start: float = 0.0  # perf_counter at the stream's start and end
    end: float = 0.0
    spans: list[tuple[float, float]] = field(default_factory=list)  # process_frame calls
    replans: list[int] = field(default_factory=list)  # frames whose record has a new_route
    attempted: int = 0
    failed: int = 0
    history_len: int = 0  # longest track history when the stream ends
    layers: dict = field(default_factory=dict)  # traced runs: span deltas, timed part only


def default_model():
    """The calibration `vipguide plan` fits when no --model is given."""
    from vipguide import calibration

    samples = [
        calibration.CalibrationSample(
            rev=calibration.region_rev(frame, frame.detections[0]) / 65535.0,
            distance=z,
        )
        for frame, z in scenario.calibration_frames([1.0 + 0.5 * i for i in range(19)])
    ]
    return calibration.fit(samples)


def stripped(record: dict) -> str:
    """Trace line without its wall-clock block: the part that must repeat."""
    body = {k: v for k, v in record.items() if k != "latency_ms"}
    return json.dumps(body, separators=(",", ":"))


def heading_ok(decision, truth, kind: str) -> bool:
    """Authored scenes steer the mandated partition; `random` just needs a heading.

    A frame whose nearest obstacles sit in the warning band with none in
    the danger band is only held to having a heading: with no obstacle
    inside d' there is no free-space gate, the heading is ranked on H(i)
    alone, and on some crowded_street seeds the first frames pick center.
    """
    if not isinstance(decision.outcome, Heading):
        return False
    if kind not in AUTHORED_KINDS:
        return True
    severities = {a.severity for a in decision.assessments}
    if "warning" in severities and "danger" not in severities:
        return True
    return decision.outcome.partition == truth.expected_partition


def _max_history(pipe: Pipeline) -> int:
    return max((len(t.history) for t in pipe.tracker.tracks), default=0)


def _plan(pipe: Pipeline, frames, directory: str, result: StreamResult, clock) -> list:
    """The `plan` loop: time producing each frame (the trace's `decode`),
    process it, write its trace line. Returns (decision, record) pairs for
    checking afterwards. The reference probe before each `process_frame` is
    the only thing here that `plan` does not do."""
    out = []
    frames = iter(frames)
    with open(os.path.join(directory, "trace.jsonl"), "w", encoding="ascii") as fh:
        while True:
            t = time.perf_counter()
            frame = next(frames, None)
            if frame is None:
                break
            decode_ms = (time.perf_counter() - t) * 1000.0
            clock.probe()
            t0 = time.perf_counter()
            decision, record = pipe.process_frame(frame, decode_ms=decode_ms)
            t1 = time.perf_counter()
            fh.write(frameio.record_to_line(record))
            fh.write("\n")
            result.spans.append((t0, t1))
            if record["outcome"].get("new_route") is not None:
                result.replans.append(len(out))
            out.append((decision, record))
    result.frames = len(out)
    return out


class Workload:
    """Shared plumbing: model, config, the traced run's tracer, the clock."""

    name: str
    probe_kind: str  # scene whose first frame set-up renders (setup_probe.py)
    passes = 3

    def __init__(self, workdir: str, model):
        self.workdir = workdir
        self.model = model
        self.config = default_config()
        self.tracer = None  # a Tracer in the traced run
        self.clock = None  # the run's reference Clock
        self._dirs = 0

    def probe_args(self) -> list[str]:
        """Arguments of setup_probe.py for this workload's set-up."""
        return [self.probe_kind]

    @contextmanager
    def fresh_dir(self):
        """A new directory per stream, deleted afterwards. Truncating and
        rewriting files in place instead makes ext4 start writing them back
        to disk on close, and that disk traffic showed in the timings."""
        self._dirs += 1
        path = os.path.join(self.workdir, f"stream-{self._dirs}")
        os.makedirs(path)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    @contextmanager
    def timed(self, result: StreamResult):
        """The stream's timed span; in the traced run, its layer deltas too."""
        mark = self.tracer.mark() if self.tracer else None
        result.start = time.perf_counter()
        yield
        result.end = time.perf_counter()
        if self.tracer:
            result.layers = self.tracer.since(mark)


# -- long_walk -------------------------------------------------------------------


class LongWalk(Workload):
    """One continuous crowded_street stream, the way `plan --scenario` runs it."""

    name = "long_walk"
    probe_kind = "crowded_street"

    def __init__(self, seed: int, seconds: float, workdir: str, model, frames=WALK_FRAMES):
        super().__init__(workdir, model)
        self.spec = scenario.ScenarioSpec(kind="crowded_street", seed=seed, n_frames=frames)
        self.passes = max(3, round(3 * seconds / RUN_SECONDS))
        self._first_trace: list[str] | None = None

    def streams(self):
        return [self.spec]

    def run(self, spec) -> StreamResult:
        result = StreamResult(attempted=spec.n_frames)
        truths = []

        def frames():
            for frame, truth in scenario.generate(spec):
                truths.append(truth)
                yield frame

        with self.fresh_dir() as directory, self.timed(result):
            pipe = Pipeline(self.config, self.model)
            planned = _plan(pipe, frames(), directory, result, self.clock)
        result.history_len = _max_history(pipe)

        lines = [stripped(record) for _, record in planned]
        if self._first_trace is None:
            self._first_trace = lines
        for line, first, (decision, _), truth in zip(lines, self._first_trace, planned, truths):
            if not (line == first and heading_ok(decision, truth, spec.kind)):
                result.failed += 1
        result.failed += spec.n_frames - len(planned)
        return result


# -- dataset_roundtrip -----------------------------------------------------------


class DatasetRoundtrip(Workload):
    """`simulate` then `plan --frames` on short streams of every scenario kind."""

    name = "dataset_roundtrip"
    probe_kind = "footpath_tree"

    def __init__(self, seed: int, seconds: float, workdir: str, model,
                 n_seeds=ROUNDTRIP_SEEDS, frames=ROUNDTRIP_FRAMES):
        super().__init__(workdir, model)
        rng = random.Random(seed)
        self.specs = [
            scenario.ScenarioSpec(kind=kind, seed=rng.randrange(1, 2**31), n_frames=frames)
            for _ in range(max(1, round(n_seeds * seconds / RUN_SECONDS)))
            for kind in scenario.SCENARIO_KINDS
        ]
        self._expected: dict = {}

    def streams(self):
        return self.specs

    def run(self, spec) -> StreamResult:
        result = StreamResult(attempted=1)
        read_back = []
        with self.fresh_dir() as directory:
            dataset = os.path.join(directory, "dataset")

            def frames():
                for frame in frameio.read_dataset(dataset):
                    read_back.append(frame)
                    yield frame

            with self.timed(result):
                scenario.write_scenario(dataset, spec)
                pipe = Pipeline(self.config, self.model)
                planned = _plan(pipe, frames(), directory, result, self.clock)
            truths = scenario.read_ground_truth(dataset)
        result.history_len = _max_history(pipe)

        lines = [stripped(record) for _, record in planned]
        ok = len(planned) == spec.n_frames
        if spec not in self._expected:
            # first pass: frames on disk equal the frames generated, and the
            # replayed trace equals the trace planned from memory
            generated = [frame for frame, _ in scenario.generate(spec)]
            ok = ok and read_back == generated
            memory_pipe = Pipeline(self.config, self.model)
            self._expected[spec] = [stripped(memory_pipe.process_frame(f)[1]) for f in generated]
        ok = ok and lines == self._expected[spec]
        ok = ok and len(truths) == len(planned) and all(
            heading_ok(decision, truth, spec.kind)
            for (decision, _), truth in zip(planned, truths)
        )
        result.failed = 0 if ok else 1
        return result


# -- city_reroute ----------------------------------------------------------------


def node_id(row: int, col: int) -> str:
    return f"r{row:02d}c{col:02d}"


def city_graph(rng: random.Random, size: int = GRID) -> dict:
    """Street grid with whole-meter block lengths (so route costs add exactly)."""
    nodes = [
        {"id": node_id(r, c), "pos": [100.0 * c, 100.0 * r]}
        for r in range(size)
        for c in range(size)
    ]
    edges = []
    for r in range(size):
        for c in range(size):
            if c + 1 < size:
                edges.append({"u": node_id(r, c), "v": node_id(r, c + 1), "w": float(rng.randint(60, 140))})
            if r + 1 < size:
                edges.append({"u": node_id(r, c), "v": node_id(r + 1, c), "w": float(rng.randint(60, 140))})
    return {"nodes": nodes, "edges": edges}


def reference_cost(graph, src: str, dst: str) -> float | None:
    """Plain Dijkstra over the unblocked edges: the cheapest cost, no path."""
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in graph.node_ids}
    for u, v, w, blocked in graph.edge_list():
        if not blocked:
            adj[u].append((v, w))
            adj[v].append((u, w))
    best = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == dst:
            return cost
        if cost > best[node]:
            continue
        for nxt, w in adj[node]:
            if cost + w < best.get(nxt, float("inf")):
                best[nxt] = cost + w
                heapq.heappush(heap, (cost + w, nxt))
    return None


def render_frame(objects, cam, road) -> PerceptionFrame:
    """Assemble a perception frame from scene objects with the scenario renderer."""
    depth, owner = scenario.render_scene(objects, cam)
    detections = []
    instance_masks = {}
    vip_mask = None
    for idx, obj in enumerate(objects):
        visible = owner == idx
        bbox = scenario.project_bbox(obj, cam)
        if bbox is None or not visible.any():
            continue
        detections.append(Detection(obj.kind, bbox, scenario.CONFIDENCE[obj.kind], track_id=idx))
        if obj.kind == "vip":
            vip_mask = rle_encode(visible)
        else:
            instance_masks[idx] = rle_encode(visible)
    return PerceptionFrame(
        frame_id=0,
        timestamp=0.0,
        width=cam.width,
        height=cam.height,
        depth=depth,
        detections=tuple(detections),
        vip_mask=vip_mask,
        road_mask=road,
        instance_masks=instance_masks,
    )


@dataclass(frozen=True)
class Walk:
    src: str
    dst: str


class CityReroute(Workload):
    """Short routed walks on a city grid; a wall mid-walk forces one replan."""

    name = "city_reroute"
    probe_kind = "footpath_tree"

    def __init__(self, seed: int, seconds: float, workdir: str, model, walks=CITY_WALKS, size=GRID):
        super().__init__(workdir, model)
        rng = random.Random(seed)
        self.graph_path = os.path.join(workdir, "city.json")
        with open(self.graph_path, "w", encoding="ascii") as fh:
            json.dump(city_graph(rng, size), fh)
        cells = [(r, c) for r in range(size) for c in range(size)]
        self.walks = []
        min_hops = min(CITY_MIN_HOPS, size - 1)
        while len(self.walks) < max(1, round(walks * seconds / RUN_SECONDS)):
            (r1, c1), (r2, c2) = rng.choice(cells), rng.choice(cells)
            if abs(r1 - r2) + abs(c1 - c2) >= min_hops:
                self.walks.append(Walk(node_id(r1, c1), node_id(r2, c2)))
        cam = scenario.Camera()
        road = scenario.default_road_mask(cam)
        vip = scenario.SceneObject(
            "vip", x=rng.uniform(-0.05, 0.05), z=scenario.VIP_Z,
            width=scenario.VIP_SIZE[0], height=scenario.VIP_SIZE[1],
        )
        wall = scenario.SceneObject(
            "wall", x=0.0, z=scenario.VIP_Z + rng.uniform(*WALL_GAP_M), width=30.0, height=3.0,
        )
        self.clear = render_frame([vip], cam, road)
        self.blocked = render_frame([vip, wall], cam, road)
        self.patience = self.config.pipeline.reroute_patience

    def streams(self):
        return self.walks

    def probe_args(self) -> list[str]:
        first = self.walks[0]
        return [self.probe_kind, self.graph_path, first.src, first.dst]

    def frames(self):
        layout = (
            [self.clear] * CITY_CLEAR_FRAMES
            + [self.blocked] * self.patience
            + [self.clear] * CITY_CLEAR_FRAMES
        )
        return [replace(f, frame_id=i, timestamp=i / 30.0) for i, f in enumerate(layout)]

    def run(self, walk: Walk) -> StreamResult:
        result = StreamResult(attempted=1)
        frames = self.frames()
        with self.fresh_dir() as directory, self.timed(result):
            graph = global_planner.load_graph(self.graph_path)
            route = global_planner.shortest_path(graph, walk.src, walk.dst)
            pipe = Pipeline(self.config, self.model, graph=graph, route=route)
            planned = _plan(pipe, frames, directory, result, self.clock)
        result.history_len = _max_history(pipe)
        result.failed = 0 if self._check(walk, route, graph, pipe, planned) else 1
        return result

    def _check(self, walk, first_route, graph, pipe, planned) -> bool:
        fire_at = CITY_CLEAR_FRAMES + self.patience - 1
        for i, (decision, record) in enumerate(planned):
            blocked = CITY_CLEAR_FRAMES <= i <= fire_at
            if blocked != isinstance(decision.outcome, RerouteNeeded):
                return False
            if not blocked and not isinstance(decision.outcome, Heading):
                return False
            if (record["outcome"].get("new_route") is not None) != (i == fire_at):
                return False
        # the edge blocked is the first edge of the route being walked
        blocked_edges = [(u, v) for u, v, _, b in graph.edge_list() if b]
        first_edge = tuple(sorted(first_route.nodes[:2]))
        if blocked_edges != [first_edge]:
            return False
        # the new route is contiguous, avoids blocked edges, and is cheapest
        nodes = planned[fire_at][1]["outcome"]["new_route"]
        route = pipe.route
        if list(route.nodes) != nodes or nodes[0] != walk.src or nodes[-1] != walk.dst:
            return False
        cost = 0.0
        for u, v in zip(nodes, nodes[1:]):
            if not graph.has_edge(u, v) or graph.is_blocked(u, v):
                return False
            cost += graph.weight(u, v)
        return cost == route.total_cost == reference_cost(graph, walk.src, walk.dst)


WORKLOADS = {cls.name: cls for cls in (LongWalk, DatasetRoundtrip, CityReroute)}
