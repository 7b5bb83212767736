"""Golden-trace contract: planning the same frames writes the same trace.

Every scenario kind x seeds 1-5 is planned for N_FRAMES frames twice: with
the default config and with `pipeline.live_speed` on. The SHA-256 of each
trace, with its wall-clock `latency_ms` block stripped, must match
`tests/data/golden_traces.json`. Two more streams, hashed in both modes,
hold the shapes no generated stream reaches: a routed walk on the campus
graph that replans until no path is left, and a crowded street whose VIP
goes unseen for long enough to be lost.
A change that moves a hash changes a guidance decision: it is a behaviour
change, not a refactor. Streams are long enough (two seconds at 30 fps)
for tracker state to outlive the one-second approach-rate window.

Regenerate the file, only for a declared behaviour change, with

    PYTHONPATH=src python3 tests/test_golden_traces.py
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from vipguide import scenario
from vipguide.config import default_config
from vipguide.frameio import record_to_line
from vipguide.global_planner import load_graph, shortest_path
from vipguide.pipeline import Pipeline
from vipguide.scenario import SCENARIO_KINDS, ScenarioSpec, default_model, generate

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_traces.json")
SEEDS = (1, 2, 3, 4, 5)
N_FRAMES = 60

CAMPUS_GRAPH_PATH = os.path.join(DATA_DIR, "campus_graph.json")
WALLED_KEY = "campus/F-L/walled"
WALLED_FRAMES = 30
WALL_GAP_M = 0.6  # from the VIP to the wall across its path
GAP_KEY = "crowded_street/seed3/vip_gap"
GAP_FRAMES = 80
GAP = range(10, 60)  # frames with the VIP's detection and mask cut


def configs() -> dict:
    """The two configs every stream is hashed under, by mode."""
    config = default_config()
    live = replace(config, pipeline=replace(config.pipeline, live_speed=True))
    return {"default": config, "live_speed": live}


def trace_records(pipeline: Pipeline, frames):
    """Each frame's trace record, its wall-clock `latency_ms` stripped."""
    for frame in frames:
        _, record = pipeline.process_frame(frame)
        del record["latency_ms"]
        yield record


def trace_hash(pipeline: Pipeline, frames) -> str:
    digest = hashlib.sha256()
    for record in trace_records(pipeline, frames):
        digest.update(record_to_line(record).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def stream_hashes(kind: str, seed: int, model) -> dict[str, str]:
    """{'default': hash, 'live_speed': hash} for one generated stream."""
    spec = ScenarioSpec(kind=kind, seed=seed, n_frames=N_FRAMES)
    frames = [frame for frame, _ in generate(spec)]
    return {
        mode: trace_hash(Pipeline(config, model), frames)
        for mode, config in configs().items()
    }


def stream_key(kind: str, seed: int) -> str:
    return f"{kind}/seed{seed}"


def walled_frames() -> list:
    """The VIP at VIP_Z with a rendered 30 m x 3 m wall WALL_GAP_M ahead of
    it in every frame, so no partition is wide enough for the VIP."""
    cam = scenario.CAMERA
    vip = scenario.SceneObject(
        "vip", x=0.0, z=scenario.VIP_Z, width=scenario.VIP_SIZE[0], height=scenario.VIP_SIZE[1]
    )
    wall = scenario.SceneObject(
        "wall", x=0.0, z=scenario.VIP_Z + WALL_GAP_M, width=30.0, height=3.0
    )
    ground = scenario._ground_image(cam)
    road = scenario.default_road_mask(cam)
    return [
        scenario._render([vip, wall], cam, ground, k, k / scenario.FPS, road)
        for k in range(WALLED_FRAMES)
    ]


def walled_pipeline(config, model) -> Pipeline:
    """A pipeline walking the campus graph's F -> L route, on a fresh graph:
    replans block its edges."""
    graph = load_graph(CAMPUS_GRAPH_PATH)
    return Pipeline(config, model, graph=graph, route=shortest_path(graph, "F", "L"))


def gap_frames() -> list:
    """crowded_street seed 3, the VIP's detection and mask cut from GAP."""
    spec = ScenarioSpec(kind="crowded_street", seed=3, n_frames=GAP_FRAMES)
    frames = []
    for frame, _ in generate(spec):
        if frame.frame_id in GAP:
            others = tuple(d for d in frame.detections if d.class_label != "vip")
            frame = replace(frame, detections=others, vip_mask=None)
        frames.append(frame)
    return frames


def extra_hashes(model) -> dict[str, dict[str, str]]:
    """{key: {mode: hash}} for the walled campus walk and the VIP-gap street."""
    walled, gap = walled_frames(), gap_frames()
    modes = configs().items()
    return {
        WALLED_KEY: {
            mode: trace_hash(walled_pipeline(config, model), walled) for mode, config in modes
        },
        GAP_KEY: {mode: trace_hash(Pipeline(config, model), gap) for mode, config in modes},
    }


def all_hashes(model) -> dict:
    """The golden file's contents: every stream's hash in each mode."""
    data: dict = {"n_frames": N_FRAMES, "default": {}, "live_speed": {}}
    for kind in SCENARIO_KINDS:
        for seed in SEEDS:
            for mode, digest in stream_hashes(kind, seed, model).items():
                data[mode][stream_key(kind, seed)] = digest
    for key, hashes in extra_hashes(model).items():
        for mode, digest in hashes.items():
            data[mode][key] = digest
    return data


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        data = json.load(fh)
    assert data["n_frames"] == N_FRAMES
    return data


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_trace_hash_unchanged(golden, model, kind, seed):
    key = stream_key(kind, seed)
    got = stream_hashes(kind, seed, model)
    expected = {mode: golden[mode][key] for mode in got}
    assert got == expected, f"trace of {key} changed"


def test_extra_trace_hashes_unchanged(golden, model):
    for key, got in extra_hashes(model).items():
        expected = {mode: golden[mode][key] for mode in got}
        assert got == expected, f"trace of {key} changed"


@pytest.mark.parametrize("mode", ["default", "live_speed"])
def test_walled_walk_replans_until_no_path_is_left(model, mode):
    pipeline = walled_pipeline(configs()[mode], model)
    records = list(trace_records(pipeline, walled_frames()))
    assert {r["outcome"]["type"] for r in records} == {"reroute"}
    new_routes = {
        r["frame_id"]: r["outcome"]["new_route"]
        for r in records
        if r["outcome"]["new_route"] is not None
    }
    assert list(new_routes) == [4, 9, 14, 19]
    assert new_routes[19] == []


@pytest.mark.parametrize("mode", ["default", "live_speed"])
def test_gap_stream_coasts_then_loses_the_vip(model, mode):
    records = list(trace_records(Pipeline(configs()[mode], model), gap_frames()))
    types = Counter(r["outcome"]["type"] for r in records)
    assert types == {"heading": 60, "vip_lost": 20}


def test_golden_file_covers_every_stream(golden):
    keys = {stream_key(k, s) for k in SCENARIO_KINDS for s in SEEDS}
    keys |= {WALLED_KEY, GAP_KEY}
    assert set(golden["default"]) == set(golden["live_speed"]) == keys


def regenerate() -> None:
    data = all_hashes(default_model())
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
