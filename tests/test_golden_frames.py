"""Golden-frame contract: the scenario generator writes the same frames.

The golden traces pin what the planner decides, but the three authored
scene kinds plan the same trace for every seed, so they do not pin the
generator's output. This file does. For every generated stream the SHA-256
of each frame's id, timestamp, detections, masks (width, height and runs
of the VIP, road and instance masks) and raw depth bytes must match
`tests/data/golden_frames.json`. Streams cover every scenario kind x seeds
1-5 at N_FRAMES frames, one REV-jittered stream per kind, and the default
calibration frames (a lone wall at each of 19 distances). The same
kind x seed streams also pin their ground truth: the SHA-256 of the
`ground_truth.jsonl` lines `write_scenario` writes for them.

A change that moves a hash changes what the generator emits: it is a
behaviour change, not a speed-up. Regenerate the file, only for a
declared behaviour change, with

    PYTHONPATH=src python3 tests/test_golden_frames.py
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import pytest

from vipguide.frameio import record_to_line
from vipguide.scenario import (
    CALIBRATION_Z,
    SCENARIO_KINDS,
    ScenarioSpec,
    calibration_frames,
    generate,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_frames.json")
SEEDS = (1, 2, 3, 4, 5)
N_FRAMES = 60
JITTER_SEED = 1
JITTER_SIGMA = 400.0


def frame_bytes(frame) -> bytes:
    """Canonical bytes of everything a frame carries."""
    masks = [("vip", frame.vip_mask), ("road", frame.road_mask)]
    masks += [
        (f"instance{tid}", frame.instance_masks[tid]) for tid in sorted(frame.instance_masks)
    ]
    meta = {
        "frame_id": frame.frame_id,
        "timestamp": frame.timestamp,
        "size": [frame.width, frame.height],
        "detections": [
            [det.class_label, det.bbox.as_list(), det.confidence, det.track_id]
            for det in frame.detections
        ],
        "masks": [
            [name, None if mask is None else [mask.width, mask.height, list(mask.runs)]]
            for name, mask in masks
        ],
    }
    depth = frame.depth
    header = json.dumps(meta, separators=(",", ":")) + f"\n{depth.width}x{depth.height}\n"
    return header.encode("ascii") + depth.values.astype("<u2").tobytes()


def stream_hash(frames) -> str:
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(frame_bytes(frame))
    return digest.hexdigest()


def scenario_hash(kind: str, seed: int, rev_jitter_sigma: float = 0.0) -> str:
    spec = ScenarioSpec(
        kind=kind, seed=seed, n_frames=N_FRAMES, rev_jitter_sigma=rev_jitter_sigma
    )
    return stream_hash(frame for frame, _ in generate(spec))


def truth_hash(kind: str, seed: int) -> str:
    """SHA-256 of the ground-truth lines write_scenario writes for the stream."""
    digest = hashlib.sha256()
    for _, truth in generate(ScenarioSpec(kind=kind, seed=seed, n_frames=N_FRAMES)):
        digest.update(record_to_line(asdict(truth)).encode("ascii") + b"\n")
    return digest.hexdigest()


def calibration_hash() -> str:
    return stream_hash(frame for frame, _ in calibration_frames(CALIBRATION_Z))


def all_hashes() -> dict[str, str]:
    out = {}
    for kind in SCENARIO_KINDS:
        for seed in SEEDS:
            out[f"{kind}/seed{seed}"] = scenario_hash(kind, seed)
        out[f"{kind}/seed{JITTER_SEED}/jitter"] = scenario_hash(kind, JITTER_SEED, JITTER_SIGMA)
        for seed in SEEDS:
            out[f"{kind}/seed{seed}/truth"] = truth_hash(kind, seed)
    out["calibration"] = calibration_hash()
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        data = json.load(fh)
    assert data["n_frames"] == N_FRAMES
    assert data["jitter_sigma"] == JITTER_SIGMA
    return data["streams"]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_frames_unchanged(golden, kind, seed):
    key = f"{kind}/seed{seed}"
    assert scenario_hash(kind, seed) == golden[key], f"frames of {key} changed"


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_jittered_frames_unchanged(golden, kind):
    key = f"{kind}/seed{JITTER_SEED}/jitter"
    got = scenario_hash(kind, JITTER_SEED, JITTER_SIGMA)
    assert got == golden[key], f"frames of {key} changed"


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_ground_truth_unchanged(golden, kind, seed):
    key = f"{kind}/seed{seed}/truth"
    assert truth_hash(kind, seed) == golden[key], f"ground truth of {key} changed"


def test_calibration_frames_unchanged(golden):
    assert calibration_hash() == golden["calibration"]


def test_golden_file_covers_every_stream(golden):
    keys = {f"{k}/seed{s}" for k in SCENARIO_KINDS for s in SEEDS}
    keys |= {f"{k}/seed{JITTER_SEED}/jitter" for k in SCENARIO_KINDS}
    keys |= {f"{k}/seed{s}/truth" for k in SCENARIO_KINDS for s in SEEDS}
    assert set(golden) == keys | {"calibration"}


def regenerate() -> None:
    data = {"n_frames": N_FRAMES, "jitter_sigma": JITTER_SIGMA, "streams": all_hashes()}
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
