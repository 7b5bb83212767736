"""Golden-trace contract: planning the same frames writes the same trace.

Every scenario kind x seeds 1-5 is planned for N_FRAMES frames twice: with
the default config and with `pipeline.live_speed` on. The SHA-256 of each
trace, with its wall-clock `latency_ms` block stripped, must match
`tests/data/golden_traces.json`.
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
from dataclasses import replace

import pytest

from vipguide.config import default_config
from vipguide.frameio import record_to_line
from vipguide.pipeline import Pipeline
from vipguide.scenario import SCENARIO_KINDS, ScenarioSpec, default_model, generate

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_traces.json")
SEEDS = (1, 2, 3, 4, 5)
N_FRAMES = 60


def trace_hash(frames, config, model) -> str:
    pipeline = Pipeline(config, model)
    digest = hashlib.sha256()
    for frame in frames:
        _, record = pipeline.process_frame(frame)
        del record["latency_ms"]
        digest.update(record_to_line(record).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def stream_hashes(kind: str, seed: int, model) -> dict[str, str]:
    """{'default': hash, 'live_speed': hash} for one generated stream."""
    spec = ScenarioSpec(kind=kind, seed=seed, n_frames=N_FRAMES)
    frames = [frame for frame, _ in generate(spec)]
    config = default_config()
    live = replace(config, pipeline=replace(config.pipeline, live_speed=True))
    return {
        "default": trace_hash(frames, config, model),
        "live_speed": trace_hash(frames, live, model),
    }


def stream_key(kind: str, seed: int) -> str:
    return f"{kind}/seed{seed}"


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


def test_golden_file_covers_every_stream(golden):
    keys = {stream_key(k, s) for k in SCENARIO_KINDS for s in SEEDS}
    assert set(golden["default"]) == set(golden["live_speed"]) == keys


def regenerate() -> None:
    model = default_model()
    data: dict = {"n_frames": N_FRAMES, "default": {}, "live_speed": {}}
    for kind in SCENARIO_KINDS:
        for seed in SEEDS:
            for mode, digest in stream_hashes(kind, seed, model).items():
                data[mode][stream_key(kind, seed)] = digest
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
