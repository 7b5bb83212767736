"""vipguide benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload long_walk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. `--trace 0` prints the end-to-end metrics, `--trace 1` installs the
layer wrappers (tracer.py) and prints the per-layer metrics instead. The
last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

Each run plays its workload's streams `passes` times over. Durations are
converted to reference time (reference.py). A frame's latency is the median
over the passes of the same frame of the same stream, and a stream's wall
time is its median over the passes; README.md says why.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "late_frame_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.generate_ms": "ms",
    "frameio.write_ms": "ms",
    "frameio.read_ms": "ms",
    "frameio.record_to_line_ms": "ms",
    "perception.rle_decode_calls": "count",
    "perception.rle_decode_ms": "ms",
    "tracking.step_ms": "ms",
    "tracking.history_len": "count",
    "calibration.detection_distance_ms": "ms",
    "calibration.fit_ms": "ms",
    "local_planner.partition_profiles_ms": "ms",
    "local_planner.road_edge_check_ms": "ms",
    "global_planner.shortest_path_ms": "ms",
    "global_planner.load_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.replan_frame_ms": "ms",
}

# per-frame layer figures: metric -> (span name, field of the span delta)
PER_FRAME_SPANS = {
    "scenario.generate_ms": ("scenario.generate", "s"),
    "frameio.write_ms": ("frameio.write", "s"),
    "frameio.read_ms": ("frameio.read", "s"),
    "frameio.record_to_line_ms": ("frameio.record_to_line", "s"),
    "perception.rle_decode_ms": ("perception.rle_decode", "s"),
    "tracking.step_ms": ("tracking.step", "s"),
    "calibration.detection_distance_ms": ("calibration.detection_distance", "s"),
    "local_planner.partition_profiles_ms": ("local_planner.partition_profiles", "s"),
    "local_planner.road_edge_check_ms": ("local_planner.road_edge_check", "s"),
    "pipeline.self_ms": ("pipeline.process_frame", "self_s"),
}


def import_library():
    """Import vipguide from this checkout's src/, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "vipguide", "__init__.py")):
        sys.exit(f"perfbench: no vipguide sources under {SRC}")
    sys.path.insert(0, SRC)
    import vipguide

    if os.path.dirname(os.path.dirname(os.path.abspath(vipguide.__file__))) != SRC:
        sys.exit(f"perfbench: imported vipguide from {vipguide.__file__}, not {SRC}")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def setup_seconds(workload) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    args = [sys.executable, os.path.join(HERE, "setup_probe.py"), *workload.probe_args()]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(args, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def frames_per_second(runs, clock) -> float:
    """Frames of one pass over the sum of each stream's median reference wall time."""
    frames = wall = 0
    for passes in zip(*runs):
        frames += passes[0].frames
        wall += statistics.median(clock.scaled_wall(r.start, r.end) for r in passes)
    return frames / wall


def end_to_end(runs, clock, setup_s: float) -> dict:
    """runs[pass][stream] -> end-to-end figures in reference time.

    A frame's latency is the median over the passes of its reference time.
    Percentiles pool every stream's frames.
    """
    latencies, late = [], []
    for passes in zip(*runs):
        per_pass = [[clock.scaled(t0, t1) * 1000.0 for t0, t1 in r.spans] for r in passes]
        per_frame = [statistics.median(col) for col in zip(*per_pass)]
        latencies += per_frame
        late += per_frame[-math.ceil(len(per_frame) / 10):]
    return {
        "setup_s": setup_s,
        "frames_per_s": frames_per_second(runs, clock),
        "frame_ms_p50": statistics.median(latencies),
        "frame_ms_p90": nearest_rank(latencies, 0.90),
        "late_frame_ms_p50": statistics.median(late),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runs, clock, fit_ms: list[float]) -> dict:
    """Traced runs -> per-layer figures in reference time; layers a workload
    never calls read 0. Each stream's spans are scaled by the stream's
    median reference probe."""
    results = [r for stream_results in runs for r in stream_results]
    scale = {id(r): clock.stream_factor(r.start, r.end) for r in results}

    def per_frame(span: str, key: str) -> float:
        return statistics.median(
            1000.0 * scale[id(r)] * r.layers[span][key] / r.frames if span in r.layers else 0.0
            for r in results
        )

    def per_call(span: str) -> float:
        samples = [
            scale[id(r)] * s
            for r in results if span in r.layers
            for s in r.layers[span]["samples"]
        ]
        return 1000.0 * statistics.median(samples) if samples else 0.0

    out = {name: per_frame(span, key) for name, (span, key) in PER_FRAME_SPANS.items()}
    out["perception.rle_decode_calls"] = statistics.median(
        r.layers["perception.rle_decode"]["calls"] / r.frames
        if "perception.rle_decode" in r.layers else 0.0
        for r in results
    )
    out["tracking.history_len"] = statistics.median(r.history_len for r in results)
    out["calibration.fit_ms"] = statistics.median(fit_ms)
    out["global_planner.shortest_path_ms"] = per_call("global_planner.shortest_path")
    out["global_planner.load_ms"] = per_call("global_planner.load")
    replans = [clock.scaled(*r.spans[i]) * 1000.0 for r in results for i in r.replans]
    out["pipeline.replan_frame_ms"] = statistics.median(replans) if replans else 0.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, **sizes) -> dict:
    """Run one workload in this process and return the result object."""
    from reference import Clock
    from tracer import Tracer
    from workloads import WORKLOADS, default_model

    tracer = Tracer() if trace else None
    clock = Clock()
    fit_ms = []
    for _ in range(3):
        clock.probe()
        t0 = time.perf_counter()
        model = default_model()
        t1 = time.perf_counter()
        clock.probe()
        fit_ms.append(clock.scaled(t0, t1) * 1000.0)
    workload = WORKLOADS[name](seed, seconds, workdir, model, **sizes)
    workload.clock = clock
    setup_s = setup_seconds(workload) if not trace else 0.0

    if tracer:
        tracer.install()
        workload.tracer = tracer
    try:
        runs = [[workload.run(s) for s in workload.streams()] for _ in range(workload.passes)]
    finally:
        if tracer:
            tracer.uninstall()

    attempted = sum(r.attempted for rs in runs for r in rs)
    failed = sum(r.failed for rs in runs for r in rs)
    if trace:
        values, units = per_layer(runs, clock, fit_ms), PER_LAYER
    else:
        values, units = end_to_end(runs, clock, setup_s), END_TO_END
    frames = sum(r.frames for rs in runs for r in rs)
    wall = sum(r.end - r.start for rs in runs for r in rs)
    print(f"{name}: {frames} frames in {wall:.2f} s of streams ({frames / wall:.1f}/s "
          f"unscaled); reference loop median {statistics.median(clock.durations) * 1e6:.1f} us; "
          f"frames_per_s {frames_per_second(runs, clock):.2f}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_walk", "dataset_roundtrip", "city_reroute"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
