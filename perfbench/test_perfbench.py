"""Quick checks of the benchmark itself: every workload at a tiny size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

TINY = {
    "long_walk": {"frames": 40},
    "dataset_roundtrip": {"n_seeds": 1, "frames": 6},
    "city_reroute": {"walks": 2, "size": 8},
}

# layers each workload must exercise (the README's layer table)
COMMON_LAYERS = {
    "frameio.record_to_line_ms", "perception.rle_decode_calls", "perception.rle_decode_ms",
    "tracking.step_ms", "tracking.history_len", "calibration.detection_distance_ms",
    "calibration.fit_ms", "local_planner.partition_profiles_ms",
    "local_planner.road_edge_check_ms", "pipeline.self_ms",
}
LAYERS = {
    "long_walk": COMMON_LAYERS | {"scenario.generate_ms"},
    "dataset_roundtrip": COMMON_LAYERS | {
        "scenario.generate_ms", "frameio.write_ms", "frameio.read_ms",
    },
    "city_reroute": COMMON_LAYERS | {
        "global_planner.shortest_path_ms", "global_planner.load_ms",
        "pipeline.replan_frame_ms",
    },
}


def tiny_run(name: str, trace: bool) -> dict:
    workdir = tempfile.mkdtemp(prefix="perfbench-test-")
    try:
        return run.run(name, 7, 20, trace, workdir, **TINY[name])
    finally:
        shutil.rmtree(workdir)


class TinyWorkloads(unittest.TestCase):
    def check(self, name: str):
        result = tiny_run(name, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for metric, value in result["metrics"].items():
            self.assertGreater(value["value"], 0, metric)

        traced = tiny_run(name, trace=True)
        self.assertTrue(traced["correct"])
        self.assertEqual(traced["attempted"], result["attempted"])
        self.assertEqual(set(traced["metrics"]), set(run.PER_LAYER))
        for metric in LAYERS[name]:
            self.assertGreater(traced["metrics"][metric]["value"], 0, metric)
        for metric in set(run.PER_LAYER) - LAYERS[name]:
            self.assertEqual(traced["metrics"][metric]["value"], 0, metric)

    def test_long_walk(self):
        self.check("long_walk")

    def test_dataset_roundtrip(self):
        self.check("dataset_roundtrip")

    def test_city_reroute(self):
        self.check("city_reroute")

    def test_traced_run_restores_library(self):
        from vipguide import perception, pipeline

        before = (perception.rle_decode, pipeline.Pipeline.process_frame)
        tiny_run("long_walk", trace=True)
        self.assertEqual(before, (perception.rle_decode, pipeline.Pipeline.process_frame))


class WithoutSources(unittest.TestCase):
    def test_fails_without_library(self):
        """Next to nothing but the benchmark, it exits non-zero with no result."""
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "long_walk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        self.assertNotEqual(done.returncode, 0)
        for line in done.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
