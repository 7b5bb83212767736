import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vipguide.calibration import load_model, CalibrationSample
from vipguide.cli import main
from vipguide.scenario import ScenarioSpec

from conftest import DEEP_NESTING, LONG_INT, read_ppm, save_samples_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_fails_cleanly(result, command, needle):
    code, _, err = result
    assert code == 1
    assert err.startswith(f"{command}: ") and err.count("\n") == 1
    assert needle in err


class TestSimulate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, stdout, _ = run(
            capsys, "simulate", "--scenario", "parked_vehicles",
            "--seed", "3", "--n-frames", "4", "--out", str(out),
        )
        assert code == 0
        assert "wrote 4 frames" in stdout
        assert (out / "frames.jsonl").exists()
        assert (out / "ground_truth.jsonl").exists()
        assert len(list(out.glob("*.pgm"))) == 4

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        result = run(
            capsys, "simulate", "--scenario", "random", "--seed", "-1",
            "--out", str(tmp_path / "ds"),
        )
        assert_fails_cleanly(result, "simulate", "seed -1 < 0")

    def test_rejects_unknown_scenario(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "motorway", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestPlan:
    def test_round_trip_from_dataset(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "crowded_street",
            "--seed", "2", "--n-frames", "6", "--out", str(ds))
        trace = tmp_path / "trace.jsonl"
        code, stdout, _ = run(
            capsys, "plan", "--frames", str(ds), "--out", str(trace)
        )
        assert code == 0
        assert "planned 6 frames" in stdout
        assert "plan: p50" in stdout
        lines = trace.read_text().splitlines()
        assert len(lines) == 6
        for k, line in enumerate(lines):
            record = json.loads(line)
            assert record["frame_id"] == k
            assert record["outcome"]["type"] == "heading"
            assert record["outcome"]["partition"] == 0  # crowd on the right
            assert record["edge_status"] in (
                "safe", "warn_left", "warn_right", "warn_both", "unknown",
            )

    @pytest.mark.parametrize("kind", ["crowded_street", "random"])
    def test_unset_stream_flags_plan_one_stream(self, tmp_path, capsys, kind):
        # simulate and plan --scenario share one seed and frame-count default
        ds, from_dataset, on_the_fly = (
            tmp_path / "ds", tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        )
        assert run(capsys, "simulate", "--scenario", kind, "--out", str(ds))[0] == 0
        assert run(capsys, "plan", "--frames", str(ds), "--out", str(from_dataset))[0] == 0
        assert run(capsys, "plan", "--scenario", kind, "--out", str(on_the_fly))[0] == 0

        def decisions(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                del record["latency_ms"]
            return records

        records = decisions(on_the_fly)
        assert len(records) == ScenarioSpec.n_frames
        assert decisions(from_dataset) == records

    def test_on_the_fly_scenario(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code, _, _ = run(
            capsys, "plan", "--scenario", "parked_vehicles",
            "--seed", "1", "--n-frames", "5", "--out", str(trace),
        )
        assert code == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert all(r["outcome"]["partition"] == 2 for r in records)
        assert records[0]["outcome"]["angle_deg"] == pytest.approx(30.02, abs=0.1)

    def test_annotation_output(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        ann = tmp_path / "frames"
        code, _, _ = run(
            capsys, "plan", "--scenario", "parked_vehicles",
            "--seed", "1", "--n-frames", "2", "--out", str(trace),
            "--annotate", str(ann),
        )
        assert code == 0
        image = read_ppm(ann / "frame_00000.ppm")
        assert image.shape == (480, 640, 3)
        flat = image.reshape(-1, 3)
        # heading partition outline (green) and VIP box (blue) both present
        assert (flat == (0, 255, 0)).all(axis=1).any()
        assert (flat == (0, 0, 255)).all(axis=1).any()

    # SHA-256 over the PPMs of frames 0-4, seed 1, in frame order: a change
    # that moves one annotated pixel changes what the user is shown
    ANNOTATED_SHA256 = {
        "footpath_tree": "056efaf3202019cfd07a179af96b941ad4279f0bd79022f36a8ad52057cd6105",
        "parked_vehicles": "d5ea48b22fe9a4d051f62b5cde6dc1fdc4ea0d36430537fbc8c9f87cf7be29ad",
        "crowded_street": "5478c8e7c371c1d2527aaaa9db8cca1ac67ff82ec629d21790bff4c531be3b23",
        "random": "242eabdc3a4b5a1aaf88550494159e97e5e597788af1a3139b3a360f3ac270e9",
    }

    @pytest.mark.parametrize("kind", sorted(ANNOTATED_SHA256))
    def test_annotated_frames_byte_stable(self, tmp_path, capsys, kind):
        ann = tmp_path / "frames"
        code, _, _ = run(
            capsys, "plan", "--scenario", kind, "--seed", "1", "--n-frames", "5",
            "--out", str(tmp_path / "trace.jsonl"), "--annotate", str(ann),
        )
        assert code == 0
        paths = sorted(ann.iterdir())
        assert [p.name for p in paths] == [f"frame_{i:05d}.ppm" for i in range(5)]
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.ANNOTATED_SHA256[kind]

    def test_routed_plan_keeps_the_local_trace(self, tmp_path, capsys, campus_graph_path):
        # the crowded street never blocks every partition, so the route is
        # loaded and searched but no replan fires and no trace byte moves
        stream = ("plan", "--scenario", "crowded_street", "--n-frames", "5")
        routed, local = tmp_path / "routed.jsonl", tmp_path / "local.jsonl"
        graph = ("--graph", campus_graph_path, "--src", "F")
        assert run(capsys, *stream, *graph, "--dst", "L", "--out", str(routed))[0] == 0
        assert run(capsys, *stream, "--out", str(local))[0] == 0

        def decisions(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                del record["latency_ms"]
            return records

        assert len(decisions(routed)) == 5
        assert decisions(routed) == decisions(local)
        code, _, err = run(capsys, *stream, *graph, "--dst", "Z", "--out", str(routed))
        assert (code, err) == (1, "plan: unknown node 'Z'\n")

    def test_graph_needs_endpoints(self, tmp_path, capsys, campus_graph_path):
        code, _, err = run(
            capsys, "plan", "--scenario", "random", "--out",
            str(tmp_path / "t.jsonl"), "--graph", campus_graph_path,
        )
        assert code == 2
        assert "--src" in err

    def test_usage_checked_before_graph_loads(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "plan", "--scenario", "random", "--out",
            str(tmp_path / "t.jsonl"), "--graph", str(tmp_path / "missing.json"),
        )
        assert (code, err) == (2, "plan: --graph requires --src and --dst\n")

    @pytest.mark.parametrize(
        "flags", [("--src", "A", "--dst", "B"), ("--src", "A"), ("--dst", "B")]
    )
    def test_endpoints_need_graph(self, tmp_path, capsys, flags):
        trace = tmp_path / "t.jsonl"
        code, _, err = run(
            capsys, "plan", "--scenario", "random", "--out", str(trace), *flags
        )
        assert (code, err) == (2, "plan: --src and --dst require --graph\n")
        assert not trace.exists()

    @pytest.mark.parametrize(
        "flags", [("--seed", "9"), ("--n-frames", "500"), ("--seed", "0", "--n-frames", "30")]
    )
    def test_stream_flags_need_scenario(self, tmp_path, capsys, flags):
        # the dataset does not exist: the usage check runs before any read
        trace = tmp_path / "t.jsonl"
        code, _, err = run(
            capsys, "plan", "--frames", str(tmp_path / "missing"), "--out", str(trace), *flags
        )
        assert (code, err) == (2, "plan: --seed and --n-frames require --scenario\n")
        assert not trace.exists()

    def test_repeated_timestamp_fails_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "crowded_street",
            "--seed", "1", "--n-frames", "3", "--out", str(ds))
        frames = ds / "frames.jsonl"
        records = [json.loads(l) for l in frames.read_text().splitlines()]
        records[1]["timestamp"] = records[0]["timestamp"]
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert code == 1
        assert err.startswith("plan: ") and err.count("\n") == 1
        assert "timestamp" in err

    def test_non_ascii_byte_fails_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "random",
            "--seed", "1", "--n-frames", "2", "--out", str(ds))
        with open(ds / "frames.jsonl", "ab") as fh:
            fh.write(b"\xff\n")
        result = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert_fails_cleanly(result, "plan", "frames.jsonl:3: non-ASCII byte")

    def test_backward_frame_timestamp_fails_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "crowded_street",
            "--seed", "1", "--n-frames", "2", "--out", str(ds))
        frames = ds / "frames.jsonl"
        records = [json.loads(l) for l in frames.read_text().splitlines()]
        records[0]["timestamp"] = 0.5
        # the second frame sees nothing, so no track can notice the clock
        records[1].update(timestamp=0.25, detections=[], vip_mask=None)
        records[1].pop("instance_masks", None)
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert code == 1
        assert err.startswith("plan: ") and err.count("\n") == 1
        assert "timestamp 0.25 not after" in err

    @pytest.mark.parametrize(
        "timestamp,needle",
        [
            (float("nan"), "timestamp nan not finite"),
            (float("inf"), "timestamp inf not finite"),
            (10**400, "timestamp beyond float range"),
        ],
        ids=["nan", "inf", "huge_int"],
    )
    def test_non_finite_timestamp_fails_cleanly(self, tmp_path, capsys, timestamp, needle):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "crowded_street",
            "--seed", "1", "--n-frames", "3", "--out", str(ds))
        frames = ds / "frames.jsonl"
        records = [json.loads(l) for l in frames.read_text().splitlines()]
        records[1]["timestamp"] = timestamp
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert code == 1
        assert err.startswith("plan: ") and err.count("\n") == 1
        assert needle in err

    def test_depth_file_outside_dataset_fails_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "crowded_street",
            "--seed", "1", "--n-frames", "2", "--out", str(ds))
        (tmp_path / "outside.pgm").write_bytes((ds / "1.pgm").read_bytes())
        frames = ds / "frames.jsonl"
        records = [json.loads(l) for l in frames.read_text().splitlines()]
        records[1]["depth_file"] = "../outside.pgm"
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, _, err = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert code == 1
        assert err.startswith("plan: ") and err.count("\n") == 1
        assert "'depth_file'" in err and "../outside.pgm" in err

    # each once ended in a bare ValueError or RecursionError
    @pytest.mark.parametrize(
        "line", ['{"frame_id":%s}' % LONG_INT, DEEP_NESTING], ids=["long_int", "deep_nesting"]
    )
    def test_json_past_parser_limits_fails_cleanly(self, tmp_path, capsys, line):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "random",
            "--seed", "1", "--n-frames", "3", "--out", str(ds))
        frames = ds / "frames.jsonl"
        frames.write_text(frames.read_text() + line + "\n")
        result = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert_fails_cleanly(result, "plan", "frames.jsonl:4: malformed JSON: ")

    def test_missing_depth_sidecar_fails_cleanly(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "simulate", "--scenario", "random",
            "--seed", "1", "--n-frames", "3", "--out", str(ds))
        (ds / "1.pgm").unlink()
        result = run(
            capsys, "plan", "--frames", str(ds), "--out", str(tmp_path / "t.jsonl")
        )
        assert_fails_cleanly(
            result, "plan", f"frames.jsonl:2: {ds / '1.pgm'}: cannot read: No such file"
        )

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        result = run(
            capsys, "plan", "--scenario", "random", "--seed", "-1",
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert_fails_cleanly(result, "plan", "seed -1 < 0")

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('{"a": 1', "model.json: malformed JSON"),
            ('{"a": NaN, "b": 1, "c": 1, "rmse": 0, "n_samples": 3}', "a nan not finite"),
            ('{"a": 1, "b": 1, "c": Infinity, "rmse": 0, "n_samples": 3}', "c inf not finite"),
            (
                '{"a": "1.5", "b": 1, "c": 1, "rmse": 0, "n_samples": 3}',
                "model.json: a '1.5' not a real number",
            ),
            (
                '{"a": true, "b": 1, "c": 1, "rmse": 0, "n_samples": 3}',
                "model.json: a True not a real number",
            ),
            (
                '{"a": 1, "b": 1, "c": 1, "rmse": 0, "n_samples": 3.9}',
                "model.json: n_samples 3.9 not an integer",
            ),
            (
                '{"a": 1, "b": 1, "c": 1, "rmse": 0, "n_samples": "7"}',
                "model.json: n_samples '7' not an integer",
            ),
        ],
        ids=["malformed", "nan", "inf", "a_str", "a_bool", "n_samples_float", "n_samples_str"],
    )
    def test_bad_model_file_fails_cleanly(self, tmp_path, capsys, text, needle):
        model = tmp_path / "model.json"
        model.write_text(text)
        result = run(
            capsys, "plan", "--scenario", "random", "--model", str(model),
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert_fails_cleanly(result, "plan", needle)

    @pytest.mark.parametrize(
        "section,key,value,needle",
        [
            ("pipeline", "live_speed", "no", "live_speed 'no' not a bool"),
            ("planner", "n_partitions", 3.0, "n_partitions 3.0 not an integer"),
            ("planner", "edge_box_px", 90.5, "edge_box_px 90.5 not an integer"),
            ("pipeline", "max_misses", 1.5, "max_misses 1.5 not an integer"),
            ("geometry", "walk_speed_mps", True, "walk_speed_mps True not a real number"),
        ],
        ids=[
            "pipeline-live_speed-no",
            "planner-n_partitions-3.0",
            "planner-edge_box_px-90.5",
            "pipeline-max_misses-1.5",
            "geometry-walk_speed_mps-True",
        ],
    )
    def test_mistyped_config_fails_cleanly(self, tmp_path, capsys, section, key, value, needle):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {key: value}}))
        result = run(
            capsys, "plan", "--scenario", "random", "--config", str(config),
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert_fails_cleanly(result, "plan", f"bad config file {config}: bad '{section}' section: {needle}")

    def test_zero_safety_distance_config_fails_before_any_trace(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"geometry": {"walk_speed_mps": 0}}))
        out = tmp_path / "t.jsonl"
        result = run(
            capsys, "plan", "--scenario", "random", "--config", str(config),
            "--out", str(out),
        )
        assert_fails_cleanly(result, "plan", f"bad config file {config}: geometry.walk_speed_mps")
        assert not out.exists()

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "plan", "--frames", str(tmp_path / "nope"),
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == 1
        assert "plan:" in err


class TestRoute:
    def test_prints_route_json(self, capsys, campus_graph_path):
        code, stdout, _ = run(
            capsys, "route", "--graph", campus_graph_path, "--src", "A", "--dst", "L"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload == {
            "nodes": ["A", "B", "C", "D", "H", "L"],
            "total_cost": 500.0,
        }

    def test_block_changes_route(self, capsys, campus_graph_path):
        code, stdout, _ = run(
            capsys, "route", "--graph", campus_graph_path,
            "--src", "A", "--dst", "L", "--block", "D,H",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["nodes"] == ["A", "B", "C", "G", "H", "L"]
        assert payload["total_cost"] == 500.0

    def test_bad_block_spec(self, capsys, campus_graph_path):
        code, _, err = run(
            capsys, "route", "--graph", campus_graph_path,
            "--src", "A", "--dst", "L", "--block", "DH",
        )
        assert code == 2
        assert "expected U,V" in err

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('{"nodes": [', "graph.json: malformed JSON"),
            ('{"nodes": [{"id": "A", "pos": [1, "x"]}], "edges": []}', "node 'A': pos 'x' not a real number"),
            (
                '{"nodes": [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}],'
                ' "edges": [{"u": ["A"], "v": "B", "w": 1}]}',
                "u and v must be node id strings",
            ),
            (
                '{"nodes": [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}],'
                ' "edges": [{"u": "A", "v": "B", "w": true}]}',
                "edge (A,B) weight True not a real number",
            ),
            (
                '{"nodes": [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1%s, 0]}],'
                ' "edges": [{"u": "A", "v": "B", "w": 1}]}' % ("0" * 400),
                "node 'B': pos beyond float range",
            ),
            (
                '{"nodes": [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}],'
                ' "edges": [{"u": "A", "v": "B", "w": 1%s}]}' % ("0" * 400),
                "edge (A,B) weight beyond float range",
            ),
            ('{"nodes": [%s]}' % LONG_INT, "graph.json: malformed JSON: "),
            (DEEP_NESTING, "graph.json: malformed JSON: "),
        ],
        ids=[
            "malformed", "pos", "u", "w", "pos_beyond_float", "w_beyond_float",
            "long_int", "deep_nesting",
        ],
    )
    def test_bad_graph_file_fails_cleanly(self, tmp_path, capsys, text, needle):
        graph = tmp_path / "graph.json"
        graph.write_text(text)
        result = run(capsys, "route", "--graph", str(graph), "--src", "A", "--dst", "B")
        assert_fails_cleanly(result, "route", needle)
        assert str(graph) in result[2]

    def test_graph_refusal_names_the_file(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text('{"nodes": [{"id": "A", "pos": [1, "x"]}], "edges": []}')
        code, _, err = run(capsys, "route", "--graph", str(graph), "--src", "A", "--dst", "B")
        assert (code, err) == (1, f"route: bad graph file {graph}: node 'A': pos 'x' not a real number\n")

    def test_unknown_node_exits_one(self, capsys, campus_graph_path):
        code, _, err = run(
            capsys, "route", "--graph", campus_graph_path, "--src", "A", "--dst", "Z"
        )
        assert code == 1
        assert "route:" in err


class TestCalibrate:
    def test_fit_exact_curve(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        revs = np.linspace(0.05, 0.95, 12)
        samples = [
            CalibrationSample(rev=float(r), distance=float(2.0 * r * r - 3.0 * r + 4.0))
            for r in revs
        ]
        save_samples_csv(csv_path, samples)
        model_path = tmp_path / "model.json"
        code, stdout, _ = run(
            capsys, "calibrate", "--samples", str(csv_path), "--out", str(model_path)
        )
        assert code == 0
        assert "fit 12 samples" in stdout
        model = load_model(model_path)
        assert model.a == pytest.approx(2.0, abs=1e-9)
        assert model.b == pytest.approx(-3.0, abs=1e-9)
        assert model.c == pytest.approx(4.0, abs=1e-9)
        assert model.rmse == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "raw,needle",
        [
            (b"rev,distance_m\n0.1,1.0\n0.5,nan\n0.9,3.0\n", "distance nan not finite"),
            (b"rev,distance_m\n0.1,1.0\n0.5,inf\n0.9,3.0\n", "distance inf not finite"),
            (b"rev,distance_m\n0.1,1.0\xff\n", "can't decode byte 0xff"),
        ],
        ids=["nan", "inf", "not_ascii"],
    )
    def test_bad_samples_fail_cleanly(self, tmp_path, capsys, raw, needle):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_bytes(raw)
        result = run(
            capsys, "calibrate", "--samples", str(csv_path),
            "--out", str(tmp_path / "m.json"),
        )
        assert_fails_cleanly(result, "calibrate", needle)
        assert not (tmp_path / "m.json").exists()

    def test_spaced_header(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("rev, distance_m\n0.1,3.8\n0.5,3.0\n0.9,2.9\n")
        code, stdout, _ = run(
            capsys, "calibrate", "--samples", str(csv_path),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 0
        assert "fit 3 samples" in stdout

    def test_missing_csv(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "calibrate", "--samples", str(tmp_path / "none.csv"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "calibrate:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan"])  # neither --frames nor --scenario
    assert exc.value.code == 2


def test_module_entry_point_prints_usage():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "vipguide.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: vipguide")
