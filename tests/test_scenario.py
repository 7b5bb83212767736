import math

import numpy as np
import pytest

from vipguide.calibration import fit, predict, region_rev
from vipguide.errors import ConsistencyError
from vipguide.perception import rle_decode
from vipguide.scenario import (
    CONFIDENCE,
    FREEZE_GAP,
    GROUND_ATTENUATION,
    VIP_SIZE,
    VIP_Z,
    Z_FAR,
    Z_NEAR,
    Camera,
    GroundTruth,
    SceneObject,
    ScenarioSpec,
    calibration_frames,
    default_road_mask,
    direction_name,
    generate,
    ground_rev_rows,
    project_bbox,
    read_ground_truth,
    render_scene,
    rev16_from_z,
    rev_from_z,
    write_scenario,
    z_from_rev,
)

CAM = Camera()


class TestRevLaw:
    def test_endpoints(self):
        assert rev_from_z(Z_NEAR) == 1.0
        assert rev_from_z(Z_FAR) == 0.0
        assert rev16_from_z(Z_NEAR) == 65535
        assert rev16_from_z(Z_FAR) == 0

    def test_clamping(self):
        assert rev_from_z(0.2) == 1.0
        assert rev_from_z(900.0) == 0.0

    def test_round_trip(self):
        for z in np.linspace(Z_NEAR, Z_FAR, 400):
            assert z_from_rev(rev_from_z(float(z))) == pytest.approx(float(z), abs=1e-9)

    def test_monotone_decreasing(self):
        zs = np.linspace(Z_NEAR, Z_FAR, 300)
        revs = [rev_from_z(float(z)) for z in zs]
        assert all(a >= b for a, b in zip(revs, revs[1:]))

    def test_nearer_is_brighter(self):
        assert rev16_from_z(2.0) > rev16_from_z(10.0) > rev16_from_z(45.0)


class TestProjection:
    def test_hand_computed_rect(self):
        # fx=320, fy~240: object 1x2 m centered, 4 m out, on the ground
        obj = SceneObject("wall", x=0.0, z=4.0, width=1.0, height=2.0)
        bbox = project_bbox(obj, CAM)
        assert bbox.as_list() == [280, 252, 360, 372]

    def test_lateral_shift(self):
        left = project_bbox(SceneObject("wall", x=-1.0, z=4.0, width=1.0, height=2.0), CAM)
        right = project_bbox(SceneObject("wall", x=1.0, z=4.0, width=1.0, height=2.0), CAM)
        assert left.x1 == 280 - 80 and right.x1 == 280 + 80
        assert left.width == right.width

    def test_width_halves_with_doubled_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = float(rng.uniform(0.3, 2.0))
            z = float(rng.uniform(2.0, 10.0))
            near = project_bbox(SceneObject("wall", x=0.0, z=z, width=w, height=1.0), CAM)
            far = project_bbox(SceneObject("wall", x=0.0, z=2 * z, width=w, height=1.0), CAM)
            assert abs(far.width - near.width / 2) <= 1

    def test_pinhole_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            obj = SceneObject(
                "wall",
                x=float(rng.uniform(-2, 2)),
                z=float(rng.uniform(1.5, 20)),
                width=float(rng.uniform(0.3, 3)),
                height=float(rng.uniform(0.3, 3)),
                elevation=float(rng.uniform(0, 2)),
            )
            bbox = project_bbox(obj, CAM)
            u_lo = CAM.cx + CAM.fx * (obj.x - obj.width / 2) / obj.z
            u_hi = CAM.cx + CAM.fx * (obj.x + obj.width / 2) / obj.z
            v_hi = CAM.cy + CAM.fy * (CAM.ground_height - obj.elevation) / obj.z
            v_lo = CAM.cy + CAM.fy * (CAM.ground_height - obj.elevation - obj.height) / obj.z
            x1 = max(0, math.floor(u_lo + 0.5))
            x2 = min(CAM.width, math.floor(u_hi + 0.5))
            y1 = max(0, math.floor(v_lo + 0.5))
            y2 = min(CAM.height, math.floor(v_hi + 0.5))
            if x1 >= x2 or y1 >= y2:
                assert bbox is None
            else:
                assert bbox.as_list() == [x1, y1, x2, y2]

    def test_off_frame(self):
        assert project_bbox(SceneObject("wall", x=30.0, z=2.0, width=1.0, height=1.0), CAM) is None

    def test_high_overhead_object_misses_frame_nearby(self):
        # canopy bottom 0.8 m above the camera: exits the 45-degree up-cone
        # once the forward distance drops below 0.8 m
        tree = SceneObject("tree", x=0.0, z=0.7, width=3.0, height=2.0, elevation=3.0)
        assert project_bbox(tree, CAM) is None
        assert project_bbox(SceneObject("tree", x=0.0, z=1.2, width=3.0, height=2.0, elevation=3.0), CAM) is not None


class TestRender:
    def test_empty_scene_is_ground_gradient(self):
        depth, owner = render_scene([], CAM)
        expected = np.tile(ground_rev_rows(CAM)[:, None], (1, CAM.width))
        assert np.array_equal(depth.values, expected)
        assert (owner == -1).all()

    def test_ground_rows_shape(self):
        rows = ground_rev_rows(CAM)
        assert rows.shape == (480,)
        assert (rows[:240] == 0).all()  # above horizon
        assert rows[479] >= rows[241]  # nearer rows read closer

    def test_attenuation_scales_background(self):
        row = 400
        dv = row + 0.5 - CAM.cy
        z = CAM.fy * CAM.ground_height / dv
        expected = math.floor(65535.0 * GROUND_ATTENUATION * rev_from_z(z) + 0.5)
        assert ground_rev_rows(CAM)[row] == expected

    def test_single_object_pixels(self):
        obj = SceneObject("wall", x=0.0, z=4.0, width=1.0, height=2.0)
        depth, owner = render_scene([obj], CAM)
        assert (owner[252:372, 280:360] == 0).all()
        assert (depth.values[252:372, 280:360] == rev16_from_z(4.0)).all()
        assert owner[0, 0] == -1

    def test_painter_oracle(self):
        rng = np.random.default_rng(11)
        cam = Camera(width=64, height=48)
        for _ in range(25):
            objects = [
                SceneObject(
                    "wall",
                    x=float(rng.uniform(-2, 2)),
                    z=float(rng.uniform(1.5, 12)),
                    width=float(rng.uniform(0.5, 3)),
                    height=float(rng.uniform(0.5, 3)),
                    elevation=float(rng.uniform(0, 1)),
                )
                for _ in range(int(rng.integers(1, 6)))
            ]
            depth, owner = render_scene(objects, cam)
            ground = ground_rev_rows(cam)
            rects = [
                (i, r)
                for i, o in enumerate(objects)
                for r in [project_bbox(o, cam)]
                if r is not None
            ]
            for y in range(cam.height):
                for x in range(cam.width):
                    covering = [
                        i for i, r in rects if r.x1 <= x < r.x2 and r.y1 <= y < r.y2
                    ]
                    if not covering:
                        assert owner[y, x] == -1
                        assert depth.values[y, x] == ground[y]
                    else:
                        nearest = min(covering, key=lambda i: objects[i].z)
                        assert owner[y, x] == nearest
                        assert depth.values[y, x] == rev16_from_z(objects[nearest].z)


def test_default_road_mask_band():
    grid = rle_decode(default_road_mask(CAM))
    assert grid[240:, 128:512].all()
    assert grid.sum() == 240 * 384


def test_direction_name():
    assert direction_name(0) == "left"
    assert direction_name(1) == "center"
    assert direction_name(2) == "right"
    assert direction_name(3, n_partitions=7) == "center"


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConsistencyError, match="unknown scenario"):
            ScenarioSpec(kind="airport", seed=1)

    def test_n_frames(self):
        with pytest.raises(ConsistencyError):
            ScenarioSpec(kind="random", seed=1, n_frames=0)

    def test_negative_seed(self):
        with pytest.raises(ConsistencyError, match="seed -1 < 0"):
            ScenarioSpec(kind="random", seed=-1)

    def test_object_validation(self):
        with pytest.raises(ConsistencyError):
            SceneObject("wall", x=0, z=-1.0, width=1, height=1)
        with pytest.raises(ConsistencyError):
            SceneObject("wall", x=0, z=1.0, width=0, height=1)


class TestGenerate:
    def frames(self, kind, seed=1, **kw):
        return list(generate(ScenarioSpec(kind=kind, seed=seed, **kw)))

    def test_stream_shape(self):
        pairs = self.frames("parked_vehicles", n_frames=8)
        assert len(pairs) == 8
        assert [f.frame_id for f, _ in pairs] == list(range(8))
        for frame, truth in pairs:
            assert frame.frame_id == truth.frame_id
            assert truth.expected_direction == direction_name(truth.expected_partition)

    def test_vip_always_present(self):
        for kind in ("footpath_tree", "parked_vehicles", "crowded_street"):
            for frame, _ in self.frames(kind, n_frames=5):
                vip = frame.vip_detection
                assert vip is not None and vip.confidence == CONFIDENCE["vip"]
                assert frame.vip_mask is not None

    def test_vip_depth_constant(self):
        # the escort keeps station: every VIP pixel reads z = VIP_Z
        for frame, _ in self.frames("crowded_street", n_frames=6):
            grid = rle_decode(frame.vip_mask)
            assert (frame.depth.values[grid] == rev16_from_z(VIP_Z)).all()

    def test_instance_masks_match_objects(self):
        for frame, _ in self.frames("parked_vehicles", n_frames=4):
            assert len(frame.instance_masks) == 2
            for d in frame.detections:
                if d.class_label == "vip":
                    continue
                grid = rle_decode(frame.instance_masks[d.track_id])
                assert grid.any()
                ys, xs = np.nonzero(grid)
                assert xs.min() >= d.bbox.x1 and xs.max() < d.bbox.x2
                assert ys.min() >= d.bbox.y1 and ys.max() < d.bbox.y2

    def test_masks_disjoint(self):
        for frame, _ in self.frames("crowded_street", n_frames=4):
            total = np.zeros((frame.height, frame.width), dtype=int)
            total += rle_decode(frame.vip_mask)
            for mask in frame.instance_masks.values():
                total += rle_decode(mask)
            assert total.max() <= 1

    def test_unlabeled_tree_yields_no_detection(self):
        for frame, _ in self.frames("footpath_tree", n_frames=5):
            labels = {d.class_label for d in frame.detections}
            assert labels == {"vip"}

    def test_scene_freezes_before_collision(self):
        # tree starts 1.5 m past the VIP; the walk must stop FREEZE_GAP short
        pairs = self.frames("footpath_tree", n_frames=60)
        last, prev = pairs[-1][0], pairs[-2][0]
        assert np.array_equal(last.depth.values, prev.depth.values)
        # initial gap 1.5 closes to FREEZE_GAP; the canopy holds there
        frozen = rev16_from_z(VIP_Z + FREEZE_GAP)
        assert (last.depth.values == frozen).any()
        assert not (last.depth.values > rev16_from_z(VIP_Z)).any()

    def test_determinism(self):
        for kind in ("footpath_tree", "random"):
            a = self.frames(kind, seed=9, n_frames=6)
            b = self.frames(kind, seed=9, n_frames=6)
            assert all(fa == fb and ta == tb for (fa, ta), (fb, tb) in zip(a, b))

    def test_seed_changes_stream(self):
        a = self.frames("random", seed=1, n_frames=3)
        b = self.frames("random", seed=2, n_frames=3)
        assert any(fa != fb for (fa, _), (fb, _) in zip(a, b))

    def test_jitter_noise_applied_deterministically(self):
        clean = self.frames("parked_vehicles", seed=4, n_frames=3)
        noisy1 = self.frames("parked_vehicles", seed=4, n_frames=3, rev_jitter_sigma=40.0)
        noisy2 = self.frames("parked_vehicles", seed=4, n_frames=3, rev_jitter_sigma=40.0)
        assert any(
            not np.array_equal(c[0].depth.values, n[0].depth.values)
            for c, n in zip(clean, noisy1)
        )
        assert all(
            np.array_equal(x[0].depth.values, y[0].depth.values)
            for x, y in zip(noisy1, noisy2)
        )


def partition_mean_excluding_vip(frame, x_lo, x_hi):
    keep = ~rle_decode(frame.vip_mask)
    block = frame.depth.values[:, x_lo:x_hi][keep[:, x_lo:x_hi]]
    return float(block.astype(np.int64).sum()) / block.size


class TestGroundTruthSoundness:
    @pytest.mark.parametrize("kind", ["footpath_tree", "parked_vehicles", "crowded_street"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_expected_partition_reads_emptiest(self, kind, seed):
        # independent check: the labeled partition must carry the least
        # depth evidence, recomputed here with plain numpy
        bounds = [(0, 214), (214, 427), (427, 640)]
        for frame, truth in generate(ScenarioSpec(kind=kind, seed=seed, n_frames=10)):
            means = [partition_mean_excluding_vip(frame, lo, hi) for lo, hi in bounds]
            assert int(np.argmin(means)) == truth.expected_partition

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_scenario_keeps_partition_clear(self, seed):
        bounds = [(0, 214), (214, 427), (427, 640)]
        for frame, truth in generate(ScenarioSpec(kind="random", seed=seed, n_frames=10)):
            lo, hi = bounds[truth.expected_partition]
            for d in frame.detections:
                if d.class_label == "vip":
                    continue
                assert d.bbox.x2 <= lo or d.bbox.x1 >= hi


class TestScenarioFiles:
    def test_write_read_round_trip(self, tmp_path):
        spec = ScenarioSpec(kind="parked_vehicles", seed=7, n_frames=4)
        count = write_scenario(tmp_path, spec)
        assert count == 4
        truths = read_ground_truth(tmp_path)
        assert truths == [t for _, t in generate(spec)]
        assert (tmp_path / "frames.jsonl").exists()
        assert (tmp_path / "0.pgm").exists() and (tmp_path / "3.pgm").exists()

    def test_byte_identical_reruns(self, tmp_path):
        spec = ScenarioSpec(kind="random", seed=13, n_frames=3)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_scenario(a, spec)
        write_scenario(b, spec)
        for name in ("frames.jsonl", "ground_truth.jsonl", "0.pgm", "2.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCalibrationFrames:
    def test_wall_rev_is_exact(self):
        for (frame, z) in calibration_frames([2.0, 5.0, 9.0]):
            det = frame.detections[0]
            rev = region_rev(frame, det)
            assert rev == rev16_from_z(z)

    def test_centered_bbox(self):
        (frame, _), = calibration_frames([4.0])
        bbox = frame.detections[0].bbox
        assert bbox.x1 + bbox.x2 == 640

    def test_fit_recovers_depth_law(self):
        samples = []
        for frame, z in calibration_frames(np.arange(1.0, 10.5, 0.5)):
            det = frame.detections[0]
            rev = region_rev(frame, det)
            samples.append((rev / 65535.0, z))
        from vipguide.calibration import CalibrationSample

        model = fit([CalibrationSample(rev=r, distance=d) for r, d in samples])
        # z = 50 - 49 rev^2, so the quadratic fit should be near-perfect
        assert model.a == pytest.approx(-(Z_FAR - Z_NEAR), abs=0.2)
        assert model.c == pytest.approx(Z_FAR, abs=0.2)
        assert model.rmse < 0.01
        for z in (1.5, 3.25, 7.75):
            assert predict(model, rev_from_z(z)) == pytest.approx(z, abs=0.05)
