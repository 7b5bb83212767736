import hashlib
import math
import os
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from vipguide import scenario
from vipguide.calibration import fit, predict, region_rev
from vipguide.errors import ConsistencyError, FrameDecodeError
from vipguide.frameio import read_dataset
from vipguide.geometry import GeometricConfig
from vipguide.perception import REV_MAX, rle_decode, rle_encode
from vipguide.scenario import (
    CALIBRATION_Z,
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
)

CAM = Camera()


def z_from_rev(rev: float) -> float:
    """Inverse of :func:`rev_from_z` on [Z_NEAR, Z_FAR]; the oracle for it."""
    return Z_FAR - (Z_FAR - Z_NEAR) * rev * rev


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


class TestCameraIntrinsics:
    def test_cached_values_equal_the_formulas(self):
        cam = Camera(width=320, height=240, hfov_deg=70.0, vfov_deg=55.0)
        for _ in range(2):  # the first read computes, the second reads the cache
            assert cam.fx == 160.0 / math.tan(math.radians(70.0) / 2.0)
            assert cam.fy == 120.0 / math.tan(math.radians(55.0) / 2.0)
            assert (cam.cx, cam.cy) == (160.0, 120.0)

    def test_replaced_camera_computes_its_own(self):
        cam = Camera(width=320, height=240, hfov_deg=70.0, vfov_deg=55.0)
        fx, cx = cam.fx, cam.cx  # cached on the original
        wide = replace(cam, hfov_deg=100.0, width=400)
        assert wide.fx == 200.0 / math.tan(math.radians(100.0) / 2.0)
        assert wide.cx == 200.0
        assert wide.fy == cam.fy
        assert (cam.fx, cam.cx) == (fx, cx)

    def test_cache_leaves_equality_alone(self):
        cam = Camera(width=320, height=240, hfov_deg=70.0, vfov_deg=55.0)
        fresh = Camera(width=320, height=240, hfov_deg=70.0, vfov_deg=55.0)
        assert cam.fy > 0  # cached on one of the two
        assert cam == fresh and hash(cam) == hash(fresh)

    def test_defaults_are_the_planners(self):
        geo = GeometricConfig()
        assert (CAM.hfov_deg, CAM.vfov_deg) == (geo.hfov_deg, geo.f_deg)
        assert (scenario.WALK_SPEED, VIP_SIZE[1]) == (geo.walk_speed, geo.h_vip)

    # before these checks, a zero fov raised ZeroDivisionError and a NaN
    # height ValueError from project_bbox; the rest projected nothing or
    # took a fractional pixel count without a word
    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", 0),
            ("width", 640.5),
            ("width", np.int64(640)),
            ("height", -480),
            ("height", True),
            ("hfov_deg", 0),
            ("hfov_deg", 180),
            ("hfov_deg", math.nan),
            ("vfov_deg", 0.0),
            ("vfov_deg", 200.0),
            ("ground_height", math.nan),
            ("ground_height", math.inf),
            ("ground_height", 0.0),
            ("ground_height", -2.2),
        ],
    )
    def test_bad_fields_rejected(self, field, value):
        with pytest.raises(ConsistencyError, match=rf"^camera {field} "):
            Camera(**{field: value})


def vectorised_ground_rows(cam: Camera) -> np.ndarray:
    """`ground_rev_rows` as it was before it went through `rev_from_z`: the
    depth law's clamps and square root written out in numpy."""
    rows = np.arange(cam.height, dtype=np.float64) + 0.5 - cam.cy
    rev = np.zeros(cam.height, dtype=np.float64)
    visible = rows > 0
    z = np.full(cam.height, np.inf)
    z[visible] = cam.fy * cam.ground_height / rows[visible]
    in_range = visible & (z < Z_FAR)
    rev[in_range] = np.sqrt((Z_FAR - np.minimum(z[in_range], Z_FAR)) / (Z_FAR - Z_NEAR))
    rev[visible & (z <= Z_NEAR)] = 1.0
    return np.floor(65535.0 * GROUND_ATTENUATION * rev + 0.5).astype(np.uint16)


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

    # cameras the golden files do not cover: a smaller frame with narrower
    # fov, a low camera, a middle row exactly at the horizon, and one whose
    # nearest rows lie within Z_NEAR
    @pytest.mark.parametrize(
        "cam",
        [
            CAM,
            Camera(width=320, height=240, hfov_deg=70.0, vfov_deg=55.0),
            Camera(ground_height=0.5),
            Camera(height=4801),
            Camera(width=64, height=48, vfov_deg=120.0, ground_height=0.3),
        ],
    )
    def test_ground_rows_match_vectorised_law(self, cam):
        expected = vectorised_ground_rows(cam)
        rows = ground_rev_rows(cam)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)

    def test_ground_rows_cover_horizon_and_near_clamp(self):
        horizon = Camera(height=4801)
        assert np.arange(horizon.height)[2400] + 0.5 - horizon.cy == 0.0
        assert ground_rev_rows(horizon)[2400] == 0  # the horizon row is not visible
        low = Camera(width=64, height=48, vfov_deg=120.0, ground_height=0.3)
        assert low.fy * low.ground_height / (low.height - 0.5 - low.cy) <= Z_NEAR
        assert ground_rev_rows(low)[-1] == math.floor(REV_MAX * GROUND_ATTENUATION + 0.5)

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


def assert_detections_match_owner_grid(objects, cam):
    """scenario._render against render_scene's owner grid, the oracle."""
    ground = np.tile(ground_rev_rows(cam)[:, None], (1, cam.width))
    before = ground.copy()
    frame = scenario._render(objects, cam, ground, 0, 0.0)
    detections, vip_mask, instance_masks = frame.detections, frame.vip_mask, frame.instance_masks
    depth, owner = render_scene(objects, cam)
    assert np.array_equal(ground, before)
    assert np.array_equal(frame.depth.values, depth.values)
    expected = [
        i
        for i, o in enumerate(objects)
        if (o.labeled or o.kind == "vip") and (owner == i).any()
    ]
    assert [d.track_id for d in detections] == expected
    for det in detections:
        obj = objects[det.track_id]
        assert det.class_label == obj.kind
        assert det.confidence == CONFIDENCE.get(obj.kind, 0.8)
        assert det.bbox == project_bbox(obj, cam)
        mask = vip_mask if obj.kind == "vip" else instance_masks[det.track_id]
        assert mask == rle_encode(owner == det.track_id)
    vips = [d.track_id for d in detections if d.class_label == "vip"]
    assert (vip_mask is None) == (not vips)
    assert sorted(instance_masks) == [d.track_id for d in detections if d.class_label != "vip"]
    return detections


class TestVisibleWindows:
    def test_random_scenes(self):
        rng = np.random.default_rng(17)
        kinds = ["vip", "person", "car", "tree", "wall"]
        for n in range(300):
            cam = CAM if n % 10 == 0 else Camera(width=64, height=48)
            # at most one VIP, anywhere in the list, as a frame allows
            objects = [
                SceneObject(
                    kinds[int(rng.integers(0, len(kinds)))],
                    x=float(rng.uniform(-3, 3)),
                    # few distinct depths, so equal-z ties are common
                    z=float(rng.choice([1.5, 2.0, 3.0, 4.5, 8.0])),
                    width=float(rng.uniform(0.3, 3)),
                    height=float(rng.uniform(0.3, 3)),
                    elevation=float(rng.uniform(0, 2.5)),
                    labeled=bool(rng.random() < 0.7),
                )
                for _ in range(int(rng.integers(0, 7)))
            ]
            vips = [i for i, o in enumerate(objects) if o.kind == "vip"]
            objects = [o for i, o in enumerate(objects) if o.kind != "vip" or i == vips[0]]
            assert_detections_match_owner_grid(objects, cam)

    def test_equal_z_later_index_wins(self):
        objects = [
            SceneObject("person", x=-0.3, z=4.0, width=1.0, height=2.0),
            SceneObject("car", x=0.3, z=4.0, width=1.0, height=2.0),
            SceneObject("wall", x=0.0, z=4.0, width=0.2, height=3.0),
        ]
        dets = assert_detections_match_owner_grid(objects, CAM)
        assert [d.track_id for d in dets] == [0, 1, 2]
        # columns: person 256-336, car 304-384, wall 312-328; rows 252-372
        _, owner = render_scene(objects, CAM)
        assert owner[300, 290] == 0 and owner[300, 306] == 1 and owner[300, 320] == 2

    def test_fully_hidden_object_gets_no_detection(self):
        objects = [
            SceneObject("vip", x=0.0, z=VIP_Z, width=VIP_SIZE[0], height=VIP_SIZE[1]),
            SceneObject("person", x=0.1, z=6.0, width=0.6, height=1.75),
            SceneObject("wall", x=0.0, z=5.0, width=3.0, height=3.0),
        ]
        dets = assert_detections_match_owner_grid(objects, CAM)
        assert [d.track_id for d in dets] == [0, 2]

    def test_objects_clipped_at_each_frame_edge(self):
        objects = [
            SceneObject("car", x=-2.6, z=2.5, width=2.0, height=1.5),  # left
            SceneObject("car", x=2.6, z=2.5, width=2.0, height=1.5),  # right
            SceneObject("wall", x=0.0, z=2.0, width=1.0, height=1.0, elevation=3.5),  # top
            SceneObject("person", x=0.2, z=1.2, width=0.6, height=1.75),  # bottom
            SceneObject("person", x=-2.3, z=2.2, width=0.6, height=5.0),  # left, top, bottom
        ]
        dets = assert_detections_match_owner_grid(objects, CAM)
        boxes = [d.bbox for d in dets]
        assert min(b.x1 for b in boxes) == 0 and max(b.x2 for b in boxes) == CAM.width
        assert min(b.y1 for b in boxes) == 0 and max(b.y2 for b in boxes) == CAM.height

    def test_off_frame_object(self):
        objects = [
            SceneObject("car", x=30.0, z=2.0, width=2.0, height=1.5),
            SceneObject("person", x=0.0, z=4.0, width=0.6, height=1.75),
        ]
        dets = assert_detections_match_owner_grid(objects, CAM)
        assert [d.track_id for d in dets] == [1]

    def test_unlabeled_tree_occludes_person(self):
        objects = [
            SceneObject("person", x=0.0, z=5.0, width=0.6, height=1.75),
            SceneObject("tree", x=0.4, z=3.5, width=2.5, height=2.0, elevation=0.8, labeled=False),
        ]
        dets = assert_detections_match_owner_grid(objects, CAM)
        assert [d.track_id for d in dets] == [0]
        _, owner = render_scene(objects, CAM)
        bbox = dets[0].bbox
        assert 0 < (owner == 0).sum() < bbox.width * bbox.height


def test_default_road_mask_band():
    grid = rle_decode(default_road_mask(CAM))
    assert grid[240:, 128:512].all()
    assert grid.sum() == 240 * 384


def test_direction_name():
    assert direction_name(0) == "left"
    assert direction_name(1) == "center"
    assert direction_name(2) == "right"


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rev_jitter_sigma", -40.0),
            ("rev_jitter_sigma", math.nan),
            ("rev_jitter_sigma", math.inf),
        ],
    )
    def test_stream_numbers(self, field, value):
        with pytest.raises(ConsistencyError, match=field):
            ScenarioSpec(kind="random", seed=1, **{field: value})

    # a float seed or frame count used to construct and then raise a bare
    # TypeError from generate; True was taken as 1
    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "1"), ("n_frames", 2.5), ("n_frames", True)],
    )
    def test_stream_counts_exact_ints(self, field, value):
        with pytest.raises(ConsistencyError, match=rf"^{field} .* not an int$"):
            ScenarioSpec(kind="random", **{field: value})

    def test_numpy_counts_convert(self):
        spec = ScenarioSpec(kind="random", seed=np.int64(3), n_frames=np.int32(2))
        assert (type(spec.seed), type(spec.n_frames)) == (int, int)
        assert spec == ScenarioSpec(kind="random", seed=3, n_frames=2)

    def test_object_validation(self):
        with pytest.raises(ConsistencyError):
            SceneObject("wall", x=0, z=-1.0, width=1, height=1)
        with pytest.raises(ConsistencyError):
            SceneObject("wall", x=0, z=1.0, width=0, height=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "z", "width", "height", "elevation"])
    def test_object_numbers_finite(self, field, value):
        # NaN passes every sign check, and projecting it raised a bare ValueError
        numbers = {"x": 0.0, "z": 3.5, "width": 0.6, "height": 1.75, "elevation": 0.0}
        with pytest.raises(ConsistencyError, match=rf"^person {field} -?(nan|inf) not finite$"):
            SceneObject("person", **{**numbers, field: value})


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

    def test_random_worlds_keep_partition_clear_every_frame(self):
        # the generator checks each obstacle at its first depth and at the
        # freeze alone; every frame between must stay clear too, unlabeled
        # obstacles included
        bounds = [(0, 214), (214, 427), (427, 640)]
        unlabeled = 0
        for seed in range(1, 301):
            spec = ScenarioSpec(kind="random", seed=seed, n_frames=90)
            world = scenario._build_world(spec, np.random.default_rng(seed))
            lo, hi = bounds[world.expected_partition]
            for frame_id in range(spec.n_frames):
                vip, *obstacles = world.objects_at(frame_id / scenario.FPS)
                assert vip.kind == "vip"
                for obj in obstacles:
                    unlabeled += not obj.labeled
                    rect = scenario._pixel_rect(obj, CAM)
                    assert rect is None or rect[2] <= lo or rect[0] >= hi, (seed, frame_id)
        assert unlabeled > 0


@pytest.mark.parametrize("kind", scenario.SCENARIO_KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_objects_at_matches_replace_reference(kind, seed):
    spec = ScenarioSpec(kind=kind, seed=seed)
    world = scenario._build_world(spec, np.random.default_rng(seed))
    freeze_t = world.freeze_distance / scenario.WALK_SPEED
    times = [0.0, 1 / scenario.FPS, 0.5 * freeze_t, freeze_t, freeze_t + 0.1, 60.0]
    for t in (t for t in times if math.isfinite(t)):
        advance = min(scenario.WALK_SPEED * t, world.freeze_distance)
        reference = [world.vip] + [replace(o, z=VIP_Z + o.z - advance) for o in world.obstacles]
        assert world.objects_at(t) == reference, (kind, seed, t)


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

    def test_dataset_bytes_pinned(self, tmp_path):
        # every file written for one occluded random scene, named and hashed
        write_scenario(tmp_path, ScenarioSpec(kind="random", seed=5, n_frames=4))
        digest = hashlib.sha256()
        names = sorted(os.listdir(tmp_path))
        assert names == ["0.pgm", "1.pgm", "2.pgm", "3.pgm", "frames.jsonl", "ground_truth.jsonl"]
        for name in names:
            digest.update(name.encode("ascii") + b"\n")
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == (
            "4d17eabe5f73e36db99c603e0aa8916ca7e00a2e23dc9186d781504d69fa439e"
        )

    def test_frames_stream_to_disk(self, tmp_path, monkeypatch):
        # each frame is on disk before the next one is generated
        real = scenario.generate

        def watched(spec):
            frames = real(spec)
            for frame_id in range(spec.n_frames):
                if frame_id:
                    assert (tmp_path / f"{frame_id - 1}.pgm").exists()
                yield next(frames)

        monkeypatch.setattr(scenario, "generate", watched)
        assert write_scenario(tmp_path, ScenarioSpec(kind="crowded_street", seed=2, n_frames=5)) == 5
        assert (tmp_path / "4.pgm").exists()


class TestReadGroundTruth:
    GOOD = '{"frame_id":0,"expected_partition":1,"expected_direction":"center"}\n'

    def read(self, tmp_path, second_line):
        (tmp_path / "ground_truth.jsonl").write_text(self.GOOD + second_line, encoding="latin-1")
        return read_ground_truth(tmp_path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"frame_id":1,"expected_partition":1}', "field 'expected_direction': missing"),
            ('{"frame_id": 1,', "malformed JSON: .*"),
            ('[1, 1, "center"]', "expected a JSON object"),
            ('{"frame_id":1,"expected_partition":1,"expected_direction":"\xe9"}', "non-ASCII byte"),
            ('{"frame_id":"x","expected_partition":1,"expected_direction":"left"}',
             "field 'frame_id': expected int"),
            ('{"frame_id":1.0,"expected_partition":1,"expected_direction":"left"}',
             "field 'frame_id': expected int"),
            ('{"frame_id":1,"expected_partition":2.5,"expected_direction":"left"}',
             "field 'expected_partition': expected int"),
            ('{"frame_id":1,"expected_partition":true,"expected_direction":"left"}',
             "field 'expected_partition': expected int"),
            ('{"frame_id":1,"expected_partition":1,"expected_direction":7}',
             "field 'expected_direction': expected str"),
        ],
    )
    def test_bad_line_names_path_line_and_field(self, tmp_path, line, message):
        with pytest.raises(FrameDecodeError, match=rf"ground_truth\.jsonl:2: {message}$"):
            self.read(tmp_path, line)

    def test_good_lines_read(self, tmp_path):
        line = '{"frame_id":1,"expected_partition":0,"expected_direction":"left"}\n\n'
        assert self.read(tmp_path, line) == [
            GroundTruth(frame_id=0, expected_partition=1, expected_direction="center"),
            GroundTruth(frame_id=1, expected_partition=0, expected_direction="left"),
        ]


def traced_peak_mib(run) -> float:
    """Peak traced heap, in MiB, while `run()` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def drain(stream) -> None:
    """Iterate `stream`, keeping no item."""
    deque(stream, maxlen=0)


class TestBoundedMemory:
    # a 640x480 frame holds about 0.9 MiB; a stream that kept its frames
    # would pass this bound within five of them
    BOUND_MIB = 4.0

    def test_generate(self):
        drain(generate(ScenarioSpec("crowded_street", 3, n_frames=1)))  # fill caches first
        peaks = [
            traced_peak_mib(lambda n=n: drain(generate(ScenarioSpec("crowded_street", 3, n_frames=n))))
            for n in (40, 80)
        ]
        assert max(peaks) < self.BOUND_MIB
        assert peaks[1] < peaks[0] + 0.25  # twice the frames, no more memory

    def test_read_dataset(self, tmp_path):
        write_scenario(tmp_path, ScenarioSpec("crowded_street", 3, n_frames=40))
        assert traced_peak_mib(lambda: drain(read_dataset(tmp_path))) < self.BOUND_MIB

    def test_write_scenario(self, tmp_path):
        spec = ScenarioSpec("crowded_street", 3, n_frames=40)
        assert traced_peak_mib(lambda: write_scenario(tmp_path, spec)) < self.BOUND_MIB

    def test_calibration_frames(self):
        assert traced_peak_mib(lambda: drain(calibration_frames(CALIBRATION_Z))) < self.BOUND_MIB


class TestCalibrationFrames:
    def test_wall_rev_is_exact(self):
        for (frame, z) in calibration_frames([2.0, 5.0, 9.0]):
            det = frame.detections[0]
            rev = region_rev(frame, det)
            assert rev == rev16_from_z(z)

    def test_off_frame_wall_raises_when_reached(self):
        frames = calibration_frames([4.0, 0.01])
        assert next(frames)[1] == 4.0  # walls before the bad one still render
        with pytest.raises(ConsistencyError, match=r"^calibration wall at z=0\.01 projects off-frame$"):
            next(frames)

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
