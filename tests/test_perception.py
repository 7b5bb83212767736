import numpy as np
import pytest

from vipguide.errors import ConsistencyError
from vipguide.perception import (
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    gray8_to_rev,
    luma_convert,
    mask_from_bbox,
    rle_decode,
    rle_encode,
)

from conftest import det, make_frame


class TestBoundingBox:
    def test_dimensions(self):
        b = BoundingBox(10, 20, 30, 60)
        assert b.width == 20
        assert b.height == 40
        assert b.center_x == 20.0
        assert b.as_list() == [10, 20, 30, 60]

    @pytest.mark.parametrize("corners", [(5, 5, 5, 10), (5, 5, 10, 5), (10, 0, 5, 5)])
    def test_degenerate_rejected(self, corners):
        with pytest.raises(ConsistencyError):
            BoundingBox(*corners)

    def test_negative_rejected(self):
        with pytest.raises(ConsistencyError):
            BoundingBox(-1, 0, 5, 5)


class TestDetection:
    def test_confidence_bounds(self):
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, confidence=1.5)
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, confidence=-0.1)

    def test_negative_track_id_rejected(self):
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, track_id=-3)


class TestRle:
    def test_all_background(self):
        mask = rle_encode(np.zeros((2, 3), dtype=bool))
        assert mask.runs == (6,)

    def test_all_foreground(self):
        mask = rle_encode(np.ones((2, 3), dtype=bool))
        assert mask.runs == (0, 6)

    def test_checkerboard_2x2(self):
        # flat [0,1,1,0] -> bg 1, fg 2, bg 1
        grid = np.array([[False, True], [True, False]])
        mask = rle_encode(grid)
        assert mask.runs == (1, 2, 1)
        assert np.array_equal(rle_decode(mask), grid)

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            grid = rng.random((h, w)) < 0.4
            mask = rle_encode(grid)
            assert np.array_equal(rle_decode(mask), grid)
            assert sum(mask.runs) == h * w
            # canonical: no zero runs after the first
            assert all(r > 0 for r in mask.runs[1:])

    def test_runs_must_cover_grid(self):
        with pytest.raises(ConsistencyError):
            BitMask(width=3, height=2, runs=(5,))
        with pytest.raises(ConsistencyError):
            BitMask(width=3, height=2, runs=(4, -1, 3))

    def test_noncanonical_runs_still_decode(self):
        # interior zero runs are legal input, just never emitted
        mask = BitMask(width=4, height=1, runs=(1, 2, 0, 0, 1))
        assert rle_decode(mask).tolist() == [[False, True, True, False]]

    def test_row_span_decode_matches_full_decode(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            grid = rng.random((h, w)) < float(rng.choice([0.0, 0.05, 0.4, 1.0]))
            mask = rle_encode(grid)
            y0 = int(rng.integers(0, h + 1))
            y1 = int(rng.integers(y0, h + 1))
            assert np.array_equal(rle_decode(mask, rows=(y0, y1)), grid[y0:y1])
            assert np.array_equal(mask.decode(rows=(y0, y1)), grid[y0:y1])

    def test_row_span_outside_mask_rejected(self):
        mask = rle_encode(np.zeros((3, 2), dtype=bool))
        for rows in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(ConsistencyError):
                rle_decode(mask, rows=rows)

    def test_foreground_rows_match_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            grid = rng.random((h, w)) < float(rng.choice([0.0, 0.05, 0.4, 1.0]))
            ys = np.flatnonzero(grid.any(axis=1))
            want = (int(ys[0]), int(ys[-1]) + 1) if ys.size else (0, 0)
            assert rle_encode(grid).foreground_rows() == want

    def test_foreground_rows_skip_zero_runs(self):
        # fg pixels at flat 5 and 6 of a 4x3 grid, padded with empty runs
        mask = BitMask(width=3, height=4, runs=(2, 0, 3, 2, 0, 0, 5, 0))
        assert mask.foreground_rows() == (1, 3)
        assert BitMask(width=3, height=2, runs=(2, 0, 4)).foreground_rows() == (0, 0)


class TestDepthMap:
    def test_reshape_and_readonly(self):
        d = DepthMap(width=3, height=2, values=np.arange(6))
        assert d.values.shape == (2, 3)
        with pytest.raises(ValueError):
            d.values[0, 0] = 1

    def test_size_mismatch(self):
        with pytest.raises(ConsistencyError):
            DepthMap(width=3, height=2, values=np.arange(5))

    def test_range_check(self):
        with pytest.raises(ConsistencyError):
            DepthMap(width=2, height=1, values=np.array([0, 70000]))


class TestPerceptionFrame:
    def test_dim_consistency(self):
        with pytest.raises(ConsistencyError):
            PerceptionFrame(
                frame_id=0,
                timestamp=0.0,
                width=4,
                height=4,
                depth=DepthMap(width=3, height=3, values=np.zeros((3, 3))),
            )

    def test_single_vip(self):
        with pytest.raises(ConsistencyError):
            make_frame(
                np.zeros((8, 8)),
                detections=[det("vip", 0, 0, 2, 2), det("vip", 3, 3, 5, 5)],
            )

    def test_bbox_inside_frame(self):
        with pytest.raises(ConsistencyError):
            make_frame(np.zeros((8, 8)), detections=[det("car", 0, 0, 9, 4)])

    def test_vip_lookup(self):
        frame = make_frame(
            np.zeros((8, 8)),
            detections=[det("car", 0, 0, 2, 2), det("vip", 3, 3, 5, 5)],
        )
        assert frame.vip_detection.class_label == "vip"
        assert make_frame(np.zeros((4, 4))).vip_detection is None


def test_mask_from_bbox_clips():
    grid = mask_from_bbox(BoundingBox(2, 1, 10, 9), width=6, height=4)
    assert grid.shape == (4, 6)
    assert grid[1:, 2:].all()
    assert not grid[0].any() and not grid[:, :2].any()


class TestLuma:
    def test_bt601_weights(self):
        # pure channels: floor(w*255 + 0.5)
        assert luma_convert([255, 0, 0])[0] == 76
        assert luma_convert([0, 255, 0])[0] == 150
        assert luma_convert([0, 0, 255])[0] == 29

    def test_white_and_black(self):
        assert luma_convert([255, 255, 255])[0] == 255
        assert luma_convert([0, 0, 0])[0] == 0

    def test_rounding_half_up(self):
        # 0.299*1 + 0.587*0 + 0.114*2 = 0.527 -> 1
        assert luma_convert([1, 0, 2])[0] == 1

    def test_image_shape(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[0, 0] = (255, 255, 255)
        out = luma_convert(img)
        assert out.shape == (2, 2)
        assert out[0, 0] == 255 and out[1, 1] == 0

    def test_bad_length(self):
        with pytest.raises(ConsistencyError):
            luma_convert([1, 2, 3, 4])


def test_gray8_to_rev_scales_to_full_range():
    out = gray8_to_rev(np.array([0, 1, 128, 255], dtype=np.uint8))
    assert out.tolist() == [0, 257, 32896, 65535]
    assert out.dtype == np.uint16
