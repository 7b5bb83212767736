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
    rle_encode_window,
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


def reference_runs(grid) -> tuple[int, ...]:
    """Canonical runs of a grid, one pixel at a time."""
    runs, current, length = [], False, 0
    for px in np.asarray(grid, dtype=bool).ravel().tolist():
        if px == current:
            length += 1
        else:
            runs.append(length)
            current, length = px, 1
    runs.append(length)
    return tuple(runs)


class TestRleEncodeWindow:
    @staticmethod
    def check(window, x, y, width, height):
        window = np.asarray(window, dtype=bool)
        grid = np.zeros((height, width), dtype=bool)
        grid[y : y + window.shape[0], x : x + window.shape[1]] = window
        mask = rle_encode_window(window, x, y, width, height)
        assert mask == rle_encode(grid)
        assert mask.runs == reference_runs(grid)
        assert (mask.width, mask.height) == (width, height)

    def test_matches_embedded_full_grid(self):
        rng = np.random.default_rng(11)
        sizes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1)]
        sizes += [tuple(int(v) for v in rng.integers(1, 14, size=2)) for _ in range(40)]
        for height, width in sizes:
            for _ in range(12):
                rows = int(rng.integers(1, height + 1))
                cols = int(rng.integers(1, width + 1))
                # left/top edge, right/bottom edge, or anywhere between
                x = int(rng.choice([0, width - cols, rng.integers(0, width - cols + 1)]))
                y = int(rng.choice([0, height - rows, rng.integers(0, height - rows + 1)]))
                p = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
                self.check(rng.random((rows, cols)) < p, x, y, width, height)

    def test_full_width_windows(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            height, width = (int(v) for v in rng.integers(1, 10, size=2))
            rows = int(rng.integers(1, height + 1))
            y = int(rng.integers(0, height - rows + 1))
            self.check(rng.random((rows, width)) < 0.5, 0, y, width, height)

    def test_run_wrapping_into_next_row_is_one_run(self):
        # the last column of row 0 and the first of row 1 are adjacent pixels
        window = [[False, False, True], [True, False, False]]
        assert rle_encode_window(window, 0, 0, 3, 2).runs == (2, 2, 2)
        assert rle_encode_window(window, 0, 1, 3, 3).runs == (5, 2, 2)
        # narrower than the frame, the same window leaves a gap between rows
        assert rle_encode_window(window, 1, 0, 4, 2).runs == (3, 1, 1, 1, 2)

    def test_empty_and_full_windows(self):
        assert rle_encode_window(np.zeros((2, 3), bool), 1, 1, 5, 4).runs == (20,)
        assert rle_encode_window(np.ones((2, 3), bool), 1, 1, 5, 4).runs == (6, 3, 2, 3, 6)
        assert rle_encode_window(np.ones((4, 5), bool), 0, 0, 5, 4).runs == (0, 20)
        assert rle_encode_window(np.ones((1, 2), bool), 3, 3, 5, 4).runs == (18, 2)
        assert rle_encode_window(np.ones((1, 1), bool), 0, 0, 5, 4).runs == (0, 1, 19)

    @pytest.mark.parametrize(
        "x,y,shape",
        [(-1, 0, (2, 2)), (0, -1, (2, 2)), (4, 0, (2, 2)), (0, 3, (2, 2)), (0, 0, (5, 6))],
    )
    def test_window_outside_frame_rejected(self, x, y, shape):
        with pytest.raises(ConsistencyError, match="outside frame 5x4"):
            rle_encode_window(np.ones(shape, dtype=bool), x, y, 5, 4)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (1, 2, 2)])
    def test_malformed_window_rejected(self, shape):
        with pytest.raises(ConsistencyError, match="non-empty 2D"):
            rle_encode_window(np.ones(shape, dtype=bool), 0, 0, 5, 4)


class TestBitMaskValidation:
    def test_numpy_ints_stored_as_python_ints(self):
        mask = BitMask(width=3, height=2, runs=(np.int32(2), np.uint16(4)))
        assert mask.runs == (2, 4)
        assert all(type(r) is int for r in mask.runs)
        runs = np.array([1, 2, 3], dtype=np.int64)
        assert all(type(r) is int for r in BitMask(width=3, height=2, runs=runs).runs)

    def test_floats_truncate_like_int(self):
        assert BitMask(width=3, height=2, runs=(2.7, 4.2)).runs == (2, 4)
        assert BitMask(width=3, height=2, runs=(-0.5, 6.9)).runs == (0, 6)

    def test_empty_runs_rejected(self):
        with pytest.raises(ConsistencyError, match=r"^runs sum 0 != 3x2 pixels$"):
            BitMask(width=3, height=2, runs=())

    def test_messages(self):
        with pytest.raises(ConsistencyError, match=r"^negative run length$"):
            BitMask(width=3, height=2, runs=(4, -1, 3))
        with pytest.raises(ConsistencyError, match=r"^runs sum 5 != 3x2 pixels$"):
            BitMask(width=3, height=2, runs=(2, 3))

    @pytest.mark.parametrize("run", [2**63, 2**64 + 6, -(2**63) - 1])
    def test_runs_beyond_int64_rejected_as_inconsistent(self, run):
        with pytest.raises(ConsistencyError):
            BitMask(width=3, height=2, runs=(run,))

    def test_huge_runs_summed_exactly(self):
        # five runs of 2**62 wrap to 2**62 in an int64 sum
        with pytest.raises(ConsistencyError, match="runs sum 23058430092136939520"):
            BitMask(width=2**31, height=2**31, runs=(2**62,) * 5)
        assert BitMask(width=2**32, height=2**32, runs=(2**64,)).runs == (2**64,)


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

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), float("-inf")])
    def test_timestamp_must_be_finite(self, timestamp):
        with pytest.raises(ConsistencyError, match="frame 4: timestamp .* not finite"):
            make_frame(np.zeros((4, 4)), frame_id=4, timestamp=timestamp)

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
