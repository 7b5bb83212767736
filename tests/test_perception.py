import numpy as np
import pytest

from vipguide.errors import ConsistencyError
from vipguide.perception import (
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    rle_decode,
    rle_encode,
    rle_encode_rect,
)

from conftest import det, make_frame, mask_from_bbox


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


def paint(rect, cuts, width, height):
    """The oracle grid: the rect set in an empty frame, then each cut cleared."""
    grid = np.zeros((height, width), dtype=bool)
    x1, y1, x2, y2 = rect
    grid[y1:y2, x1:x2] = True
    for u1, v1, u2, v2 in cuts:
        grid[max(v1, 0) : max(v2, 0), max(u1, 0) : max(u2, 0)] = False
    return grid


def random_rect(rng, width, height, margin=0):
    """Half-open rect inside the frame grown by `margin`, often on its edges."""
    def span(size):
        lo, hi = -margin, size + margin
        a = int(rng.choice([lo, hi - 1, rng.integers(lo, hi)]))
        b = int(rng.choice([a + 1, hi, rng.integers(a + 1, hi + 1)]))
        return a, b

    x1, x2 = span(width)
    y1, y2 = span(height)
    return x1, y1, x2, y2


class TestRleEncodeWindow:
    """rle_encode_rect: the mask of a window (a rect) minus the rects cut from it."""

    @staticmethod
    def check(rect, cuts, width, height):
        grid = paint(rect, cuts, width, height)
        mask = rle_encode_rect(rect, cuts, width, height)
        if not grid.any():
            assert mask is None
            return None
        assert mask == rle_encode(grid)
        assert mask.runs == reference_runs(grid)
        assert all(type(r) is int for r in mask.runs)
        return mask

    def test_matches_embedded_full_grid(self):
        # seeded fuzz: 1x1 to 14x14 frames, 0-4 cuts that may leave the frame
        rng = np.random.default_rng(11)
        sizes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1), (14, 14)]
        sizes += [tuple(int(v) for v in rng.integers(1, 15, size=2)) for _ in range(60)]
        for height, width in sizes:
            for _ in range(40):
                rect = random_rect(rng, width, height)
                cuts = [
                    random_rect(rng, width, height, margin=2)
                    for _ in range(int(rng.integers(0, 5)))
                ]
                self.check(rect, cuts, width, height)

    def test_full_width_windows(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            height, width = (int(v) for v in rng.integers(1, 10, size=2))
            y1 = int(rng.integers(0, height))
            y2 = int(rng.integers(y1 + 1, height + 1))
            cuts = [random_rect(rng, width, height) for _ in range(int(rng.integers(0, 3)))]
            self.check((0, y1, width, y2), cuts, width, height)

    def test_full_width_rows_merge_into_one_run(self):
        assert self.check((0, 1, 4, 3), [], 4, 4).runs == (4, 8, 4)
        assert self.check((0, 0, 4, 4), [], 4, 4).runs == (0, 16)
        # the cut's band stops the run; the full-width bands around it merge
        assert self.check((0, 0, 4, 4), [(1, 1, 3, 2)], 4, 4).runs == (0, 5, 2, 9)

    def test_run_wrapping_into_next_row_is_one_run(self):
        # the last column of row 0 and the first of row 1 are adjacent pixels
        cuts = [(0, 0, 2, 1), (1, 1, 3, 2)]
        assert self.check((0, 0, 3, 2), cuts, 3, 2).runs == (2, 2, 2)
        cuts = [(0, 1, 2, 2), (1, 2, 3, 3)]
        assert self.check((0, 1, 3, 3), cuts, 3, 3).runs == (5, 2, 2)
        # narrower than the frame, the same window leaves a gap between rows
        cuts = [(1, 0, 3, 1), (2, 1, 4, 2)]
        assert self.check((1, 0, 4, 2), cuts, 4, 2).runs == (3, 1, 1, 1, 2)

    def test_band_at_last_column_joins_band_from_column_zero(self):
        # rows 0-1 end at the last column, rows 2-3 start at column 0
        assert self.check((0, 0, 6, 4), [(0, 0, 3, 2)], 6, 4).runs == (3, 3, 3, 15)
        assert self.check((0, 0, 6, 4), [(3, 2, 6, 4)], 6, 4).runs == (0, 15, 3, 3, 3)
        # a gap row between the bands keeps them apart
        cuts = [(0, 0, 3, 1), (0, 1, 6, 2)]
        assert self.check((0, 0, 6, 3), cuts, 6, 3).runs == (3, 3, 6, 6)

    def test_cuts_split_a_row_into_segments(self):
        cuts = [(2, 1, 3, 2), (5, 1, 7, 2)]
        assert self.check((0, 0, 10, 3), cuts, 10, 3).runs == (0, 12, 1, 2, 2, 13)
        # first segment at column 0, last at the last column: each row's
        # last run joins the next row's first over three rows
        cuts = [(1, 0, 2, 3), (3, 0, 4, 3)]
        assert self.check((0, 0, 5, 3), cuts, 5, 3).runs == (0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1)
        # overlapping and touching cuts merge into one gap
        cuts = [(1, 0, 3, 1), (2, 0, 4, 1), (4, 0, 5, 1)]
        assert self.check((0, 0, 7, 1), cuts, 7, 1).runs == (0, 1, 4, 2)

    def test_cuts_outside_the_rect_change_nothing(self):
        cuts = [(0, 0, 2, 4), (4, 0, 6, 2), (2, 0, 4, 1), (-3, -3, -1, -1), (3, 1, 3, 3)]
        assert self.check((2, 1, 4, 3), cuts, 6, 4).runs == (8, 2, 4, 2, 8)

    def test_cuts_covering_the_rect_leave_no_mask(self):
        assert rle_encode_rect((1, 1, 3, 3), [(0, 0, 4, 4)], 5, 4) is None
        assert rle_encode_rect((1, 1, 3, 3), [(1, 1, 3, 3)], 5, 4) is None
        # two cuts that only cover it together
        assert rle_encode_rect((1, 1, 3, 3), [(1, 1, 3, 2), (0, 2, 5, 4)], 5, 4) is None
        assert rle_encode_rect((1, 1, 3, 3), [(1, 1, 2, 3), (2, 0, 9, 9)], 5, 4) is None

    def test_rects_on_each_frame_edge(self):
        for rect, runs in [
            ((0, 1, 2, 3), (5, 2, 3, 2, 8)),  # left
            ((3, 1, 5, 3), (8, 2, 3, 2, 5)),  # right
            ((1, 0, 3, 2), (1, 2, 3, 2, 12)),  # top
            ((1, 2, 3, 4), (11, 2, 3, 2, 2)),  # bottom
            ((0, 0, 1, 1), (0, 1, 19)),  # top-left pixel
            ((4, 3, 5, 4), (19, 1)),  # bottom-right pixel
        ]:
            assert self.check(rect, [], 5, 4).runs == runs
            # a cut through the middle row keeps the edge runs in place
            cut = (0, rect[1] + 1, 5, rect[1] + 2)
            self.check(rect, [cut], 5, 4)

    def test_empty_and_full_windows(self):
        assert rle_encode_rect((1, 1, 4, 3), [(1, 1, 4, 3)], 5, 4) is None
        assert rle_encode_rect((1, 1, 4, 3), [], 5, 4).runs == (6, 3, 2, 3, 6)
        assert rle_encode_rect((0, 0, 5, 4), [], 5, 4).runs == (0, 20)
        assert rle_encode_rect((3, 3, 5, 4), [], 5, 4).runs == (18, 2)
        assert rle_encode_rect((0, 0, 1, 1), [], 5, 4).runs == (0, 1, 19)

    @pytest.mark.parametrize(
        "x,y,shape",
        [(-1, 0, (2, 2)), (0, -1, (2, 2)), (4, 0, (2, 2)), (0, 3, (2, 2)), (0, 0, (5, 6))],
    )
    def test_window_outside_frame_rejected(self, x, y, shape):
        rect = (x, y, x + shape[1], y + shape[0])
        with pytest.raises(ConsistencyError, match="outside frame 5x4"):
            rle_encode_rect(rect, [], 5, 4)

    @pytest.mark.parametrize("rect", [(2, 1, 2, 3), (2, 1, 4, 1), (3, 1, 2, 3)])
    def test_empty_rect_rejected(self, rect):
        with pytest.raises(ConsistencyError, match=r"^rect \[.*\] empty or outside"):
            rle_encode_rect(rect, [], 5, 4)

    # the grid check moved with the flat scan into rle_encode
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (1, 2, 2)])
    def test_malformed_window_rejected(self, shape):
        with pytest.raises(ConsistencyError, match="non-empty 2D"):
            rle_encode(np.ones(shape, dtype=bool))


class TestBitMaskValidation:
    def test_numpy_ints_stored_as_python_ints(self):
        mask = BitMask(width=3, height=2, runs=(np.int32(2), np.uint16(4)))
        assert mask.runs == (2, 4)
        assert all(type(r) is int for r in mask.runs)
        runs = np.array([1, 2, 3], dtype=np.int64)
        assert all(type(r) is int for r in BitMask(width=3, height=2, runs=runs).runs)

    def test_list_of_exact_ints_stored_as_tuple(self):
        mask = BitMask(width=3, height=2, runs=[2, 4])
        assert mask.runs == (2, 4) and type(mask.runs) is tuple

    def test_bool_run_stored_as_int(self):
        mask = BitMask(width=3, height=2, runs=(5, True))
        assert mask.runs == (5, 1)
        assert [type(r) for r in mask.runs] == [int, int]

    def test_non_integer_runs_rejected(self):
        # floats used to truncate: (2.7, 4.2) passed as (2, 4)
        for runs in [(2.7, 4.2), (2.5, 3.5), (-0.5, 6.9), (2.0, 4), (np.bool_(True), 5), ("6",)]:
            with pytest.raises(ConsistencyError, match=r"^run lengths must be integers$"):
                BitMask(width=3, height=2, runs=runs)

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

    def test_equality_compares_every_field(self):
        def frame(depth_value=5, timestamp=0.0, label="car", run=3):
            mask = BitMask(width=4, height=4, runs=(run, 2, 14 - run))
            return make_frame(
                np.full((4, 4), depth_value),
                detections=[det(label, 0, 0, 2, 2, track_id=1)],
                timestamp=timestamp,
                vip_mask=mask,
                instance_masks={1: mask},
            )

        assert frame() == frame()
        assert frame() != frame(depth_value=6)
        assert frame() != frame(timestamp=0.5)
        assert frame() != frame(label="bike")
        assert frame() != frame(run=4)
        assert BitMask(width=4, height=4, runs=(16,)) != BitMask(8, 2, (16,))


def test_mask_from_bbox_clips():
    grid = mask_from_bbox(BoundingBox(2, 1, 10, 9), width=6, height=4)
    assert grid.shape == (4, 6)
    assert grid[1:, 2:].all()
    assert not grid[0].any() and not grid[:, :2].any()

