import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vipguide.errors import ConsistencyError
from vipguide.perception import (
    BitMask,
    BoundingBox,
    DepthMap,
    PerceptionFrame,
    clip_rect,
    free_runs,
    rle_decode,
    rle_encode,
    rle_encode_rect,
)

from conftest import det, make_frame, mask_from_bbox

# numpy.exceptions is new in 1.25; the declared floor, 1.23.5, has it at top level
VisibleDeprecationWarning = getattr(np, "exceptions", np).VisibleDeprecationWarning


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

    @pytest.mark.parametrize(
        "corner", [2.0, 2.5, True, np.float64(2.0), "2"],
        ids=["float", "fraction", "bool", "numpy_float", "str"],
    )
    def test_non_int_corner_rejected(self, corner):
        # a float corner once reached the planner, whose numpy slicing raised
        # a bare TypeError, or was written for read_dataset to reject
        with pytest.raises(ConsistencyError, match="x2 .* not an integer"):
            BoundingBox(0, 0, corner, 4)

    def test_numpy_int_corners_stored_as_ints(self):
        b = BoundingBox(np.int64(1), np.int32(2), np.uint16(3), np.int8(4))
        assert b == BoundingBox(1, 2, 3, 4)
        assert [type(v) for v in b.as_list()] == [int] * 4


class TestDetection:
    def test_confidence_bounds(self):
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, confidence=1.5)
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, confidence=-0.1)

    def test_negative_track_id_rejected(self):
        with pytest.raises(ConsistencyError):
            det("person", 0, 0, 5, 5, track_id=-3)

    @pytest.mark.parametrize("track_id", [1.5, 2.0, True, "2"])
    def test_non_int_track_id_rejected(self, track_id):
        # 1.5 was once written, for read_dataset to reject
        with pytest.raises(ConsistencyError, match="track_id .* not an integer"):
            det("person", 0, 0, 5, 5, track_id=track_id)

    @pytest.mark.parametrize("confidence", ["0.9", None, True, [0.9]])
    def test_non_real_confidence_rejected(self, confidence):
        # a str once raised a bare TypeError from the range check
        with pytest.raises(ConsistencyError, match="confidence .* not a real number"):
            det("person", 0, 0, 5, 5, confidence=confidence)

    def test_numpy_scalars_convert(self):
        d = det("person", 0, 0, 5, 5, confidence=np.float32(0.5), track_id=np.int64(7))
        assert (type(d.confidence), type(d.track_id)) == (float, int)
        assert (d.confidence, d.track_id) == (0.5, 7)

    @pytest.mark.parametrize("confidence", [1, 0, 0.25])
    def test_python_confidence_stored_as_given(self, confidence):
        d = det("person", 0, 0, 5, 5, confidence=confidence)
        assert type(d.confidence) is type(confidence)


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


def with_zero_runs(rng, runs) -> tuple[int, ...]:
    """The same pixels with zero-length runs spliced in: runs split around
    an empty run of the other kind, and maybe an empty last run."""
    out = []
    for run in runs:
        if rng.random() < 0.3:
            cut = int(rng.integers(0, run + 1))
            out += [cut, 0, run - cut]
        else:
            out.append(run)
    if rng.random() < 0.3:
        out.append(0)
    return tuple(out)


def expanded_pixels(grid) -> int:
    """Pixels rle_decode expanded to return `grid` (the array it views)."""
    return grid.base.size


class TestRleDecodeRows:
    def test_every_band_matches_full_decode(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            grid = rng.random((h, w)) < float(rng.choice([0.0, 0.05, 0.3, 1.0]))
            canonical = rle_encode(grid)
            padded = BitMask(w, h, with_zero_runs(rng, canonical.runs))
            for mask in (canonical, padded):
                for y1 in range(h + 1):
                    for y2 in range(y1, h + 1):
                        band = rle_decode(mask, (y1, y2))
                        assert band.dtype == bool
                        assert np.array_equal(band, grid[y1:y2])
                        assert np.array_equal(mask.decode((y1, y2)), band)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("rows", [(0, 4), (1, 3), (2, 2), (0, 0), (4, 4)])
    def test_uniform_masks(self, fill, rows):
        grid = np.full((4, 5), fill)
        band = rle_decode(rle_encode(grid), rows)
        assert np.array_equal(band, grid[rows[0] : rows[1]])
        # all background is one run; all foreground is an empty first run
        # and one foreground run, so only bands from the top fit it
        alone = not fill or rows[0] == 0
        assert expanded_pixels(band) == (band.size if alone else grid.size)

    @pytest.mark.parametrize("flat", [0, 19])
    def test_foreground_on_first_or_last_pixel(self, flat):
        grid = np.zeros((4, 5), dtype=bool)
        grid.flat[flat] = True
        mask = rle_encode(grid)
        y = flat // 5
        for y1 in range(5):
            for y2 in range(y1, 5):
                assert np.array_equal(rle_decode(mask, (y1, y2)), grid[y1:y2])
        # the band around that pixel needs no full expansion
        assert expanded_pixels(rle_decode(mask, (y, y + 1))) == 5

    def test_band_holding_all_foreground_expands_alone(self):
        grid = np.zeros((6, 4), dtype=bool)
        grid[2:4, 1:3] = True
        band = rle_decode(rle_encode(grid), (1, 5))
        assert np.array_equal(band, grid[1:5])
        assert expanded_pixels(band) == 16

    def test_foreground_last_run_past_band_is_shortened(self):
        grid = np.zeros((6, 4), dtype=bool)
        grid[4:] = True  # the last run is foreground, from row 4 on
        grid[1, 2] = True
        band = rle_decode(rle_encode(grid), (1, 5))
        assert np.array_equal(band, grid[1:5])
        assert expanded_pixels(band) == 16

    @pytest.mark.parametrize("rows", [(2, 4), (3, 5), (3, 4)])
    def test_foreground_outside_band_falls_back(self, rows):
        grid = np.zeros((6, 4), dtype=bool)
        grid[2, 1] = grid[4, 2] = True  # above, below or both outside the band
        band = rle_decode(rle_encode(grid), rows)
        assert np.array_equal(band, grid[rows[0] : rows[1]])
        assert expanded_pixels(band) == 24

    @pytest.mark.parametrize("y", [0, 2, 6])
    def test_empty_band(self, y):
        grid = np.zeros((6, 4), dtype=bool)
        grid[2:4, 1:3] = True
        assert rle_decode(rle_encode(grid), (y, y)).shape == (0, 4)

    @pytest.mark.parametrize("rows", [(-1, 2), (3, 2), (0, 7)])
    def test_rows_outside_mask_rejected(self, rows):
        mask = rle_encode(np.zeros((6, 4), dtype=bool))
        with pytest.raises(ConsistencyError, match="outside mask height 6"):
            rle_decode(mask, rows)

    # (0.5, 1) raised a bare TypeError and (1,) a bare ValueError
    @pytest.mark.parametrize("rows", [(0.5, 1), (1,), (1, 2, 3), (True, 2), (1, "3"), 5])
    def test_rows_not_two_integers_rejected(self, rows):
        mask = rle_encode(np.zeros((6, 4), dtype=bool))
        for decode in (lambda: rle_decode(mask, rows), lambda: mask.decode(rows=rows)):
            with pytest.raises(ConsistencyError) as info:
                decode()
            assert str(info.value) == f"rows {rows!r} not two integers"

    def test_numpy_int_rows_accepted(self):
        grid = np.zeros((6, 4), dtype=bool)
        grid[1:4, 2] = True
        band = rle_decode(rle_encode(grid), (np.int64(1), np.int32(3)))
        assert np.array_equal(band, grid[1:3])


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


PAD = 4  # pixels of canvas left of and above a frame's origin
CORNER = st.integers(-PAD, 12)  # negative, inside and past a frame of up to 8 pixels
RECT = st.tuples(CORNER, CORNER, CORNER, CORNER)  # empty when x1 >= x2 or y1 >= y2


def canvas(rect):
    """The rect's pixels on a canvas of [-PAD, 12) on both axes."""
    grid = np.zeros((12 + PAD, 12 + PAD), dtype=bool)
    x1, y1, x2, y2 = (v + PAD for v in rect)
    grid[y1:y2, x1:x2] = True
    return grid


@settings(max_examples=500, deadline=None)
@given(RECT, RECT)
@example((0, 0, 2, 2), (2, 0, 4, 2))  # touching: no pixel shared
@example((0, 0, 2, 2), (0, 2, 2, 4))
@example((-3, -3, 3, 3), (0, 0, 8, 6))  # negative corners cut to the frame
@example((6, 4, 12, 12), (0, 0, 8, 6))  # past the frame's far corner
@example((2, 2, 2, 5), (0, 0, 8, 6))  # empty
def test_clip_rect_is_the_bounding_rect_of_the_overlap(rect, bounds):
    both = canvas(rect) & canvas(bounds)
    if not both.any():
        assert clip_rect(rect, bounds) is None
        return
    rows = np.flatnonzero(both.any(axis=1)) - PAD
    cols = np.flatnonzero(both.any(axis=0)) - PAD
    expected = (int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)
    assert clip_rect(rect, bounds) == expected


# non-empty, starting before lo, inside [lo, hi) or past hi
INTERVAL = st.tuples(st.integers(-3, 14), st.integers(1, 6)).map(lambda t: (t[0], t[0] + t[1]))


def free_runs_oracle(lo, hi, intervals):
    """The free runs of [lo, hi), one column at a time on a boolean array."""
    free = np.ones(hi - lo, dtype=bool)
    for a, b in intervals:
        free[max(a - lo, 0) : max(b - lo, 0)] = False
    runs, start = [], None
    for i, f in enumerate(free.tolist() + [False]):
        if f and start is None:
            start = i
        elif not f and start is not None:
            runs.append((lo + start, lo + i))
            start = None
    return runs


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 10), st.lists(INTERVAL, max_size=6))
@example(0, 10, [(2, 5), (4, 7)])  # overlapping
@example(0, 10, [(2, 4), (4, 6)])  # touching
@example(0, 10, [])  # no interval: one run
@example(3, 7, [(0, 3), (7, 9)])  # flush outside both ends
@example(2, 8, [(6, 12), (9, 11)])  # past hi
@example(0, 10, [(0, 3), (8, 10)])  # flush with both ends
@example(5, 0, [(5, 7)])  # lo == hi
def test_free_runs_are_the_uncovered_runs(lo, span, intervals):
    hi = lo + span
    intervals = sorted(intervals, key=lambda iv: iv[0])  # by start, ties as drawn
    assert free_runs(lo, hi, intervals) == free_runs_oracle(lo, hi, intervals)


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
        # the encoder skips BitMask's checks; they must all pass on its output
        assert BitMask(width, height, mask.runs) == mask
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

    def test_numpy_int_corners_give_exact_int_runs(self):
        rect = tuple(np.int64(v) for v in (1, 1, 4, 3))
        cut = tuple(np.int32(v) for v in (2, 0, 3, 2))
        mask = self.check(rect, [cut], np.int64(5), 4)
        assert mask.runs == (6, 1, 1, 1, 2, 3, 6)
        assert all(type(r) is int for r in mask.runs)
        assert all(type(v) is int for v in (mask.width, mask.height))

    @pytest.mark.parametrize(
        "rect, cuts, width",
        [
            ((1.0, 1, 4, 3), [], 5),
            ((1, 1, 4, 3), [(2, 0.5, 3, 2)], 5),
            ((1, 1, 4, 3), [], 5.0),
            ((True, 1, 4, 3), [], 5),  # operator.index takes True as 1
        ],
    )
    def test_non_integer_corners_rejected(self, rect, cuts, width):
        with pytest.raises(ConsistencyError, match=r"^pixel coordinates \[.*\] must be integers$"):
            rle_encode_rect(rect, cuts, width, 4)

    @pytest.mark.parametrize(
        "rect, cuts, message",
        [
            # a bare ValueError from unpacking
            ((0, 0, 2), [], "rect (0, 0, 2) not four corners"),
            ((0, 0, 2, 2), [(0, 0, 2)], "cut (0, 0, 2) not four corners"),
            ((0, 0, 2, 2), [(0, 0, 1, 1, 1)], "cut (0, 0, 1, 1, 1) not four corners"),
            # a bare TypeError: an int is not iterable
            (5, [], "rect 5 not four corners"),
            ((0, 0, 2, 2), [5], "cut 5 not four corners"),
            ((0, 0, 2, 2), 5, "cuts 5 not a sequence of rects"),
        ],
    )
    def test_rect_and_cuts_not_four_corners_rejected(self, rect, cuts, message):
        with pytest.raises(ConsistencyError) as info:
            rle_encode_rect(rect, cuts, 4, 4)
        assert str(info.value) == message

    def test_any_sequence_of_four_corners_accepted(self):
        cuts = [[1, 1, 2, 2], np.array([0, 0, 1, 1])]
        assert self.check([0, 0, 2, 2], cuts, 4, 4).runs == (1, 1, 2, 1, 11)
        # and cuts may be any iterable of rects
        assert rle_encode_rect((0, 0, 2, 2), iter(cuts), 4, 4).runs == (1, 1, 2, 1, 11)

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

    @pytest.mark.parametrize("width", [4.0, True])
    def test_non_int_dims_rejected(self, width):
        # a float width once passed, and decode raised a bare TypeError
        with pytest.raises(ConsistencyError, match="width .* not an integer"):
            BitMask(width=width, height=4, runs=(4,))

    def test_list_of_exact_ints_stored_as_tuple(self):
        mask = BitMask(width=3, height=2, runs=[2, 4])
        assert mask.runs == (2, 4) and type(mask.runs) is tuple

    def test_non_integer_runs_rejected(self):
        # floats used to truncate: (2.7, 4.2) passed as (2, 4); bools passed as 0 or 1;
        # an int raised a bare TypeError
        for runs in [
            (2.7, 4.2), (2.5, 3.5), (-0.5, 6.9), (2.0, 4), (np.bool_(True), 5), ("6",), (5, True), 5
        ]:
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

    @pytest.mark.parametrize("width, height", [(3, 0), (0, 2), (-1, -1)])
    def test_non_positive_dims_rejected(self, width, height):
        with pytest.raises(ConsistencyError) as info:
            BitMask(width=width, height=height, runs=(0,))
        assert str(info.value) == f"mask dims {width}x{height} not positive"

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

    @pytest.mark.parametrize("width", [4.0, True])
    def test_non_int_dims_rejected(self, width):
        # a float width once passed, and write_pgm wrote a "4.0" header
        with pytest.raises(ConsistencyError, match="width .* not an integer"):
            DepthMap(width=width, height=1, values=np.zeros(4))

    def test_numpy_int_dims_stored_as_ints(self):
        d = DepthMap(width=np.int64(3), height=np.int32(2), values=np.arange(6))
        assert (type(d.width), type(d.height), d.values.shape) == (int, int, (2, 3))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.5, np.nan], "outside"),
            ([1.0, np.nan], "outside"),
            ([1.5, 2.0], "not whole numbers"),
            ([3.0, 65534.75], "not whole numbers"),
        ],
    )
    def test_non_whole_values_rejected(self, values, message):
        # 1.5 was once cast to 1, and NaN to 0 with only a RuntimeWarning
        with pytest.raises(ConsistencyError, match=f"^depth values {message}"):
            DepthMap(width=2, height=1, values=np.array(values))

    @pytest.mark.parametrize(
        "width, height, values, message",
        [
            # reshape raised a bare ValueError
            (-1, -1, [0], "depth dims -1x-1 not positive"),
            # built, and a 3x0 frame around it planned a Heading
            (3, 0, [], "depth dims 3x0 not positive"),
            (0, 2, np.zeros((2, 0), dtype=np.uint16), "depth dims 0x2 not positive"),
            # a bare UFuncTypeError, then a bare TypeError
            (2, 1, ["a", "b"], "depth values of dtype <U1 not real numbers"),
            (2, 1, [None, 1], "depth values of dtype object not real numbers"),
            (2, 1, [True, False], "depth values of dtype bool not real numbers"),
            # ragged: a bare ValueError on numpy >= 1.24
            (2, 1, [[1], [1, 2]], "depth values not a rectangular array"),
        ],
    )
    def test_bad_dims_and_values_rejected(self, width, height, values, message):
        with pytest.raises(ConsistencyError) as info:
            DepthMap(width=width, height=height, values=values)
        assert str(info.value) == message

    def test_ragged_values_rejected_as_older_numpy_builds_them(self, monkeypatch):
        # numpy < 1.24 builds an object array of a ragged list and warns
        def asarray(values):
            warnings.warn("ragged", VisibleDeprecationWarning, stacklevel=2)
            return np.array(values, dtype=object)

        monkeypatch.setattr(np, "asarray", asarray)
        with pytest.raises(ConsistencyError) as info:
            DepthMap(width=2, height=1, values=[[1], [1, 2]])
        assert str(info.value) == "depth values not a rectangular array"

    def test_whole_float_values_stored_as_uint16(self):
        d = DepthMap(width=2, height=1, values=np.array([1.0, 65535.0]))
        assert d.values.dtype == np.uint16 and d.values.tolist() == [[1, 65535]]


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

    def test_dims_messages(self):
        # the depth map and each mask are held to the frame's dims in one wording
        depth = DepthMap(width=3, height=3, values=np.zeros((3, 3)))
        with pytest.raises(ConsistencyError) as info:
            PerceptionFrame(frame_id=0, timestamp=0.0, width=4, height=4, depth=depth)
        assert str(info.value) == "depth dims 3x3 != frame dims 4x4"
        mask = BitMask(width=4, height=3, runs=(12,))
        for parts, name in [
            ({"vip_mask": mask}, "vip_mask"),
            ({"road_mask": mask}, "road_mask"),
            ({"instance_masks": {2: mask}}, "instance_masks[2]"),
        ]:
            with pytest.raises(ConsistencyError) as info:
                make_frame(np.zeros((4, 4)), **parts)
            assert str(info.value) == f"{name} dims 4x3 != frame dims 4x4"

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

    @pytest.mark.parametrize("name", ["frame_id", "width", "height"])
    @pytest.mark.parametrize("value", [4.0, True])
    def test_non_int_frame_fields_rejected(self, name, value):
        fields = {"frame_id": 0, "width": 4, "height": 4, name: value}
        depth = DepthMap(width=4, height=4, values=np.zeros((4, 4)))
        with pytest.raises(ConsistencyError, match=f"{name} .* not an integer"):
            PerceptionFrame(timestamp=0.0, depth=depth, **fields)

    @pytest.mark.parametrize("timestamp", ["0.5", None, True])
    def test_non_real_timestamp_rejected(self, timestamp):
        with pytest.raises(ConsistencyError, match="timestamp .* not a real number"):
            make_frame(np.zeros((4, 4)), timestamp=timestamp)

    def test_numpy_float_timestamp_stored_as_float(self):
        frame = make_frame(np.zeros((4, 4)), timestamp=np.float32(0.5))
        assert (type(frame.timestamp), frame.timestamp) == (float, 0.5)

    @pytest.mark.parametrize("key", [1.0, -1, True, "1", None])
    def test_instance_mask_key_must_be_a_non_negative_int(self, key):
        # 1.0 and -1 were once written, for read_dataset to reject
        mask = BitMask(width=4, height=4, runs=(16,))
        with pytest.raises(ConsistencyError, match="^instance_masks key .* not a non-negative integer$"):
            make_frame(np.zeros((4, 4)), instance_masks={key: mask})

    def test_numpy_int_instance_mask_key_accepted(self):
        mask = BitMask(width=4, height=4, runs=(16,))
        frame = make_frame(np.zeros((4, 4)), instance_masks={np.int64(3): mask})
        assert frame.instance_masks == {3: mask}

    def test_numpy_int_frame_fields_stored_as_ints(self):
        depth = DepthMap(width=4, height=3, values=np.zeros((3, 4)))
        frame = PerceptionFrame(np.int64(9), 0.0, np.int32(4), np.uint16(3), depth)
        assert [type(v) for v in (frame.frame_id, frame.width, frame.height)] == [int] * 3
        assert (frame.frame_id, frame.width, frame.height) == (9, 4, 3)

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

