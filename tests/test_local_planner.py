import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vipguide.config import PipelineTuning, PlannerConfig
from vipguide.errors import ConfigError, PlannerError
from vipguide.local_planner import (
    Heading,
    Partition,
    PartitionProfile,
    RerouteNeeded,
    classify_obstacle,
    decide,
    free_segments,
    heading_angle,
    partition_bounds,
    partition_profiles,
    partition_scores,
    road_edge_check,
    width_threshold_px,
)
from vipguide.perception import BoundingBox, DepthMap, rle_encode, rle_encode_rect

from conftest import mask_from_bbox, ob, oracle_free_segments, oracle_partition_scores


class TestPartitionBounds:
    def test_even_split(self):
        parts = partition_bounds(600, 3)
        assert [(p.x_start, p.x_end) for p in parts] == [(0, 200), (200, 400), (400, 600)]

    def test_remainder_left_to_right(self):
        parts = partition_bounds(601, 3)
        assert [(p.x_start, p.x_end) for p in parts] == [(0, 201), (201, 401), (401, 601)]

    def test_single_partition(self):
        parts = partition_bounds(640, 1)
        assert [(p.x_start, p.x_end) for p in parts] == [(0, 640)]

    @pytest.mark.parametrize("n", [0, 2, 4, -3])
    def test_odd_required(self, n):
        with pytest.raises(PlannerError):
            partition_bounds(600, n)

    def test_width_must_hold_n(self):
        with pytest.raises(PlannerError):
            partition_bounds(2, 3)

    def test_float_width_not_answered_from_the_int_memo(self):
        assert partition_bounds(640, 3)[-1].x_end == 640
        with pytest.raises(PlannerError) as info:
            partition_bounds(640.0, 3)
        assert str(info.value) == "width 640.0 not an integer"

    @pytest.mark.parametrize(
        "width, n, message",
        [
            (640.5, 3, "width 640.5 not an integer"),
            (True, 1, "width True not an integer"),
            (640, 3.0, "partition count 3.0 not an integer"),
            (640, True, "partition count True not an integer"),
            ("640", 3, "width '640' not an integer"),
        ],
    )
    def test_inexact_ints_refused(self, width, n, message):
        with pytest.raises(PlannerError) as info:
            partition_bounds(width, n)
        assert str(info.value) == message

    def test_numpy_ints_convert(self):
        parts = partition_bounds(np.int64(601), np.int32(3))
        assert parts == partition_bounds(601, 3)
        assert all(type(p.x_start) is int and type(p.x_end) is int for p in parts)
        assert all(type(p.index) is int for p in parts)

    def test_tiling_property(self):
        for width in [3, 7, 64, 599, 601, 1920]:
            for n in [1, 3, 5, 7]:
                if width < n:
                    continue
                parts = partition_bounds(width, n)
                assert parts[0].x_start == 0
                assert parts[-1].x_end == width
                for a, b in zip(parts, parts[1:]):
                    assert a.x_end == b.x_start
                widths = [p.x_end - p.x_start for p in parts]
                assert max(widths) - min(widths) <= 1


class TestMeanPartitionDepth:
    def test_uniform(self):
        depth = DepthMap(width=6, height=4, values=np.full((4, 6), 100))
        score, empty = partition_scores(depth, [Partition(0, 0, 3)])[0]
        assert score == 100.0 and not empty

    def test_exclusion_leaves_constant(self):
        values = np.full((4, 4), 40, dtype=np.uint16)
        values[:2] = 9999
        grid = np.zeros((4, 4), dtype=bool)
        grid[:2] = True
        depth = DepthMap(width=4, height=4, values=values)
        part = Partition(0, 0, 4)
        score, empty = partition_scores(depth, [part], rle_encode(grid))[0]
        assert score == 40.0 and not empty

    def test_hand_mean(self):
        depth = DepthMap(width=2, height=2, values=np.array([[10, 20], [30, 40]]))
        score, _ = partition_scores(depth, [Partition(0, 0, 2)])[0]
        assert score == 25.0

    def test_all_excluded(self):
        depth = DepthMap(width=2, height=2, values=np.full((2, 2), 7))
        full = rle_encode(np.ones((2, 2), dtype=bool))
        score, empty = partition_scores(depth, [Partition(0, 0, 2)], full)[0]
        assert score == 0.0 and empty

    def test_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            h = int(rng.integers(1, 20))
            w = int(rng.integers(3, 30))
            values = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
            depth = DepthMap(width=w, height=h, values=values)
            grid = rng.random((h, w)) < 0.3
            x1 = int(rng.integers(0, w))
            x2 = int(rng.integers(x1 + 1, w + 1))
            p = Partition(0, x1, x2)
            expected = oracle_partition_scores(values, [p], grid)
            assert partition_scores(depth, [p], rle_encode(grid)) == expected


EXCLUSION_KINDS = ("none", "background", "bbox", "clipped_bbox", "mask", "covers_partition")


def random_exclusion(rng, kind, h, w, parts):
    """(exclusion passed to the planner, dense grid the oracle skips)."""
    if kind == "none":
        return None, np.zeros((h, w), dtype=bool)
    if kind == "background":
        grid = np.zeros((h, w), dtype=bool)
        return rle_encode(grid), grid
    x1 = int(rng.integers(0, w))
    y1 = int(rng.integers(0, h))
    if kind == "clipped_bbox":
        # runs past the right and bottom edges, as a bbox remembered
        # from a larger frame can; the planner gets it clipped, as a mask
        box = BoundingBox(
            x1, y1, w + int(rng.integers(1, 9)), h + int(rng.integers(1, 9))
        )
        return rle_encode_rect((x1, y1, w, h), (), w, h), mask_from_bbox(box, w, h)
    box = BoundingBox(
        x1, y1, int(rng.integers(x1 + 1, w + 1)), int(rng.integers(y1 + 1, h + 1))
    )
    grid = mask_from_bbox(box, w, h)
    if kind == "bbox":
        return rle_encode_rect(box.as_list(), (), w, h), grid
    grid |= rng.random((h, w)) < 0.1  # foreground outside the VIP's box
    if kind == "covers_partition":
        p = parts[int(rng.integers(0, len(parts)))]
        grid[:, p.x_start : p.x_end] = True
    return rle_encode(grid), grid


class TestPartitionScores:
    """The single pass over all partitions against a per-pixel oracle."""

    def test_matches_wide_integer_loop(self):
        rng = np.random.default_rng(23)
        for n in (1, 3, 5, 7):
            for kind in EXCLUSION_KINDS:
                for _ in range(6):
                    h = int(rng.integers(1, 20))
                    w = int(rng.integers(n, 36))
                    values = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
                    depth = DepthMap(width=w, height=h, values=values)
                    parts = partition_bounds(w, n)
                    exclude, grid = random_exclusion(rng, kind, h, w, parts)
                    want = oracle_partition_scores(values, parts, grid)
                    assert partition_scores(depth, parts, exclude) == want, (n, kind)
                    if kind == "covers_partition":
                        assert (0.0, True) in want
                    for p, score in zip(parts, want):
                        assert partition_scores(depth, [p], exclude)[0] == score

    @pytest.mark.parametrize("h, w", [(480, 640), (65538, 3)])
    def test_all_max_rev_frame_cannot_overflow(self, h, w):
        # 65538 rows of 65535 sum past 2**32, so the column sums must widen
        values = np.full((h, w), 65535, dtype=np.uint16)
        depth = DepthMap(width=w, height=h, values=values)
        parts = partition_bounds(w, 3)
        assert partition_scores(depth, parts) == [(65535.0, False)] * 3
        box = rle_encode_rect((0, 0, 1, h // 2), (), w, h)
        assert partition_scores(depth, parts, box) == [(65535.0, False)] * 3

    def test_rejects_partition_outside_frame_and_mismatched_mask(self):
        depth = DepthMap(width=4, height=2, values=np.zeros((2, 4)))
        with pytest.raises(PlannerError):
            partition_scores(depth, [Partition(0, 2, 5)])
        with pytest.raises(PlannerError):
            tall = rle_encode(np.zeros((4, 2), dtype=bool))
            partition_scores(depth, [Partition(0, 0, 4)], tall)


@st.composite
def scored_frames(draw):
    """A small frame, an exclusion kind and a partition list of any shape:
    empty, zero-width at 0 or at the width, overlapping, repeated, unsorted."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 24))
    spans = draw(st.lists(st.tuples(st.integers(0, w), st.integers(0, w)).map(sorted), max_size=7))
    if draw(st.booleans()):
        spans += [(0, 0), (w, w)]
    if spans and draw(st.booleans()):
        spans.append(spans[0])
    if draw(st.booleans()):
        spans.reverse()
    parts = [Partition(i, a, b) for i, (a, b) in enumerate(spans)]
    return h, w, parts, draw(st.sampled_from(EXCLUSION_KINDS)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(scored_frames())
@example((3, 5, [], "mask", 0))
@example((2, 4, [Partition(0, 4, 4), Partition(1, 0, 0)], "none", 1))
@example((4, 6, [Partition(0, 2, 6), Partition(1, 0, 4), Partition(2, 2, 6)], "covers_partition", 2))
def test_scores_match_the_oracle_on_any_partition_list(case):
    h, w, parts, kind, seed = case
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
    # "covers_partition" picks the partition it covers; with none, the whole frame
    exclude, grid = random_exclusion(rng, kind, h, w, parts or [Partition(0, 0, w)])
    depth = DepthMap(width=w, height=h, values=values)
    assert partition_scores(depth, parts, exclude) == oracle_partition_scores(values, parts, grid)


def free_widths(obstacles, d_filter, width, n=3):
    """max_free_width of each partition_profiles entry, on a flat depth map."""
    depth = DepthMap(width=width, height=2, values=np.zeros((2, width)))
    profiles = partition_profiles(depth, partition_bounds(width, n), obstacles, d_filter)
    return [p.max_free_width for p in profiles]


class TestFreeSpace:
    def test_no_detections(self):
        assert free_widths([], 2.0, 600) == [200, 200, 200]

    def test_two_boxes(self):
        obs = [ob(100, 0, 200, 50, 1.0), ob(350, 0, 400, 50, 1.0)]
        segs = free_segments(obs, 2.0, 600)
        assert segs == [(0, 100), (200, 350), (400, 600)]

    def test_overlapping_boxes_merge(self):
        obs = [ob(100, 0, 300, 50, 1.0), ob(250, 0, 420, 50, 1.0)]
        segs = free_segments(obs, 2.0, 600)
        assert segs == [(0, 100), (420, 600)]

    def test_distance_filter(self):
        obs = [ob(100, 0, 300, 50, 5.0), ob(350, 0, 400, 50, 1.0)]  # first is far away
        segs = free_segments(obs, 2.0, 600)
        assert segs == [(0, 350), (400, 600)]

    def test_non_positive_d_filter_rejected(self):
        with pytest.raises(PlannerError) as info:
            free_segments([], 0.0, 600)
        assert str(info.value) == "d_filter 0.0 not positive"
        with pytest.raises(PlannerError) as info:
            free_segments([ob(0, 0, 10, 5, 1.0)], math.nan, 640)
        assert str(info.value) == "d_filter nan not positive"

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            width = int(rng.integers(3, 1920))
            n_boxes = int(rng.integers(0, 11))
            boxes, dists, obs = [], [], []
            for _ in range(n_boxes):
                x1 = int(rng.integers(0, width))
                x2 = int(rng.integers(x1 + 1, width + 1))
                boxes.append((x1, x2))
                dists.append(float(rng.uniform(0, 4)))
                obs.append(ob(x1, 0, x2, 5, dists[-1]))
            d_filter = float(rng.uniform(0.5, 3.5))
            assert free_segments(obs, d_filter, width) == oracle_free_segments(
                boxes, dists, d_filter, width
            )

    def test_partition_clipping(self):
        assert free_widths([ob(150, 0, 250, 50, 0.5)], 2.0, 600) == [150, 150, 200]

    def test_box_spanning_everything(self):
        assert free_widths([ob(0, 0, 600, 50, 0.1)], 2.0, 600) == [0, 0, 0]

    def test_profile_widths_match_column_oracle_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.choice([1, 3, 5, 7]))
            width = int(rng.integers(n, 1280))
            obs = []
            for _ in range(int(rng.integers(0, 9))):
                x1 = int(rng.integers(0, width))
                x2 = int(rng.integers(x1 + 1, width + 1))
                obs.append(ob(x1, 0, x2, 2, float(rng.uniform(0, 4))))
            d_filter = float(rng.uniform(0.5, 3.5))
            dists = [o.distance_m for o in obs]
            expected = []
            for p in partition_bounds(width, n):
                # the scan over the partition's columns alone
                shifted = [(o.bbox.x1 - p.x_start, o.bbox.x2 - p.x_start) for o in obs]
                free = oracle_free_segments(shifted, dists, d_filter, p.x_end - p.x_start)
                expected.append(max((end - start for start, end in free), default=0))
            assert free_widths(obs, d_filter, width, n) == expected


class TestClassifyObstacle:
    def test_danger_below_safety(self):
        assert classify_obstacle(0.5 * 1.4, 1.4) == "danger"

    def test_warning_between(self):
        assert classify_obstacle(1.5 * 1.4, 1.4) == "warning"

    def test_clear_beyond(self):
        assert classify_obstacle(3.0 * 1.4, 1.4) == "clear"

    def test_boundaries_inclusive(self):
        assert classify_obstacle(1.4, 1.4) == "danger"
        assert classify_obstacle(2.8, 1.4) == "warning"

    def test_monotone_in_distance(self):
        order = {"danger": 0, "warning": 1, "clear": 2}
        ranks = [
            order[classify_obstacle(d, 1.4)] for d in np.linspace(0, 6, 200)
        ]
        assert ranks == sorted(ranks)

    def test_custom_multipliers(self):
        cfg = PlannerConfig(danger_mult=2.5, warning_mult=3.0)
        assert classify_obstacle(2.0, 1.0, cfg) == "danger"

    def test_domain(self):
        with pytest.raises(PlannerError):
            classify_obstacle(-1.0, 1.0)
        with pytest.raises(PlannerError):
            classify_obstacle(1.0, 0.0)
        with pytest.raises(PlannerError):
            classify_obstacle(math.nan, 1.0)
        with pytest.raises(PlannerError):
            classify_obstacle(1.0, math.nan)


def road_grid(width, height, fill=True):
    return np.full((height, width), fill, dtype=bool)


class TestRoadEdge:
    def vip(self):
        # feet at y2=400; probes are 90x90 at rows 310..400
        return BoundingBox(275, 150, 365, 400)

    def test_full_road_safe(self):
        mask = rle_encode(road_grid(640, 480))
        assert road_edge_check(self.vip(), mask) == "safe"

    def test_left_missing(self):
        grid = road_grid(640, 480)
        grid[:, :275] = False
        assert road_edge_check(self.vip(), rle_encode(grid)) == "warn_left"

    def test_right_missing(self):
        grid = road_grid(640, 480)
        grid[:, 365:] = False
        assert road_edge_check(self.vip(), rle_encode(grid)) == "warn_right"

    def test_both_missing(self):
        grid = road_grid(640, 480, fill=False)
        assert road_edge_check(self.vip(), rle_encode(grid)) == "warn_both"

    def test_sixty_percent_road_is_safe(self):
        # right probe 60% road -> mean 153 > 128
        grid = road_grid(640, 480)
        probe_cols = slice(365, 455)
        grid[:, probe_cols] = False
        grid[310:364, probe_cols] = True  # 54 of 90 rows = 60%
        status = road_edge_check(self.vip(), rle_encode(grid))
        assert status == "safe"

    def test_just_below_threshold_warns(self):
        # 45 of 90 rows = 50% -> mean 127.5, not > 128
        grid = road_grid(640, 480)
        grid[:, 365:455] = False
        grid[310:355, 365:455] = True
        assert road_edge_check(self.vip(), rle_encode(grid)) == "warn_right"

    def test_missing_mask_unknown(self):
        assert road_edge_check(self.vip(), None) == "unknown"

    def test_probe_off_frame_warns(self):
        # VIP flush against the left edge: left probe has no pixels
        vip = BoundingBox(0, 150, 90, 400)
        mask = rle_encode(road_grid(640, 480))
        assert road_edge_check(vip, mask) == "warn_left"

    def test_partially_clipped_probe_uses_remaining_pixels(self):
        vip = BoundingBox(30, 150, 120, 400)  # left probe clipped to 30 cols
        mask = rle_encode(road_grid(640, 480))
        assert road_edge_check(vip, mask) == "safe"

    def test_exhaustive_3x3_patterns(self):
        # every road pattern on a 3x3 probe, both sides, against the
        # mean-threshold definition evaluated independently
        vip = BoundingBox(3, 0, 6, 3)
        cfg = PlannerConfig(edge_box_px=3)
        for bits in range(512):
            pattern = np.array([(bits >> k) & 1 for k in range(9)], dtype=bool)
            grid = np.zeros((3, 9), dtype=bool)
            grid[:, 0:3] = pattern.reshape(3, 3)
            grid[:, 6:9] = True
            status = road_edge_check(vip, rle_encode(grid), cfg)
            left_mean = 255.0 * pattern.sum() / 9.0
            expected = "safe" if left_mean > 128.0 else "warn_left"
            assert status == expected, f"pattern {bits:09b}"


class TestDecide:
    def prof(self, index, score, width=200, span=(0, 600), empty=False):
        return PartitionProfile(
            partition=Partition(index, *span),
            h_score=score,
            empty=empty,
            max_free_width=width,
        )

    def test_equal_scores_pick_center(self):
        profiles = [
            self.prof(0, 50.0, span=(0, 200)),
            self.prof(1, 50.0, span=(200, 400)),
            self.prof(2, 50.0, span=(400, 600)),
        ]
        outcome = decide(profiles, None, 10, 90.0, 600)
        assert isinstance(outcome, Heading)
        assert outcome.partition == 1
        assert outcome.angle_deg == pytest.approx(0.0)

    def test_lowest_score_wins(self):
        profiles = [
            self.prof(0, 900.0, span=(0, 200)),
            self.prof(1, 500.0, span=(200, 400)),
            self.prof(2, 100.0, span=(400, 600)),
        ]
        outcome = decide(profiles, 1, 10, 90.0, 600)
        assert outcome.partition == 2
        assert outcome.angle_deg == pytest.approx(30.0)

    def test_width_rejection_falls_through(self):
        profiles = [
            self.prof(0, 100.0, width=5, span=(0, 200)),
            self.prof(1, 500.0, span=(200, 400)),
            self.prof(2, 900.0, span=(400, 600)),
        ]
        outcome = decide(profiles, 1, 50, 90.0, 600)
        assert outcome.partition == 1

    def test_exhaustion_requests_reroute(self):
        profiles = [
            self.prof(i, 100.0, width=5, span=(200 * i, 200 * i + 200))
            for i in range(3)
        ]
        assert isinstance(decide(profiles, 1, 50, 90.0, 600), RerouteNeeded)

    def test_tie_prefers_vip_partition(self):
        profiles = [
            self.prof(0, 50.0, span=(0, 200)),
            self.prof(1, 50.0, span=(200, 400)),
            self.prof(2, 50.0, span=(400, 600)),
        ]
        assert decide(profiles, 2, 10, 90.0, 600).partition == 2

    def test_heading_always_meets_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            profiles = [
                self.prof(
                    i,
                    float(rng.integers(0, 1000)),
                    width=int(rng.integers(0, 200)),
                    span=(200 * i, 200 * i + 200),
                )
                for i in range(3)
            ]
            threshold = int(rng.integers(0, 220))
            outcome = decide(profiles, int(rng.integers(0, 3)), threshold, 90.0, 600)
            if isinstance(outcome, Heading):
                assert profiles[outcome.partition].max_free_width >= threshold
            else:
                assert all(p.max_free_width < threshold for p in profiles)


class TestHeadingAngle:
    def test_center_zero(self):
        assert heading_angle(Partition(1, 200, 400), 600, 90.0) == pytest.approx(0.0)

    def test_right_positive(self):
        assert heading_angle(Partition(2, 400, 600), 600, 90.0) == pytest.approx(30.0)

    def test_left_negative(self):
        assert heading_angle(Partition(0, 0, 200), 600, 90.0) == pytest.approx(-30.0)

    def test_antisymmetry(self):
        for n in (3, 5, 7):
            parts = partition_bounds(630, n)
            for p, q in zip(parts, reversed(parts)):
                assert heading_angle(p, 630, 82.6) == pytest.approx(
                    -heading_angle(q, 630, 82.6)
                )

    def test_partition_must_fit(self):
        with pytest.raises(PlannerError):
            heading_angle(Partition(0, 0, 700), 600, 90.0)


class TestDepthOnlySuppression:
    def test_undetected_object_still_repels(self):
        # an obstacle present only in depth must push the heading away
        values = np.full((60, 90), 10, dtype=np.uint16)
        values[:, :30] = 60000  # something big and close on the left
        depth = DepthMap(width=90, height=60, values=values)
        parts = partition_bounds(90, 3)
        profiles = partition_profiles(depth, parts, [], 2.0)
        outcome = decide(profiles, 1, 5, 90.0, 90)
        assert isinstance(outcome, Heading)
        assert outcome.partition != 0


def test_width_threshold_px():
    assert width_threshold_px(100) == 120
    assert width_threshold_px(53) == 64  # ceil(63.6)
    assert width_threshold_px(10, PlannerConfig(width_margin=1.0)) == 10


PLANNER_SECTION_READERS = [
    (classify_obstacle, (1.0, 1.0)),
    (width_threshold_px, (10,)),
    # with a road mask: without one the probe reads no section
    (road_edge_check, (BoundingBox(275, 150, 365, 400), rle_encode(road_grid(640, 480)))),
]


@pytest.mark.parametrize(
    "fn,args", PLANNER_SECTION_READERS, ids=[fn.__name__ for fn, _ in PLANNER_SECTION_READERS]
)
@pytest.mark.parametrize(
    "cfg", [None, 1.0, {"width_margin": 1.0}, PipelineTuning()],
    ids=["none", "float", "dict", "tuning_section"],
)
def test_section_of_another_type_refused(fn, args, cfg):
    with pytest.raises(ConfigError) as info:
        fn(*args, cfg)
    assert str(info.value) == f"cfg {cfg!r} not a PlannerConfig"
