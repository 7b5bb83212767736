import numpy as np
import pytest

from vipguide.errors import ConfigError, ConsistencyError, InsufficientHistoryError
from vipguide.perception import BoundingBox, Detection
from vipguide.tracking import (
    APPROACH_WINDOW_S,
    Track,
    TrackPoint,
    Tracker,
    approach_rate,
    iou,
)

from conftest import det


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def track_by_id(tracker, track_id):
    for track in tracker.tracks:
        if track.track_id == track_id:
            return track
    return None


class TestIou:
    def test_identical(self):
        b = box(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 2, 2), box(5, 5, 7, 7)) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert iou(box(0, 0, 2, 2), box(2, 0, 4, 2)) == 0.0

    def test_partial(self):
        assert iou(box(0, 0, 2, 2), box(1, 0, 3, 2)) == pytest.approx(2 / 6)

    def test_symmetry(self):
        a, b = box(0, 0, 4, 4), box(2, 1, 6, 5)
        assert iou(a, b) == iou(b, a)


class TestAssociate:
    def test_fresh_detections_get_sequential_ids(self):
        tracker = Tracker()
        ids = tracker.step(0.0, [det("car", 0, 0, 4, 4), det("person", 5, 5, 8, 9)])
        assert ids == [0, 1]
        assert sorted(t.track_id for t in tracker.tracks) == [0, 1]

    def test_match_extends_history(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        ids = tracker.step(1 / 30, [det("car", 1, 0, 11, 10)])  # IoU ~0.82
        assert ids == [0]
        track = track_by_id(tracker, 0)
        assert len(track.history) == 2
        assert track.misses == 0

    def test_class_gate(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        ids = tracker.step(1 / 30, [det("person", 0, 0, 10, 10)])
        assert ids == [1]  # same box, different class: new track

    def test_threshold_gate(self):
        tracker = Tracker(iou_threshold=0.9)
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        ids = tracker.step(1 / 30, [det("car", 3, 0, 13, 10)])
        assert ids == [1]

    def test_greedy_prefers_higher_iou(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10), det("car", 20, 0, 30, 10)])
        ids = tracker.step(
            1 / 30, [det("car", 19, 0, 29, 10), det("car", 1, 0, 11, 10)]
        )
        # det 0 overlaps track 1 strongly, det 1 overlaps track 0 strongly
        assert ids == [1, 0]

    def test_miss_holds_last_bbox(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        tracker.step(1 / 30, [])
        track = track_by_id(tracker, 0)
        assert track.misses == 1
        assert track.last_bbox == box(0, 0, 10, 10)
        # a detection overlapping the held bbox re-attaches
        ids = tracker.step(2 / 30, [det("car", 1, 0, 11, 10)])
        assert ids == [0]
        assert track_by_id(tracker, 0).misses == 0

    def test_retirement_boundary(self):
        tracker = Tracker(max_misses=3)
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        for k in range(3):
            tracker.step((k + 1) / 30, [])
        assert track_by_id(tracker, 0) is not None  # misses == max_misses: still held
        tracker.step(4 / 30, [])
        assert track_by_id(tracker, 0) is None  # misses exceeded: retired

    def test_ids_never_reused(self):
        tracker = Tracker(max_misses=0)
        seen = set()
        for k in range(6):
            ids = tracker.step(
                k / 30.0, [det("car", 0, 0, 4, 4)] if k % 2 == 0 else []
            )
            for track_id in ids:
                assert track_id not in seen
                seen.add(track_id)
        assert seen == {0, 1, 2}

    def test_non_increasing_timestamp_rejected(self):
        tracker = Tracker()
        tracker.step(1.0, [det("car", 0, 0, 10, 10)])
        for t in (1.0, 0.5):
            with pytest.raises(ConsistencyError, match="track 0"):
                tracker.step(t, [det("car", 0, 0, 10, 10)])
        assert len(track_by_id(tracker, 0).history) == 1  # state untouched

    def test_deterministic(self):
        def run():
            tracker = Tracker()
            out = []
            for k in range(5):
                ids = tracker.step(
                    k / 30.0,
                    [det("car", k, 0, 10 + k, 10), det("car", 30 - k, 0, 40 - k, 10)],
                )
                out.append(tuple(ids))
            return out

        assert run() == run()


class TestApproachRate:
    def make_track(self, points):
        return Track(
            track_id=0,
            class_label="car",
            history=tuple(
                TrackPoint(timestamp=t, bbox=box(0, 0, 4, 4), distance_m=d)
                for t, d in points
            ),
        )

    def test_two_point_slope(self):
        track = self.make_track([(0.0, 5.0), (1.0, 4.0)])
        assert approach_rate(track) == pytest.approx(1.0)

    def test_constant_distance(self):
        track = self.make_track([(0.0, 3.0), (0.5, 3.0), (1.0, 3.0)])
        assert approach_rate(track) == pytest.approx(0.0)

    def test_exact_linear_fit(self):
        track = self.make_track([(0.0, 6.0), (1.0, 5.0), (2.0, 4.0)])
        assert approach_rate(track) == pytest.approx(1.0)

    def test_receding_is_negative(self):
        track = self.make_track([(0.0, 4.0), (1.0, 5.0)])
        assert approach_rate(track) < 0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            approach_rate(self.make_track([(0.0, 5.0)]))
        with pytest.raises(InsufficientHistoryError):
            approach_rate(self.make_track([]))

    def test_missing_distances_skipped(self):
        track = Track(
            track_id=0,
            class_label="car",
            history=(
                TrackPoint(0.0, box(0, 0, 4, 4), 5.0),
                TrackPoint(1.0, box(0, 0, 4, 4), None),
                TrackPoint(2.0, box(0, 0, 4, 4), None),
            ),
        )
        with pytest.raises(InsufficientHistoryError):
            approach_rate(track)


def rate_or_none(track):
    try:
        return approach_rate(track)
    except InsufficientHistoryError:
        return None


def test_window_trim_matches_untrimmed_oracle():
    """Tracks appear, coast, retire; each history is the window cut from the full one.

    Six lanes of jittering boxes run for 900 frames at 30 fps. Each lane
    hides for bursts of 1-11 frames: up to max_misses the track coasts,
    longer and it retires and the lane comes back under a new id. Next to
    the tracker, every point each id ever received is kept.
    """
    rng = np.random.default_rng(11)
    fps, n_frames, n_lanes = 30, 900, 6
    tracker = Tracker(max_misses=5)
    full: dict[int, list[TrackPoint]] = {}
    hidden = [int(rng.integers(0, 120)) for _ in range(n_lanes)]
    coasted = rated = 0
    for k in range(n_frames):
        t = k / fps
        detections, distances = [], []
        for lane in range(n_lanes):
            if hidden[lane] > 0:
                hidden[lane] -= 1
                continue
            if rng.random() < 0.03:
                hidden[lane] = int(rng.integers(1, 12))
            x = 100 * lane + k % 7
            label = "car" if lane % 2 else "person"
            detections.append(det(label, x, 50, x + 40, 150))
            d = 30.0 - 0.5 * t + float(rng.normal(0.0, 0.2))
            distances.append(None if rng.random() < 0.1 else d)
        ids = tracker.step(t, detections)
        tracker.attach_distances(
            t,
            {
                track_id: dist
                for track_id, dist in zip(ids, distances)
                if dist is not None
            },
        )
        for d_obj, track_id, dist in zip(detections, ids, distances):
            full.setdefault(track_id, []).append(
                TrackPoint(timestamp=t, bbox=d_obj.bbox, distance_m=dist)
            )

        for track in tracker.tracks:
            coasted += track.misses > 0
            history = track.history
            assert history[-1].timestamp - history[0].timestamp <= APPROACH_WINDOW_S
            points = full[track.track_id]
            assert history[-1] == points[-1]
            # the oracle cuts the window from every point the id received
            t_end = points[-1].timestamp
            window = [p for p in points if p.timestamp >= t_end - APPROACH_WINDOW_S]
            assert history == window
            oracle = Track(track.track_id, track.class_label, window)
            expected = rate_or_none(oracle)
            assert rate_or_none(track) == expected
            rated += expected is not None

    live_ids = {track.track_id for track in tracker.tracks}
    assert coasted > 0
    assert len(set(full) - live_ids) > n_lanes  # many tracks retired
    assert max(len(p) for p in full.values()) > 3 * fps  # trimming fired
    assert rated > n_frames


def test_history_timestamps_must_increase():
    with pytest.raises(ConsistencyError, match="strictly increasing"):
        Track(
            track_id=0,
            class_label="car",
            history=[
                TrackPoint(1.0, box(0, 0, 2, 2), None),
                TrackPoint(1.0, box(0, 0, 2, 2), None),
            ],
        )


def test_negative_misses_rejected():
    with pytest.raises(ConsistencyError, match="negative misses"):
        Track(0, "car", [TrackPoint(0.0, box(0, 0, 2, 2))], misses=-1)


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5])
def test_iou_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(ConfigError, match="iou_threshold"):
        Tracker(iou_threshold=threshold)


class TestInPlace:
    def test_step_updates_the_same_track_objects(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10)])
        track = tracker.tracks[0]
        tracker.step(1 / 30, [det("car", 1, 0, 11, 10)])
        assert tracker.tracks == [track] and tracker.tracks[0] is track
        assert [p.timestamp for p in track.history] == [0.0, 1 / 30]
        tracker.step(2 / 30, [])
        assert track.misses == 1

    def test_raise_leaves_every_track_as_it_was(self):
        """A (coasting, newest point at t=0) comes before B (newest at t=1)
        in the track list; a step at t=0.5 matching both must raise on B
        without having touched A."""
        a_box, b_box = (0, 0, 10, 10), (50, 0, 60, 10)
        tracker = Tracker()
        tracker.step(0.0, [det("car", *a_box)])
        tracker.step(1.0, [det("person", *b_box)])
        track_a = track_by_id(tracker, 0)
        assert track_a.misses == 1
        history_a = list(track_a.history)
        with pytest.raises(ConsistencyError, match="track 1"):
            tracker.step(0.5, [det("car", *a_box), det("person", *b_box)])
        assert track_a.history == history_a
        assert track_a.misses == 1
        assert [t.track_id for t in tracker.tracks] == [0, 1]

    def test_attach_distances_writes_only_this_frames_points(self):
        tracker = Tracker()
        tracker.step(0.0, [det("car", 0, 0, 10, 10), det("person", 50, 0, 60, 10)])
        tracker.step(1 / 30, [det("car", 0, 0, 10, 10)])  # person coasts
        car, person = track_by_id(tracker, 0), track_by_id(tracker, 1)
        # the person has no point at 1/30; id 99 has no track at all
        tracker.attach_distances(1 / 30, {0: 2.0, 1: 3.0, 99: 4.0})
        assert [p.distance_m for p in car.history] == [None, 2.0]
        assert [p.distance_m for p in person.history] == [None]
        # only a track's newest point is written: the car's at 0.0 is not
        tracker.attach_distances(0.0, {0: 9.0})
        assert [p.distance_m for p in car.history] == [None, 2.0]


def reference_step(tracker, timestamp, detections):
    """`Tracker.step` as it was written before its passes were folded: all
    matches first, then the order check over the matched tracks, then the
    track updates, then the id of each detection. The folded step must agree
    with it."""
    candidates = []
    for t_pos, track in enumerate(tracker.tracks):
        for d_idx, d_obj in enumerate(detections):
            if d_obj.class_label != track.class_label:
                continue
            overlap = iou(track.last_bbox, d_obj.bbox)
            if overlap >= tracker.iou_threshold:
                candidates.append((-overlap, d_idx, t_pos))
    candidates.sort()
    det_match, track_match = {}, {}
    for _, d_idx, t_pos in candidates:
        if d_idx in det_match or t_pos in track_match:
            continue
        det_match[d_idx] = t_pos
        track_match[t_pos] = d_idx
    for t_pos in sorted(track_match):
        if timestamp <= tracker.tracks[t_pos].history[-1].timestamp:
            raise ConsistencyError(f"track {tracker.tracks[t_pos].track_id}")
    horizon = timestamp - APPROACH_WINDOW_S
    kept = []
    for t_pos, track in enumerate(tracker.tracks):
        d_idx = track_match.get(t_pos)
        if d_idx is None:
            if track.misses >= tracker.max_misses:
                continue
            track.misses += 1
        else:
            history = track.history
            while history and history[0].timestamp < horizon:
                del history[0]
            history.append(TrackPoint(timestamp, detections[d_idx].bbox))
            track.misses = 0
        kept.append(track)
    ids = []
    for d_idx, d_obj in enumerate(detections):
        if d_idx in det_match:
            tid = tracker.tracks[det_match[d_idx]].track_id
        else:
            tid = tracker._next_id
            tracker._next_id += 1
            kept.append(Track(tid, d_obj.class_label, [TrackPoint(timestamp, d_obj.bbox)]))
        ids.append(tid)
    tracker.tracks = kept
    return ids


def tracker_state(tracker):
    return tracker._next_id, [
        (t.track_id, t.class_label, t.misses, list(t.history)) for t in tracker.tracks
    ]


@pytest.mark.parametrize("seed", range(6))
def test_step_matches_reference_step(seed):
    """Random lanes of mixed classes overlap, jitter, jump, double up, hide (coasting,
    or retiring at max_misses and coming back under a new id) and sometimes
    pause past the approach window. After every frame the folded step and
    the reference give the same ids, misses and whole histories; a frame
    stamped no later than the last raises in both and touches neither."""
    rng = np.random.default_rng(seed)
    max_misses = int(rng.integers(0, 6))
    new, ref = Tracker(max_misses=max_misses), Tracker(max_misses=max_misses)
    n_lanes = int(rng.integers(3, 9))
    labels = [str(rng.choice(["car", "person", "tree"])) for _ in range(n_lanes)]
    xs = [int(rng.integers(0, 200)) for _ in range(n_lanes)]
    hidden = [0] * n_lanes
    t, retired, coasted, raised = 0.0, 0, 0, 0
    for k in range(400):
        t += 1.5 if rng.random() < 0.02 else 1 / 30
        detections = []
        for lane in range(n_lanes):
            if hidden[lane] > 0:
                hidden[lane] -= 1
                continue
            if rng.random() < 0.05:
                hidden[lane] = int(rng.integers(1, max_misses + 4))
            if rng.random() < 0.02:
                xs[lane] = int(rng.integers(0, 200))  # jumps: a new id
            xs[lane] = max(0, xs[lane] + int(rng.integers(-2, 3)))
            x = xs[lane]
            detections.append(det(labels[lane], x, 10, x + 30, 60 + lane))
            if rng.random() < 0.03:  # a double detection: tied overlaps
                detections.append(det(labels[lane], x, 10, x + 30, 60 + lane))
        rng.shuffle(detections)
        ids_before = {tr.track_id for tr in ref.tracks}
        ids = new.step(t, list(detections))
        assert ids == reference_step(ref, t, list(detections))
        distances = {track_id: float(rng.uniform(1, 9)) for track_id in ids}
        new.attach_distances(t, distances)
        ref.attach_distances(t, distances)
        assert tracker_state(new) == tracker_state(ref)
        retired += len(ids_before - {tr.track_id for tr in ref.tracks})
        coasted += sum(tr.misses > 0 for tr in ref.tracks)
        if k % 50 == 49 and any(tr.misses == 0 for tr in ref.tracks):
            stale = [Detection(tr.class_label, tr.last_bbox, 0.9) for tr in ref.tracks]
            for tracker, step in ((new, Tracker.step), (ref, reference_step)):
                with pytest.raises(ConsistencyError):
                    step(tracker, t, stale)
            assert tracker_state(new) == tracker_state(ref)
            raised += 1
    assert retired > 5 and coasted > 0 and raised > 0
