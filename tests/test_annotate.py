from dataclasses import replace

import numpy as np
import pytest

from vipguide.annotate import (
    BLUE,
    GREEN,
    RED,
    YELLOW,
    annotate_frame,
    draw_box,
    write_ppm,
)
from vipguide.errors import FrameDecodeError
from vipguide.local_planner import (
    GuidanceDecision,
    Heading,
    partition_bounds,
)

from conftest import det, make_frame, ob, read_ppm


class TestDrawBox:
    def test_outline_only(self):
        image = np.zeros((10, 10, 3), dtype=np.uint8)
        draw_box(image, 2, 2, 8, 8, RED, thickness=1)
        assert tuple(image[2, 5]) == RED       # top edge
        assert tuple(image[7, 5]) == RED       # bottom edge
        assert tuple(image[5, 2]) == RED       # left edge
        assert tuple(image[5, 7]) == RED       # right edge
        assert tuple(image[5, 5]) == (0, 0, 0)  # interior untouched

    def test_clipping(self):
        image = np.zeros((10, 10, 3), dtype=np.uint8)
        draw_box(image, -5, -5, 5, 5, GREEN)
        assert tuple(image[0, 0]) == GREEN

    def test_fully_off_image_is_noop(self):
        image = np.zeros((10, 10, 3), dtype=np.uint8)
        draw_box(image, 20, 20, 30, 30, RED)
        assert not image.any()


def flat_colors(image):
    return {tuple(px) for px in image.reshape(-1, 3)}


class TestAnnotateFrame:
    def scene(self):
        depth = np.full((60, 90), 32896, dtype=np.uint16)  # gray 128
        dets = [
            det("vip", 10, 20, 25, 55, track_id=0),
            det("car", 40, 20, 60, 50, track_id=1),
            det("person", 65, 20, 80, 50, track_id=2),
        ]
        frame = make_frame(depth, dets)
        decision = GuidanceDecision(
            frame_id=0,
            outcome=Heading(partition=0, angle_deg=-30.0),
            assessments=(
                ob(40, 20, 60, 50, 0.5, "danger", "car", track_id=1),
                ob(65, 20, 80, 50, 2.0, "warning", "person", track_id=2),
            ),
            edge_status="safe",
            partitions=tuple(partition_bounds(90, 3)),
        )
        return frame, decision

    def test_all_overlays_present(self):
        frame, decision = self.scene()
        image = annotate_frame(frame, decision)
        colors = flat_colors(image)
        assert {BLUE, RED, YELLOW, GREEN} <= colors
        assert (128, 128, 128) in colors  # depth backdrop survives

    def test_gray_backdrop_from_high_byte(self):
        frame, decision = self.scene()
        image = annotate_frame(frame, decision)
        assert tuple(image[58, 35]) == (128, 128, 128)

    def test_clear_obstacles_not_boxed(self):
        frame, decision = self.scene()
        decision = replace(
            decision,
            outcome=None,
            assessments=(ob(40, 20, 60, 50, 9.0, "clear", track_id=1),),
        )
        image = annotate_frame(frame, decision)
        colors = flat_colors(image)
        assert RED not in colors and YELLOW not in colors
        assert GREEN not in colors  # no heading either
        assert BLUE in colors       # the pedestrian box always draws

    def test_obstacle_boxes_come_from_the_assessments(self):
        """Each assessment draws at its own box: the frame's detections,
        here the VIP alone, are not read for obstacles."""
        frame, decision = self.scene()
        vip_only = tuple(d for d in frame.detections if d.class_label == "vip")
        image = annotate_frame(replace(frame, detections=vip_only), decision)
        assert tuple(image[20, 50]) == RED     # the danger box
        assert tuple(image[20, 72]) == YELLOW  # the warning box

    def test_heading_partition_outlined(self):
        frame, decision = self.scene()
        image = annotate_frame(frame, decision)
        assert tuple(image[0, 15]) == GREEN    # top edge of partition 0
        assert tuple(image[59, 15]) == GREEN   # bottom edge


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(12, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        assert np.array_equal(read_ppm(path), image)

    def test_header_bytes(self, tmp_path):
        image = np.zeros((2, 3, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        assert path.read_bytes() == b"P6\n3 2\n255\n" + bytes(18)

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(FrameDecodeError, match="shape"):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(18))
        with pytest.raises(FrameDecodeError, match="not a binary PPM"):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n3 2\n255\n" + bytes(10))
        with pytest.raises(FrameDecodeError, match="raster"):
            read_ppm(path)
