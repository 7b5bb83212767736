import csv
import os

import numpy as np
import pytest

from vipguide.calibration import CalibrationModel, CalibrationSample
from vipguide.errors import FrameDecodeError
from vipguide.perception import BoundingBox, DepthMap, Detection, PerceptionFrame

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def campus_graph_path():
    return os.path.join(DATA_DIR, "campus_graph.json")


@pytest.fixture
def identity_model():
    """distance = rev, for tests that want REV/65535 passed straight through."""
    return CalibrationModel(a=0.0, b=1.0, c=0.0, rmse=0.0, n_samples=3)


def make_frame(
    depth_values,
    detections=(),
    frame_id=0,
    timestamp=0.0,
    vip_mask=None,
    road_mask=None,
    instance_masks=None,
):
    """Frame from a raw 2D array plus optional parts; dims inferred."""
    arr = np.asarray(depth_values, dtype=np.uint16)
    h, w = arr.shape
    return PerceptionFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        width=w,
        height=h,
        depth=DepthMap(width=w, height=h, values=arr),
        detections=tuple(detections),
        vip_mask=vip_mask,
        road_mask=road_mask,
        instance_masks=instance_masks or {},
    )


def det(label, x1, y1, x2, y2, confidence=0.9, track_id=None):
    return Detection(
        class_label=label,
        bbox=BoundingBox(x1, y1, x2, y2),
        confidence=confidence,
        track_id=track_id,
    )


def mask_from_bbox(bbox: BoundingBox, width: int, height: int) -> np.ndarray:
    """Boolean grid with the (clipped) bbox interior set."""
    grid = np.zeros((height, width), dtype=bool)
    x1 = max(0, min(width, bbox.x1))
    x2 = max(0, min(width, bbox.x2))
    y1 = max(0, min(height, bbox.y1))
    y2 = max(0, min(height, bbox.y2))
    grid[y1:y2, x1:x2] = True
    return grid


def read_ppm(path) -> np.ndarray:
    """Read back a binary PPM (P6, maxval 255) as written by write_ppm."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise FrameDecodeError(f"{path}: not a binary PPM")
    try:
        w, h = (int(tok) for tok in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FrameDecodeError(f"{path}: bad PPM header") from exc
    if maxval != 255:
        raise FrameDecodeError(f"{path}: maxval {maxval}, expected 255")
    raster = parts[3]
    if len(raster) != w * h * 3:
        raise FrameDecodeError(
            f"{path}: raster has {len(raster)} bytes, expected {w * h * 3}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def save_samples_csv(path, samples: list[CalibrationSample]) -> None:
    """Write samples in the CSV layout `calibrate --samples` reads."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rev", "distance_m"])
        for s in samples:
            writer.writerow([repr(s.rev), repr(s.distance)])
