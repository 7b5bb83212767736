"""Annotated frame rendering to binary PPM.

Depth becomes the grayscale backdrop; boxes are drawn over it: the VIP in
blue, danger obstacles red, warnings yellow, and the chosen heading as a
full-height green partition box. PPM (P6) keeps the pixels byte-exact for
golden-file comparisons without an image dependency.
"""
from __future__ import annotations

import numpy as np

from .errors import FrameDecodeError
from .local_planner import GuidanceDecision, Heading
from .perception import PerceptionFrame, clip_rect

BLUE = (0, 0, 255)
RED = (255, 0, 0)
YELLOW = (255, 255, 0)
GREEN = (0, 255, 0)

SEVERITY_COLOR = {"danger": RED, "warning": YELLOW}


def draw_box(image: np.ndarray, x1: int, y1: int, x2: int, y2: int, color, thickness: int = 2) -> None:
    """Rectangle outline, clipped to the image."""
    h, w = image.shape[:2]
    rect = clip_rect((x1, y1, x2, y2), (0, 0, w, h))
    if rect is None:
        return
    x1, y1, x2, y2 = rect
    t = thickness
    image[y1 : min(y1 + t, y2), x1:x2] = color
    image[max(y2 - t, y1) : y2, x1:x2] = color
    image[y1:y2, x1 : min(x1 + t, x2)] = color
    image[y1:y2, max(x2 - t, x1) : x2] = color


def annotate_frame(frame: PerceptionFrame, decision: GuidanceDecision) -> np.ndarray:
    """Render one frame and its decision to an (H, W, 3) uint8 image."""
    gray = (frame.depth.values >> 8).astype(np.uint8)
    image = np.repeat(gray[:, :, None], 3, axis=2)

    for a in decision.assessments:
        color = SEVERITY_COLOR.get(a.severity)
        if color is not None:
            draw_box(image, a.bbox.x1, a.bbox.y1, a.bbox.x2, a.bbox.y2, color)

    vip = frame.vip_detection
    if vip is not None:
        draw_box(image, vip.bbox.x1, vip.bbox.y1, vip.bbox.x2, vip.bbox.y2, BLUE)

    if isinstance(decision.outcome, Heading):
        p = decision.partitions[decision.outcome.partition]
        draw_box(image, p.x_start, 0, p.x_end, frame.height, GREEN, thickness=3)
    return image


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM (P6, maxval 255)."""
    arr = np.asarray(image, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FrameDecodeError(f"expected (H, W, 3) image, got shape {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())
