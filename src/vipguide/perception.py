"""Perception data model: detections, segmentation masks and depth maps.

One :class:`PerceptionFrame` bundles everything the planner consumes for a
single video frame. The planner never talks to a neural runtime; whatever
produces detections, masks and relative depth (a live model stack or the
synthetic scenario generator) hands the results over in this form.

Depth convention: per-pixel 16-bit relative depth values (REV) where a
*larger* value means *nearer* to the camera. Masks are stored run-length
encoded; :func:`rle_encode` / :func:`rle_decode` convert to and from dense
boolean grids, and :func:`rle_encode_window` encodes a frame that is
background outside one rectangle by scanning that rectangle alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError

REV_MAX = 65535


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, origin top-left, half-open on both axes."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ConsistencyError(f"degenerate bbox {self.as_list()}")
        if self.x1 < 0 or self.y1 < 0:
            raise ConsistencyError(f"negative bbox corner {self.as_list()}")

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def center_x(self) -> float:
        return (self.x1 + self.x2) / 2.0

    def as_list(self) -> list[int]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class Detection:
    """One detected object: open class label, box and confidence."""

    class_label: str
    bbox: BoundingBox
    confidence: float
    track_id: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ConsistencyError(f"confidence {self.confidence} outside [0,1]")
        if self.track_id is not None and self.track_id < 0:
            raise ConsistencyError(f"negative track_id {self.track_id}")


@dataclass(frozen=True, eq=False)
class BitMask:
    """Binary mask as alternating background/foreground run lengths.

    Runs are row-major over the flattened grid and always start with a
    background run (possibly zero-length, when the grid starts with
    foreground). The run lengths must sum to ``width * height``.
    """

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConsistencyError(f"mask dims {self.width}x{self.height} not positive")
        try:
            runs = tuple(np.fromiter(self.runs, dtype=np.int64).tolist())
        except OverflowError:  # a run beyond int64: Python ints hold it exactly
            runs = tuple(map(int, self.runs))
        object.__setattr__(self, "runs", runs)
        if runs and min(runs) < 0:
            raise ConsistencyError("negative run length")
        total = sum(runs)
        if total != self.width * self.height:
            raise ConsistencyError(
                f"runs sum {total} != {self.width}x{self.height} pixels"
            )

    def decode(self, rows: tuple[int, int] | None = None) -> np.ndarray:
        """Expand to a boolean grid: all rows, or the half-open span ``rows``."""
        return rle_decode(self, rows)

    def foreground_rows(self) -> tuple[int, int]:
        """Half-open row span holding every foreground pixel; (0, 0) when none.

        Read from the runs alone: for a canonical mask only the leading
        and trailing background runs are summed.
        """
        runs = self.runs
        first = 1
        while first < len(runs) and runs[first] == 0:
            first += 2
        if first >= len(runs):
            return 0, 0
        last = len(runs) - 1 if len(runs) % 2 == 0 else len(runs) - 2
        while runs[last] == 0:
            last -= 2
        start = sum(runs[:first])
        end = self.width * self.height - sum(runs[last + 1 :])
        return start // self.width, (end - 1) // self.width + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return (self.width, self.height, self.runs) == (
            other.width,
            other.height,
            other.runs,
        )


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Row-major 16-bit relative depth map (larger REV = nearer)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype != np.uint16:
            if arr.size and (arr.min() < 0 or arr.max() > REV_MAX):
                raise ConsistencyError("depth values outside [0, 65535]")
            arr = arr.astype(np.uint16)
        if arr.shape != (self.height, self.width):
            if arr.size == self.width * self.height:
                arr = arr.reshape(self.height, self.width)
            else:
                raise ConsistencyError(
                    f"depth has {arr.size} values, expected {self.width * self.height}"
                )
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepthMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class PerceptionFrame:
    """Time-stamped bundle of detections, masks and depth for one frame."""

    frame_id: int
    timestamp: float
    width: int
    height: int
    depth: DepthMap
    detections: tuple[Detection, ...] = ()
    vip_mask: BitMask | None = None
    road_mask: BitMask | None = None
    instance_masks: dict[int, BitMask] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        # NaN compares false both ways, so it would slip past every order check
        if not math.isfinite(self.timestamp):
            raise ConsistencyError(
                f"frame {self.frame_id}: timestamp {self.timestamp} not finite"
            )
        if self.depth.width != self.width or self.depth.height != self.height:
            raise ConsistencyError(
                f"depth dims {self.depth.width}x{self.depth.height} != "
                f"frame dims {self.width}x{self.height}"
            )
        for name, mask in self._named_masks():
            if mask.width != self.width or mask.height != self.height:
                raise ConsistencyError(
                    f"{name} dims {mask.width}x{mask.height} != "
                    f"frame dims {self.width}x{self.height}"
                )
        vips = [d for d in self.detections if d.class_label == "vip"]
        if len(vips) > 1:
            raise ConsistencyError(f"{len(vips)} vip detections in one frame")
        for det in self.detections:
            if det.bbox.x2 > self.width or det.bbox.y2 > self.height:
                raise ConsistencyError(
                    f"bbox {det.bbox.as_list()} exceeds frame {self.width}x{self.height}"
                )

    def _named_masks(self):
        if self.vip_mask is not None:
            yield "vip_mask", self.vip_mask
        if self.road_mask is not None:
            yield "road_mask", self.road_mask
        for track_id, mask in self.instance_masks.items():
            yield f"instance_masks[{track_id}]", mask

    @property
    def vip_detection(self) -> Detection | None:
        for det in self.detections:
            if det.class_label == "vip":
                return det
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerceptionFrame):
            return NotImplemented
        return (
            self.frame_id == other.frame_id
            and self.timestamp == other.timestamp
            and self.width == other.width
            and self.height == other.height
            and self.detections == other.detections
            and self.vip_mask == other.vip_mask
            and self.road_mask == other.road_mask
            and self.instance_masks == other.instance_masks
            and self.depth == other.depth
        )


def rle_encode(grid) -> BitMask:
    """Encode a boolean (height, width) grid into a canonical BitMask.

    Canonical means: no zero-length runs except possibly the leading
    background run when the grid starts with foreground.
    """
    g = np.asarray(grid, dtype=bool)
    if g.ndim != 2:
        raise ConsistencyError(f"expected a non-empty 2D grid, got shape {g.shape}")
    return rle_encode_window(g, 0, 0, g.shape[1], g.shape[0])


def rle_encode_window(window, x: int, y: int, width: int, height: int) -> BitMask:
    """Canonical BitMask of a width x height frame that is background except
    for the boolean ``window``, whose top-left pixel sits at column x, row y.

    Costs O(window pixels), not O(frame): only the window is scanned, and
    its foreground run edges are mapped to flat frame offsets.
    """
    w = np.asarray(window, dtype=bool)
    if w.ndim != 2 or w.size == 0:
        raise ConsistencyError(f"expected a non-empty 2D grid, got shape {w.shape}")
    rows, cols = w.shape
    if x < 0 or y < 0 or x + cols > width or y + rows > height:
        raise ConsistencyError(
            f"window {cols}x{rows} at ({x},{y}) outside frame {width}x{height}"
        )
    if cols == width:
        # full-width rows are contiguous in the frame: one flat scan
        flat = w.ravel()
        start = y * width
        edges = np.flatnonzero(flat[1:] != flat[:-1]) + (start + 1)
    else:
        # a background column after each row keeps runs from crossing rows
        padded = np.zeros((rows, cols + 1), dtype=bool)
        padded[:, :cols] = w
        flat = padded.ravel()
        start = y * width + x
        row, col = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]) + 1, cols + 1)
        edges = (row + y) * width + (col + x)
    # foreground at the scan's first or last pixel has no change point there
    head = [0, start] if flat[0] else [0]
    tail = [start + flat.size, width * height] if flat[-1] else [width * height]
    bounds = np.concatenate((head, edges, tail))
    runs = bounds[1:] - bounds[:-1]
    if runs[-1] == 0:  # foreground reaches the frame's last pixel
        runs = runs[:-1]
    return BitMask(width=width, height=height, runs=tuple(runs.tolist()))


def rle_decode(mask: BitMask, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Expand a BitMask to a boolean (height, width) grid.

    With ``rows = (y0, y1)`` only that half-open row span is expanded, into
    a (y1 - y0, width) grid: each run is clipped to the span, so the cost
    is O(runs) plus the pixels returned. Run lengths are validated at
    construction, so decoding never writes out of bounds.
    """
    runs = np.fromiter(mask.runs, dtype=np.int64, count=len(mask.runs))
    pattern = np.zeros(runs.size, dtype=bool)
    pattern[1::2] = True
    y0, y1 = (0, mask.height) if rows is None else rows
    if not 0 <= y0 <= y1 <= mask.height:
        raise ConsistencyError(f"rows [{y0},{y1}) outside mask height {mask.height}")
    if (y0, y1) != (0, mask.height):
        ends = np.cumsum(runs)
        lo, hi = y0 * mask.width, y1 * mask.width
        runs = np.maximum(np.minimum(ends, hi) - np.maximum(ends - runs, lo), 0)
    flat = np.repeat(pattern, runs)
    return flat.reshape(y1 - y0, mask.width)


def mask_from_bbox(bbox: BoundingBox, width: int, height: int) -> np.ndarray:
    """Boolean grid with the (clipped) bbox interior set."""
    grid = np.zeros((height, width), dtype=bool)
    x1 = max(0, min(width, bbox.x1))
    x2 = max(0, min(width, bbox.x2))
    y1 = max(0, min(height, bbox.y1))
    y2 = max(0, min(height, bbox.y2))
    grid[y1:y2, x1:x2] = True
    return grid


def luma_convert(rgb) -> np.ndarray:
    """Convert interleaved 8-bit RGB values to 8-bit luma grayscale.

    Uses the BT.601 weights 0.299/0.587/0.114 with half-up rounding,
    clamped to [0, 255]. Accepts a flat array with length divisible by 3
    or any array whose last axis has size 3; the channel axis is dropped
    in the result.
    """
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim >= 2 and arr.shape[-1] == 3:
        channels = arr
        out_shape = arr.shape[:-1]
    else:
        flat = arr.ravel()
        if flat.size % 3 != 0:
            raise ConsistencyError(f"rgb array length {flat.size} not divisible by 3")
        channels = flat.reshape(-1, 3)
        out_shape = (flat.size // 3,)
    y = 0.299 * channels[..., 0] + 0.587 * channels[..., 1] + 0.114 * channels[..., 2]
    y = np.clip(np.floor(y + 0.5), 0, 255)
    return y.astype(np.uint8).reshape(out_shape)


def gray8_to_rev(gray) -> np.ndarray:
    """Scale an 8-bit grayscale depth rendering to 16-bit REV (x257)."""
    g = np.asarray(gray, dtype=np.uint16)
    return g * np.uint16(257)
