"""Perception data model: detections, segmentation masks and depth maps.

One :class:`PerceptionFrame` bundles everything the planner consumes for a
single video frame. The planner never talks to a neural runtime; whatever
produces detections, masks and relative depth (a live model stack or the
synthetic scenario generator) hands the results over in this form.

Depth convention: per-pixel 16-bit relative depth values (REV) where a
*larger* value means *nearer* to the camera. Masks are stored run-length
encoded; :func:`rle_encode` / :func:`rle_decode` convert to and from dense
boolean grids, and :func:`rle_encode_rect` builds the mask of a rectangle
minus the rectangles that cut it from their corners alone.
"""
from __future__ import annotations

import math
import operator
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
    """One detected object: open class label, box and confidence. `track_id`
    is the perception stack's instance id, keying `instance_masks`."""

    class_label: str
    bbox: BoundingBox
    confidence: float
    track_id: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ConsistencyError(f"confidence {self.confidence} outside [0,1]")
        if self.track_id is not None and self.track_id < 0:
            raise ConsistencyError(f"negative track_id {self.track_id}")


@dataclass(frozen=True)
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
        runs = tuple(self.runs)
        kinds = set(map(type, runs))
        if bool in kinds:  # operator.index would take True as 1
            raise ConsistencyError("run lengths must be integers")
        if not kinds <= {int}:  # exact ints need no conversion
            try:  # numpy ints convert exactly; floats are not truncated
                runs = tuple(map(operator.index, runs))
            except TypeError:
                raise ConsistencyError("run lengths must be integers") from None
        object.__setattr__(self, "runs", runs)
        if runs and min(runs) < 0:
            raise ConsistencyError("negative run length")
        total = sum(runs)
        if total != self.width * self.height:
            raise ConsistencyError(
                f"runs sum {total} != {self.width}x{self.height} pixels"
            )

    def decode(self, rows: tuple[int, int] | None = None) -> np.ndarray:
        """Expand to a boolean (height, width) grid, or only rows [y1, y2)."""
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
                raise ConsistencyError(f"depth values outside [0, {REV_MAX}]")
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


@dataclass(frozen=True)
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


def rle_encode(grid) -> BitMask:
    """Encode a boolean (height, width) grid into a canonical BitMask.

    Canonical means: no zero-length runs except possibly the leading
    background run when the grid starts with foreground.
    """
    g = np.asarray(grid, dtype=bool)
    if g.ndim != 2 or g.size == 0:
        raise ConsistencyError(f"expected a non-empty 2D grid, got shape {g.shape}")
    flat = g.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    # foreground at the first pixel has no change point there
    head = [0, 0] if flat[0] else [0]
    runs = np.diff(np.concatenate((head, edges, [flat.size])))
    return BitMask(width=g.shape[1], height=g.shape[0], runs=tuple(runs.tolist()))


def rle_encode_rect(rect, cuts, width: int, height: int) -> BitMask | None:
    """Canonical BitMask of a width x height frame whose foreground is the
    half-open ``rect`` (x1, y1, x2, y2) minus every rect in ``cuts``.

    Built from the corners alone, with no pixel scan: rows that the same
    cuts cross form a band, and every row of a band repeats one run
    pattern. Returns None when the cuts cover the whole rect. Every
    coordinate and size must be an integer; numpy ints convert exactly.
    """
    x1, y1, x2, y2, width, height = _pixel_ints((*rect, width, height))
    if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
        raise ConsistencyError(
            f"rect {list(rect)} empty or outside frame {width}x{height}"
        )
    # each cut clipped to the rect, in column order; a cut outside is empty
    clipped = (
        (max(u1, x1), min(u2, x2), max(v1, y1), min(v2, y2))
        for u1, v1, u2, v2 in map(_pixel_ints, cuts)
    )
    holes = sorted(h for h in clipped if h[0] < h[1] and h[2] < h[3])
    ys = sorted({y1, y2, *(v for hole in holes for v in hole[2:])})
    runs = []  # background, foreground, background, ...
    end = 0  # flat offset just past the last foreground run
    for ya, yb in zip(ys, ys[1:]):
        # the band's foreground columns: [x1, x2) minus the holes over it
        segs, s = [], x1
        for u1, u2, v1, v2 in holes:
            if v1 <= ya < v2:
                if s < u1:
                    segs.append((s, u1))
                s = max(s, u2)
        if s < x2:
            segs.append((s, x2))
        if not segs:
            continue
        # one row: foreground, gap, foreground, ..., foreground
        row = [segs[0][1] - segs[0][0]]
        for (_, prev_end), (start, stop) in zip(segs, segs[1:]):
            row += [start - prev_end, stop - start]
        n = yb - ya
        wrap = width - segs[-1][1] + segs[0][0]  # background between rows
        if wrap:
            band = (row + [wrap]) * n
            band.pop()
        elif len(row) == 1:  # full-width rows are one run
            band = [n * width]
        else:  # each row's last run joins the next row's first
            mid = row[1:-1]
            band = [row[0]] + (mid + [row[-1] + row[0]]) * (n - 1) + mid + [row[-1]]
        gap = ya * width + segs[0][0] - end
        if gap or not runs:
            runs.append(gap)
            runs += band
        else:  # the band's first run continues the last one
            runs[-1] += band[0]
            runs += band[1:]
        end = (yb - 1) * width + segs[-1][1]
    if not runs:
        return None
    if end < width * height:
        runs.append(width * height - end)
    return _canonical_mask(width, height, tuple(runs))


def _pixel_ints(values) -> tuple[int, ...]:
    """Pixel coordinates as exact ints, so every run built from them is one."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ConsistencyError(f"pixel coordinates {list(values)} must be integers") from None


def _canonical_mask(width: int, height: int, runs: tuple[int, ...]) -> BitMask:
    """A BitMask of runs built canonical: exact ints, none negative, summing
    to width * height. Set as they are, without BitMask's checks, which are
    for masks read from files or handed in by callers."""
    mask = object.__new__(BitMask)
    vars(mask).update(width=width, height=height, runs=runs)
    return mask


def rle_decode(mask: BitMask, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Expand a BitMask to a boolean (height, width) grid, or with
    ``rows=(y1, y2)`` to its band of rows [y1, y2) alone.

    When the rows above the band lie in the first run and the rows below
    it in the last run (as when no foreground lies outside the band), the
    band is expanded alone: those two runs are shortened, in constant
    work. Any other band is cut from the whole expanded grid. Run lengths
    are validated at construction, so decoding never writes out of bounds.
    """
    w, h = mask.width, mask.height
    runs = np.fromiter(mask.runs, dtype=np.int64, count=len(mask.runs))
    pattern = np.zeros(runs.size, dtype=bool)
    pattern[1::2] = True
    if rows is None:
        return np.repeat(pattern, runs).reshape(h, w)
    y1, y2 = rows
    if not 0 <= y1 <= y2 <= h:
        raise ConsistencyError(f"rows [{y1}, {y2}) outside mask height {h}")
    lead, tail = y1 * w, (h - y2) * w
    if mask.runs[0] >= lead and mask.runs[-1] >= tail:
        runs[0] -= lead  # one run alone is both first and last
        runs[-1] -= tail
        return np.repeat(pattern, runs).reshape(y2 - y1, w)
    return np.repeat(pattern, runs).reshape(h, w)[y1:y2]
