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
import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConsistencyError

REV_MAX = 65535
# what numpy < 1.24 warns as it builds an object array of a ragged list (1.25 has np.exceptions)
_RAGGED_WARNING = getattr(np, "exceptions", np).VisibleDeprecationWarning


def _exact_int(value) -> int | None:
    """`value` as an exact int, or None when it is not one. `operator.index`
    converts numpy ints and refuses floats; a bool, which it would take as
    0 or 1, is refused too."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _exact_ints(values) -> tuple[int, ...] | None:
    """`values` as a tuple of exact ints, or None when they are not iterable or
    `_exact_int` refuses one. Python ints, the common case, are kept as they are."""
    try:
        ints = tuple(values)
    except TypeError:  # not iterable
        return None
    for v in ints:
        if type(v) is not int:  # rare: convert them all
            ints = tuple(map(_exact_int, ints))
            return None if None in ints else ints
    return ints


def int_fields(obj, *names: str, error=ConsistencyError, what: str = "") -> None:
    """Store each named field of the frozen dataclass `obj` as an exact int;
    a value `_exact_int` refuses raises `error`, prefixed by `what`."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            exact = _exact_int(value)
            if exact is None:
                raise error(f"{what}{name} {value!r} not an integer")
            object.__setattr__(obj, name, exact)


def _positive_dims(obj, what: str) -> None:
    """Store `obj`'s width and height as exact ints, both positive."""
    int_fields(obj, "width", "height")
    if obj.width <= 0 or obj.height <= 0:
        raise ConsistencyError(f"{what} dims {obj.width}x{obj.height} not positive")


def finite_real(value, name: str, error, what: str = ""):
    """`value` if it is a finite real and not a bool (NaN would slip past
    every later check): Python ints and floats as given, other reals (numpy
    floats) as floats. Else raise `error`, its message prefixed by `what`."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise error(f"{what}{name} {value!r} not a real number")
    try:
        as_float = float(value)
    except OverflowError:  # an int too large for a float
        raise error(f"{what}{name} beyond float range") from None
    if not -math.inf < as_float < math.inf:
        raise error(f"{what}{name} {as_float!r} not finite")
    return value if type(value) is int else as_float


def real_fields(obj, *names: str, error=ConsistencyError, what: str = "") -> None:
    """Store each named field of the frozen dataclass `obj` as `finite_real` returns it."""
    for name in names:
        object.__setattr__(obj, name, finite_real(getattr(obj, name), name, error, what))


def sign_fields(obj, positive=(), nonnegative=(), error=ConsistencyError, what: str = "") -> None:
    """Refuse `positive` fields not above 0, then `nonnegative` ones below 0; NaN fails both."""
    for name in positive:
        if not getattr(obj, name) > 0:
            raise error(f"{what}{name} {getattr(obj, name)} not positive")
    for name in nonnegative:
        if not getattr(obj, name) >= 0:
            raise error(f"{what}{name} {getattr(obj, name)} < 0")


def check_section(value, cls, name: str = "cfg") -> None:
    """Refuse a config section `value`, named `name`, that is not a `cls`."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} {value!r} not a {cls.__name__}")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel box, origin top-left, half-open on both axes."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self):
        int_fields(self, "x1", "y1", "x2", "y2")
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


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object: open class label, box and confidence. `track_id`
    is the perception stack's instance id, keying `instance_masks`."""

    class_label: str
    bbox: BoundingBox
    confidence: float
    track_id: int | None = None

    def __post_init__(self):
        if not isinstance(self.class_label, str):
            raise ConsistencyError(f"class_label {self.class_label!r} not a str")
        real_fields(self, "confidence")
        if not 0.0 <= self.confidence <= 1.0:
            raise ConsistencyError(f"confidence {self.confidence} outside [0,1]")
        if self.track_id is not None:
            int_fields(self, "track_id")
            if self.track_id < 0:
                raise ConsistencyError(f"negative track_id {self.track_id}")


@dataclass(frozen=True, slots=True)
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
        _positive_dims(self, "mask")
        try:
            runs = tuple(self.runs)
        except TypeError:  # not iterable
            raise ConsistencyError("run lengths must be integers") from None
        for run in runs:  # one pass in the common case: exact ints, none negative
            if type(run) is not int or run < 0:
                # numpy ints are converted; a non-int anywhere is refused before a negative run
                runs = _exact_ints(runs)
                if runs is None:
                    raise ConsistencyError("run lengths must be integers")
                if min(runs) < 0:
                    raise ConsistencyError("negative run length")
                break
        object.__setattr__(self, "runs", runs)
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


@dataclass(frozen=True, eq=False, slots=True)
class DepthMap:
    """Row-major 16-bit relative depth map (larger REV = nearer)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        _positive_dims(self, "depth")
        arr = self.values
        if not isinstance(arr, np.ndarray):
            with warnings.catch_warnings():
                warnings.simplefilter("error", _RAGGED_WARNING)
                try:
                    arr = np.asarray(arr)
                except (ValueError, _RAGGED_WARNING):  # numpy >= 1.24 raises ValueError
                    raise ConsistencyError("depth values not a rectangular array") from None
        if arr.dtype != np.uint16:
            if arr.dtype.kind not in "iuf":  # bools, strings, objects
                raise ConsistencyError(f"depth values of dtype {arr.dtype} not real numbers")
            # NaN fails both bounds, so it never reaches the cast
            if arr.size and not (arr.min() >= 0 and arr.max() <= REV_MAX):
                raise ConsistencyError(f"depth values outside [0, {REV_MAX}]")
            whole = arr.astype(np.uint16)
            if not np.array_equal(whole, arr):
                raise ConsistencyError("depth values not whole numbers")
            arr = whole
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


@dataclass(frozen=True, slots=True)
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
    # the one "vip" detection, or None; found once, by __post_init__
    vip_detection: Detection | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        int_fields(self, "frame_id", "width", "height")
        real_fields(self, "timestamp", what=f"frame {self.frame_id}: ")
        object.__setattr__(self, "detections", tuple(self.detections))
        grids = [("depth", self.depth), ("vip_mask", self.vip_mask), ("road_mask", self.road_mask)]
        for key, mask in self.instance_masks.items():  # the keys decode_record reads back
            if _exact_int(key) is None or key < 0:
                raise ConsistencyError(f"instance_masks key {key!r} not a non-negative integer")
            grids.append((f"instance_masks[{key}]", mask))
        for name, grid in grids:
            if grid is not None and (grid.width != self.width or grid.height != self.height):
                raise ConsistencyError(
                    f"{name} dims {grid.width}x{grid.height} != "
                    f"frame dims {self.width}x{self.height}"
                )
        vips = [d for d in self.detections if d.class_label == "vip"]
        if len(vips) > 1:
            raise ConsistencyError(f"{len(vips)} vip detections in one frame")
        object.__setattr__(self, "vip_detection", vips[0] if vips else None)
        for det in self.detections:
            if det.bbox.x2 > self.width or det.bbox.y2 > self.height:
                raise ConsistencyError(
                    f"bbox {det.bbox.as_list()} exceeds frame {self.width}x{self.height}"
                )


def check_frame_order(last_id: int | None, frame_id: int) -> None:
    """Frame ids strictly increase; `last_id` is None before a stream's first."""
    if last_id is not None and frame_id <= last_id:
        raise ConsistencyError(f"frame_id {frame_id} not greater than {last_id}")


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
    pattern. Returns None when the cuts cover the whole rect. The rect
    and each cut are four corners, each an integer, as are the sizes;
    numpy ints convert exactly.
    """
    rect = x1, y1, x2, y2 = _corners(rect, "rect")
    width, height = _pixel_ints((width, height))
    if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
        raise ConsistencyError(
            f"rect {list(rect)} empty or outside frame {width}x{height}"
        )
    if not hasattr(cuts, "__iter__"):
        raise ConsistencyError(f"cuts {cuts!r} not a sequence of rects")
    # each cut clipped to the rect, in column order; a cut outside is empty
    holes = sorted(filter(None, (clip_rect(_corners(cut, "cut"), rect) for cut in cuts)))
    ys = sorted({y1, y2, *(v for _, v1, _, v2 in holes for v in (v1, v2))})
    runs = []  # background, foreground, background, ...
    end = 0  # flat offset just past the last foreground run
    for ya, yb in zip(ys, ys[1:]):
        # the band's foreground columns: [x1, x2) minus the holes over it
        segs = free_runs(x1, x2, [(u1, u2) for u1, v1, u2, v2 in holes if v1 <= ya < v2])
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


def clip_rect(rect, bounds) -> tuple[int, int, int, int] | None:
    """The half-open ``rect`` (x1, y1, x2, y2) cut to ``bounds``, another
    such rect; None when nothing is left."""
    x1, y1, x2, y2 = rect
    b1, c1, b2, c2 = bounds
    x1, y1, x2, y2 = max(x1, b1), max(y1, c1), min(x2, b2), min(y2, c2)
    return (x1, y1, x2, y2) if x1 < x2 and y1 < y2 else None


def free_runs(lo: int, hi: int, intervals) -> list[tuple[int, int]]:
    """The maximal runs of [lo, hi) that no half-open (start, end) interval
    covers, as (start, end) pairs. `intervals` are non-empty and sorted by
    start; each is capped at hi."""
    runs = []
    for a, b in intervals:
        if a >= hi:
            break
        if lo < a:
            runs.append((lo, a))
        lo = max(lo, b)
    if lo < hi:
        runs.append((lo, hi))
    return runs


def _corners(rect, what: str) -> tuple[int, ...]:
    """The corners of `rect`, a sequence of four pixel coordinates, as exact ints."""
    if not (hasattr(rect, "__len__") and len(rect) == 4):
        raise ConsistencyError(f"{what} {rect!r} not four corners")
    return _pixel_ints(rect)


def _pixel_ints(values) -> tuple[int, ...]:
    """Pixel coordinates as exact ints, so every run built from them is one."""
    ints = _exact_ints(values)
    if ints is None:
        raise ConsistencyError(f"pixel coordinates {list(values)} must be integers")
    return ints


def _canonical_mask(width: int, height: int, runs: tuple[int, ...]) -> BitMask:
    """A BitMask of runs built canonical: exact ints, none negative, summing
    to width * height. Set as they are, without BitMask's checks, which are
    for masks read from files or handed in by callers."""
    mask = object.__new__(BitMask)
    object.__setattr__(mask, "width", width)
    object.__setattr__(mask, "height", height)
    object.__setattr__(mask, "runs", runs)
    return mask


def rle_decode(mask: BitMask, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Expand a BitMask's band of rows [y1, y2) to a boolean (y2 - y1, width)
    grid; with no ``rows``, the band is (0, height), the whole grid.

    When the rows above the band lie in the first run and the rows below
    it in the last run (always so for the whole grid), those two runs are
    shortened in constant work and the band alone is expanded. Any other
    band is cut from the whole expanded grid. Run lengths are validated at
    construction, so decoding never writes out of bounds.
    """
    w, h = mask.width, mask.height
    runs = np.fromiter(mask.runs, dtype=np.int64, count=len(mask.runs))
    pattern = np.zeros(runs.size, dtype=bool)
    pattern[1::2] = True
    y1, y2 = 0, h
    if rows is not None:
        pair = _exact_ints(rows)
        if pair is None or len(pair) != 2:
            raise ConsistencyError(f"rows {rows!r} not two integers")
        y1, y2 = pair
    if not 0 <= y1 <= y2 <= h:
        raise ConsistencyError(f"rows [{y1}, {y2}) outside mask height {h}")
    lead, tail = y1 * w, (h - y2) * w
    if mask.runs[0] >= lead and mask.runs[-1] >= tail:
        runs[0] -= lead  # one run alone is both first and last
        runs[-1] -= tail
        return pattern.repeat(runs).reshape(y2 - y1, w)
    return pattern.repeat(runs).reshape(h, w)[y1:y2]
