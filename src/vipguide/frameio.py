"""Frame record serialization: JSONL metadata plus binary PGM depth sidecars,
and the one reader of outside JSON, whole files and JSONL records alike.

One dataset = a ``frames.jsonl`` stream (one JSON object per line, compact
separators so output is byte-stable) plus one 16-bit PGM per frame named
``<frame_id>.pgm``. Masks travel inside the JSON as run-length arrays;
depth is kept out of the JSON because a 640x480 uint16 grid is ~600 KB.
"""
from __future__ import annotations

import json
import os
import re
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConsistencyError, FrameDecodeError, VipGuideError
from .perception import (
    REV_MAX,
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    check_frame_order,
    finite_real,
)

# -- PGM (portable graymap, binary P5, maxval 65535, big-endian samples) -----

# one header token after any whitespace and comments; the possessive
# quantifiers keep a failed match from backtracking into a comment's tail
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*+)*+(\S+)")


def write_pgm(path, depth: DepthMap) -> None:
    """Write a depth map as a binary 16-bit PGM."""
    header = f"P5\n{depth.width} {depth.height}\n{REV_MAX}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(depth.values.astype(">u2"))


def read_pgm(path) -> DepthMap:
    """Read a binary 16-bit PGM written by :func:`write_pgm`.

    Accepts whitespace/comment variation in the header (the format allows
    it) but requires magic P5 and maxval 65535. A file that cannot be
    read raises FrameDecodeError naming it.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FrameDecodeError(f"{path}: cannot read: {exc.strerror}") from exc
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        match = _PGM_TOKEN.match(data, pos)
        if match is None:
            raise FrameDecodeError(f"{path}: truncated PGM header")
        pos = match.end()
        return match[1]

    magic = next_token()
    if magic != b"P5":
        raise FrameDecodeError(f"{path}: bad magic {magic!r}, expected P5")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise FrameDecodeError(f"{path}: non-numeric PGM header field") from exc
    if maxval != REV_MAX:
        raise FrameDecodeError(f"{path}: maxval {maxval}, expected {REV_MAX}")
    if width <= 0 or height <= 0:
        raise FrameDecodeError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 2
    # slicing copies the raster to an aligned buffer: a view at the header's
    # offset (17 bytes for 640x480) is unaligned, and numpy's byte-swapping
    # cast from it is about six times slower than this copy and cast
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise FrameDecodeError(
            f"{path}: raster has {len(raster)} bytes, expected {expected}"
        )
    values = np.frombuffer(raster, dtype=">u2").astype(np.uint16)
    return DepthMap(width=width, height=height, values=values.reshape(height, width))


# -- JSON record codec --------------------------------------------------------


def _mask_to_json(mask: BitMask) -> dict:
    return {"runs": list(mask.runs)}


def _mask_from_json(obj, width: int, height: int, field: str) -> BitMask:
    if not isinstance(obj, dict):
        raise FrameDecodeError(f"field '{field}': expected an object with 'runs'")
    runs = require_field(obj, "runs", list, "a list of ints", f"{field}.")
    try:  # BitMask checks that each run is an int
        return BitMask(width=width, height=height, runs=runs)
    except ConsistencyError as exc:
        raise FrameDecodeError(f"field '{field}': {exc}") from exc


def encode_record(frame: PerceptionFrame) -> dict:
    """Frame → JSON-ready dict (depth referenced by sidecar file name)."""
    record = {
        "frame_id": frame.frame_id,
        "timestamp": frame.timestamp,
        "width": frame.width,
        "height": frame.height,
        "detections": [
            {
                "class": det.class_label,
                "bbox": det.bbox.as_list(),
                "confidence": det.confidence,
                "track_id": det.track_id,
            }
            for det in frame.detections
        ],
        "vip_mask": _mask_to_json(frame.vip_mask) if frame.vip_mask else None,
        "road_mask": _mask_to_json(frame.road_mask) if frame.road_mask else None,
        "depth_file": f"{frame.frame_id}.pgm",
    }
    if frame.instance_masks:
        record["instance_masks"] = {
            str(tid): _mask_to_json(frame.instance_masks[tid])
            for tid in sorted(frame.instance_masks)
        }
    return record


def record_to_line(record: dict) -> str:
    """Canonical one-line JSON encoding (compact separators, no key sort)."""
    return json.dumps(record, separators=(",", ":"))


def require_field(record: dict, field: str, kinds=None, kind_name: str = "", where: str = ""):
    """record[field], which must be one of ``kinds`` and not a bool when
    ``kinds`` is given; ``where`` prefixes the field's path in the error
    message. Without ``kinds`` the value is left to the type that holds it."""
    if field not in record:
        raise FrameDecodeError(f"field '{where}{field}': missing")
    value = record[field]
    if kinds is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
        raise FrameDecodeError(f"field '{where}{field}': expected {kind_name}")
    return value


def decode_record(record: dict, depth: DepthMap) -> PerceptionFrame:
    """JSON dict + decoded sidecar depth → PerceptionFrame.

    Raises FrameDecodeError naming the offending field on malformed input
    and ConsistencyError on dimension mismatches.
    """
    frame_id = require_field(record, "frame_id", int, "int")
    # the frame checks it too, but a bad number read here is a decode error
    timestamp = finite_real(require_field(record, "timestamp"), "timestamp", FrameDecodeError)
    # width and height size the masks before any frame checks them
    width = require_field(record, "width", int, "int")
    height = require_field(record, "height", int, "int")
    raw_dets = require_field(record, "detections", list, "list")

    detections = []
    for i, obj in enumerate(raw_dets):
        if not isinstance(obj, dict):
            raise FrameDecodeError(f"field 'detections[{i}]': expected an object")
        where = f"detections[{i}]."
        label = require_field(obj, "class", where=where)
        bbox = require_field(obj, "bbox", list, "[x1,y1,x2,y2] ints", where)
        if len(bbox) != 4:
            raise FrameDecodeError(f"field '{where}bbox': expected [x1,y1,x2,y2] ints")
        confidence = require_field(obj, "confidence", where=where)
        try:  # the detection and its box check each value's type
            detections.append(
                Detection(
                    class_label=label,
                    bbox=BoundingBox(*bbox),
                    confidence=confidence,
                    track_id=obj.get("track_id"),
                )
            )
        except ConsistencyError as exc:
            raise FrameDecodeError(f"field 'detections[{i}]': {exc}") from exc

    vip_mask = road_mask = None
    if record.get("vip_mask") is not None:
        vip_mask = _mask_from_json(record["vip_mask"], width, height, "vip_mask")
    if record.get("road_mask") is not None:
        road_mask = _mask_from_json(record["road_mask"], width, height, "road_mask")

    instance_masks: dict[int, BitMask] = {}
    raw_instances = record.get("instance_masks")
    if raw_instances is not None:
        if not isinstance(raw_instances, dict):
            raise FrameDecodeError("field 'instance_masks': expected an object")
        for key, obj in raw_instances.items():
            try:
                tid = int(key)
            except ValueError:
                tid = -1
            # one spelling per track id, so no two keys name the same track
            if tid < 0 or str(tid) != key:
                raise FrameDecodeError(
                    f"field 'instance_masks.{key}': key is not a non-negative int "
                    "in canonical decimal form"
                )
            instance_masks[tid] = _mask_from_json(
                obj, width, height, f"instance_masks.{key}"
            )

    return PerceptionFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        width=width,
        height=height,
        depth=depth,
        detections=tuple(detections),
        vip_mask=vip_mask,
        road_mask=road_mask,
        instance_masks=instance_masks,
    )


# -- dataset directory layout --------------------------------------------------

FRAMES_FILE = "frames.jsonl"


def write_dataset(directory, frames: Iterable[PerceptionFrame]) -> int:
    """Write frames.jsonl + per-frame PGM sidecars into a directory.

    Returns the number of frames written. Frame ids must strictly increase.
    """
    os.makedirs(directory, exist_ok=True)
    count = 0
    last_id = None
    with open(os.path.join(directory, FRAMES_FILE), "w", encoding="ascii") as fh:
        for frame in frames:
            check_frame_order(last_id, frame.frame_id)
            last_id = frame.frame_id
            record = encode_record(frame)
            fh.write(record_to_line(record))
            fh.write("\n")
            write_pgm(os.path.join(directory, record["depth_file"]), frame.depth)
            count += 1
    return count


def load_json(path, build: Callable, error: type[VipGuideError], kind: str):
    """``build(value)`` for the JSON value in a whole ASCII file. Raises
    ``error`` naming ``path`` for malformed JSON or a non-ASCII byte, and
    ``bad <kind> file <path>: …`` for any VipGuideError that ``build`` raises."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            value = json.load(fh)
        # bad JSON, a non-ASCII byte, an int past Python's digit limit, or
        # nesting deeper than the recursion limit
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: malformed JSON: {exc}") from exc
    try:
        return build(value)
    except VipGuideError as exc:
        raise error(f"bad {kind} file {path}: {exc}") from exc


def json_records(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield ``parse(record)`` for each non-blank line of a JSONL file.

    Raises FrameDecodeError naming ``path:line`` for a non-ASCII byte,
    malformed JSON or a line that is not a JSON object, and prefixes
    ``path:line`` to any VipGuideError that ``parse`` raises, keeping its class.
    """
    # non-ASCII bytes decode to lone surrogates, which isascii() (O(1)) flags
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise FrameDecodeError(f"{path}:{lineno}: non-ASCII byte")
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # as in load_json
                raise FrameDecodeError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise FrameDecodeError(f"{path}:{lineno}: expected a JSON object")
            try:
                parsed = parse(record)
            except VipGuideError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            yield parsed


def read_dataset(directory) -> Iterator[PerceptionFrame]:
    """Yield frames from a dataset directory in file order."""
    last_id = None

    def frame_from(record: dict) -> PerceptionFrame:
        nonlocal last_id
        depth_file = require_field(record, "depth_file", str, "str")
        # a bare name keeps every sidecar read inside the dataset directory
        if (
            depth_file in ("", ".", "..")
            or os.path.basename(depth_file) != depth_file
            or "\0" in depth_file
        ):
            raise FrameDecodeError(
                f"field 'depth_file': {depth_file!r} is not a bare file name"
            )
        depth = read_pgm(os.path.join(directory, depth_file))
        frame = decode_record(record, depth)
        check_frame_order(last_id, frame.frame_id)
        last_id = frame.frame_id
        return frame

    return json_records(os.path.join(directory, FRAMES_FILE), frame_from)
