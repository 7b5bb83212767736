import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vipguide.errors import ConsistencyError, FrameDecodeError
from vipguide.frameio import (
    decode_record,
    encode_record,
    read_dataset,
    read_pgm,
    record_to_line,
    write_dataset,
    write_pgm,
)
from vipguide.perception import (
    BitMask,
    BoundingBox,
    DepthMap,
    Detection,
    PerceptionFrame,
    rle_encode,
)

from conftest import det, make_frame


def sample_frame(frame_id=0):
    rng = np.random.default_rng(frame_id)
    depth = rng.integers(0, 65536, size=(6, 8))
    vip_grid = np.zeros((6, 8), dtype=bool)
    vip_grid[2:5, 3:5] = True
    return make_frame(
        depth,
        frame_id=frame_id,
        timestamp=frame_id / 30.0,
        detections=[
            det("vip", 3, 2, 5, 5, confidence=0.98, track_id=0),
            det("car", 0, 0, 3, 4, confidence=0.77, track_id=4),
        ],
        vip_mask=rle_encode(vip_grid),
        instance_masks={4: rle_encode(np.ones((6, 8), dtype=bool))},
    )


class TestPgm:
    def test_round_trip(self, tmp_path):
        d = DepthMap(width=8, height=6, values=np.arange(48) * 1000 % 65536)
        path = tmp_path / "x.pgm"
        write_pgm(path, d)
        assert read_pgm(path) == d

    def test_header_bytes(self, tmp_path):
        d = DepthMap(width=2, height=1, values=np.array([[1, 258]]))
        path = tmp_path / "x.pgm"
        write_pgm(path, d)
        raw = path.read_bytes()
        # big-endian 16-bit samples after a P5/65535 header
        assert raw == b"P5\n2 1\n65535\n" + bytes([0, 1, 1, 2])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 1\n65535\n....")
        with pytest.raises(FrameDecodeError):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n255\n..")
        with pytest.raises(FrameDecodeError):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
        with pytest.raises(FrameDecodeError):
            read_pgm(path)

    def test_truncated_raster_message(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
        with pytest.raises(FrameDecodeError, match="raster has 2 bytes, expected 8$"):
            read_pgm(path)
        path.write_bytes(b"P5\n2 2\n65535")  # no byte after maxval
        with pytest.raises(FrameDecodeError, match="raster has 0 bytes, expected 8$"):
            read_pgm(path)

    def test_trailing_bytes_ignored(self, tmp_path):
        d = DepthMap(width=3, height=2, values=np.arange(6) * 11000)
        path = tmp_path / "x.pgm"
        write_pgm(path, d)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe trailing")
        assert read_pgm(path) == d

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n65535\n\x00\x07")
        assert read_pgm(path).values[0, 0] == 7

    def test_comment_before_every_token(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"#m\nP5\n#w\n2 #x\n#h\n1\n# v\n65535\n\x00\x07\x01\x02")
        assert read_pgm(path) == DepthMap(2, 1, np.array([[7, 258]]))

    def test_commented_number_skipped(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n# 640\n1 1\n65535\n\x00\x07")
        assert read_pgm(path).width == 1

    def test_comment_glued_to_magic_is_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5#x\n1 1\n65535\n\x00\x07")
        with pytest.raises(FrameDecodeError, match=r"bad magic b'P5#x', expected P5$"):
            read_pgm(path)

    def test_header_ending_in_comment_is_truncated(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5 2 1 # 65535")
        with pytest.raises(FrameDecodeError, match="truncated PGM header$"):
            read_pgm(path)


class TestRecordCodec:
    def test_round_trip(self):
        frame = sample_frame(3)
        record = json.loads(record_to_line(encode_record(frame)))
        assert decode_record(record, frame.depth) == frame

    def test_depth_file_name(self):
        assert encode_record(sample_frame(17))["depth_file"] == "17.pgm"

    def test_compact_line(self):
        line = record_to_line(encode_record(sample_frame()))
        assert "\n" not in line and ": " not in line and ", " not in line

    def test_null_masks(self):
        frame = make_frame(np.zeros((4, 4)))
        record = encode_record(frame)
        assert record["vip_mask"] is None
        assert record["road_mask"] is None
        assert "instance_masks" not in record
        assert decode_record(record, frame.depth) == frame

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: r.pop("frame_id"), "frame_id"),
            (lambda r: r.update(width="wide"), "width"),
            (lambda r: r["detections"][0].pop("bbox"), "bbox"),
            (lambda r: r["detections"][0].update(confidence="high"), "confidence"),
            (lambda r: r["detections"][1].update(bbox=[1, 2, 3]), "bbox"),
            (lambda r: r.update(vip_mask={"runs": [1, "x"]}), "vip_mask"),
            # these two keep the ids of their earlier 'vip_mask.runs' needle
            pytest.param(
                lambda r: r.update(vip_mask={"runs": [1.0, 47]}),
                "vip_mask': run lengths must be integers",
                id="<lambda>-vip_mask.runs0",
            ),
            pytest.param(
                lambda r: r.update(vip_mask={"runs": [True, 47]}),
                "vip_mask': run lengths must be integers",
                id="<lambda>-vip_mask.runs1",
            ),
            (lambda r: r.update(vip_mask={"runs": [49, -1]}), "vip_mask': negative run"),
            (lambda r: r.update(vip_mask={"runs": [2**63]}), "vip_mask': runs sum"),
            (lambda r: r.update(instance_masks={"ten": {"runs": [48]}}), "instance_masks"),
            # keys that int() reads, each in a spelling encode_record never writes
            (
                lambda r: r.update(instance_masks={"7": {"runs": [48]}, "07": {"runs": [48]}}),
                r"^field 'instance_masks\.07': key is not a non-negative int in canonical",
            ),
            (
                lambda r: r.update(instance_masks={"1_0": {"runs": [48]}}),
                r"^field 'instance_masks\.1_0': key is not a non-negative int in canonical",
            ),
            (
                lambda r: r.update(instance_masks={" 3 ": {"runs": [48]}}),
                r"^field 'instance_masks\. 3 ': key is not a non-negative int in canonical",
            ),
            (
                lambda r: r.update(instance_masks={"+2": {"runs": [48]}}),
                r"^field 'instance_masks\.\+2': key is not a non-negative int in canonical",
            ),
            (
                lambda r: r.update(instance_masks={"-1": {"runs": [48]}}),
                r"^field 'instance_masks\.-1': key is not a non-negative int in canonical",
            ),
            (lambda r: r.update(road_mask={}), r"^field 'road_mask\.runs': missing$"),
            (lambda r: r.update(road_mask=[48]), r"^field 'road_mask': expected an object"),
            (lambda r: r.update(vip_mask={"runs": 48}), r"^field 'vip_mask\.runs': expected a list"),
            (lambda r: r.update(timestamp=10**400), "timestamp"),
            pytest.param(
                lambda r: r["detections"][0].update({"class": 7}),
                r"^field 'detections\[0\]': class_label 7 not a str$",
                id=r"<lambda>-^field 'detections\[0\]\.class': expected str$",
            ),
            (
                lambda r: r["detections"][1].pop("class"),
                r"^field 'detections\[1\]\.class': missing$",
            ),
            pytest.param(
                lambda r: r["detections"][0].update(track_id=True),
                r"^field 'detections\[0\]': track_id True not an integer$",
                id=r"<lambda>-^field 'detections\[0\]\.track_id': expected int or null$",
            ),
            pytest.param(
                lambda r: r["detections"][0].update(bbox=[3, 2, True, 5]),
                r"^field 'detections\[0\]': x2 True not an integer$",
                id=r"<lambda>-^field 'detections\[0\]\.bbox': expected \[x1,y1,x2,y2\] ints$",
            ),
            (
                lambda r: r["detections"][1].update(confidence=10**400),
                r"^field 'detections\[1\]': confidence beyond float range$",
            ),
        ],
    )
    def test_errors_name_field(self, mutate, needle):
        record = encode_record(sample_frame())
        mutate(record)
        with pytest.raises(FrameDecodeError, match=needle):
            decode_record(record, sample_frame().depth)

    def test_mask_dims_checked(self):
        record = encode_record(sample_frame())
        record["vip_mask"] = {"runs": [7]}  # sums to 7, frame is 48 px
        with pytest.raises(FrameDecodeError, match="vip_mask"):
            decode_record(record, sample_frame().depth)


def mostly(valid, *odd):
    """`valid` seven draws in eight, else one of `odd`: values that some
    field of the frame model refuses, or once took and wrote."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(odd) if k == 0 else valid)


W, H = 4, 3
NUMPY_INTS = st.integers(0, 9).map(np.int64)


@st.composite
def frame_parts(draw):
    """(detection arguments, PerceptionFrame keyword arguments), most of
    which the frame model accepts."""
    detections = []
    for _ in range(draw(st.integers(0, 3))):
        x1, y1 = draw(st.integers(0, W - 1)), draw(st.integers(0, H - 1))
        corners = (x1, y1, draw(st.integers(x1 + 1, W)), draw(st.integers(y1 + 1, H)))
        detections.append((
            draw(mostly(st.sampled_from(["car", "person", "vip"]), 5, None)),
            tuple(map(draw(st.sampled_from([int, np.int32])), corners)),
            draw(mostly(
                st.floats(0, 1) | st.integers(0, 1) | st.floats(0, 1, width=32).map(np.float32),
                True, "0.5", math.nan, 10**400,
            )),
            draw(mostly(st.none() | st.integers(0, 10**20) | NUMPY_INTS, -1, 1.0, True)),
        ))
    keys = draw(st.lists(mostly(st.integers(0, 9) | NUMPY_INTS, 1.0, -1, True, "1"), max_size=3))
    return detections, dict(
        frame_id=draw(mostly(st.integers(0, 10**6) | NUMPY_INTS, 1.0, True, "1")),
        timestamp=draw(mostly(
            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)
            | st.floats(-1e3, 1e3).map(np.float64),
            math.nan, math.inf, 10**400, "0.5", True,
        )),
        instance_masks={key: BitMask(W, H, (W * H,)) for key in keys},
    )


@settings(max_examples=300, deadline=None)
@given(frame_parts())
def test_constructed_frame_survives_the_codec(parts):
    """A frame that constructs is written, read back, and equals itself."""
    detection_args, frame_args = parts
    depth = DepthMap(W, H, np.zeros((H, W), dtype=np.uint16))
    try:
        detections = [
            Detection(label, BoundingBox(*corners), confidence, track_id)
            for label, corners, confidence, track_id in detection_args
        ]
        frame = PerceptionFrame(width=W, height=H, depth=depth, detections=detections, **frame_args)
    except ConsistencyError:
        return
    record = json.loads(record_to_line(encode_record(frame)))
    assert decode_record(record, depth) == frame


class TestDataset:
    def test_round_trip(self, tmp_path):
        frames = [sample_frame(i) for i in (0, 1, 5)]
        assert write_dataset(tmp_path, frames) == 3
        assert list(read_dataset(tmp_path)) == frames

    @pytest.mark.parametrize("numpy_part", ["bbox", "track_id", "frame_id", "confidence", "all"])
    def test_numpy_scalars_round_trip(self, tmp_path, numpy_part):
        """A frame with numpy scalars in `numpy_part` (in every part for
        "all") is written and read back equal to its Python-scalar twin."""

        def frame(part):
            def scalar(kind, value, name):
                return kind(value) if part in (name, "all") else value

            base = sample_frame(3)
            dets = [
                Detection(
                    d.class_label,
                    BoundingBox(*(scalar(np.int32, v, "bbox") for v in d.bbox.as_list())),
                    scalar(np.float32, 0.5, "confidence"),
                    scalar(np.int64, d.track_id, "track_id"),
                )
                for d in base.detections
            ]
            return replace(base, frame_id=scalar(np.int64, 3, "frame_id"), detections=dets)

        numpy_frame = frame(numpy_part)
        write_dataset(tmp_path, [numpy_frame])
        assert list(read_dataset(tmp_path)) == [numpy_frame] == [frame(None)]

    def test_sidecars_written(self, tmp_path):
        write_dataset(tmp_path, [sample_frame(2)])
        assert (tmp_path / "frames.jsonl").exists()
        assert (tmp_path / "2.pgm").exists()

    def test_ids_must_increase(self, tmp_path):
        with pytest.raises(ConsistencyError):
            write_dataset(tmp_path, [sample_frame(1), sample_frame(1)])

    @pytest.mark.parametrize(
        "name",
        ["../outside.pgm", "{outside}", "..", ".", "", "sub/0.pgm", "0.pgm\0"],
    )
    def test_depth_file_must_be_a_bare_name(self, tmp_path, name):
        ds = tmp_path / "ds"
        write_dataset(ds, [sample_frame(0)])
        outside = tmp_path / "outside.pgm"
        write_pgm(outside, sample_frame(0).depth)
        path = ds / "frames.jsonl"
        record = json.loads(path.read_text())
        record["depth_file"] = name.format(outside=outside)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(FrameDecodeError, match="field 'depth_file'.*bare file name"):
            list(read_dataset(ds))

    @pytest.mark.parametrize(
        "line", [b"\xff\n", b'{"frame_id": "\xc3\xa9"}\n'], ids=["0xff", "utf8_in_string"]
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, line):
        write_dataset(tmp_path, [sample_frame(0)])
        with open(tmp_path / "frames.jsonl", "ab") as fh:
            fh.write(line)
        frames = read_dataset(tmp_path)
        assert next(frames) == sample_frame(0)
        with pytest.raises(FrameDecodeError, match="frames.jsonl:2: non-ASCII byte"):
            next(frames)

    @pytest.mark.parametrize(
        "fault,error,rest",
        [
            ("width", FrameDecodeError, "field 'width': missing"),
            ("bbox", ConsistencyError, "bbox [3, 2, 9, 5] exceeds frame 8x6"),
            ("pgm", FrameDecodeError, "{ds}/1.pgm: raster has 2 bytes, expected 96"),
            ("missing", FrameDecodeError, "{ds}/1.pgm: cannot read: No such file or directory"),
        ],
    )
    def test_record_fault_names_path_and_line(self, tmp_path, fault, error, rest):
        write_dataset(tmp_path, [sample_frame(i) for i in range(3)])
        path = tmp_path / "frames.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if fault == "width":
            del records[1]["width"]
        elif fault == "bbox":
            records[1]["detections"][0]["bbox"] = [3, 2, 9, 5]
        elif fault == "pgm":
            (tmp_path / "1.pgm").write_bytes(b"P5\n8 6\n65535\n\x00\x01")
        else:
            (tmp_path / "1.pgm").unlink()
        path.write_text("".join(record_to_line(r) + "\n" for r in records))
        frames = read_dataset(tmp_path)
        assert next(frames) == sample_frame(0)
        with pytest.raises(error) as info:
            next(frames)
        assert type(info.value) is error
        assert str(info.value) == f"{path}:2: " + rest.format(ds=tmp_path)

    @pytest.mark.parametrize(
        "line,rest",
        [(b"\xff\n", "non-ASCII byte"), (b"[1]\n", "expected a JSON object")],
        ids=["0xff", "not_object"],
    )
    def test_line_fault_has_one_prefix(self, tmp_path, line, rest):
        write_dataset(tmp_path, [sample_frame(0), sample_frame(1)])
        path = tmp_path / "frames.jsonl"
        with open(path, "ab") as fh:
            fh.write(line)
        with pytest.raises(FrameDecodeError) as info:
            list(read_dataset(tmp_path))
        assert str(info.value) == f"{path}:3: {rest}"

    def test_id_order_names_path_and_line(self, tmp_path):
        write_dataset(tmp_path, [sample_frame(4), sample_frame(5)])
        path = tmp_path / "frames.jsonl"
        first = path.read_text().splitlines()[0]
        path.write_text(f"{first}\n{first}\n")
        with pytest.raises(ConsistencyError, match=r"frames\.jsonl:2: frame_id 4 not greater than 4$"):
            list(read_dataset(tmp_path))

    def test_malformed_line(self, tmp_path):
        write_dataset(tmp_path, [sample_frame(0)])
        path = tmp_path / "frames.jsonl"
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(FrameDecodeError, match="malformed JSON"):
            list(read_dataset(tmp_path))
