import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vipguide.errors import ConsistencyError, FrameDecodeError
from vipguide.frameio import (
    _PGM_TOKEN,
    decode_record,
    encode_record,
    read_dataset,
    read_pgm,
    record_to_line,
    write_dataset,
    write_pgm,
)
from vipguide.perception import (
    BoundingBox,
    DepthMap,
    Detection,
    rle_encode,
)

from conftest import DEEP_NESTING, LONG_INT, det, frame_from_parts, frame_parts, make_frame


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

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"P5\n2 x\n65535\n....", "non-numeric PGM header field"),
            (b"P5\n0 4\n65535\n", "bad dimensions 0x4"),
        ],
    )
    def test_bad_header_field(self, tmp_path, data, message):
        path = tmp_path / "x.pgm"
        path.write_bytes(data)
        with pytest.raises(FrameDecodeError) as info:
            read_pgm(path)
        assert str(info.value) == f"{path}: {message}"

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

    def test_long_comment(self, tmp_path):
        """A 200 KB comment is skipped; left unended, it truncates the header."""
        comment = b"# " + b"x #" * 70_000
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + comment + b"\n2 1\n65535\n\x00\x07\x01\x02")
        assert read_pgm(path) == DepthMap(2, 1, np.array([[7, 258]]))
        path.write_bytes(b"P5 2 1 " + comment)
        with pytest.raises(FrameDecodeError, match="truncated PGM header$"):
            read_pgm(path)


def reference_tokens(data: bytes) -> list[tuple[bytes, int]]:
    """Header tokens and the offset after each, by a byte loop: skip
    whitespace, and a comment from '#' to the line end, then take the run of
    non-whitespace; stop (the reader refuses) where none is left."""
    tokens, pos = [], 0
    while True:
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return tokens
        tokens.append((data[start:pos], pos))


def pattern_tokens(data: bytes) -> list[tuple[bytes, int]]:
    tokens, pos = [], 0
    while (match := _PGM_TOKEN.match(data, pos)) is not None:
        pos = match.end()
        tokens.append((match[1], pos))
    return tokens


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
LINE_BYTES = st.sampled_from([bytes([c]) for c in b" \t\r#0123456789Px\xff\x00"])
COMMENTS = st.tuples(st.lists(LINE_BYTES).map(b"".join), st.sampled_from([b"\n", b""])).map(
    lambda parts: b"#" + b"".join(parts)
)
HEADER_PIECES = st.one_of(
    st.lists(WHITESPACE, min_size=1).map(b"".join),
    COMMENTS,
    st.sampled_from([b"P5", b"640", b"65535", b"P5#x", b"1#2"]),
    LINE_BYTES | WHITESPACE,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(HEADER_PIECES, max_size=12).map(b"".join), st.integers(0, 2**16))
def test_header_pattern_matches_byte_loop(data, cut):
    """On headers of whitespace runs, comments ended by a newline or by the
    file, tokens holding '#' and stray bytes, cut anywhere: the pattern
    takes the byte loop's tokens and end offsets, and both stop at the same
    place."""
    data = data[: cut % (len(data) + 1)]
    assert pattern_tokens(data) == reference_tokens(data)


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

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda r: r.update(detections=[5]), "field 'detections[0]': expected an object"),
            (lambda r: r.update(instance_masks=[]), "field 'instance_masks': expected an object"),
        ],
    )
    def test_entry_not_an_object(self, mutate, message):
        record = encode_record(sample_frame())
        mutate(record)
        with pytest.raises(FrameDecodeError) as info:
            decode_record(record, sample_frame().depth)
        assert str(info.value) == message

    def test_mask_dims_checked(self):
        record = encode_record(sample_frame())
        record["vip_mask"] = {"runs": [7]}  # sums to 7, frame is 48 px
        with pytest.raises(FrameDecodeError, match="vip_mask"):
            decode_record(record, sample_frame().depth)


@settings(max_examples=300, deadline=None)
@given(frame_parts())
def test_constructed_frame_survives_the_codec(parts):
    """A frame that constructs is written, read back, and equals itself."""
    frame = frame_from_parts(parts)
    if frame is None:
        return
    record = json.loads(record_to_line(encode_record(frame)))
    assert decode_record(record, frame.depth) == frame


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

    @pytest.mark.parametrize("ids, last, bad", [((1, 1), 1, 1), ((5, 3), 5, 3), ((0, 2, 2), 2, 2)])
    def test_write_order_message(self, tmp_path, ids, last, bad):
        with pytest.raises(ConsistencyError) as info:
            write_dataset(tmp_path, [sample_frame(i) for i in ids])
        assert str(info.value) == f"frame_id {bad} not greater than {last}"

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
        [
            (b"\xff\n", "non-ASCII byte"),
            (b"[1]\n", "expected a JSON object"),
            # the last two once ended in a bare ValueError or RecursionError
            (
                b'{"frame_id":%s}\n' % LONG_INT.encode(),
                "malformed JSON: Exceeds the limit (4300 digits) for integer string "
                "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
                "to increase the limit",
            ),
            (
                DEEP_NESTING.encode() + b"\n",
                "malformed JSON: maximum recursion depth exceeded while decoding a JSON "
                "array from a unicode string",
            ),
        ],
        ids=["0xff", "not_object", "long_int", "deep_nesting"],
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
