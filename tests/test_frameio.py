import json

import numpy as np
import pytest

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
from vipguide.perception import BitMask, DepthMap, rle_encode

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
            (lambda r: r.update(vip_mask={"runs": [1.0, 47]}), "vip_mask.runs"),
            (lambda r: r.update(vip_mask={"runs": [True, 47]}), "vip_mask.runs"),
            (lambda r: r.update(vip_mask={"runs": [49, -1]}), "vip_mask': negative run"),
            (lambda r: r.update(vip_mask={"runs": [2**63]}), "vip_mask': runs sum"),
            (lambda r: r.update(instance_masks={"ten": {"runs": [48]}}), "instance_masks"),
            (lambda r: r.update(timestamp=10**400), "timestamp"),
            (
                lambda r: r["detections"][0].update({"class": 7}),
                r"^field 'detections\[0\]\.class': expected str$",
            ),
            (
                lambda r: r["detections"][1].pop("class"),
                r"^field 'detections\[1\]\.class': missing$",
            ),
            (
                lambda r: r["detections"][0].update(track_id=True),
                r"^field 'detections\[0\]\.track_id': expected int or null$",
            ),
            (
                lambda r: r["detections"][0].update(bbox=[3, 2, True, 5]),
                r"^field 'detections\[0\]\.bbox': expected \[x1,y1,x2,y2\] ints$",
            ),
            (
                lambda r: r["detections"][1].update(confidence=10**400),
                r"^field 'detections\[1\]': int too large to convert to float$",
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


class TestDataset:
    def test_round_trip(self, tmp_path):
        frames = [sample_frame(i) for i in (0, 1, 5)]
        assert write_dataset(tmp_path, frames) == 3
        assert list(read_dataset(tmp_path)) == frames

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

    def test_malformed_line(self, tmp_path):
        write_dataset(tmp_path, [sample_frame(0)])
        path = tmp_path / "frames.jsonl"
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(FrameDecodeError, match="malformed JSON"):
            list(read_dataset(tmp_path))
