import numpy as np
import pytest

from vipguide.calibration import (
    CalibrationModel,
    CalibrationSample,
    detection_distance,
    fit,
    load_model,
    load_samples_csv,
    predict,
    region_rev,
    save_model,
)
from vipguide.errors import CalibrationError, EmptyRegionError
from vipguide.perception import rle_encode

from conftest import det, make_frame, save_samples_csv


# a model file with one mistyped field -> the end of the message that rejects it
MISTYPED_MODELS = {
    '{"a": "1.5", "b": 1, "c": 1, "rmse": 0, "n_samples": 3}': "a '1.5' not a real number",
    '{"a": true, "b": 1, "c": 1, "rmse": 0, "n_samples": 3}': "a True not a real number",
    '{"a": 1, "b": 1, "c": 1, "rmse": 0, "n_samples": 3.9}': "n_samples 3.9 not an integer",
    '{"a": 1, "b": 1, "c": 1, "rmse": 0, "n_samples": "7"}': "n_samples '7' not an integer",
    '{"a": 1, "b": 1, "c": 1, "rmse": 0, "n_samples": true}': "n_samples True not an integer",
    '{"a": 1, "b": 1, "c": 1, "rmse": null, "n_samples": 3}': "rmse None not a real number",
    '"a b c"': "expected a JSON object",
}


def quad_samples(a, b, c, revs):
    return [CalibrationSample(rev=r, distance=a * r * r + b * r + c) for r in revs]


class TestFit:
    def test_exact_quadratic(self):
        model = fit(quad_samples(2.0, 3.0, 1.0, [0.0, 0.25, 0.5, 0.75, 1.0]))
        assert model.a == pytest.approx(2.0, abs=1e-9)
        assert model.b == pytest.approx(3.0, abs=1e-9)
        assert model.c == pytest.approx(1.0, abs=1e-9)
        assert model.rmse == pytest.approx(0.0, abs=1e-9)
        assert model.n_samples == 5

    def test_constant_fit(self):
        samples = [CalibrationSample(rev=r, distance=5.0) for r in (0.1, 0.4, 0.6, 0.9)]
        model = fit(samples)
        assert model.a == pytest.approx(0.0, abs=1e-9)
        assert model.b == pytest.approx(0.0, abs=1e-9)
        assert model.c == pytest.approx(5.0, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(CalibrationError):
            fit(quad_samples(1, 1, 1, [0.2, 0.8]))

    def test_too_few_distinct_revs(self):
        samples = [
            CalibrationSample(rev=0.5, distance=2.0),
            CalibrationSample(rev=0.5, distance=2.1),
            CalibrationSample(rev=0.7, distance=3.0),
        ]
        with pytest.raises(CalibrationError):
            fit(samples)

    def test_noisy_rmse_within_bound(self):
        rng = np.random.default_rng(7)
        revs = rng.uniform(0.0, 1.0, 200)
        samples = [
            CalibrationSample(
                rev=float(r),
                distance=max(0.05, 8.0 * r * r - 2.0 * r + 3.0 + rng.normal(0.0, 0.5)),
            )
            for r in revs
        ]
        model = fit(samples)
        assert model.rmse <= 1.2

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        revs = rng.uniform(0, 1, 40)
        samples = [
            CalibrationSample(rev=float(r), distance=float(5 * r + 1 + rng.normal(0, 0.3)))
            for r in revs
        ]
        model = fit(samples)
        r = np.array([s.rev for s in samples])
        resid = model.a * r**2 + model.b * r + model.c - np.array(
            [s.distance for s in samples]
        )
        for col in (r**2, r, np.ones_like(r)):
            bound = 1e-6 * np.linalg.norm(col) * max(np.linalg.norm(resid), 1.0)
            assert abs(float(resid @ col)) <= bound

    def test_random_quadratics_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = rng.uniform(-40, 40, 2)
            c = rng.uniform(5, 50)  # keep distances positive on [0,1]
            if a + b + c <= 0 or c <= 0:
                continue
            n = int(rng.integers(3, 30))
            revs = rng.uniform(0, 1, n)
            while len(set(np.round(revs, 12).tolist())) < 3:
                revs = rng.uniform(0, 1, n)
            try:
                samples = quad_samples(a, b, c, [float(r) for r in revs])
            except CalibrationError:
                continue  # curve dips nonpositive inside [0,1]
            model = fit(samples)
            assert model.a == pytest.approx(a, abs=1e-6)
            assert model.b == pytest.approx(b, abs=1e-6)
            assert model.c == pytest.approx(c, abs=1e-6)


class TestFiniteness:
    @pytest.mark.parametrize("distance", [float("nan"), float("inf")])
    def test_sample_distance(self, distance):
        with pytest.raises(CalibrationError, match="not finite"):
            CalibrationSample(rev=0.5, distance=distance)

    @pytest.mark.parametrize("field", ["a", "b", "c", "rmse"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_model_coefficients(self, field, value):
        kwargs = dict(a=1.0, b=2.0, c=3.0, rmse=0.0, n_samples=3)
        kwargs[field] = value
        with pytest.raises(CalibrationError, match=f"^{field} .* not finite$"):
            CalibrationModel(**kwargs)


class TestPredict:
    def test_constant_model(self):
        model = CalibrationModel(0.0, 0.0, 5.0, 0.0, 4)
        assert predict(model, 0.3) == 5.0

    def test_quadratic_eval(self):
        model = CalibrationModel(2.0, 3.0, 1.0, 0.0, 5)
        assert predict(model, 0.5) == pytest.approx(3.0)

    def test_clamped_at_zero(self):
        model = CalibrationModel(0.0, -10.0, 1.0, 0.0, 3)
        assert predict(model, 0.5) == 0.0

    def test_domain(self):
        model = CalibrationModel(1.0, 1.0, 1.0, 0.0, 3)
        with pytest.raises(CalibrationError):
            predict(model, 1.2)
        with pytest.raises(CalibrationError):
            predict(model, -0.1)

    def test_monotone_where_curve_is(self):
        model = CalibrationModel(-49.0, 0.0, 50.0, 0.0, 10)
        revs = np.linspace(0, 1, 101)
        values = [predict(model, float(r)) for r in revs]
        assert all(x >= y for x, y in zip(values, values[1:]))  # derivative <= 0 on [0,1]


class TestRegionRev:
    def test_uniform_region(self, identity_model):
        frame = make_frame(
            np.full((8, 8), 32768), detections=[det("car", 1, 1, 5, 5)]
        )
        d = frame.detections[0]
        assert region_rev(frame, d) == 32768
        assert detection_distance(frame, d, identity_model) == pytest.approx(
            32768 / 65535
        )

    def test_even_count_takes_lower_middle(self):
        depth = np.zeros((2, 2), dtype=np.uint16)
        depth[0] = 100
        depth[1] = 40000
        frame = make_frame(depth, detections=[det("car", 0, 0, 2, 2)])
        assert region_rev(frame, frame.detections[0]) == 100

    def test_odd_count_true_median(self):
        depth = np.array([[10, 50, 90]], dtype=np.uint16)
        frame = make_frame(depth, detections=[det("car", 0, 0, 3, 1)])
        assert region_rev(frame, frame.detections[0]) == 50

    def test_mask_excludes_pixels(self):
        depth = np.zeros((2, 4), dtype=np.uint16)
        depth[:, 2:] = 60000
        depth[:, :2] = 123
        grid = np.zeros((2, 4), dtype=bool)
        grid[:, :2] = True  # instance covers only the low half
        frame = make_frame(
            depth,
            detections=[det("car", 0, 0, 4, 2, track_id=9)],
            instance_masks={9: rle_encode(grid)},
        )
        assert region_rev(frame, frame.detections[0]) == 123

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 65536, 24)
        a = make_frame(values.reshape(4, 6), detections=[det("car", 0, 0, 6, 4)])
        b = make_frame(
            rng.permutation(values).reshape(4, 6), detections=[det("car", 0, 0, 6, 4)]
        )
        assert region_rev(a, a.detections[0]) == region_rev(b, b.detections[0])

    def test_empty_region(self):
        grid = np.zeros((4, 4), dtype=bool)  # mask disjoint from bbox
        grid[3, 3] = True
        frame = make_frame(
            np.zeros((4, 4)),
            detections=[det("car", 0, 0, 2, 2, track_id=1)],
            instance_masks={1: rle_encode(grid)},
        )
        with pytest.raises(EmptyRegionError):
            region_rev(frame, frame.detections[0])


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        model = fit(quad_samples(2, 3, 1, [0, 0.3, 0.6, 1.0]))
        path = tmp_path / "model.json"
        save_model(path, model)
        assert load_model(path) == model
        text = path.read_text()
        for key in ('"a"', '"b"', '"c"', '"rmse"', '"n_samples"'):
            assert key in text

    def test_bad_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"a": 1.0, "b": 2.0}')
        with pytest.raises(CalibrationError):
            load_model(path)

    def test_csv_round_trip(self, tmp_path):
        samples = quad_samples(1.5, -0.5, 4.0, [0.0, 0.25, 0.5, 1.0])
        path = tmp_path / "samples.csv"
        save_samples_csv(path, samples)
        assert path.read_text().splitlines()[0] == "rev,distance_m"
        assert load_samples_csv(path) == samples

    @pytest.mark.parametrize("text", ['{"a": 1', "\xff", "[1, 2]", *MISTYPED_MODELS])
    def test_malformed_model_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(CalibrationError, match="model.json") as info:
            load_model(path)
        if text in MISTYPED_MODELS:  # strings, bools and fractions are not coerced
            assert str(info.value).endswith(f"model.json: {MISTYPED_MODELS[text]}")

    def test_non_finite_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"a": NaN, "b": 1, "c": 1, "rmse": 0, "n_samples": 3}')
        with pytest.raises(CalibrationError, match="a nan not finite"):
            load_model(path)

    def test_csv_non_finite_distance(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("rev,distance_m\n0.1,2.0\n0.5,nan\n")
        with pytest.raises(CalibrationError, match="samples.csv: bad row"):
            load_samples_csv(path)

    def test_csv_not_ascii(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"rev,distance_m\n0.1,2.0\xff\n")
        with pytest.raises(CalibrationError, match="samples.csv"):
            load_samples_csv(path)

    @pytest.mark.parametrize(
        "header", ["rev, distance_m", " rev,distance_m", "rev ,distance_m "]
    )
    def test_csv_header_names_stripped(self, tmp_path, header):
        path = tmp_path / "samples.csv"
        path.write_text(f"{header}\n0.1,2.0\n0.5,3.0\n")
        assert load_samples_csv(path) == [
            CalibrationSample(0.1, 2.0), CalibrationSample(0.5, 3.0)
        ]

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("rev,distance\n0.1,2.0\n")
        with pytest.raises(CalibrationError, match="header"):
            load_samples_csv(path)
