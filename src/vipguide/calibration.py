"""Quadratic mapping from relative depth values to metric distance.

The onboard depth network emits only *relative* depth (REV, 16-bit,
larger = nearer). A short ground-truth collection — laser-measured
distances paired with observed REVs — fits distance = a*rev^2 + b*rev + c
with rev normalized to [0,1]. The fit is plain least squares on the
quadratic design matrix.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CalibrationError
from .frameio import load_json, record_to_line, require_field
from .perception import REV_MAX, Detection, PerceptionFrame, int_fields, real_fields


@dataclass(frozen=True, slots=True)
class CalibrationSample:
    rev: float       # normalized relative depth in [0,1]
    distance: float  # meters

    def __post_init__(self):
        real_fields(self, "rev", "distance", error=CalibrationError)
        if not 0.0 <= self.rev <= 1.0:
            raise CalibrationError(f"rev {self.rev} outside [0,1]")
        if self.distance <= 0:
            raise CalibrationError(f"distance {self.distance} not positive")


@dataclass(frozen=True, slots=True)
class CalibrationModel:
    a: float
    b: float
    c: float
    rmse: float
    n_samples: int

    def __post_init__(self):
        int_fields(self, "n_samples", error=CalibrationError)
        real_fields(self, "a", "b", "c", "rmse", error=CalibrationError)
        if self.n_samples < 3:
            raise CalibrationError(f"model from {self.n_samples} samples")
        if self.rmse < 0:
            raise CalibrationError(f"negative rmse {self.rmse}")


def fit(samples: list[CalibrationSample]) -> CalibrationModel:
    """Least-squares quadratic fit; requires >= 3 distinct rev values."""
    if len(samples) < 3:
        raise CalibrationError(f"need >= 3 samples, got {len(samples)}")
    revs = np.array([s.rev for s in samples], dtype=np.float64)
    dists = np.array([s.distance for s in samples], dtype=np.float64)
    if len(set(revs.tolist())) < 3:
        raise CalibrationError("need >= 3 distinct rev values for a quadratic fit")
    design = np.column_stack([revs**2, revs, np.ones_like(revs)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, dists, rcond=None)
    if rank < 3:
        raise CalibrationError("rank-deficient design matrix")
    a, b, c = (float(v) for v in coeffs)
    residuals = design @ coeffs - dists
    training_rmse = float(np.sqrt(np.mean(residuals**2)))
    return CalibrationModel(a=a, b=b, c=c, rmse=training_rmse, n_samples=len(samples))


def predict(model: CalibrationModel, rev: float) -> float:
    """Metric distance for a normalized rev, clamped below at 0 m."""
    if not 0.0 <= rev <= 1.0:
        raise CalibrationError(f"rev {rev} outside [0,1]")
    return max(0.0, model.a * rev * rev + model.b * rev + model.c)


def region_rev(frame: PerceptionFrame, det: Detection) -> int:
    """Representative REV for a detection: median over bbox ∩ instance mask,
    or over the bbox alone when there is no mask or it covers none of the box.

    Even pixel counts take the lower of the two middle values, so the
    result is always an actual pixel value.
    """
    bbox = det.bbox
    patch = frame.depth.values[bbox.y1 : bbox.y2, bbox.x1 : bbox.x2]
    values = None  # one new array of the region's pixels, sorted in place
    if det.track_id in frame.instance_masks:
        mask = frame.instance_masks[det.track_id].decode((bbox.y1, bbox.y2))
        values = patch[mask[:, bbox.x1 : bbox.x2]]
    if values is None or not values.size:
        values = patch.flatten()
    values.sort()
    return int(values[(values.size - 1) // 2])


def detection_distance(
    frame: PerceptionFrame, det: Detection, model: CalibrationModel
) -> float:
    """Metric distance to a detected object via its representative REV."""
    return predict(model, region_rev(frame, det) / REV_MAX)


# -- persistence ---------------------------------------------------------------


def save_model(path, model: CalibrationModel) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(record_to_line(asdict(model)))
        fh.write("\n")


def load_model(path) -> CalibrationModel:
    def build(obj) -> CalibrationModel:
        if not isinstance(obj, dict):
            raise CalibrationError("expected a JSON object")
        return CalibrationModel(*(require_field(obj, f.name) for f in fields(CalibrationModel)))

    return load_json(path, build, CalibrationError, "model")


def load_samples_csv(path) -> list[CalibrationSample]:
    """Read calibration pairs from a CSV with header `rev,distance_m`."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CalibrationError(f"{path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = ["rev", "distance_m"]
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != header:
        raise CalibrationError(
            f"{path}: expected header 'rev,distance_m', got {reader.fieldnames}"
        )
    reader.fieldnames = header  # rows are keyed by the names stripped
    samples = []
    for row in reader:
        try:
            samples.append(
                CalibrationSample(rev=float(row["rev"]), distance=float(row["distance_m"]))
            )
        except (TypeError, ValueError, CalibrationError) as exc:
            raise CalibrationError(f"{path}: bad row {row}: {exc}") from exc
    return samples
