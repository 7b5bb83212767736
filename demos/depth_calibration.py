"""From depth-model units to meters.

A monocular depth network emits unitless relative values (REV), not
meters. This walks the calibration loop: render a wall at known
distances, take each detection's median REV, fit the quadratic
REV->distance model, then check the fit against held-out distances the
fit never saw.
"""
from vipguide import (
    REV_MAX,
    CalibrationSample,
    calibration_frames,
    detection_distance,
    fit,
    region_rev,
)
from vipguide.scenario import CALIBRATION_Z


def samples_at(z_values):
    out = []
    for frame, z in calibration_frames(z_values):
        rev = region_rev(frame, frame.detections[0])
        out.append(CalibrationSample(rev=rev / REV_MAX, distance=z))
    return out


def main():
    model = fit(samples_at(CALIBRATION_Z))  # walls at 1.0 .. 10.0 m
    print(f"fit on {model.n_samples} walls: "
          f"d = {model.a:.3f} rev^2 + {model.b:.3f} rev + {model.c:.3f}")
    print(f"training rmse = {model.rmse * 100:.2f} cm")
    print()

    print("held-out walls (never used in the fit):")
    print("  true z    predicted    error")
    for frame, z in calibration_frames([1.25, 2.75, 4.25, 6.75, 9.75]):
        pred = detection_distance(frame, frame.detections[0], model)
        print(f"  {z:5.2f} m   {pred:7.3f} m   {abs(pred - z) * 100:5.2f} cm")


if __name__ == "__main__":
    main()
