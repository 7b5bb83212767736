"""Seeing what the planner sees.

Writes a short annotated image sequence for the parked-vehicles scene:
the depth map as grayscale, obstacle boxes tinted by severity (red
danger, yellow warning), the pedestrian in blue, and the chosen heading
partition outlined in green. Output is plain binary PPM — any image
viewer opens it.
"""
import os
import sys

from vipguide import (
    Pipeline,
    ScenarioSpec,
    annotate_frame,
    default_config,
    default_model,
    generate,
    write_ppm,
)


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "annotated"
    os.makedirs(out_dir, exist_ok=True)

    pipe = Pipeline(default_config(), default_model())
    spec = ScenarioSpec(kind="parked_vehicles", seed=1, n_frames=12)

    for frame, _ in generate(spec):
        decision, _ = pipe.process_frame(frame)
        image = annotate_frame(frame, decision)
        path = os.path.join(out_dir, f"frame_{frame.frame_id:05d}.ppm")
        write_ppm(path, image)
        print(f"wrote {path}")

    print(f"\nopen the PPMs in {out_dir}/ to watch the heading hold right")


if __name__ == "__main__":
    main()
