"""A full escorted walk, end to end.

Generates a synthetic perception stream (pedestrian, obstacles, depth,
masks), runs every frame through the pipeline — tracking, metric
distances, severity triage, partition choice, road-edge probing — and
prints a compact per-frame story plus the stage latency summary. The
crowd scenario steers left; swap the kind to see the others.
"""
from vipguide import (
    Heading,
    Pipeline,
    ScenarioSpec,
    default_config,
    default_model,
    direction_name,
    generate,
)

KIND = "crowded_street"


def main():
    spec = ScenarioSpec(kind=KIND, seed=1, n_frames=30)
    pipe = Pipeline(default_config(), default_model())

    matched = total = 0
    for frame, truth in generate(spec):
        decision, record = pipe.process_frame(frame)
        total += 1
        if isinstance(decision.outcome, Heading):
            got = direction_name(decision.outcome.partition)
            matched += got == truth.expected_direction
            if frame.frame_id % 6 == 0:
                hazards = ", ".join(
                    f"{a.class_label}@{a.distance_m:.1f}m[{a.severity}]"
                    for a in decision.assessments
                ) or "none"
                print(f"frame {frame.frame_id:2d}: head {got:6s} "
                      f"({decision.outcome.angle_deg:+6.1f} deg)  "
                      f"edge={decision.edge_status}  hazards: {hazards}")

    print()
    print(f"{KIND}: {matched}/{total} frames headed "
          f"{truth.expected_direction} as the scene demands")
    for stage, stats in pipe.stats.summary().items():
        print(f"  {stage:6s} p50 {stats['p50']:7.3f} ms   p90 {stats['p90']:7.3f} ms")


if __name__ == "__main__":
    main()
