"""One frame, dissected.

Runs the pipeline on one parked-vehicles frame and shows its working: the
per-obstacle severity calls, the three vertical partitions, each
partition's mean-depth score and widest free gap, and the heading the
pedestrian is finally given.
"""
from vipguide import (
    Pipeline,
    ScenarioSpec,
    default_config,
    default_model,
    detection_distance,
    free_segments,
    generate,
    width_threshold_px,
)
from vipguide.local_planner import partition_profiles


def main():
    cfg = default_config()
    model = default_model()
    spec = ScenarioSpec(kind="parked_vehicles", seed=1, n_frames=1)
    frame, truth = next(iter(generate(spec)))
    decision, _ = Pipeline(cfg, model).process_frame(frame)

    vip = frame.vip_detection
    d_vip = detection_distance(frame, vip, model)
    d_prime = cfg.geometry.d_prime
    print(f"pedestrian at {d_vip:.2f} m, safety distance d' = {d_prime:.2f} m")
    print()

    obstacles = decision.assessments
    for ob in obstacles:
        print(f"  {ob.class_label} at {ob.distance_m:.2f} m ahead of the pedestrian"
              f" -> {ob.severity}")
    print()

    # the pipeline's own working: free space and per-partition profiles
    partitions = decision.partitions
    profiles = partition_profiles(frame.depth, partitions, obstacles, d_prime,
                                  exclude=frame.vip_mask)
    segments = free_segments(obstacles, d_prime, frame.width)
    print(f"  free column runs across the frame: {segments}")
    print("  partition   columns      depth score   widest gap")
    for p, prof in zip(partitions, profiles):
        print(f"  {p.index:^9}   [{p.x_start:3d},{p.x_end:3d})"
              f"   {prof.h_score:11.1f}   {prof.max_free_width:4d} px")
    print()

    threshold = width_threshold_px(vip.bbox.width, cfg.planner)
    outcome = decision.outcome
    print(f"pedestrian needs a {threshold} px gap "
          f"(bbox {vip.bbox.width} px with clearance margin)")
    print(f"decision: partition {outcome.partition}, turn {outcome.angle_deg:+.1f} deg "
          f"(scene expects partition {truth.expected_partition})")


if __name__ == "__main__":
    main()
