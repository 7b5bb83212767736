"""One frame, dissected.

Runs the per-frame avoidance logic on a parked-vehicles scene and shows
its working: the three vertical partitions, each partition's mean-depth
score and widest free gap, the per-obstacle severity calls, and the
heading the pedestrian is finally given.
"""
from vipguide import (
    ObstacleAssessment,
    ScenarioSpec,
    classify_obstacle,
    default_config,
    default_model,
    detection_distance,
    free_segments,
    generate,
    heading_angle,
    partition_bounds,
    safety_distance,
    width_threshold_px,
)
from vipguide.local_planner import decide, partition_profiles


def main():
    cfg = default_config()
    model = default_model()
    spec = ScenarioSpec(kind="parked_vehicles", seed=1, n_frames=1)
    frame, truth = next(iter(generate(spec)))

    vip = frame.vip_detection
    d_vip = detection_distance(frame, vip, model)
    geo = cfg.geometry
    d_prime = safety_distance(geo.walk_speed_mps, geo.t_detect_s, geo.t_react_s)
    print(f"pedestrian at {d_vip:.2f} m, safety distance d' = {d_prime:.2f} m")
    print()

    obstacles = []
    for det in frame.detections:
        if det.class_label == "vip":
            continue
        d_rel = max(0.0, detection_distance(frame, det, model) - d_vip)
        band = classify_obstacle(d_rel, d_prime, cfg.planner.danger_mult,
                                 cfg.planner.warning_mult)
        # one frame, no tracker: the instance id stands in for a track id
        obstacles.append(ObstacleAssessment(det.track_id, det.class_label, det.bbox,
                                            d_rel, band))
        print(f"  {det.class_label} at {d_rel:.2f} m ahead of the pedestrian -> {band}")
    print()

    partitions = partition_bounds(frame.width, cfg.planner.n_partitions)
    profiles = partition_profiles(frame.depth, partitions, obstacles, d_prime,
                                  exclude=frame.vip_mask)
    segments = free_segments(obstacles, d_prime, frame.width)
    print(f"  free column runs across the frame: {segments}")
    print("  partition   columns      depth score   widest gap")
    for p, prof in zip(partitions, profiles):
        print(f"  {p.index:^9}   [{p.x_start:3d},{p.x_end:3d})"
              f"   {prof.h_score:11.1f}   {prof.max_free_width:4d} px")
    print()

    threshold = width_threshold_px(vip.bbox.width, cfg.planner.width_margin)
    outcome = decide(profiles, 1, threshold, cfg.geometry.hfov_deg, frame.width)
    print(f"pedestrian needs a {threshold} px gap "
          f"(bbox {vip.bbox.width} px with clearance margin)")
    print(f"decision: partition {outcome.partition}, "
          f"turn {heading_angle(partitions[outcome.partition], frame.width, cfg.geometry.hfov_deg):+.1f} deg "
          f"(scene expects partition {truth.expected_partition})")


if __name__ == "__main__":
    main()
