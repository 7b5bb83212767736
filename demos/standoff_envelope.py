"""Where may the drone fly?

Sweeps the escort's standoff envelope: the band of (height offset,
distance) pairs from which the camera keeps the pedestrian's head in
frame while staying ahead far enough to cover braking distance. Prints
the endpoints, a few interpolated poses, and what each constraint says
about poses just outside the band.
"""
from vipguide import GeometricConfig, lookahead, pose_envelope, validate_pose


def main():
    cfg = GeometricConfig()  # 90 deg FoV, 1.7 m pedestrian, 1.2 m/s walk
    d_prime = cfg.d_prime
    env = pose_envelope(cfg)

    print(f"safety distance d' = {d_prime:.3f} m")
    print(f"lookahead at d=2 m = {lookahead(2.0, d_prime, cfg):.3f} m")
    print()
    print(f"envelope: ({env.h_near:.2f} m @ {env.d_min:.2f} m)"
          f"  ->  ({env.h_far:.2f} m @ {env.d_max:.2f} m)")
    print()
    print("  t    height   distance   ok?")
    for k in range(5):
        t = k / 4
        h, d = env.interpolate(t)
        issues = validate_pose(h, d, cfg)
        print(f"  {t:.2f}  {h:6.2f} m  {d:7.2f} m   {'yes' if not issues else issues}")

    print()
    print("poses outside the band:")
    for h, d in [(3.5, 5.0), (1.0, 5.0), (3.0, 0.5), (2.0, 12.0)]:
        issues = validate_pose(h, d, cfg)
        print(f"  h'={h} d={d}: {'; '.join(issues) if issues else 'fine'}")


if __name__ == "__main__":
    main()
