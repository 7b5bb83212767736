import math

import pytest

from vipguide.errors import GeometryError, InfeasibleConfigError
from vipguide.geometry import (
    GeometricConfig,
    lookahead,
    min_distance_for_visibility,
    pose_envelope,
    safety_distance,
    validate_pose,
    visibility_offset,
)


class TestVisibilityOffset:
    def test_45_degree_half_angle(self):
        assert visibility_offset(90.0, 3.0) == pytest.approx(3.0)

    def test_30_degree_half_angle(self):
        assert visibility_offset(60.0, math.sqrt(3)) == pytest.approx(1.0)

    def test_oracle_value(self):
        # independent evaluation: tan(41.3 deg) computed separately
        assert visibility_offset(82.6, 2.0) == pytest.approx(
            2.0 * math.tan(math.radians(41.3)), abs=1e-12
        )
        assert visibility_offset(82.6, 2.0) == pytest.approx(1.757, abs=5e-4)

    @pytest.mark.parametrize(
        "f,d", [(0.0, 1.0), (180.0, 1.0), (90.0, 0.0), (90.0, -2.0), (90.0, math.nan)]
    )
    def test_domain(self, f, d):
        with pytest.raises(GeometryError):
            visibility_offset(f, d)

    def test_ratio_identity_sweep(self):
        for f in [1.0, 10.0, 45.0, 60.0, 82.6, 90.0, 120.0, 179.0]:
            tan_half = math.tan(math.radians(f) / 2.0)
            for d in [0.01, 0.5, 1.0, 3.3, 10.0, 250.0]:
                ratio = visibility_offset(f, d) / d
                assert abs(ratio - tan_half) <= 1e-12 * tan_half


class TestSafetyDistance:
    def test_stationary(self):
        assert safety_distance(0.0, 0.5, 1.0) == 0.0

    def test_reference_latency(self):
        # perception pipeline: 10 + 27 + 108 + 16 ms of inference budget
        assert safety_distance(1.0, 0.161, 1.0) == pytest.approx(1.161)

    def test_hand_arithmetic(self):
        assert safety_distance(1.5, 0.2, 1.2) == pytest.approx(2.1)

    def test_negative_rejected(self):
        with pytest.raises(GeometryError):
            safety_distance(-1.0, 0.1, 0.1)
        with pytest.raises(GeometryError):
            safety_distance(math.nan, 0.161, 1.0)

    def test_linearity_exact_for_binary_scales(self):
        base = safety_distance(1.3, 0.161, 1.0)
        for alpha in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
            assert safety_distance(alpha * 1.3, 0.161, 1.0) == alpha * base

    def test_linearity_general(self):
        base = safety_distance(1.1, 0.2, 0.9)
        for alpha in [0.3, 1.7, 2.9]:
            got = safety_distance(alpha * 1.1, 0.2, 0.9)
            assert got == pytest.approx(alpha * base, rel=1e-12)


class TestLookahead:
    def test_with_buffer(self):
        assert lookahead(2.0, 1.0, GeometricConfig(buffer_factor=0.05)) == pytest.approx(3.05)

    def test_zero_safety(self):
        assert lookahead(4.2, 0.0, GeometricConfig(buffer_factor=0.05)) == 4.2

    def test_zero_buffer(self):
        assert lookahead(0.0, 2.0, GeometricConfig(buffer_factor=0.0)) == 2.0


class TestMinDistanceForVisibility:
    def test_two_thirds_rule(self):
        cfg = GeometricConfig(f_deg=90.0, h_vip_m=1.8, h_max_m=3.0, visible_fraction=2 / 3)
        assert min_distance_for_visibility(1.0, cfg) == pytest.approx(2.2)

    def test_head_top_only_inverts_offset(self):
        cfg = GeometricConfig(f_deg=70.0, h_vip_m=1.7, h_max_m=3.0, visible_fraction=1e-9)
        h = 2.5
        assert min_distance_for_visibility(h, cfg) == pytest.approx(
            h / math.tan(math.radians(35.0)), rel=1e-9
        )

    def test_floor_clamp(self):
        cfg = GeometricConfig(f_deg=90.0, h_vip_m=1.5, h_max_m=1.5, visible_fraction=2 / 3)
        got = min_distance_for_visibility(0.0, cfg)
        assert got >= 1.0
        assert got == pytest.approx(1.0)
        # well under the unclamped value: the 1 m floor is doing the work
        tiny = GeometricConfig(f_deg=90.0, h_vip_m=0.3, h_max_m=0.3)
        assert min_distance_for_visibility(0.0, tiny) == 1.0


    def test_negative_offset_rejected(self):
        with pytest.raises(GeometryError) as info:
            min_distance_for_visibility(-1.0, GeometricConfig())
        assert str(info.value) == "negative height offset -1.0"
        with pytest.raises(GeometryError) as info:
            min_distance_for_visibility(math.nan, GeometricConfig())
        assert str(info.value) == "negative height offset nan"


class TestPoseEnvelope:
    def test_far_endpoint_from_range(self):
        cfg = GeometricConfig(
            f_deg=90.0,
            h_vip_m=1.7,
            h_max_m=3.0,
            walk_speed_mps=1.0,
            t_detect_s=0.161,
            t_react_s=1.0,
            buffer_factor=0.05,
            perception_range_m=10.0,
        )
        env = pose_envelope(cfg)
        assert env.d_max == pytest.approx(10.0 - 1.161 * 1.05)
        assert env.d_max == pytest.approx(8.781, abs=2e-4)

    def test_ceiling_clamp(self):
        cfg = GeometricConfig(perception_range_m=1e9)
        assert pose_envelope(cfg).d_max == 10.0

    def test_infeasible(self):
        cfg = GeometricConfig(
            walk_speed_mps=2.0, t_detect_s=0.5, t_react_s=1.0, perception_range_m=2.0
        )
        with pytest.raises(InfeasibleConfigError, match="d_min"):
            pose_envelope(cfg)

    def test_bounds_honored(self):
        feasible = 0
        for r in [6.0, 8.0, 12.0, 40.0]:
            for h_max in [1.7, 2.5, 4.0]:
                cfg = GeometricConfig(h_max_m=h_max, perception_range_m=r)
                try:
                    env = pose_envelope(cfg)
                except InfeasibleConfigError:
                    continue
                feasible += 1
                assert env.d_min >= 1.0
                assert env.d_max <= 10.0
                assert env.d_min <= env.d_max
        assert feasible >= 10

    def test_monotone_in_range_and_height(self):
        d_maxes = [
            pose_envelope(GeometricConfig(perception_range_m=r)).d_max
            for r in [6.0, 7.0, 9.0, 11.0, 13.0]
        ]
        assert d_maxes == sorted(d_maxes)
        d_mins = [
            pose_envelope(GeometricConfig(h_max_m=h)).d_min for h in [1.7, 2.0, 3.0, 4.0]
        ]
        assert d_mins == sorted(d_mins)


class TestValidatePose:
    def test_envelope_segment_valid_throughout(self):
        cfg = GeometricConfig()
        env = pose_envelope(cfg)
        for k in range(101):
            h, d = env.interpolate(k / 100.0)
            assert validate_pose(h, d, cfg) == []

    def test_below_floor(self):
        cfg = GeometricConfig()
        violations = validate_pose(cfg.h_vip_m, 0.5, cfg)
        assert any("below minimum distance" in v for v in violations)

    def test_head_visibility_violation(self):
        cfg = GeometricConfig(f_deg=90.0)
        violations = validate_pose(5.0, 2.0, cfg)
        assert any("head not visible" in v for v in violations)

    def test_height_band(self):
        cfg = GeometricConfig(h_vip_m=1.7, h_max_m=3.0)
        env = pose_envelope(cfg)
        d_mid = (env.d_min + env.d_max) / 2
        assert any("below VIP head" in v for v in validate_pose(1.0, d_mid, cfg))
        assert any("above height ceiling" in v for v in validate_pose(5.0, d_mid * 2, cfg))

    def test_beyond_max(self):
        cfg = GeometricConfig()
        violations = validate_pose(cfg.h_vip_m, 25.0, cfg)
        assert any("beyond maximum distance" in v for v in violations)

    @pytest.mark.parametrize(
        "h,kinds",
        [
            (math.nan, ["head not visible", "below VIP head height", "above height ceiling"]),
            (math.inf, ["head not visible", "above height ceiling"]),
            (-math.inf, ["below VIP head height"]),
        ],
    )
    def test_non_finite_height_offset_is_a_violation(self, h, kinds):
        """Each h' check fails a NaN h', and an infinite one fails the checks it lies beyond."""
        cfg = GeometricConfig()
        env = pose_envelope(cfg)
        violations = validate_pose(h, (env.d_min + env.d_max) / 2, cfg)
        assert len(violations) == len(kinds)
        for violation, kind in zip(violations, kinds):
            assert kind in violation and f"h'={h:.3f}" in violation

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
    def test_non_positive_distance_is_no_pose(self, d):
        with pytest.raises(GeometryError, match="not positive"):
            validate_pose(GeometricConfig().h_vip_m, d, GeometricConfig())


class TestConfigInvariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_deg": 0.0},
            {"f_deg": 180.0},
            {"h_vip_m": 0.0},
            {"h_max_m": 1.0, "h_vip_m": 1.7},
            {"walk_speed_mps": -0.1},
            {"t_react_s": -1.0},
            {"visible_fraction": 0.0},
            {"visible_fraction": 1.1},
            {"buffer_factor": -0.01},
            {"perception_range_m": 0.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(GeometryError):
            GeometricConfig(**kwargs)
