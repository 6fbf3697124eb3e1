"""Tests for circles, arcs, and angular-interval arithmetic."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from reuleaux.errors import DegenerateInputError
from reuleaux.geom import (TWO_PI, AngularIntervalSet, ArcOnCircle, Circle3,
                           Tolerances, ball_constraint_interval,
                           circle_of_sphere_pair, max_distance_to_arc_many,
                           reference_direction)

RNG = np.random.default_rng(20260811)


def contains(s, angle, slack=0.0):
    """Whether the angle, taken mod 2*pi, lies in the set widened by slack."""
    a = angle % TWO_PI
    for lo, hi in s.intervals:
        for cand in (a, a + TWO_PI, a - TWO_PI):
            if lo - slack <= cand <= hi + slack:
                return True
    return False


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.dist_eps == 1e-9
        assert tol.ang_eps == 1e-7
        assert tol.match_eps == 1e-7

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Tolerances(dist_eps=0.0)
        with pytest.raises(ValueError):
            Tolerances(dist_eps=1e-2)
        with pytest.raises(ValueError):
            Tolerances(ang_eps=-1e-9)


class TestCircleOfSpherePair:
    def test_axis_aligned_example(self):
        c = circle_of_sphere_pair((0, 0, 0.5), (0, 0, -0.5))
        assert np.allclose(c.center, [0, 0, 0])
        assert c.radius == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert np.allclose(c.axis, [0, 0, 1])

    def test_unit_chord_radius_is_cos_pi_over_6(self):
        b = np.array([0.2, -0.4, 0.1])
        c = b + np.array([1.0, 0.0, 0.0])
        circ = circle_of_sphere_pair(b, c)
        assert circ.radius == pytest.approx(math.cos(math.pi / 6), abs=1e-15)

    def test_circle_points_at_unit_distance_from_both_centers(self):
        # 1e4 random valid pairs, 16 sampled points each
        psi = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        for _ in range(10_000):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.1, 1.9) * random_unit(RNG)
            circ = circle_of_sphere_pair(b, c)
            pts = circ.points(psi)
            db = np.linalg.norm(pts - b, axis=1)
            dc = np.linalg.norm(pts - c, axis=1)
            assert np.max(np.abs(db - 1.0)) < 1e-12
            assert np.max(np.abs(dc - 1.0)) < 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            circle_of_sphere_pair((0, 0, 0), (0, 0, 0))
        with pytest.raises(DegenerateInputError):
            circle_of_sphere_pair((0, 0, 0), (0, 0, 2.5))

    def test_reference_direction_is_deterministic_and_orthogonal(self):
        for _ in range(100):
            axis = random_unit(RNG)
            u = reference_direction(axis)
            assert abs(u @ axis) < 1e-12
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert np.array_equal(u, reference_direction(axis))


class TestBallConstraintInterval:
    def test_center_gives_full_circle(self):
        circ = circle_of_sphere_pair((0, 0, 0.5), (0, 0, -0.5))
        assert ball_constraint_interval(circ, circ.center).is_full

    def test_far_point_gives_empty_set(self):
        circ = circle_of_sphere_pair((0, 0, 0.5), (0, 0, -0.5))
        assert ball_constraint_interval(circ, (5.0, 0.0, 0.0)).is_empty

    def test_unit_circle_halfwidth_matches_root_finding(self):
        circ = Circle3(center=np.zeros(3), radius=1.0, axis=np.array([0.0, 0.0, 1.0]),
                       u_ref=np.array([1.0, 0.0, 0.0]))
        x = np.array([1.5, 0.0, 0.0])
        ivs = ball_constraint_interval(circ, x)
        (lo, hi), = ivs.components(1e-7)
        half = math.acos(0.75)
        # independent oracle: solve |p(psi) - x| = 1 directly
        root = brentq(lambda p: np.linalg.norm(circ.point(p) - x) - 1.0, 1e-9, math.pi)
        assert root == pytest.approx(half, abs=1e-12)
        assert (hi - lo) / 2 == pytest.approx(root, abs=1e-9)
        mid = ((lo + hi) / 2) % TWO_PI
        assert min(mid, TWO_PI - mid) < 1e-9  # symmetric about psi = 0

    def test_boundary_points_sit_on_the_unit_sphere(self):
        for _ in range(200):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.3, 1.5) * random_unit(RNG)
            circ = circle_of_sphere_pair(b, c)
            x = RNG.normal(size=3) * 0.8
            ivs = ball_constraint_interval(circ, x)
            if ivs.is_full or ivs.is_empty:
                continue
            for lo, hi in ivs.components(1e-7):
                for psi in (lo, hi):
                    assert abs(np.linalg.norm(circ.point(psi) - x) - 1.0) < 1e-9


class TestAngularIntervalSet:
    def test_intersection_with_full_is_identity(self):
        s = AngularIntervalSet.from_raw([(0.3, 1.2), (2.0, 2.5)], 1e-7)
        assert s.intersect(AngularIntervalSet.full(), 1e-7) == s

    def test_simple_overlap(self):
        a = AngularIntervalSet.from_raw([(0.0, math.pi)], 1e-7)
        b = AngularIntervalSet.from_raw([(math.pi / 2, 1.5 * math.pi)], 1e-7)
        (lo, hi), = a.intersect(b, 1e-7).intervals
        assert lo == pytest.approx(math.pi / 2)
        assert hi == pytest.approx(math.pi)

    def test_wraparound_intersection(self):
        wrap = AngularIntervalSet.from_raw([(1.5 * math.pi, 2.5 * math.pi)], 1e-7)
        assert len(wrap.intervals) == 2
        other = AngularIntervalSet.from_raw([(0.0, math.pi)], 1e-7)
        (lo, hi), = wrap.intersect(other, 1e-7).intervals
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(math.pi / 2)

    def test_wrap_component_is_rejoined(self):
        wrap = AngularIntervalSet.from_raw([(1.5 * math.pi, 2.5 * math.pi)], 1e-7)
        (lo, hi), = wrap.components(1e-7)
        assert lo == pytest.approx(1.5 * math.pi)
        assert hi == pytest.approx(2.5 * math.pi)

    def test_degenerate_intervals_are_discarded(self):
        s = AngularIntervalSet.from_raw([(1.0, 1.0 + 1e-9)], 1e-7)
        assert s.is_empty

    def test_measure_capped_by_full_circle(self):
        s = AngularIntervalSet.from_raw([(0.0, TWO_PI + 1.0)], 1e-7)
        assert s.is_full
        assert s.measure == pytest.approx(TWO_PI)

    def test_intersection_matches_pointwise_and_on_grid(self):
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        for _ in range(50):
            raw_a = [(lo, lo + RNG.uniform(0.05, 2.5))
                     for lo in RNG.uniform(0, TWO_PI, size=3)]
            raw_b = [(lo, lo + RNG.uniform(0.05, 2.5))
                     for lo in RNG.uniform(0, TWO_PI, size=2)]
            a = AngularIntervalSet.from_raw(raw_a, 1e-7)
            b = AngularIntervalSet.from_raw(raw_b, 1e-7)
            both = a.intersect(b, 1e-7)
            for ang in grid:
                expect = contains(a, ang, 1e-9) and contains(b, ang, 1e-9)
                got = contains(both, ang, 1e-9)
                if expect != got:
                    # disagreements may only happen within eps of a boundary
                    assert contains(a, ang, 1e-6) and contains(b, ang, 1e-6)


class TestMaxDistanceToArc:
    def _arc(self, start, end):
        circ = circle_of_sphere_pair((0, 0, 0.35), (0, 0, -0.35))
        return ArcOnCircle(circ, start, end)

    def test_circle_center_sees_radius(self):
        arc = self._arc(0.3, 2.0)
        center = arc.circle.center
        assert max_distance_to_arc_many(center[None], arc)[0] == pytest.approx(
            arc.circle.radius, abs=1e-14)

    def test_on_axis_point_sees_hypotenuse_for_any_arc(self):
        circ = circle_of_sphere_pair((0, 0, 0.35), (0, 0, -0.35))
        h = 0.77
        p = circ.center + h * circ.axis
        expect = math.hypot(h, circ.radius)
        for start, end in [(0.0, 0.5), (1.0, 4.0), (5.0, 7.0)]:
            arc = ArcOnCircle(circ, start, end)
            assert max_distance_to_arc_many(p[None], arc)[0] == pytest.approx(
                expect, abs=1e-13)

    def test_matches_dense_sampling(self):
        psi = None
        for _ in range(25):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.3, 1.5) * random_unit(RNG)
            circ = circle_of_sphere_pair(b, c)
            start = RNG.uniform(0, TWO_PI)
            arc = ArcOnCircle(circ, start, start + RNG.uniform(0.2, 5.0))
            p = RNG.normal(size=3)
            if psi is None or True:
                psi = np.linspace(arc.start_angle, arc.end_angle, 1_000_001)
            dense = np.linalg.norm(circ.points(psi) - p, axis=1).max()
            got = max_distance_to_arc_many(p[None], arc)[0]
            assert got >= dense - 1e-12
            assert got == pytest.approx(dense, abs=1e-9)

    def test_at_least_endpoint_distances(self):
        for _ in range(200):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.3, 1.5) * random_unit(RNG)
            circ = circle_of_sphere_pair(b, c)
            start = RNG.uniform(0, TWO_PI)
            arc = ArcOnCircle(circ, start, start + RNG.uniform(0.2, 6.0))
            p = RNG.normal(size=3) * 1.5
            got = max_distance_to_arc_many(p[None], arc)[0]
            for q in (circ.point(arc.start_angle), circ.point(arc.end_angle)):
                assert got >= np.linalg.norm(p - q) - 1e-12

    def test_vectorized_agrees_with_scalar(self):
        arc = self._arc(0.4, 3.9)
        pts = RNG.normal(size=(64, 3))
        many = max_distance_to_arc_many(pts, arc)
        for i in range(64):
            one = max_distance_to_arc_many(pts[i][None], arc)[0]
            assert many[i] == pytest.approx(one, abs=1e-14)
