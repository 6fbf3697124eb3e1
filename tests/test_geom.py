"""Tests for circles and arcs, and for the reference trim of circles by
balls that judges edge extraction."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from reuleaux import geom
from reuleaux.errors import DegenerateInputError
from reuleaux.geom import (TWO_PI, ArcOnCircle, Circle3, Tolerances,
                           circles_of_sphere_pairs, max_distance_to_arc_many,
                           reference_frames)
from reuleaux.polyhedron import (PointConfig, config_from_generator,
                                 tetra_points)

from golden import generic_sets, moved_pyramid
from oracles import ANG_EPS, frozen_circle_frame, scalar_trim
from test_polyhedron import circle_of

RNG = np.random.default_rng(20260811)


def contains(intervals, angle, slack=0.0):
    """Whether the angle, taken mod 2*pi, lies in the components (lo, hi)
    widened by slack."""
    a = angle % TWO_PI
    for lo, hi in intervals:
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
        assert Tolerances.theta_max == 2.0 * math.asin((1.0 + 1e-9) / 2.0)
        for gone in ("ang_eps", "match_eps", "on_axis"):
            assert not hasattr(tol, gone)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Tolerances(dist_eps=0.0)
        with pytest.raises(ValueError):
            Tolerances(dist_eps=1e-2)


class TestCircleOfSpherePair:
    def test_axis_aligned_example(self):
        c = circle_of((0, 0, 0.5), (0, 0, -0.5))
        assert np.allclose(c.center, [0, 0, 0])
        assert c.radius == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert np.allclose(c.axis, [0, 0, 1])

    def test_unit_chord_radius_is_cos_pi_over_6(self):
        b = np.array([0.2, -0.4, 0.1])
        c = b + np.array([1.0, 0.0, 0.0])
        circ = circle_of(b, c)
        assert circ.radius == pytest.approx(math.cos(math.pi / 6), abs=1e-15)

    def test_circle_points_at_unit_distance_from_both_centers(self):
        # 1e4 random valid pairs in one batch, 16 sampled points each
        psi = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        b, c = np.empty((2, 10_000, 3))
        for k in range(10_000):
            b[k] = RNG.normal(size=3)
            c[k] = b[k] + RNG.uniform(0.1, 1.9) * random_unit(RNG)
        pts = np.array([circ.points(psi)
                        for circ in circles_of_sphere_pairs(b, c)])
        for centers in (b, c):
            dist = np.linalg.norm(pts - centers[:, None], axis=2)
            assert np.max(np.abs(dist - 1.0)) < 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            circle_of((0, 0, 0), (0, 0, 0))
        with pytest.raises(DegenerateInputError):
            circle_of((0, 0, 0), (0, 0, 2.5))

    def test_frames_match_the_frozen_constructor(self):
        # every support circle extraction may build, byte for byte
        cfgs = ([config_from_generator(g) for g in ("tetra", "pentad")]
                + [moved_pyramid(m, m) for m in range(3, 52, 2)]
                + [cfg for m in (5, 9, 21) for cfg in generic_sets(m)])
        pairs = [(cfg.points[i], cfg.points[j]) for cfg in cfgs
                 for i, j in zip(*np.nonzero(cfg.dist <= 1.0 + cfg.tol.dist_eps))
                 if i < j]
        pairs += [(b, b + RNG.uniform(0.1, 1.9) * random_unit(RNG))
                  for b in RNG.normal(size=(2000, 3))]
        assert len(pairs) > 12_000
        # one batch of every pair, and each pair alone
        batch = circles_of_sphere_pairs(*np.array(pairs).transpose(1, 0, 2))
        for (b, c), row in zip(pairs, batch, strict=True):
            center, radius, axis, u_ref, v_ref = frozen_circle_frame(b, c)
            for circ in (row, circle_of(b, c)):
                assert circ.radius.hex() == radius.hex()
                for got, want in ((circ.center, center), (circ.axis, axis),
                                  (circ.u_ref, u_ref), (circ.v_ref, v_ref)):
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable

    def test_cross_is_np_cross_float_for_float(self):
        scale = 10.0 ** RNG.integers(-150, 150, size=(2, 500, 1))
        a, b = RNG.normal(size=(2, 500, 3)) * scale
        a[:50, 0] = b[50:100, 2] = 0.0
        a[100:150, 1] = -0.0
        want = np.cross(a, b)
        assert np.stack(geom.cross(a.T, b.T), axis=1).tobytes() == want.tobytes()
        for x, y, row in zip(a, b, want):
            assert np.array(geom.cross(x.tolist(), y.tolist())).tobytes() == \
                row.tobytes()

    def test_reference_frames_are_deterministic_and_orthonormal(self):
        axes = np.array([random_unit(RNG) for _ in range(100)])
        u, v = reference_frames(axes)
        assert np.abs(np.vecdot(u, axes)).max() < 1e-12
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-12
        assert v.tobytes() == np.cross(axes, u).tobytes()
        # a row's frame does not depend on the rows batched with it
        for k in range(100):
            one = reference_frames(axes[k][None])
            assert one[0].tobytes() == u[k].tobytes()
            assert one[1].tobytes() == v[k].tobytes()

    @pytest.mark.parametrize("row, b, c, message", [
        (1, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], "sphere centers coincide"),
        (2, [0.0, 0.0, 0.0], [0.0, 0.0, 2.5],
         "sphere centers too far apart for a common circle: |b-c|=2.5")])
    def test_batch_refusals_name_the_row(self, row, b, c, message):
        bs = np.array([[0.0, 0.0, 0.5]] * 3)
        cs = -bs
        bs[row], cs[row] = b, c
        with pytest.raises(DegenerateInputError) as info:
            circles_of_sphere_pairs(bs, cs)
        assert str(info.value) == f"{message} (row {row}: centers {b} and {c})"

    def test_a_nonfinite_row_is_named(self):
        bs = np.array([[0.0, 0.0, 0.5]] * 3)
        bs[1, 0] = math.nan
        with pytest.raises(ValueError) as info:
            circles_of_sphere_pairs(bs, -bs)
        assert str(info.value) == ("coordinates must be finite (row 1: "
                                   "centers [nan, 0.0, 0.5] and "
                                   "[nan, -0.0, -0.5])")

    @pytest.mark.parametrize("field, value, message", [
        ("axis", (0.0, 0.0, 1.1), "axis must be a unit vector"),
        ("u_ref", (0.9, 0.0, 0.0), "u_ref must be a unit vector"),
        ("u_ref", (0.6, 0.0, 0.8), "u_ref must be orthogonal to axis"),
        ("radius", 1.1, "radius must lie in (0, 1]")])
    def test_a_bad_frame_row_is_named(self, field, value, message):
        # the batch builds frames that pass; its one check names the row
        # of any that does not
        rows = dict(center=np.zeros((3, 3)), radius=np.full(3, 0.5),
                    axis=np.tile([0.0, 0.0, 1.0], (3, 1)),
                    u_ref=np.tile([1.0, 0.0, 0.0], (3, 1)))
        rows[field][2] = value
        bs = np.array([[0.0, 0.0, 0.5]] * 3)
        with pytest.raises(DegenerateInputError) as info:
            geom._check_frames(**rows, centers=(bs, -bs))
        assert str(info.value) == (f"{message} (row 2: centers "
                                   "[0.0, 0.0, 0.5] and [-0.0, -0.0, -0.5])")


def trim_one(circ, centers):
    """The components of one circle trimmed against ``centers`` by the
    reference trim of ``tests/oracles.py``."""
    return scalar_trim(circ, np.asarray(centers, dtype=float)).components()


class TestBallConstraintInterval:
    def test_center_gives_full_circle(self):
        circ = circle_of((0, 0, 0.5), (0, 0, -0.5))
        assert trim_one(circ, [circ.center]) == [(0.0, TWO_PI)]

    def test_far_point_gives_empty_set(self):
        circ = circle_of((0, 0, 0.5), (0, 0, -0.5))
        assert trim_one(circ, [(5.0, 0.0, 0.0)]) == []

    def test_unit_circle_halfwidth_matches_root_finding(self):
        circ = Circle3(center=np.zeros(3), radius=1.0, axis=np.array([0.0, 0.0, 1.0]),
                       u_ref=np.array([1.0, 0.0, 0.0]))
        x = np.array([1.5, 0.0, 0.0])
        (lo, hi), = trim_one(circ, [x])
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
            circ = circle_of(b, c)
            x = RNG.normal(size=3) * 0.8
            comps = trim_one(circ, [x])
            if comps == [(0.0, TWO_PI)]:
                continue
            for lo, hi in comps:
                for psi in (lo, hi):
                    assert abs(np.linalg.norm(circ.point(psi) - x) - 1.0) < 1e-9


HALF_CIRCLE = Circle3(center=(0, 0, 0), radius=0.5, axis=(0, 0, 1),
                      u_ref=(1, 0, 0))


def ball_for_arc(lo, hi):
    """The center in the plane z = 0 whose unit ball keeps exactly the
    angles [lo, hi] of HALF_CIRCLE, the circle of radius 1/2 about the
    origin: at distance s = r cos h + sqrt(1 - r^2 sin^2 h) from it, in the
    direction of the arc's middle, for half-width h."""
    mid, h, r = 0.5 * (lo + hi), 0.5 * (hi - lo), HALF_CIRCLE.radius
    s = r * math.cos(h) + math.sqrt(1.0 - (r * math.sin(h)) ** 2)
    return (s * math.cos(mid), s * math.sin(mid), 0.0)


def trim_arcs(*arcs):
    """HALF_CIRCLE trimmed by the balls that keep each arc (lo, hi)."""
    return trim_one(HALF_CIRCLE, [ball_for_arc(lo, hi) for lo, hi in arcs])


class TestAngularIntervalSet:
    """The reference trim meets the arcs of the balls on a circle, with the
    ANG_EPS rules applied once."""

    def test_intersection_with_full_is_identity(self):
        # a ball about the circle's center keeps all of it: no cut
        arc = trim_arcs((0.3, 1.2))
        both = trim_one(HALF_CIRCLE, [ball_for_arc(0.3, 1.2), (0, 0, 0)])
        assert both == arc
        (lo, hi), = arc
        assert lo == pytest.approx(0.3, abs=1e-12)
        assert hi == pytest.approx(1.2, abs=1e-12)

    def test_simple_overlap(self):
        (lo, hi), = trim_arcs((0.0, math.pi), (math.pi / 2, 1.5 * math.pi))
        assert lo == pytest.approx(math.pi / 2)
        assert hi == pytest.approx(math.pi)

    def test_wraparound_intersection(self):
        (lo, hi), = trim_arcs((1.5 * math.pi, 2.5 * math.pi), (0.0, math.pi))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(math.pi / 2)
        # two arcs longer than pi meet in two components, one across 0
        assert trim_arcs((-2.0, 2.0), (1.0, 5.0)) == [
            (pytest.approx(1.0), pytest.approx(2.0)),
            (pytest.approx(TWO_PI - 2.0), pytest.approx(5.0))]

    def test_wrap_component_is_rejoined(self):
        (lo, hi), = trim_arcs((1.5 * math.pi, 2.5 * math.pi))
        assert lo == pytest.approx(1.5 * math.pi)
        assert hi == pytest.approx(2.5 * math.pi)

    def test_degenerate_intervals_are_discarded(self):
        # meets of 1e-9 rad are tangency noise, at one end or at both
        assert trim_arcs((0.0, 1.0), (1.0 - 1e-9, 2.0)) == []
        assert trim_arcs((0.0, 4.0), (4.0 - 1e-9, TWO_PI + 1e-9)) == []

    def test_measure_capped_by_full_circle(self):
        # a ball that leaves only ang_eps / 2 of the circle out cuts nothing
        assert trim_arcs((1.0, 1.0 + TWO_PI - 0.5 * ANG_EPS)) == [
            (0.0, TWO_PI)]
        # one that leaves 2 ang_eps out cuts; acos near -1 keeps about 1e-8
        # rad of the arc's ends
        (lo, hi), = trim_arcs((1.0, 1.0 + TWO_PI - 2.0 * ANG_EPS))
        assert TWO_PI - 3.0 * ANG_EPS < hi - lo < TWO_PI - ANG_EPS

    def test_intersection_matches_pointwise_and_on_grid(self):
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        points = HALF_CIRCLE.points(grid)
        for _ in range(50):
            arcs = [(lo, lo + RNG.uniform(0.05, 5.0))
                    for lo in RNG.uniform(0, TWO_PI, size=3)]
            centers = np.array([ball_for_arc(lo, hi) for lo, hi in arcs])
            both = trim_one(HALF_CIRCLE, centers)
            dist = np.linalg.norm(points[:, None] - centers, axis=2)
            for ang, row in zip(grid, dist):
                got = contains(both, ang, 1e-9)
                if got != bool(np.all(row <= 1.0)):
                    # disagreements may only happen within eps of a boundary
                    assert np.all(row <= 1.0 + 1e-6)
                    assert not np.all(row <= 1.0 - 1e-6)


class TestMaxDistanceToArc:
    def _arc(self, start, end):
        circ = circle_of((0, 0, 0.35), (0, 0, -0.35))
        return ArcOnCircle(circ, start, end)

    def test_circle_center_sees_radius(self):
        arc = self._arc(0.3, 2.0)
        center = arc.circle.center
        assert max_distance_to_arc_many(center[None], arc)[0] == pytest.approx(
            arc.circle.radius, abs=1e-14)

    def test_on_axis_point_sees_hypotenuse_for_any_arc(self):
        circ = circle_of((0, 0, 0.35), (0, 0, -0.35))
        h = 0.77
        p = circ.center + h * circ.axis
        expect = math.hypot(h, circ.radius)
        for start, end in [(0.0, 0.5), (1.0, 4.0), (5.0, 7.0)]:
            arc = ArcOnCircle(circ, start, end)
            assert max_distance_to_arc_many(p[None], arc)[0] == pytest.approx(
                expect, abs=1e-13)

    def test_matches_dense_sampling(self):
        # 1,001 samples, the best one refined by bounded Brent between its
        # neighbours: the distance is one sinusoid in psi, so the arc's
        # maximum is an end (a sample) or the one interior peak, which lies
        # between the best sample's neighbours
        for _ in range(25):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.3, 1.5) * random_unit(RNG)
            circ = circle_of(b, c)
            start = RNG.uniform(0, TWO_PI)
            arc = ArcOnCircle(circ, start, start + RNG.uniform(0.2, 5.0))
            p = RNG.normal(size=3)

            def dist(psi):
                return np.linalg.norm(circ.points(psi) - p, axis=-1)
            psi = np.linspace(arc.start_angle, arc.end_angle, 1_001)
            k = int(np.argmax(dist(psi)))
            peak = minimize_scalar(
                lambda t: -dist(t), method="bounded",
                bounds=(psi[max(k - 1, 0)], psi[min(k + 1, 1_000)]),
                options={"xatol": 1e-12})
            ref = max(dist(psi[k]), -peak.fun)
            got = max_distance_to_arc_many(p[None], arc)[0]
            assert got >= ref - 1e-12
            assert got == pytest.approx(ref, abs=1e-9)

    def test_at_least_endpoint_distances(self):
        for _ in range(200):
            b = RNG.normal(size=3)
            c = b + RNG.uniform(0.3, 1.5) * random_unit(RNG)
            circ = circle_of(b, c)
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


class TestInputChecks:
    """The constructors and the point arguments refuse malformed input."""

    UNIT_CIRCLE = dict(center=(0, 0, 0), radius=1.0, axis=(0, 0, 1),
                       u_ref=(1, 0, 0))

    @pytest.mark.parametrize("bad, message", [
        ((0, 0), "expected a 3-vector, got shape"),
        ((0, 0, 0, 1), "expected a 3-vector, got shape"),
        ([[0, 0, 1]], "expected a 3-vector, got shape"),
        ((0, math.nan, 0), "coordinates must be finite"),
        ((math.inf, 0, 0), "coordinates must be finite")])
    def test_points_must_be_finite_3_vectors(self, bad, message):
        for name in ("center", "axis", "u_ref"):
            with pytest.raises(ValueError, match=message):
                Circle3(**dict(self.UNIT_CIRCLE, **{name: bad}))

    @pytest.mark.parametrize("change, message", [
        (dict(axis=(0, 0, 1.1)), "axis must be a unit vector"),
        (dict(u_ref=(0.9, 0, 0)), "u_ref must be a unit vector"),
        (dict(u_ref=(0.6, 0, 0.8)), "u_ref must be orthogonal to axis"),
        (dict(radius=0.0), r"radius must lie in \(0, 1\]"),
        (dict(radius=-0.5), r"radius must lie in \(0, 1\]"),
        (dict(radius=1.1), r"radius must lie in \(0, 1\]"),
        (dict(axis=(0, 0, math.nan)), "coordinates must be finite"),
        (dict(axis=(math.inf, 0, 0)), "coordinates must be finite"),
        (dict(u_ref=(1, math.nan, 0)), "coordinates must be finite"),
        (dict(u_ref=(1, 0, -math.inf)), "coordinates must be finite")])
    def test_circle_frame_checks(self, change, message):
        # a non-finite frame is refused first, a plain ValueError, before
        # the unit and orthogonality checks (which a NaN would pass)
        error = (ValueError if message == "coordinates must be finite"
                 else DegenerateInputError)
        with pytest.raises(error, match=message) as info:
            Circle3(**dict(self.UNIT_CIRCLE, **change))
        assert info.type is error

    def test_records_copy_the_callers_arrays(self):
        # freezing a record's arrays leaves the caller's own writeable, and
        # a later write to them does not reach the record
        pts = tetra_points()
        center = np.zeros(3)
        cfg = PointConfig(points=pts)
        circ = Circle3(**dict(self.UNIT_CIRCLE, center=center))
        assert pts.flags.writeable and center.flags.writeable
        pts[0, 0] = center[0] = 7.0
        assert cfg.points[0, 0] == 0.5 and circ.center[0] == 0.0
        assert not (cfg.points.flags.writeable or circ.center.flags.writeable)

    @pytest.mark.parametrize("start, end", [
        (1.0, 1.0), (1.0, 0.5), (0.0, TWO_PI), (0.5, 0.5 + 7.0)])
    def test_arc_span_must_lie_inside_a_turn(self, start, end):
        circ = Circle3(**self.UNIT_CIRCLE)
        with pytest.raises(DegenerateInputError, match="arc span must lie in"):
            ArcOnCircle(circ, start, end)
        assert ArcOnCircle(circ, start, start + 0.5).span == 0.5
