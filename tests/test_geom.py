"""Tests for circles, arcs, and angular-interval arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from reuleaux import geom
from reuleaux.errors import DegenerateInputError
from reuleaux.geom import (TWO_PI, AngularIntervalSet, ArcOnCircle, Circle3,
                           Tolerances, circle_of_sphere_pair,
                           max_distance_to_arc_many, reference_direction,
                           trim_circle)
from reuleaux.polyhedron import _candidate_pairs, config_from_generator

from oracles import (FrozenIntervalSet, frozen_circle_frame,
                     scalar_ball_constraint, scalar_trim)
from test_polyhedron import generic_sets, moved_pyramid

RNG = np.random.default_rng(20260811)


def contains(s, angle, slack=0.0):
    """Whether the angle, taken mod 2*pi, lies in the set widened by slack."""
    a = angle % TWO_PI
    for lo, hi in s.intervals:
        for cand in (a, a + TWO_PI, a - TWO_PI):
            if lo - slack <= cand <= hi + slack:
                return True
    return False


def measure(s):
    """Total length of the set's intervals."""
    return sum(hi - lo for lo, hi in s.intervals)


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
        for b, c in pairs:
            circ = circle_of_sphere_pair(b, c)
            center, radius, axis, u_ref, v_ref = frozen_circle_frame(b, c)
            assert circ.radius.hex() == radius.hex()
            for got, want in ((circ.center, center), (circ.axis, axis),
                              (circ.u_ref, u_ref), (circ.v_ref, v_ref)):
                assert got.tobytes() == want.tobytes()

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
        assert trim_circle(circ, np.array([circ.center], dtype=float)).is_full

    def test_far_point_gives_empty_set(self):
        circ = circle_of_sphere_pair((0, 0, 0.5), (0, 0, -0.5))
        assert trim_circle(
            circ, np.array([(5.0, 0.0, 0.0)], dtype=float)).is_empty

    def test_unit_circle_halfwidth_matches_root_finding(self):
        circ = Circle3(center=np.zeros(3), radius=1.0, axis=np.array([0.0, 0.0, 1.0]),
                       u_ref=np.array([1.0, 0.0, 0.0]))
        x = np.array([1.5, 0.0, 0.0])
        ivs = trim_circle(circ, np.array([x], dtype=float))
        (lo, hi), = ivs.components()
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
            ivs = trim_circle(circ, np.array([x], dtype=float))
            if ivs.is_full or ivs.is_empty:
                continue
            for lo, hi in ivs.components():
                for psi in (lo, hi):
                    assert abs(np.linalg.norm(circ.point(psi) - x) - 1.0) < 1e-9


def hexed(intervals):
    return [(lo.hex(), hi.hex()) for lo, hi in intervals]


def batch_against_scalar(circ, centers):
    """Each center's constraint, then the whole trim, by ``trim_circle`` and
    by the frozen scalar chain, as float.hex intervals; the kinds of set the
    scalar formula gave."""
    scalar = [scalar_ball_constraint(circ, x) for x in centers]
    kinds = {"full" if s.is_full else "empty" if s.is_empty else "arc"
             for s in scalar}
    got = [trim_circle(circ, centers[k:k + 1]) for k in range(len(centers))]
    got.append(trim_circle(circ, centers))
    scalar.append(scalar_trim(circ, centers))
    return ([hexed(s.intervals) for s in got],
            [hexed(s.intervals) for s in scalar], kinds)


class TestBallConstraintIntervals:
    """The batched trim is bit-identical to the frozen scalar chain."""

    def test_random_circles_and_centers(self):
        rng = np.random.default_rng(1206)
        kinds = set()
        for _ in range(300):
            b = rng.normal(size=3)
            c = b + rng.uniform(0.3, 1.5) * random_unit(rng)
            circ = circle_of_sphere_pair(b, c)
            dirs = rng.normal(size=(6, 3))
            centers = (circ.center + rng.uniform(0.0, 2.5, size=(6, 1))
                       * dirs / np.linalg.norm(dirs, axis=1)[:, None])
            # a center on the circle's axis has no direction on the circle
            on_axis = circ.center + rng.uniform(-1.0, 1.0) * circ.axis
            got, want, seen = batch_against_scalar(
                circ, np.vstack([centers, on_axis]))
            assert got == want
            kinds |= seen
        assert kinds == {"full", "empty", "arc"}

    def test_candidate_circles_of_a_moved_pyramid(self):
        # every candidate pair of an n = 102 pyramid and of the m = 21
        # generic sets: the pairs the trim runs on in extract_edges
        for cfg in [moved_pyramid(101, 102)] + generic_sets(21):
            pts = cfg.points
            for i, j in _candidate_pairs(cfg):
                circ = circle_of_sphere_pair(pts[i], pts[j])
                others = np.delete(pts, (i, j), axis=0)
                assert (hexed(trim_circle(circ, others).intervals)
                        == hexed(scalar_trim(circ, others).intervals))


EPS = Tolerances.ang_eps
# lengths of pieces and of the gaps between them: zero (touching endpoints),
# up to 2 ang_eps (tangency noise), ordinary, within 2 ang_eps of a full
# turn; gaps may also be negative (overlaps)
_SHORT = st.floats(0.0, 2.0 * EPS)
_SPAN = st.one_of(_SHORT, st.floats(1e-3, TWO_PI),
                  st.floats(TWO_PI - 2.0 * EPS, TWO_PI + 2.0 * EPS))
_GAP = st.one_of(st.just(0.0), _SHORT, st.floats(1e-3, 3.0),
                 st.floats(-1.0, 0.0))
# starts on either side of [0, 2*pi), so pieces wrap past 2*pi or start at
# a negative lo, and on the ends of one turn
_START = st.one_of(st.floats(-2.0 * TWO_PI, 2.0 * TWO_PI),
                   st.sampled_from([0.0, EPS, TWO_PI - EPS, TWO_PI, -TWO_PI]))
TUPLE_LAYER = settings(max_examples=400, derandomize=True, deadline=None,
                       database=None)


@st.composite
def raw_pieces(draw, most=4):
    """Raw (lo, hi) pieces laid end to end by _SPAN and _GAP, shuffled."""
    lo = draw(_START)
    raw = []
    for _ in range(draw(st.integers(1, most))):
        hi = lo + draw(_SPAN)
        raw.append((lo, hi))
        lo = hi + draw(_GAP)
    return draw(st.permutations(raw))


class TestTupleLayer:
    """The tuple canonicalizer and the one-arc step give the frozen
    arithmetic's floats (float.hex), and so do the methods built on them."""

    @TUPLE_LAYER
    @given(raw=raw_pieces())
    @example(raw=[(-0.5, 0.5)])
    @example(raw=[(1.0, 1.0 + TWO_PI - 1.5 * EPS)])
    @example(raw=[(1.0, 1.0 + 0.5 * EPS)])
    @example(raw=[(0.0, 1.0), (1.0 + 0.5 * EPS, 2.0)])
    @example(raw=[(TWO_PI - 1.0, TWO_PI), (0.0, 1.0)])
    @example(raw=[(TWO_PI - 0.5 * EPS, TWO_PI + 3.0)])
    # a span just under ang_eps whose re-rounded span lo + (hi - lo) is over
    @example(raw=[(-1e-4, -9.990000000007484e-05)])
    def test_canonical_form(self, raw):
        want = hexed(FrozenIntervalSet.from_raw(raw).intervals)
        assert hexed(geom._canonical(raw)) == want
        assert hexed(AngularIntervalSet.from_raw(raw).intervals) == want
        if len(raw) == 1:
            assert hexed(geom._arc(*raw[0])) == want

    @TUPLE_LAYER
    @given(raw_a=st.one_of(raw_pieces(1), raw_pieces()),
           raw_b=st.one_of(raw_pieces(1), raw_pieces()))
    @example(raw_a=[(0.0, 1.0)], raw_b=[(1.0, 2.0)])
    @example(raw_a=[(0.5, 1.0)], raw_b=[(1.0 - 0.5 * EPS, 2.0)])
    @example(raw_a=[(-1.0, 1.0)], raw_b=[(0.5, TWO_PI - 0.5)])
    def test_intersection(self, raw_a, raw_b):
        a = FrozenIntervalSet.from_raw(raw_a)
        b = FrozenIntervalSet.from_raw(raw_b)
        want = hexed(a.intersect(b).intervals)
        assert hexed(geom._meet(a.intervals, b.intervals)) == want
        got = AngularIntervalSet(a.intervals).intersect(
            AngularIntervalSet(b.intervals))
        assert hexed(got.intervals) == want


class TestAngularIntervalSet:
    def test_intersection_with_full_is_identity(self):
        s = AngularIntervalSet.from_raw([(0.3, 1.2), (2.0, 2.5)])
        assert s.intersect(AngularIntervalSet.full()) == s

    def test_simple_overlap(self):
        a = AngularIntervalSet.from_raw([(0.0, math.pi)])
        b = AngularIntervalSet.from_raw([(math.pi / 2, 1.5 * math.pi)])
        (lo, hi), = a.intersect(b).intervals
        assert lo == pytest.approx(math.pi / 2)
        assert hi == pytest.approx(math.pi)

    def test_wraparound_intersection(self):
        wrap = AngularIntervalSet.from_raw([(1.5 * math.pi, 2.5 * math.pi)])
        assert len(wrap.intervals) == 2
        other = AngularIntervalSet.from_raw([(0.0, math.pi)])
        (lo, hi), = wrap.intersect(other).intervals
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(math.pi / 2)

    def test_wrap_component_is_rejoined(self):
        wrap = AngularIntervalSet.from_raw([(1.5 * math.pi, 2.5 * math.pi)])
        (lo, hi), = wrap.components()
        assert lo == pytest.approx(1.5 * math.pi)
        assert hi == pytest.approx(2.5 * math.pi)

    def test_degenerate_intervals_are_discarded(self):
        s = AngularIntervalSet.from_raw([(1.0, 1.0 + 1e-9)])
        assert s.is_empty

    def test_measure_capped_by_full_circle(self):
        s = AngularIntervalSet.from_raw([(0.0, TWO_PI + 1.0)])
        assert s.is_full
        assert measure(s) == pytest.approx(TWO_PI)

    def test_intersection_matches_pointwise_and_on_grid(self):
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        for _ in range(50):
            raw_a = [(lo, lo + RNG.uniform(0.05, 2.5))
                     for lo in RNG.uniform(0, TWO_PI, size=3)]
            raw_b = [(lo, lo + RNG.uniform(0.05, 2.5))
                     for lo in RNG.uniform(0, TWO_PI, size=2)]
            a = AngularIntervalSet.from_raw(raw_a)
            b = AngularIntervalSet.from_raw(raw_b)
            both = a.intersect(b)
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
        circ = circle_of_sphere_pair((0, 0, 0.5), (0, 0, -0.5))
        calls = [lambda: circle_of_sphere_pair(bad, (0, 0, 0.5)),
                 lambda: circle_of_sphere_pair((0, 0, 0.5), bad),
                 lambda: circ.angle_of(bad)]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

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
        # a non-finite frame is refused by as_point, a plain ValueError,
        # before the unit and orthogonality checks (which a NaN would pass)
        error = (ValueError if message == "coordinates must be finite"
                 else DegenerateInputError)
        with pytest.raises(error, match=message) as info:
            Circle3(**dict(self.UNIT_CIRCLE, **change))
        assert info.type is error

    @pytest.mark.parametrize("start, end", [
        (1.0, 1.0), (1.0, 0.5), (0.0, TWO_PI), (0.5, 0.5 + 7.0)])
    def test_arc_span_must_lie_inside_a_turn(self, start, end):
        circ = Circle3(**self.UNIT_CIRCLE)
        with pytest.raises(DegenerateInputError, match="arc span must lie in"):
            ArcOnCircle(circ, start, end)
        assert ArcOnCircle(circ, start, start + 0.5).span == 0.5
