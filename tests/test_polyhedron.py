"""Tests for extremality checking, edge extraction, and dual pairing."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reuleaux.errors import NotExtremalError, StructureError
from reuleaux.formulas import meissner_scalars, reuleaux_scalars
from reuleaux.geom import (TWO_PI, AngularIntervalSet, ArcOnCircle,
                           ball_constraint_interval, circle_of_sphere_pair)
from reuleaux.polyhedron import (DualPair, EdgeArc, PointConfig, Tolerances,
                                 _candidate_pairs, _match_vertex,
                                 analyze_config, angle_pairs, check_extremal,
                                 classify_vertices, config_from_generator,
                                 config_from_json_dict, extract_edges,
                                 pair_duals, pentad_points, tetra_points)

RNG = np.random.default_rng(4207)


def pyramid_points(m):
    """Odd regular m-gon with longest diagonal 1 in the plane z = 0, then an
    apex at unit distance from every base vertex: 2m = 2n - 2 diameters on
    n = m + 1 points, so the set is extremal; m = 3 is the tetrahedron."""
    radius = 0.5 / math.cos(math.pi / (2 * m))
    angles = 2 * math.pi * np.arange(m) / m
    base = np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                            np.zeros(m)])
    return np.vstack([base, [0.0, 0.0, math.sqrt(1.0 - radius * radius)]])


def random_rigid_motion(rng):
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(size=3)


class TestDiameterGraph:
    def test_tetra_has_six_diametric_pairs(self):
        rep = check_extremal(config_from_generator("tetra"))
        assert rep.diametric_pair_count == 6

    def test_pentad_has_eight_diametric_pairs(self):
        rep = check_extremal(config_from_generator("pentad"))
        assert rep.diametric_pair_count == 8

    def test_scaled_tetra_has_none(self):
        rep = check_extremal(PointConfig(points=0.999 * tetra_points()))
        assert rep.diametric_pair_count == 0


class TestCheckExtremal:
    def test_tetra_is_extremal(self):
        rep = check_extremal(config_from_generator("tetra"))
        assert rep.is_extremal
        assert rep.diametric_pair_count == 6
        assert rep.diameter == pytest.approx(1.0, abs=1e-12)

    def test_pentad_is_extremal(self):
        rep = check_extremal(config_from_generator("pentad"))
        assert rep.is_extremal
        assert rep.diametric_pair_count == 8

    def test_unit_square_fails_on_diameter(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                        [5, 5, 5]], dtype=float)
        rep = check_extremal(PointConfig(points=pts))
        assert not rep.is_extremal
        assert any("exceeds 1" in v for v in rep.violations)

    def test_scaled_tetra_fails_on_pair_count(self):
        rep = check_extremal(PointConfig(points=0.999 * tetra_points()))
        assert not rep.is_extremal
        assert rep.diametric_pair_count == 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            PointConfig(points=np.eye(3))


class TestExtractEdges:
    def test_tetra_edge_count_and_chords(self, tetra_structure):
        edges = tetra_structure.edges
        assert len(edges) == 6
        pts = tetra_structure.config.points
        for e in edges:
            i, j = e.support
            assert abs(np.linalg.norm(pts[i] - pts[j]) - 1.0) < 1e-12

    def test_pentad_edge_count_includes_split_arcs(self, pentad_structure):
        edges = pentad_structure.edges
        assert len(edges) == 8
        on_bc = [e for e in edges if e.support == (0, 1)]
        assert len(on_bc) == 2
        assert sorted(e.endpoint_set for e in on_bc) == [(2, 3), (3, 4)]

    def test_edge_points_inside_every_ball(self, tetra_structure, pentad_structure):
        for structure in (tetra_structure, pentad_structure):
            pts = structure.config.points
            for e in structure.edges:
                samples = e.arc.sample_points(15)
                d = np.linalg.norm(samples[:, None, :] - pts[None, :, :], axis=2)
                assert d.max() <= 1.0 + 1e-9

    def test_edge_endpoints_land_on_vertices(self, pentad_structure):
        pts = pentad_structure.config.points
        for e in pentad_structure.edges:
            assert np.linalg.norm(e.arc.circle.point(e.arc.start_angle)
                                  - pts[e.endpoints[0]]) < 1e-7
            assert np.linalg.norm(e.arc.circle.point(e.arc.end_angle)
                                  - pts[e.endpoints[1]]) < 1e-7

    def test_edge_radii_below_one(self, pentad_structure):
        for e in pentad_structure.edges:
            assert e.arc.circle.radius < 1.0

    def test_scaled_tetra_yields_no_extraction(self):
        cfg = PointConfig(points=0.999 * tetra_points())
        with pytest.raises(NotExtremalError):
            analyze_config(cfg)


# The scalar extraction that trims every support pair, kept as the reference
# the two-step extract_edges must reproduce bit for bit.
def reference_extract_edges(cfg):
    pts = cfg.points
    tol = cfg.tol
    on_sphere = np.abs(cfg.dist - 1.0) <= tol.match_eps
    edges = []
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if cfg.dist[i, j] > 1.0 + tol.dist_eps:
                continue
            circle = circle_of_sphere_pair(pts[i], pts[j])
            surviving = AngularIntervalSet.full()
            for k in range(cfg.n):
                if k in (i, j):
                    continue
                surviving = surviving.intersect(
                    ball_constraint_interval(circle, pts[k], tol.ang_eps),
                    tol.ang_eps)
                if surviving.is_empty:
                    break
            if surviving.is_empty:
                continue
            splits = [circle.angle_of(pts[k])
                      for k in np.flatnonzero(on_sphere[i] & on_sphere[j])]
            if surviving.is_full:
                if not splits:
                    raise StructureError(
                        f"support pair ({i}, {j}) leaves a full circle with no "
                        "vertex on it")
                cuts = sorted(a % TWO_PI for a in splits)
                comps = [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
                comps.append((cuts[-1], cuts[0] + TWO_PI))
            else:
                comps = []
                for lo, hi in surviving.components(tol.ang_eps):
                    inner = []
                    for s in splits:
                        rel = (s - lo) % TWO_PI
                        if tol.ang_eps < rel < (hi - lo) - tol.ang_eps:
                            inner.append(lo + rel)
                    bounds = [lo] + sorted(inner) + [hi]
                    comps.extend(zip(bounds[:-1], bounds[1:]))
            for lo, hi in comps:
                if hi - lo <= tol.ang_eps:
                    continue
                u = _match_vertex(cfg, circle.point(lo))
                w = _match_vertex(cfg, circle.point(hi))
                edges.append(EdgeArc(
                    support=(i, j),
                    endpoints=(u, w),
                    arc=ArcOnCircle(circle, lo, hi),
                ))
    edges.sort(key=lambda e: (e.support, e.endpoint_set))
    return tuple(EdgeArc(e.support, e.endpoints, e.arc, index=k)
                 for k, e in enumerate(edges))


def nonempty_trims(cfg):
    """Support pairs whose circle keeps a non-empty set after the trim."""
    out = []
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if cfg.dist[i, j] > 1.0 + cfg.tol.dist_eps:
                continue
            circle = circle_of_sphere_pair(cfg.points[i], cfg.points[j])
            surviving = AngularIntervalSet.full()
            for k in range(cfg.n):
                if k not in (i, j) and not surviving.is_empty:
                    surviving = surviving.intersect(ball_constraint_interval(
                        circle, cfg.points[k], cfg.tol.ang_eps),
                        cfg.tol.ang_eps)
            if not surviving.is_empty:
                out.append((i, j))
    return out


def extraction_outcome(extract, cfg):
    """Edges with their angles as float.hex, or the exception raised."""
    try:
        edges = extract(cfg)
    except Exception as exc:  # the outcome compared may be any error
        return ("raised", type(exc), str(exc))
    return ("edges", [(e.support, e.endpoints, e.index,
                       e.arc.start_angle.hex(), e.arc.end_angle.hex())
                      for e in edges])


def moved_pyramid(m, seed):
    rot, shift = random_rigid_motion(np.random.default_rng(seed))
    return PointConfig(points=pyramid_points(m) @ rot.T + shift)


def off_extremal_configs():
    """Configurations extract_edges is never handed by analyze_config."""
    stretched = (1.0 + 5e-9) * tetra_points()
    # a point on the axis of a pair's circle has no direction on it; seven
    # between the ends of a moved unit segment leave its circle full
    on_axis = np.vstack([tetra_points(), tetra_points()[:2].mean(axis=0)])
    rot, shift = random_rigid_motion(np.random.default_rng(1))
    segment = np.outer(np.linspace(-0.5, 0.5, 9), [1.0, 0.0, 0.0])
    out = [PointConfig(points=0.999 * tetra_points()),
           PointConfig(points=stretched),
           PointConfig(points=stretched, tol=Tolerances(dist_eps=1e-8)),
           PointConfig(points=on_axis),
           PointConfig(points=segment[[0, 8, 1, 2, 3, 4, 5, 6, 7]] @ rot.T
                       + shift)]
    rng = np.random.default_rng(2718)
    while len(out) < 25:
        pts = rng.uniform(-0.3, 0.3, size=(6, 3))
        if np.linalg.norm(pts[:, None] - pts[None], axis=2).max() < 1.0:
            out.append(PointConfig(points=pts))
    return out


class TestTwoStepExtraction:
    @pytest.mark.parametrize("name", ["tetra", "pentad"])
    def test_generators_match_reference(self, name):
        cfg = config_from_generator(name)
        assert extraction_outcome(extract_edges, cfg) == \
            extraction_outcome(reference_extract_edges, cfg)

    @pytest.mark.parametrize("m", range(3, 52, 2))
    def test_moved_pyramids_match_reference(self, m):
        # the reference is O(n^3): one motion per m past n = 16
        for seed in range(100 * m, 100 * m + (4 if m <= 15 else 1)):
            cfg = moved_pyramid(m, seed)
            got = extraction_outcome(extract_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 2 * m
            assert got == extraction_outcome(reference_extract_edges, cfg)

    @pytest.mark.parametrize("k", range(25))
    def test_off_extremal_configs_match_reference(self, k):
        cfg = off_extremal_configs()[k]
        assert extraction_outcome(extract_edges, cfg) == \
            extraction_outcome(reference_extract_edges, cfg)

    def test_candidates_hold_every_nonempty_trim(self):
        cfgs = ([config_from_generator(g) for g in ("tetra", "pentad")]
                + [moved_pyramid(m, 21) for m in (3, 5, 9, 21, 31)]
                + off_extremal_configs())
        for cfg in cfgs:
            assert set(nonempty_trims(cfg)) <= set(_candidate_pairs(cfg))

    def test_pyramid_candidates_are_the_edge_supports(self):
        cfg = moved_pyramid(21, 5)
        supports = sorted({e.support for e in extract_edges(cfg)})
        assert _candidate_pairs(cfg) == supports


class TestPairDuals:
    def test_tetra_three_pairs_at_pi_over_3(self, tetra_structure):
        pairs = tetra_structure.pairs
        assert len(pairs) == 3
        for dp in pairs:
            assert abs(dp.angles.theta - math.pi / 3) < 1e-12
            assert abs(dp.angles.theta_prime - math.pi / 3) < 1e-12

    def test_pentad_four_pairs(self, pentad_structure):
        assert len(pentad_structure.pairs) == 4

    def test_support_endpoint_swap(self, pentad_structure):
        for dp in pentad_structure.pairs:
            assert dp.kept.support == dp.removed.endpoint_set
            assert dp.removed.support == dp.kept.endpoint_set

    def test_pairing_is_order_insensitive(self, pentad_structure):
        # re-pair from a reversed edge list; same pairs emerge
        cfg = pentad_structure.config
        edges = tuple(reversed(pentad_structure.edges))
        pairs = pair_duals(edges, cfg)
        seen = {(dp.kept.support, dp.removed.support) for dp in pairs}
        expect = {(dp.kept.support, dp.removed.support)
                  for dp in pentad_structure.pairs}
        assert seen == expect

    def test_unmatched_edges_raise(self, tetra_structure):
        with pytest.raises(StructureError):
            pair_duals(tetra_structure.edges[:5], tetra_structure.config)

    def test_angles_within_pi_over_3(self, pentad_structure):
        for dp in pentad_structure.pairs:
            assert 0.0 < dp.angles.theta <= math.pi / 3 + 1e-9
            assert 0.0 < dp.angles.theta_prime <= math.pi / 3 + 1e-9

    def test_dihedral_relation_against_geometry(self, pentad_structure):
        # phi is the actual dihedral angle about the kept chord
        pts = pentad_structure.config.points
        for dp in pentad_structure.pairs:
            axis = pts[dp.p] - pts[dp.q]
            axis = axis / np.linalg.norm(axis)
            mid = 0.5 * (pts[dp.p] + pts[dp.q])
            w1 = pts[dp.p_prime] - mid
            w2 = pts[dp.q_prime] - mid
            w1 -= (w1 @ axis) * axis
            w2 -= (w2 @ axis) * axis
            geo = math.acos(np.clip((w1 @ w2) / (np.linalg.norm(w1) * np.linalg.norm(w2)),
                                    -1.0, 1.0))
            a = dp.angles
            assert geo == pytest.approx(a.phi, abs=1e-9)
            assert math.sin(a.phi / 2) * math.cos(a.theta / 2) == pytest.approx(
                math.sin(a.theta_prime / 2), abs=1e-9)

    def test_midpoint_identity_geometrically(self, tetra_structure, pentad_structure):
        # cos(t/2)cos(phi/2) = cos(t'/2)cos(phi'/2) = distance between chord midpoints
        for structure in (tetra_structure, pentad_structure):
            pts = structure.config.points
            for dp in structure.pairs:
                a = dp.angles
                lhs = math.cos(a.theta / 2) * math.cos(a.phi / 2)
                rhs = math.cos(a.theta_prime / 2) * math.cos(a.phi_prime / 2)
                mid_dist = np.linalg.norm(
                    0.5 * (pts[dp.p] + pts[dp.q])
                    - 0.5 * (pts[dp.p_prime] + pts[dp.q_prime]))
                assert lhs == pytest.approx(rhs, abs=1e-9)
                assert lhs == pytest.approx(float(mid_dist), abs=1e-9)

    def test_arc_spans_equal_dihedrals(self, tetra_structure, pentad_structure):
        # the kept arc subtends phi_prime about its axis, the removed arc phi
        for structure in (tetra_structure, pentad_structure):
            for dp in structure.pairs:
                a = dp.angles
                assert dp.kept.arc.span == pytest.approx(a.phi_prime, abs=1e-9)
                assert dp.removed.arc.span == pytest.approx(a.phi, abs=1e-9)

    def test_oriented_endpoints_are_right_handed(self, pentad_structure):
        pts = pentad_structure.config.points
        for dp in pentad_structure.pairs:
            mid = 0.5 * (pts[dp.p] + pts[dp.q])
            tri = float(np.cross(pts[dp.p_prime] - mid, pts[dp.q_prime] - mid)
                        @ (pts[dp.p] - pts[dp.q]))
            assert tri > 0.0


class TestClassifyVertices:
    def test_tetra_all_principal(self, tetra_structure):
        rep = tetra_structure.report
        assert rep.vertex_classes == ("principal",) * 4
        assert rep.euler_characteristic == 2
        assert rep.face_count == 4
        assert rep.dual_pair_count == 3

    def test_pentad_has_one_dangling_vertex(self, pentad_structure):
        rep = pentad_structure.report
        assert rep.vertex_classes.count("dangling") == 1
        assert rep.vertex_classes[3] == "dangling"
        assert rep.face_counts[3] == 2
        assert rep.euler_characteristic == 2
        assert rep.face_count == 5
        assert rep.dual_pair_count == 4

    def test_face_membership_matches_diameter_degree(self, pentad_structure):
        # a vertex lies on the face of y exactly when |v - y| = 1
        cfg = pentad_structure.config
        degree = (np.abs(cfg.dist - 1.0) <= cfg.tol.dist_eps).sum(axis=1)
        assert pentad_structure.report.face_counts == tuple(degree)


class TestRigidMotionInvariance:
    @pytest.mark.parametrize("name", ["tetra", "pentad"])
    def test_structure_counts_and_angles_survive_motions(self, name):
        base = analyze_config(config_from_generator(name))
        base_angles = sorted((p.theta, p.theta_prime) for p in angle_pairs(base))
        for _ in range(5):
            rot, shift = random_rigid_motion(RNG)
            pts = config_from_generator(name).points @ rot.T + shift
            moved = analyze_config(PointConfig(points=pts))
            assert moved.extremality.diametric_pair_count == \
                base.extremality.diametric_pair_count
            assert len(moved.pairs) == len(base.pairs)
            assert moved.report.vertex_classes.count("dangling") == \
                base.report.vertex_classes.count("dangling")
            angles = sorted((p.theta, p.theta_prime) for p in angle_pairs(moved))
            assert np.allclose(angles, base_angles, atol=1e-9)


INVARIANCE = settings(max_examples=40, derandomize=True, deadline=None,
                      database=None)
SHAPES = ["tetra", "pentad"] + [f"pyramid:{m}" for m in range(3, 52, 2)]


def shape_points(name):
    if name.startswith("pyramid:"):
        return pyramid_points(int(name.split(":")[1]))
    return config_from_generator(name).points


@functools.lru_cache(maxsize=None)
def unmoved_structure(name):
    return analyze_config(PointConfig(points=shape_points(name)))


def quaternion_motion(q, shift):
    """The rotation of the unit quaternion along q, then a translation."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    return rot, np.asarray(shift, dtype=float)


@st.composite
def proper_motions(draw):
    """A rotation from a quaternion and a translation in [-2, 2]^3."""
    unit = st.floats(-1.0, 1.0)
    q = draw(st.tuples(unit, unit, unit, unit))
    assume(math.sqrt(sum(c * c for c in q)) > 0.1)
    return quaternion_motion(q, draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))


def scalar_values(structure):
    out = []
    for scalars in (reuleaux_scalars, meissner_scalars):
        b = scalars(angle_pairs(structure))
        out += [b.volume, b.surface_area]
        out += [v for term in b.per_pair_terms for v in term]
    return np.array(out)


class TestRigidMotionHypothesis:
    @INVARIANCE
    @given(name=st.sampled_from(SHAPES), motion=proper_motions())
    @example(name="tetra", motion=quaternion_motion((1, 2, 3, 4), (1, -1, 2)))
    @example(name="pentad", motion=quaternion_motion((4, 3, 2, 1), (-2, 0, 1)))
    @example(name="pyramid:51",
             motion=quaternion_motion((1, -1, 2, -2), (2, 2, -2)))
    def test_counts_angles_and_scalars_survive(self, name, motion):
        rot, shift = motion
        base = unmoved_structure(name)
        moved = analyze_config(
            PointConfig(points=shape_points(name) @ rot.T + shift))
        assert moved.report == base.report
        assert moved.extremality.diametric_pair_count == \
            base.extremality.diametric_pair_count
        assert [(dp.kept.support, dp.removed.support) for dp in moved.pairs] \
            == [(dp.kept.support, dp.removed.support) for dp in base.pairs]
        angles = [(a.theta, a.theta_prime) for a in angle_pairs(moved)]
        expect = [(a.theta, a.theta_prime) for a in angle_pairs(base)]
        assert np.abs(np.subtract(angles, expect)).max() <= 1e-12
        gap = np.abs(scalar_values(moved) - scalar_values(base)).max()
        assert gap <= 1e-12


class TestPointSetJson:
    def test_roundtrip(self):
        cfg = config_from_json_dict(
            {"points": tetra_points().tolist(), "labels": ["a", "b", "c", "d"]})
        assert cfg.n == 4
        assert cfg.labels == ("a", "b", "c", "d")

    def test_schema_violations(self):
        with pytest.raises(ValueError):
            config_from_json_dict({"nope": []})
        with pytest.raises(ValueError):
            config_from_json_dict({"points": [[1, 2], [3, 4]]})
        with pytest.raises(ValueError):
            config_from_json_dict({"points": tetra_points().tolist(),
                                   "labels": [1, 2, 3, 4]})

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            config_from_generator("cube")


class TestAnglePairsBridge:
    def test_pentad_angle_multiset(self, pentad_structure):
        pairs = angle_pairs(pentad_structure)
        assert len(pairs) == 4
        thetas = sorted(round(p.theta, 9) for p in pairs)
        # two asymmetric pairs from the split arcs, two tetrahedral ones
        assert thetas[:2] == [round(2 * math.asin(
            math.sqrt(3) * math.sin(2 * math.asin(1 / math.sqrt(3)) / 4) / 2), 9)] * 2
        assert thetas[2:] == [round(math.pi / 3, 9)] * 2
