"""Tests for extremality checking, edge extraction, and dual pairing."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reuleaux.errors import DomainError, NotExtremalError, StructureError
from reuleaux.formulas import AnglePair, meissner_scalars, reuleaux_scalars
from reuleaux.geom import TWO_PI, ArcOnCircle, circle_of_sphere_pair
from reuleaux.oracle import body_from_structure
from reuleaux.polyhedron import (DualPair, EdgeArc, PointConfig, Tolerances,
                                 _candidate_pairs, _face_loops,
                                 analyze_config, angle_pairs, check_extremal,
                                 classify_vertices, config_from_generator,
                                 config_from_json_dict, extract_edges,
                                 pair_duals, pentad_points, tetra_points)

from oracles import match_vertex, scalar_trim

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

    @pytest.mark.parametrize("shape", [(5, 2), (5, 3, 1), (12,)])
    def test_points_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must have shape \(n, 3\)"):
            PointConfig(points=np.zeros(shape))


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


# The scalar extraction that trims every support pair, one 1-D constraint at
# a time on the frozen interval arithmetic, kept as the reference the
# two-step extract_edges must reproduce bit for bit.
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
            surviving = scalar_trim(circle, np.delete(pts, (i, j), axis=0))
            if surviving.is_empty:
                continue
            splits = [circle.angle_of(pts[k])
                      for k in np.flatnonzero(on_sphere[i] & on_sphere[j])]
            if surviving.is_full:
                if not splits:
                    raise StructureError(
                        f"extract_edges: support pair ({i}, {j}) leaves a "
                        "full circle with no vertex on it")
                cuts = sorted(a % TWO_PI for a in splits)
                comps = [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
                comps.append((cuts[-1], cuts[0] + TWO_PI))
            else:
                comps = []
                for lo, hi in surviving.components():
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
                u = match_vertex(cfg, circle.point(lo), (i, j))
                w = match_vertex(cfg, circle.point(hi), (i, j))
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
            others = np.delete(cfg.points, (i, j), axis=0)
            if not scalar_trim(circle, others).is_empty:
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


def generic_extremal(m, seed):
    """The odd-m pyramid moved by normal noise of scale 0.02, then pulled
    back onto |x_i - x_j| = 1 over the pyramid's diameter graph by
    Gauss-Newton (minimum-norm ``lstsq`` steps); None unless analyze_config
    accepts the result.  Its angles take about n distinct values."""
    x = pyramid_points(m)
    dist = np.linalg.norm(x[:, None] - x[None], axis=2)
    i, j = np.nonzero(np.triu(np.abs(dist - 1.0) < 1e-9, k=1))
    x = x + np.random.default_rng(seed).normal(scale=0.02, size=x.shape)
    rows = np.arange(len(i))[:, None]
    cols = np.arange(3)
    # quadratic convergence reaches rounding in about five steps
    for _ in range(12):
        diff = x[i] - x[j]
        jac = np.zeros((len(i), x.size))
        jac[rows, 3 * i[:, None] + cols] = 2.0 * diff
        jac[rows, 3 * j[:, None] + cols] = -2.0 * diff
        res = np.einsum("ek,ek->e", diff, diff) - 1.0
        x = x - np.linalg.lstsq(jac, res)[0].reshape(x.shape)
    cfg = PointConfig(points=x)
    try:
        analyze_config(cfg)
    except (NotExtremalError, StructureError, DomainError):
        return None
    return cfg


def generic_sets(m, count=3):
    """The first ``count`` generic extremal sets of base m, by seed."""
    cfgs = (generic_extremal(m, seed) for seed in range(10 * count))
    return [cfg for cfg in cfgs if cfg is not None][:count]


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

    @pytest.mark.parametrize("m", [5, 9, 21])
    def test_generic_sets_match_reference(self, m):
        cfgs = generic_sets(m)
        assert len(cfgs) == 3
        for cfg in cfgs:
            got = extraction_outcome(extract_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 2 * m
            assert got == extraction_outcome(reference_extract_edges, cfg)
            thetas = {a for p in angle_pairs(analyze_config(cfg))
                      for a in (p.theta, p.theta_prime)}
            assert len(thetas) >= cfg.n

    @pytest.mark.parametrize("k", range(25))
    def test_off_extremal_configs_match_reference(self, k):
        cfg = off_extremal_configs()[k]
        assert extraction_outcome(extract_edges, cfg) == \
            extraction_outcome(reference_extract_edges, cfg)

    def test_candidates_hold_every_nonempty_trim(self):
        # far from the origin the trim rounds to the coordinates' magnitude
        # and the candidate pass, on X moved to its bounding box's center,
        # does not; analyze_config still accepts this pyramid moved by 3e6
        # (but not by 1e7)
        far = [PointConfig(points=moved_pyramid(21, 21).points + shift)
               for shift in (1e3, 3e6)]
        cfgs = ([config_from_generator(g) for g in ("tetra", "pentad")]
                + [moved_pyramid(m, 21) for m in (3, 5, 9, 21, 31)]
                + far + off_extremal_configs())
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
        with pytest.raises(StructureError, match="^pair_duals: "):
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

    def test_orientation_is_the_np_cross_one_on_every_relabelling(self):
        for perm in itertools.permutations(range(5)):
            cfg = PointConfig(points=pentad_points()[list(perm)])
            pts = cfg.points
            for dp in analyze_config(cfg).pairs:
                p, q = dp.kept.endpoints
                pp, qp = dp.removed.endpoints
                mid = 0.5 * (pts[p] + pts[q])
                orient = float(np.cross(pts[pp] - mid, pts[qp] - mid)
                               @ (pts[p] - pts[q]))
                if orient < 0.0:
                    pp, qp = qp, pp
                assert (dp.p, dp.q, dp.p_prime, dp.q_prime) == (p, q, pp, qp)

    def test_zero_orientation_names_both_supports(self):
        # on four coplanar points the triple product of the swapped pair
        # below is exactly 0, whichever way it is rounded
        cfg = PointConfig(points=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0],
                                  [0.0, 0.5, 0.0], [0.5, 0.5, 0.0]])
        arc = ArcOnCircle(circle_of_sphere_pair(*cfg.points[:2]), 0.0, 1.0)
        edges = (EdgeArc((0, 1), (2, 3), arc, index=0),
                 EdgeArc((2, 3), (0, 1), arc, index=1))
        with pytest.raises(StructureError, match=(
                r"^pair_duals: degenerate orientation for dual pair "
                r"\(0, 1\)/\(2, 3\)$")):
            pair_duals(edges, cfg)

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


class TestFaceLoops:
    @pytest.fixture(params=["tetra", "pentad", 5, 9, 21])
    def structure(self, request):
        name = request.param
        if isinstance(name, int):
            return analyze_config(moved_pyramid(name, 3))
        return analyze_config(config_from_generator(name))

    def test_each_edge_bounds_its_two_support_faces(self, structure):
        faces_of = {e.index: [] for e in structure.edges}
        for x, loop in enumerate(structure.face_loops):
            for idx, _ in loop:
                faces_of[idx].append(x)
        assert len(structure.face_loops) == structure.config.n
        assert all(faces_of[e.index] == list(e.support)
                   for e in structure.edges)

    def test_loops_are_closed_chains_from_the_first_edge(self, structure):
        edges = structure.edges
        for x, loop in enumerate(structure.face_loops):
            first = min(e.index for e in edges if x in e.support)
            assert loop[0] == (first, True)
            ends = [edges[i].endpoints if fwd else edges[i].endpoints[::-1]
                    for i, fwd in loop]
            assert all(head == tail for (_, head), (tail, _)
                       in zip(ends, ends[1:] + ends[:1])), x

    def test_face_counts_count_the_loops_through_each_vertex(self, structure):
        visits = [0] * structure.config.n
        for loop in structure.face_loops:
            ends = {v for i, _ in loop for v in structure.edges[i].endpoints}
            for v in ends:
                visits[v] += 1
        assert tuple(visits) == structure.report.face_counts

    @staticmethod
    def edges_on_one_arc(arc, *rows):
        """Synthetic edges with the given (support, endpoints) rows."""
        return tuple(EdgeArc(support, ends, arc, index=k)
                     for k, (support, ends) in enumerate(rows))

    @pytest.mark.parametrize("n, rows, error", [
        # digons between vertices 0 and 1 close faces 0, 1 and 2, not 3
        (4, [((0, 1), (0, 1)), ((0, 2), (1, 0)), ((1, 2), (0, 1))],
         "face 3 has no boundary edges"),
        # face 1 is an open path 0 -> 1 -> 2
        (3, [((0, 1), (0, 1)), ((0, 2), (1, 0)), ((1, 2), (1, 2))],
         "face 1 boundary is not a simple cycle"),
        # three edge ends of face 1 meet at vertex 0, and at vertex 1
        (3, [((0, 1), (0, 1)), ((0, 2), (1, 0)), ((1, 2), (0, 1)),
             ((1, 2), (1, 0))],
         "face 1 boundary is not a simple cycle"),
        # face 2 is two digons, on vertices 0, 1 and on vertices 2, 3
        (4, [((0, 1), (0, 1)), ((0, 2), (1, 0)), ((1, 2), (0, 1)),
             ((2, 3), (2, 3)), ((2, 3), (3, 2))],
         "face 2 boundary has several components"),
    ])
    def test_broken_faces_are_named(self, tetra_structure, n, rows, error):
        edges = self.edges_on_one_arc(tetra_structure.edges[0].arc, *rows)
        with pytest.raises(StructureError, match=f"^face_loops: {error}"):
            _face_loops(n, edges)


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


class TestRelabellingInvariance:
    """Permuting X leaves V and S of the Reuleaux body and the multiset of
    unordered angle pairs: the canonical kept arc may switch sides."""

    @pytest.mark.parametrize("shape", ["tetra", "pentad", 5, 9, 21])
    def test_permuted_points_keep_scalars_and_angles(self, shape):
        if isinstance(shape, int):
            pts = moved_pyramid(shape, 3 * shape).points
        else:
            pts = config_from_generator(shape).points
        rng = np.random.default_rng(len(pts))

        def invariants(points):
            pairs = angle_pairs(analyze_config(PointConfig(points=points)))
            body = reuleaux_scalars(pairs)
            angles = sorted(sorted((p.theta, p.theta_prime)) for p in pairs)
            return np.array([body.volume, body.surface_area]), np.array(angles)

        base_scalars, base_angles = invariants(pts)
        for _ in range(3):
            scalars, angles = invariants(pts[rng.permutation(len(pts))])
            assert np.abs(scalars - base_scalars).max() <= 1e-12
            assert np.abs(angles - base_angles).max() <= 1e-12

    @pytest.mark.parametrize("shape", ["tetra", "pentad", 5, 9, 21])
    def test_permuted_points_swap_meissner_pairs(self, shape):
        """The Meissner body keeps the arc of smaller support, so a
        permutation swaps (theta, theta') on exactly the pairs whose kept
        support, relabelled, now sorts after the removed one."""
        if isinstance(shape, int):
            pts = moved_pyramid(shape, 3 * shape).points
        else:
            pts = config_from_generator(shape).points
        rng = np.random.default_rng(len(pts))
        base = analyze_config(PointConfig(points=pts))

        def ordered(pairs):
            return np.array(sorted(((p.theta, p.theta_prime) for p in pairs),
                                   key=lambda tp: np.round(tp, 9).tolist()))

        asymmetric_swaps = 0
        for _ in range(3):
            perm = rng.permutation(len(pts))
            relabel = np.argsort(perm)
            expect = []
            for dp in base.pairs:
                kept, removed = (sorted(relabel[list(e.support)])
                                 for e in (dp.kept, dp.removed))
                a = dp.angles
                if kept > removed:
                    expect.append(AnglePair(a.theta_prime, a.theta))
                    asymmetric_swaps += abs(a.theta - a.theta_prime) > 1e-9
                else:
                    expect.append(a)
            pairs = angle_pairs(analyze_config(PointConfig(points=pts[perm])))
            got, want = meissner_scalars(pairs), meissner_scalars(expect)
            assert abs(got.volume - want.volume) <= 1e-12
            assert abs(got.surface_area - want.surface_area) <= 1e-12
            assert np.abs(ordered(pairs) - ordered(expect)).max() <= 1e-12
        # every pair of the tetrahedron has theta = theta' = pi/3
        assert asymmetric_swaps > 0 or shape == "tetra"


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


class TestRecordsCompareByIdentity:
    """Records that hold arrays compare and hash by identity: a value
    comparison of their array fields has no single truth value."""

    def test_two_analyses_compare_and_every_record_hashes(self):
        a = analyze_config(config_from_generator("pentad"))
        b = analyze_config(config_from_generator("pentad"))
        assert a == a and a != b
        assert a.edges != b.edges and a.pairs != b.pairs
        records = [a, a.config, a.edges[0], a.edges[0].arc,
                   a.edges[0].arc.circle, a.pairs[0],
                   body_from_structure(a, "meissner")]
        assert len({hash(r) for r in records}) == len(records)
        assert all(r == r for r in records)
        assert a.config != b.config and a.edges[0].arc != b.edges[0].arc
