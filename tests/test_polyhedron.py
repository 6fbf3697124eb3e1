"""Tests for extremality checking, edge extraction, and dual pairing."""

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reuleaux import geom, polyhedron
from reuleaux.errors import DomainError, NotExtremalError, StructureError
from reuleaux.formulas import AnglePair, meissner_scalars, reuleaux_scalars
from reuleaux.geom import (TWO_PI, ArcOnCircle, circle_angles,
                           circles_of_sphere_pairs)
from reuleaux.mesh import build_body_mesh
from reuleaux.oracle import body_from_structure
from reuleaux.polyhedron import (DualPair, EdgeArc, PointConfig, Tolerances,
                                 analyze_config, angle_pairs, check_extremal,
                                 classify_vertices, config_from_generator,
                                 config_from_json_dict, extract_edges,
                                 pair_duals, pentad_points, tetra_points)

import golden
from golden import (generic_sets, moved_pyramid, pentad_grown, pyramid_points,
                    random_rigid_motion)
from oracles import ANG_EPS, MATCH_EPS, match_vertex, scalar_trim

RNG = np.random.default_rng(4207)


def circle_of(b, c):
    """The circle of the unit spheres about b and c, as a batch of one."""
    return circles_of_sphere_pairs(np.asarray(b, dtype=float)[None],
                                   np.asarray(c, dtype=float)[None])[0]


def angle_on(circle, p):
    """The angle of the (projected) point p on the circle."""
    return circle_angles(np.asarray(p, dtype=float)[None], circle.center,
                         circle.u_ref, circle.v_ref)[0]


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

    def test_violations_match_the_pair_loop(self):
        # a moved n = 10 pyramid stretched by 1.01: its 18 diameters exceed 1
        cfg = PointConfig(points=1.01 * moved_pyramid(9, 90).points)
        iu = np.triu_indices(cfg.n, k=1)
        loop = [f"pair ({i}, {j}) at distance {d:.12g} exceeds 1"
                for i, j, d in zip(*iu, cfg.dist[iu])
                if d > 1.0 + cfg.tol.dist_eps]
        rep = check_extremal(cfg)
        assert len(loop) == 18
        # the first 16 are named, the other two counted
        assert rep.violations[:17] == (*loop[:16], "2 more pairs exceed 1")
        assert len(rep.violations) == 19

    def test_report_of_a_badly_scaled_set_stays_small(self):
        # a moved n = 200 pyramid scaled by 2: over 13,000 pairs exceed 1
        cfg = PointConfig(points=2.0 * moved_pyramid(199, 90).points)
        over = np.count_nonzero(np.triu(cfg.dist > 1.0 + cfg.tol.dist_eps))
        assert over > 13000
        rep = check_extremal(cfg)
        assert rep.violations[16] == f"{over - 16} more pairs exceed 1"
        assert len(rep.violations) == 19
        assert len(json.dumps(dataclasses.asdict(rep))) < 2000

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
                circle, lo, hi = e.arc.circle, e.arc.start_angle, e.arc.end_angle
                samples = np.vstack([circle.point(lo), e.arc.sample_points(15),
                                     circle.point(hi)])
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
# a time on the frozen interval arithmetic, kept as the reference that
# extract_edges, which reads only the diameter graph, must reproduce bit for
# bit.  It matches every arc end before it builds an arc, which runs between
# the angles of its two endpoint vertices.
def reference_extract_edges(cfg):
    pts = cfg.points
    tol = cfg.tol
    on_sphere = np.abs(cfg.dist - 1.0) <= MATCH_EPS
    pieces = []
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if cfg.dist[i, j] > 1.0 + tol.dist_eps:
                continue
            circle = circle_of(pts[i], pts[j])
            surviving = scalar_trim(circle, np.delete(pts, (i, j), axis=0))
            if surviving.is_empty:
                continue
            splits = [angle_on(circle, pts[k])
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
                        if ANG_EPS < rel < (hi - lo) - ANG_EPS:
                            inner.append(lo + rel)
                    bounds = [lo] + sorted(inner) + [hi]
                    comps.extend(zip(bounds[:-1], bounds[1:]))
            pieces += [((i, j), circle, lo, hi) for lo, hi in comps
                       if hi - lo > ANG_EPS]
    ends = [(match_vertex(cfg, circle.point(lo), support),
             match_vertex(cfg, circle.point(hi), support))
            for support, circle, lo, hi in pieces]
    edges = []
    for (support, circle, lo, hi), (u, w) in zip(pieces, ends):
        if u == w:
            raise StructureError(
                f"extract_edges: support pair {support}: arc from {lo:.12g} "
                f"to {hi:.12g} rad starts and ends at vertex {u}")
        start = angle_on(circle, pts[u])
        span = (angle_on(circle, pts[w]) - start) % TWO_PI
        edges.append((support, (u, w), ArcOnCircle(circle, start, start + span)))
    edges.sort(key=lambda t: (t[0], sorted(t[1])))
    return tuple(EdgeArc(support, ends, arc, k)
                 for k, (support, ends, arc) in enumerate(edges))


def extracted_edges(cfg):
    """The edges of extract_edges, whose report must be the check's."""
    report, edges, _ = extract_edges(cfg)
    assert report == check_extremal(cfg)
    return edges


def extraction_outcome(extract, cfg):
    """Edges with their angles as float.hex, or the exception raised."""
    try:
        edges = extract(cfg)
    except Exception as exc:  # the outcome compared may be any error
        return ("raised", type(exc), str(exc))
    return ("edges", [(e.support, e.endpoints, e.index,
                       e.arc.start_angle.hex(), e.arc.end_angle.hex())
                      for e in edges])


def off_extremal_configs():
    """Configurations analyze_config refuses: all but the stretched tetra
    at dist_eps = 1e-8 ([2]) fail the extremality check."""
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


@functools.lru_cache(maxsize=None)
def ladder_configs():
    """Tetra, the 120 pentad relabellings, moved pyramids m = 3...59 (odd),
    75, 101, 151 and 199 (seed 7m) and the generic sets m = 5, 9 and 21."""
    cfgs = ([config_from_generator("tetra")]
            + [PointConfig(points=pentad_points()[list(perm)])
               for perm in itertools.permutations(range(5))]
            + [moved_pyramid(m, 7 * m)
               for m in [*range(3, 60, 2), 75, 101, 151, 199]]
            + [cfg for m in (5, 9, 21) for cfg in generic_sets(m)])
    assert len(cfgs) == 1 + 120 + 33 + 9
    return tuple(cfgs)


@functools.lru_cache(maxsize=None)
def ladder_structures():
    return tuple(analyze_config(cfg) for cfg in ladder_configs())


class TestExtractionBytes:
    """Every edge and dual pair keeps its recorded bits on 109 sets
    (``golden.extraction_digest``)."""

    @pytest.mark.parametrize("family",
                             ["generators", "pyramids", "generic", "grown"])
    def test_digests_are_pinned(self, family):
        golden.check(golden.EXTRACTION, family)


class TestArcsFromVertices:
    """Every arc runs from the angle of its first endpoint vertex on its
    circle to the angle of its second, float for float: the vertices, not
    the trim, fix the angles."""

    @staticmethod
    def assert_arcs_from_vertices(structure):
        pts = structure.config.points
        for e in structure.edges:
            circle, (u, w) = e.arc.circle, e.endpoints
            start = angle_on(circle, pts[u])
            assert e.arc.start_angle.hex() == start.hex()
            assert e.arc.end_angle.hex() == (
                start + (angle_on(circle, pts[w]) - start) % TWO_PI).hex()

    def test_the_ladder(self):
        # tetra, the pentad relabellings, pyramids and the generic sets
        for structure in ladder_structures():
            self.assert_arcs_from_vertices(structure)

    @pytest.mark.parametrize("f", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_the_grown_pentads(self, f):
        for pts in pentad_grown(f):
            self.assert_arcs_from_vertices(
                analyze_config(PointConfig(points=pts)))

    def test_an_arc_that_ends_at_two_pi(self):
        # the tetra's arc on (1, 3) ends at 2*pi exactly: its angles keep to
        # [0, 2*pi) and the span is taken mod 2*pi
        _, edges, _ = extract_edges(config_from_generator("tetra"))
        assert [e.arc.end_angle for e in edges if e.support == (1, 3)] == \
            [TWO_PI]


class TestTwoStepExtraction:
    @pytest.mark.parametrize("name", ["tetra", "pentad"])
    def test_generators_match_reference(self, name):
        cfg = config_from_generator(name)
        assert extraction_outcome(extracted_edges, cfg) == \
            extraction_outcome(reference_extract_edges, cfg)

    @pytest.mark.parametrize("m", range(3, 52, 2))
    def test_moved_pyramids_match_reference(self, m):
        # the reference is O(n^3): one motion per m past n = 16
        for seed in range(100 * m, 100 * m + (4 if m <= 15 else 1)):
            cfg = moved_pyramid(m, seed)
            got = extraction_outcome(extracted_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 2 * m
            assert got == extraction_outcome(reference_extract_edges, cfg)

    @pytest.mark.parametrize("m", [5, 9, 21])
    def test_generic_sets_match_reference(self, m):
        cfgs = generic_sets(m)
        assert len(cfgs) == 3
        for cfg in cfgs:
            got = extraction_outcome(extracted_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 2 * m
            assert got == extraction_outcome(reference_extract_edges, cfg)
            thetas = {a for p in angle_pairs(analyze_config(cfg))
                      for a in (p.theta, p.theta_prime)}
            assert len(thetas) >= cfg.n

    @pytest.mark.parametrize("k", range(25))
    def test_off_extremal_configs_match_reference(self, k):
        # extract_edges refuses what the extremality check refuses, with
        # its report; the stretched tetra it accepts at dist_eps = 1e-8
        # still matches the reference
        cfg = off_extremal_configs()[k]
        report = check_extremal(cfg)
        assert report.is_extremal == (k == 2)
        if report.is_extremal:
            assert extraction_outcome(extracted_edges, cfg) == \
                extraction_outcome(reference_extract_edges, cfg)
        else:
            with pytest.raises(NotExtremalError) as info:
                extract_edges(cfg)
            assert info.value.report == report

    @pytest.mark.parametrize("f", [0.5, 0.25, 1e-2, 1e-4, 1e-6])
    def test_grown_pentads_match_reference(self, f):
        for pts in pentad_grown(f):
            cfg = PointConfig(points=pts)
            got = extraction_outcome(extracted_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 10
            assert got == extraction_outcome(reference_extract_edges, cfg)

    def test_shifted_pyramids_match_reference(self):
        # far from the origin the distances round to the coordinates'
        # magnitude: the pyramid moved by 3e6 is still extremal, the one
        # moved by 1e7 is not
        base = moved_pyramid(21, 21).points
        for shift in (1e3, 3e6):
            cfg = PointConfig(points=base + shift)
            got = extraction_outcome(extracted_edges, cfg)
            assert got[0] == "edges" and len(got[1]) == 42
            assert got == extraction_outcome(reference_extract_edges, cfg)
        with pytest.raises(NotExtremalError):
            extract_edges(PointConfig(points=base + 1e7))

    def test_match_eps_set_is_refused_in_extraction(self):
        # the tetra plus a point 3e-8 along the circle of (0, 1) past vertex
        # 2, all shaken by noise of scale 3e-8: at dist_eps = 5e-8 it is
        # extremal, but a step of face 0 carries two arcs
        base = tetra_points()
        circle = circle_of(base[0], base[1])
        extra = circle.point(angle_on(circle, base[2]) + 3e-8 / circle.radius)
        noise = np.random.default_rng(40).normal(scale=3e-8, size=(5, 3))
        cfg = PointConfig(points=np.vstack([base, extra]) + noise,
                          tol=Tolerances(dist_eps=5e-8))
        assert check_extremal(cfg).is_extremal
        with pytest.raises(StructureError, match=(
                r"^extract_edges: face 0, step \(4, 2\): found 2 arcs, "
                r"expected 1$")):
            analyze_config(cfg)

    def test_a_face_on_one_neighbour_is_named(self):
        # at a wide tolerance the tetra plus a point 1.19e-3 from vertex 0
        # (within 9.9e-4 of distance 1 from vertices 1 to 3) and a point at
        # distance 1 from vertex 0 alone is extremal, 10 = 2n - 2 pairs,
        # but face 5 has one neighbour
        t = tetra_points()
        toward = t.mean(axis=0) - t[0]
        toward /= np.linalg.norm(toward)
        cfg = PointConfig(points=np.vstack([t, t[0] + 1.19e-3 * toward,
                                            t[0] + toward]),
                          tol=Tolerances(dist_eps=9.9e-4))
        assert check_extremal(cfg).is_extremal
        with pytest.raises(StructureError, match=(
                r"^extract_edges: face 5 has 1 diameter neighbours; a face "
                r"needs 2 or more$")):
            extract_edges(cfg)

    def test_every_edge_is_a_short_arc(self):
        # each edge is the short arc between its ends: on the ladder and the
        # grown pentads the widest is the tetrahedron's, acos(1/3), far
        # below pi
        spans = [e.arc.span for s in ladder_structures() for e in s.edges]
        spans += [e.arc.span for f in (0.5, 1e-6) for pts in pentad_grown(f)
                  for e in analyze_config(PointConfig(points=pts)).edges]
        assert 0.0 < min(spans)
        assert max(spans) == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)

    def test_pyramid_edge_supports_share_two_neighbours(self):
        # n = 52 and 102 are the structure benchmark's sizes; on the odd-m
        # pyramids each pair with two common diameter neighbours, and no
        # other, supports one edge
        for m in (21, 51, 101):
            cfg = moved_pyramid(m, 5)
            _, edges, _ = extract_edges(cfg)
            assert len(edges) == 2 * cfg.n - 2
            g = (np.abs(cfg.dist - 1.0) <= cfg.tol.dist_eps).astype(int)
            i, j = np.nonzero(np.triu(g @ g >= 2, k=1))
            assert [e.support for e in edges] == list(zip(i.tolist(),
                                                         j.tolist()))


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

    def test_pairs_come_in_kept_support_order(self):
        # one pass in edge order emits each pair at its kept edge
        for structure in ladder_structures():
            pairs = structure.pairs
            kept = [dp.kept.index for dp in pairs]
            assert kept == sorted(kept)
            supports = [dp.kept.support for dp in pairs]
            assert supports == sorted(supports)
            assert all(dp.kept.support < dp.removed.support for dp in pairs)

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

    def test_a_repeated_edge_is_named(self, tetra_structure):
        edges = tetra_structure.edges
        with pytest.raises(StructureError, match=(
                r"^pair_duals: two edges share support/endpoints "
                r"\(\(0, 1\), \(2, 3\)\)$")):
            pair_duals(edges + edges[:1], tetra_structure.config)

    def test_a_dropped_pair_is_counted(self, tetra_structure):
        # every remaining edge has its partner, so only the count is wrong
        dropped = tetra_structure.pairs[0]
        edges = tuple(e for e in tetra_structure.edges
                      if e is not dropped.kept and e is not dropped.removed)
        with pytest.raises(StructureError, match=(
                r"^pair_duals: found 2 dual pairs, expected 3$")):
            pair_duals(edges, tetra_structure.config)

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

    def test_kept_arcs_run_from_p_to_q_over_phi_prime(self):
        # the mesh sweeps each spindle along its kept arc as stored, so the
        # arc must start at p, end at q and span phi'
        ends = spans = 0.0
        for structure in ladder_structures():
            pts = structure.config.points
            for dp in structure.pairs:
                arc = dp.kept.arc
                gap = np.array([arc.circle.point(arc.start_angle),
                                arc.circle.point(arc.end_angle)]) \
                    - pts[[dp.p, dp.q]]
                ends = max(ends, float(np.linalg.norm(gap, axis=1).max()))
                spans = max(spans, abs(dp.kept.arc.span - dp.angles.phi_prime))
        # the gaps grow with n: 1.74e-12 at most, on the m = 199 pyramid
        assert ends <= 1e-11 and spans <= 1e-11, (ends, spans)

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
        arc = ArcOnCircle(circle_of(*cfg.points[:2]), 0.0, 1.0)
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


class TestAnalyzeConfig:
    @pytest.mark.parametrize("make", [
        lambda: config_from_generator("tetra"), lambda: moved_pyramid(51, 5)],
        ids=["tetra", "pyramid-52"])
    def test_checks_extremality_once(self, monkeypatch, make):
        calls = []
        check = polyhedron.check_extremal

        def counting(cfg):
            calls.append(cfg)
            return check(cfg)
        monkeypatch.setattr(polyhedron, "check_extremal", counting)
        cfg = make()
        structure = analyze_config(cfg)
        assert len(calls) == 1 and calls[0] is cfg
        assert structure.extremality == check(cfg)

    @pytest.mark.parametrize("make", [
        lambda: config_from_generator("tetra"),
        lambda: config_from_generator("pentad"),
        lambda: moved_pyramid(51, 5), lambda: moved_pyramid(101, 5)],
        ids=["tetra", "pentad", "pyramid-52", "pyramid-102"])
    def test_builds_and_checks_the_circles_in_one_batch(self, monkeypatch,
                                                        make):
        batches, checks = [], []
        build, check = polyhedron.circles_of_sphere_pairs, geom._check_frames

        def counting_build(b, c):
            batches.append(len(b))
            return build(b, c)

        def counting_check(center, *args, **kwargs):
            checks.append(len(center))
            return check(center, *args, **kwargs)
        monkeypatch.setattr(polyhedron, "circles_of_sphere_pairs",
                            counting_build)
        monkeypatch.setattr(geom, "_check_frames", counting_check)
        structure = analyze_config(make())
        # one row, and one frame check, per support pair
        supports = len({e.support for e in structure.edges})
        assert batches == checks == [supports]


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
        assert rep.faces_per_vertex[3] == 2
        assert rep.euler_characteristic == 2
        assert rep.face_count == 5
        assert rep.dual_pair_count == 4

    def test_a_vertex_on_no_face_is_named(self, tetra_structure):
        edges = tuple(e for e in tetra_structure.edges
                      if 0 not in e.endpoints)
        with pytest.raises(StructureError, match=(
                r"^classify_vertices: vertex 0 lies on only 0 faces")):
            classify_vertices(tetra_structure.config, edges,
                              tetra_structure.pairs)

    def test_face_membership_matches_diameter_degree(self, pentad_structure):
        # a vertex lies on the face of y exactly when |v - y| = 1
        cfg = pentad_structure.config
        degree = (np.abs(cfg.dist - 1.0) <= cfg.tol.dist_eps).sum(axis=1)
        assert pentad_structure.report.faces_per_vertex == tuple(degree)


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
        assert tuple(visits) == structure.report.faces_per_vertex

    def test_loops_visit_each_diameter_neighbour_once(self, structure):
        # face x is the spherical polygon on N(x), one vertex per neighbour
        cfg, edges = structure.config, structure.edges
        g = np.abs(cfg.dist - 1.0) <= cfg.tol.dist_eps
        for x, loop in enumerate(structure.face_loops):
            starts = [edges[i].endpoints[0 if fwd else 1] for i, fwd in loop]
            assert sorted(starts) == np.flatnonzero(g[x]).tolist(), x


def edge_multiset(structure, relabel=None):
    """The sorted (support, endpoint set) rows of the edges, with each index
    k read as relabel[k] when a relabelling is given."""
    def pair(ij):
        return tuple(sorted(int(relabel[k]) if relabel is not None else k
                            for k in ij))
    return sorted((pair(e.support), pair(e.endpoints))
                  for e in structure.edges)


class TestGrownPentadsNearAVertex:
    """The pentad plus the point at f = 1e-7 of one of its edge arcs: every
    diameter holds to 1e-9, so the diameter graph fixes the faces."""

    def test_each_analyzes_to_the_pentad_volume(self):
        pentad = reuleaux_scalars(angle_pairs(
            analyze_config(config_from_generator("pentad")))).volume
        for pts in pentad_grown(1e-7):
            structure = analyze_config(PointConfig(points=pts))
            assert structure.report.edge_count == 10
            assert structure.report.euler_characteristic == 2
            volume = reuleaux_scalars(angle_pairs(structure)).volume
            assert abs(volume - pentad) < 1e-9

    def test_edges_survive_a_motion_and_a_relabelling(self):
        rng = np.random.default_rng(107)
        for pts in pentad_grown(1e-7):
            base = edge_multiset(analyze_config(PointConfig(points=pts)))
            rot, shift = random_rigid_motion(rng)
            moved = analyze_config(PointConfig(points=pts @ rot.T + shift))
            assert edge_multiset(moved) == base
            perm = rng.permutation(len(pts))
            permuted = analyze_config(PointConfig(points=pts[perm]))
            assert edge_multiset(permuted, perm) == base

    def test_nearer_still_a_face_is_named(self):
        # at f = 1e-8 the midpoint test keeps two arcs on one step
        for pts in pentad_grown(1e-8):
            with pytest.raises(StructureError, match=(
                    r"^extract_edges: face \d+, step \(\d+, \d+\): found "
                    r"\d+ arcs, expected 1$")):
                analyze_config(PointConfig(points=pts))


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
SHAPES = (["tetra", "pentad"] + [f"pyramid:{m}" for m in range(3, 52, 2)]
          + [f"generic:{m}" for m in (5, 9, 21)])


@functools.lru_cache(maxsize=None)
def shape_points(name):
    """The points of a named shape: a generator, an unmoved pyramid of base
    m, or the first generic extremal set of base m."""
    kind, _, m = name.partition(":")
    if kind == "pyramid":
        return pyramid_points(int(m))
    if kind == "generic":
        return generic_sets(int(m))[0].points
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
        out += [v for term in b.per_pair_terms
                for v in dataclasses.astuple(term)]
    return np.array(out)


class TestRigidMotionHypothesis:
    @INVARIANCE
    @given(name=st.sampled_from(SHAPES), motion=proper_motions())
    @example(name="tetra", motion=quaternion_motion((1, 2, 3, 4), (1, -1, 2)))
    @example(name="pentad", motion=quaternion_motion((4, 3, 2, 1), (-2, 0, 1)))
    @example(name="pyramid:51",
             motion=quaternion_motion((1, -1, 2, -2), (2, 2, -2)))
    @example(name="generic:5",
             motion=quaternion_motion((2, -1, 1, 3), (-1, 2, 0)))
    @example(name="generic:9",
             motion=quaternion_motion((1, 3, -2, 2), (2, -1, -2)))
    @example(name="generic:21",
             motion=quaternion_motion((-3, 1, 2, 1), (0, -2, 1)))
    def test_counts_angles_and_scalars_survive(self, name, motion):
        assert_survives_motion(name, motion)

    @pytest.mark.parametrize("k, name", enumerate(SHAPES), ids=SHAPES)
    def test_every_shape_survives_a_fixed_motion(self, k, name):
        # the draws above reach only some shapes; this moves each one
        rng = np.random.default_rng(k)
        assert_survives_motion(name, quaternion_motion(
            rng.uniform(-1.0, 1.0, 4), rng.uniform(-2.0, 2.0, 3)))


def assert_survives_motion(name, motion):
    """The moved shape keeps the report, the dual pairs' supports, the angle
    pairs and the closed-form scalars of the unmoved one."""
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


# the generators, moved pyramids of base m and the generic sets
RELABELLED = ["tetra", "pentad", 5, 9, 21, "generic:5", "generic:9",
              "generic:21"]


def relabelled_points(shape):
    if isinstance(shape, int):
        return moved_pyramid(shape, 3 * shape).points
    return shape_points(shape)


class TestRelabellingInvariance:
    """Permuting X leaves V and S of the Reuleaux body and the multiset of
    unordered angle pairs: the canonical kept arc may switch sides."""

    @pytest.mark.parametrize("shape", RELABELLED)
    def test_permuted_points_keep_scalars_and_angles(self, shape):
        pts = relabelled_points(shape)
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

    @pytest.mark.parametrize("shape", RELABELLED)
    def test_permuted_points_swap_meissner_pairs(self, shape):
        """The Meissner body keeps the arc of smaller support, so a
        permutation swaps (theta, theta') on exactly the pairs whose kept
        support, relabelled, now sorts after the removed one."""
        pts = relabelled_points(shape)
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
                   body_from_structure(a, "meissner"),
                   build_body_mesh(a, "reuleaux", 4)]
        assert len({hash(r) for r in records}) == len(records)
        assert all(r == r for r in records)
        assert a.config != b.config and a.edges[0].arc != b.edges[0].arc
        assert records[-1] != build_body_mesh(b, "reuleaux", 4)

    def test_a_batch_angle_pair_compares_and_hashes(self):
        t = np.linspace(0.1, 1.0, 5)
        p, q = AnglePair(t, t), AnglePair(t, t)
        assert p == p and p != q
        assert hash(p) != hash(q) and len({p, q}) == 2
