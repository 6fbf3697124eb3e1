"""Tests for extremality checking, edge extraction, and dual pairing."""

import math

import numpy as np
import pytest

from reuleaux.errors import NotExtremalError, StructureError
from reuleaux.polyhedron import (DualPair, PointConfig, Tolerances,
                                 analyze_config, angle_pairs, check_extremal,
                                 classify_vertices, config_from_generator,
                                 config_from_json_dict, extract_edges,
                                 pair_duals, pentad_points, tetra_points)

RNG = np.random.default_rng(4207)


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
