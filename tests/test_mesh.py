"""Tests for mesh generation, mesh metrics, and export round-trips."""

import math
from dataclasses import replace

import numpy as np
import pytest

from reuleaux.errors import MeshError
from reuleaux.formulas import (surface_meissner, surface_reuleaux,
                               volume_meissner, volume_reuleaux, wedge_volume)
import reuleaux.mesh
from reuleaux import cli
from reuleaux.mesh import (MeshBuilder, MeshStats, SpindleFrame, TriangleMesh,
                           _stitch_rings, build_body_mesh, export_obj,
                           export_ply, import_obj, import_ply, inspect_mesh,
                           mesh_area, mesh_volume, triangle_areas)
from reuleaux.polyhedron import angle_pairs

RNG = np.random.default_rng(31337)


def _quarter_arc(u, w, n):
    f = np.linspace(0.0, 1.0, n + 1)
    pts = (np.sin((1.0 - f) * math.pi / 2)[:, None] * u
           + np.sin(f * math.pi / 2)[:, None] * w)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _sphere_from_octants(n):
    """Unit sphere assembled from 8 spherical-triangle caps with pooled
    quarter-circle boundaries and pooled pole vertices."""
    builder = MeshBuilder()
    poles = {}
    for k, sign in [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]:
        p = np.zeros(3)
        p[k] = sign
        poles[(k, sign)] = p

    def pole_id(key):
        return builder.polyline(("pole", key), lambda: poles[key][None, :])

    def arc_ids(a, b):
        key = tuple(sorted([a, b]))
        inner = builder.polyline(
            ("q", key), lambda: _quarter_arc(poles[key[0]], poles[key[1]], n)[1:-1])
        ids = np.concatenate([pole_id(key[0]), inner, pole_id(key[1])])
        return ids if key == (a, b) else ids[::-1]

    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                corners = [(0, sx), (1, sy), (2, sz)]
                loop = np.concatenate([
                    arc_ids(corners[0], corners[1])[:-1],
                    arc_ids(corners[1], corners[2])[:-1],
                    arc_ids(corners[2], corners[0])[:-1],
                ])
                builder.cap(np.zeros(3), loop, n)
    return builder.build()


class TestSphericalCaps:
    def test_octant_area_converges_to_pi_over_2(self):
        builder = MeshBuilder()
        e = np.eye(3)
        loop = np.concatenate([
            builder.add_points(_quarter_arc(e[0], e[1], 128))[:-1],
            builder.add_points(_quarter_arc(e[1], e[2], 128))[:-1],
            builder.add_points(_quarter_arc(e[2], e[0], 128))[:-1],
        ])
        builder.cap(np.zeros(3), loop, 128)
        area = float(triangle_areas(builder.build()).sum())
        assert area == pytest.approx(math.pi / 2, abs=1e-4)

    def test_octant_sphere_volume_and_area(self):
        mesh = _sphere_from_octants(128)
        stats = inspect_mesh(mesh)
        assert stats.watertight and stats.oriented
        assert stats.euler_characteristic == 2
        assert mesh_volume(mesh) == pytest.approx(4 * math.pi / 3, abs=1e-3)
        assert mesh_area(mesh) == pytest.approx(4 * math.pi, abs=1e-3)

    def test_orientation_flip_negates_volume_exactly(self):
        mesh = _sphere_from_octants(16)
        flipped = TriangleMesh(vertices=mesh.vertices,
                               triangles=mesh.triangles[:, [0, 2, 1]])
        assert mesh_volume(flipped) == -mesh_volume(mesh)


class TestSpindleParametrization:
    @pytest.fixture(params=["tetra", "pentad"])
    def frame(self, request, tetra_structure, pentad_structure):
        structure = {"tetra": tetra_structure, "pentad": pentad_structure}[request.param]
        return structure, SpindleFrame(structure.config, structure.pairs[0])

    def test_corners_hit_the_removed_endpoints(self, frame):
        structure, fr = frame
        pair = structure.pairs[0]
        pts = structure.config.points
        assert np.allclose(fr.point(0.0, 0.0), pts[pair.p_prime], atol=1e-9)
        assert np.allclose(fr.point(0.0, fr.theta_prime), pts[pair.q_prime], atol=1e-9)
        # s = 0 column starts on the kept arc's first endpoint's sphere
        assert abs(np.linalg.norm(fr.point(0.0, fr.theta_prime / 2) - pts[pair.p])
                   - 1.0) < 1e-9

    def test_rotation_identity_residual(self, frame):
        _, fr = frame
        tp = fr.theta_prime
        for _ in range(50):
            s = RNG.uniform(0, fr.phi_prime)
            t = RNG.uniform(0, tp)
            x = fr.point(s, t)
            expect = (fr.mid - math.sin(t - tp / 2) * fr.v
                      - (math.cos(t - tp / 2) - math.cos(tp / 2)) / math.cos(tp / 2)
                      * (fr.eta(np.array([s]))[0] - fr.mid))
            assert np.linalg.norm(x - expect) < 1e-9

    def test_surface_equation_residual(self, frame):
        _, fr = frame
        s = RNG.uniform(0, fr.phi_prime, size=40)
        t = RNG.uniform(0, fr.theta_prime, size=40)
        pts = fr.point(s, t)
        assert np.max(np.abs(fr.surface_residual(pts))) < 1e-9

    def test_partials_orthogonal_and_area_element(self, frame):
        _, fr = frame
        h = 1e-5
        for _ in range(25):
            s = RNG.uniform(h, fr.phi_prime - h)
            t = RNG.uniform(h, fr.theta_prime - h)
            ds = (fr.point(s + h, t) - fr.point(s - h, t)) / (2 * h)
            dt = (fr.point(s, t + h) - fr.point(s, t - h)) / (2 * h)
            assert abs(float(ds @ dt)) < 1e-9
            element = np.linalg.norm(np.cross(ds, dt))
            expect = math.cos(t - fr.theta_prime / 2) - math.cos(fr.theta_prime / 2)
            assert element == pytest.approx(expect, abs=1e-9)

    def test_normal_is_unit_and_matches_cross_product(self, frame):
        _, fr = frame
        h = 1e-6
        for _ in range(25):
            s = RNG.uniform(h, fr.phi_prime - h)
            t = RNG.uniform(h, fr.theta_prime - h)
            n = fr.normal(s, t)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-9)
            ds = (fr.point(s + h, t) - fr.point(s - h, t)) / (2 * h)
            dt = (fr.point(s, t + h) - fr.point(s, t - h)) / (2 * h)
            cross = np.cross(ds, dt)
            cross /= np.linalg.norm(cross)
            assert np.allclose(cross, n, atol=1e-6)

    def test_out_of_rectangle_raises(self, frame):
        _, fr = frame
        with pytest.raises(ValueError):
            fr.point(-0.1, 0.1)
        with pytest.raises(ValueError):
            fr.point(0.1, fr.theta_prime + 0.1)

    def test_spindle_point_helper(self, tetra_structure):
        pair = tetra_structure.pairs[0]
        p = SpindleFrame(tetra_structure.config, pair).point(0.0, 0.0)
        assert np.allclose(p, tetra_structure.config.points[pair.p_prime], atol=1e-12)


class TestBodyMeshes:
    @pytest.mark.parametrize("kind,vol_fn,area_fn", [
        ("reuleaux", volume_reuleaux, surface_reuleaux),
        ("meissner", volume_meissner, surface_meissner),
    ])
    def test_volume_and_area_against_closed_forms(self, tetra_structure,
                                                  pentad_structure, kind,
                                                  vol_fn, area_fn):
        for structure in (tetra_structure, pentad_structure):
            pairs = angle_pairs(structure)
            mesh = build_body_mesh(structure, kind, 64)
            stats = inspect_mesh(mesh)
            assert stats.watertight and stats.oriented
            assert stats.euler_characteristic == 2
            assert stats.min_triangle_area > 1e-16
            assert mesh_volume(mesh) == pytest.approx(vol_fn(pairs), abs=3e-4)
            assert mesh_area(mesh) == pytest.approx(area_fn(pairs), abs=1e-3)

    def test_wedge_mesh_volume(self, tetra_structure, pentad_structure):
        for structure in (tetra_structure, pentad_structure):
            pairs = angle_pairs(structure)
            for i in (0, len(pairs) - 1):
                mesh = build_body_mesh(structure, "wedge", 64, wedge_index=i)
                stats = inspect_mesh(mesh)
                assert stats.watertight and stats.oriented
                assert stats.euler_characteristic == 2
                assert mesh_volume(mesh) == pytest.approx(
                    wedge_volume(pairs[i]), abs=2e-4)

    def test_volume_error_shrinks_with_refinement(self, tetra_structure):
        exact = volume_reuleaux(angle_pairs(tetra_structure))
        errors = [abs(mesh_volume(build_body_mesh(tetra_structure, "reuleaux", n))
                      - exact) for n in (16, 32, 64, 128)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse
        assert errors[-1] <= 1e-3

    def test_pentad_meissner_excises_the_dangling_face(self, pentad_structure):
        # the two spindles at the dangling vertex share one geodesic; the face
        # itself contributes nothing, yet the mesh closes up
        mesh = build_body_mesh(pentad_structure, "meissner", 32)
        assert inspect_mesh(mesh).watertight

    def test_invalid_kind_and_index(self, tetra_structure):
        with pytest.raises(ValueError):
            build_body_mesh(tetra_structure, "torus", 16)
        with pytest.raises(ValueError):
            build_body_mesh(tetra_structure, "wedge", 16, wedge_index=9)

    def test_mesh_volume_rejects_open_meshes(self, tetra_structure):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        holed = TriangleMesh(vertices=mesh.vertices, triangles=mesh.triangles[:-1])
        with pytest.raises(MeshError):
            mesh_volume(holed)


class TestExportImport:
    def test_obj_roundtrip(self, tetra_structure, tmp_path):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        path = tmp_path / "body.obj"
        export_obj(mesh, str(path))
        back = import_obj(str(path))
        assert back.n_vertices == mesh.n_vertices
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.allclose(back.vertices, mesh.vertices, atol=0.0)

    def test_ply_roundtrip(self, tetra_structure, tmp_path):
        mesh = build_body_mesh(tetra_structure, "meissner", 16)
        path = tmp_path / "body.ply"
        export_ply(mesh, str(path))
        back = import_ply(str(path))
        assert back.n_vertices == mesh.n_vertices
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.allclose(back.vertices, mesh.vertices, atol=0.0)

    def test_ply_face_count_matches(self, tetra_structure, tmp_path):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        path = tmp_path / "count.ply"
        export_ply(mesh, str(path))
        header = path.read_text().splitlines()
        face_line = next(l for l in header if l.startswith("element face"))
        assert int(face_line.split()[2]) == mesh.n_triangles

    @pytest.mark.parametrize("face, index", [
        ("f 0 2 3", 0), ("f 1 -1 3", -1), ("f 2 3 9", 9)])
    def test_obj_face_index_out_of_range(self, tmp_path, face, index):
        path = tmp_path / "bad.obj"
        path.write_text("# tetrahedron\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                        f"f 1 3 2\n\n{face}\n")
        with pytest.raises(MeshError, match=f"line 8: face index {index} "
                                            r"outside 1\.\.4"):
            import_obj(str(path))

    @pytest.mark.parametrize("faces, lineno", [
        ("f 1 3 2\nf 1 2\n", 6), ("f 1 2\nf 2 3\nf 3 4\n", 5)])
    def test_obj_face_with_two_indices(self, tmp_path, faces, lineno):
        path = tmp_path / "short.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n" + faces)
        with pytest.raises(MeshError, match=f"line {lineno}: face has 2 "
                                            "indices, needs 3"):
            import_obj(str(path))

    @pytest.mark.parametrize("face, error", [
        ("3 0 2 9", r"vertex index 9 outside 0\.\.3"),
        ("3 0 -1 2", r"vertex index -1 outside 0\.\.3"),
        ("2 0 2", "2 indices, needs 3")])
    def test_ply_malformed_face(self, tmp_path, face, error):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 4\n"
                        "property float64 x\nproperty float64 y\n"
                        "property float64 z\nelement face 2\n"
                        "property list uchar int vertex_indices\nend_header\n"
                        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                        f"3 0 1 2\n{face}\n")
        with pytest.raises(MeshError, match=f"PLY face 1: {error}"):
            import_ply(str(path))

    def test_empty_mesh_header_only(self, tmp_path):
        empty = TriangleMesh(vertices=np.zeros((0, 3)),
                             triangles=np.zeros((0, 3), dtype=np.int64))
        obj = tmp_path / "empty.obj"
        ply = tmp_path / "empty.ply"
        export_obj(empty, str(obj))
        export_ply(empty, str(ply))
        assert import_obj(str(obj)).n_vertices == 0
        assert import_ply(str(ply)).n_triangles == 0


# ---------------------------------------------------------------------------
# Loop and np.unique versions kept as references for the vectorized kernels

def _stitch_rings_loop(inner, outer):
    m, k = len(inner), len(outer)
    if m == 1:
        j = np.arange(k)
        return np.stack([np.full(k, inner[0]), outer[j], outer[(j + 1) % k]], axis=1)
    tris = []
    i = j = 0
    while i < m or j < k:
        take_outer = j < k and (i == m or (j + 1) * m <= (i + 1) * k)
        if take_outer:
            tris.append((inner[i % m], outer[j], outer[(j + 1) % k]))
            j += 1
        else:
            tris.append((inner[i % m], outer[j % k], inner[(i + 1) % m]))
            i += 1
    return np.asarray(tris, dtype=np.int64)


def _inspect_mesh_unique(mesh):
    t = mesh.triangles
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    n = mesh.n_vertices
    keys = directed[:, 0] * n + directed[:, 1]
    oriented = np.unique(keys).size == keys.size
    und = np.sort(directed, axis=1)
    und_keys = und[:, 0] * n + und[:, 1]
    uniq, counts = np.unique(und_keys, return_counts=True)
    watertight = bool(np.all(counts == 2))
    bad = ()
    if not watertight:
        bad_keys = uniq[counts != 2][:16]
        bad = tuple((int(k // n), int(k % n)) for k in bad_keys)
    used = np.unique(t)
    areas = triangle_areas(mesh)
    return MeshStats(
        watertight=watertight,
        oriented=oriented,
        euler_characteristic=int(used.size - uniq.size + t.shape[0]),
        n_vertices=int(used.size),
        n_edges=int(uniq.size),
        n_triangles=int(t.shape[0]),
        min_triangle_area=float(areas.min()) if areas.size else 0.0,
        bad_edges=bad,
    )


class TestKernelsAgainstReferences:
    def test_stitch_rings_matches_the_loop(self):
        for m in range(1, 49):
            inner = np.arange(m, dtype=np.int64) + 1000
            for k in range(3, 49):
                outer = np.arange(k, dtype=np.int64) + 2000
                assert np.array_equal(_stitch_rings(inner, outer),
                                      _stitch_rings_loop(inner, outer)), (m, k)

    def test_inspect_mesh_matches_unique(self, tetra_structure, pentad_structure):
        meshes = [build_body_mesh(tetra_structure, "reuleaux", 8),
                  build_body_mesh(pentad_structure, "meissner", 12),
                  build_body_mesh(pentad_structure, "wedge", 5, wedge_index=0),
                  _sphere_from_octants(6)]
        base = meshes[0]
        v, t = base.vertices, base.triangles
        flipped = t.copy()
        flipped[7] = flipped[7, ::-1]
        meshes += [
            TriangleMesh(vertices=v, triangles=t[:-1]),
            TriangleMesh(vertices=v, triangles=flipped),
            TriangleMesh(vertices=v, triangles=np.vstack([t, t[3:4]])),
            TriangleMesh(vertices=v, triangles=t - 1),
            TriangleMesh(vertices=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64)),
        ]
        for mesh in meshes:
            assert inspect_mesh(mesh) == _inspect_mesh_unique(mesh)
        assert not inspect_mesh(meshes[-5]).watertight
        assert not inspect_mesh(meshes[-4]).oriented
        assert not inspect_mesh(meshes[-3]).watertight


class TestCheckOnce:
    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def counting(mesh):
            calls.append(mesh.n_triangles)
            return inspect_mesh(mesh)
        monkeypatch.setattr(reuleaux.mesh, "inspect_mesh", counting)
        return calls

    def test_cli_mesh_checks_once(self, checks, tmp_path):
        assert cli.main(["mesh", "generator:tetra", "--body", "meissner",
                         "--refine", "8", "--json", str(tmp_path / "m.json")]) == 0
        assert len(checks) == 1

    def test_full_report_checks_once_per_body(self, checks, tmp_path):
        assert cli.main(["report", "generator:tetra", "--full", "--samples",
                         "20000", "--batch", "20000", "--refine", "8",
                         "--json", str(tmp_path / "r.json")]) == 0
        assert len(checks) == 2

    def test_imported_mesh_is_checked(self, checks, tetra_structure, tmp_path):
        path = tmp_path / "body.obj"
        export_obj(build_body_mesh(tetra_structure, "reuleaux", 8), str(path))
        checks.clear()
        mesh_volume(import_obj(str(path)))
        assert len(checks) == 1

    def test_built_mesh_is_read_only(self, tetra_structure):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 8)
        assert mesh.stats == inspect_mesh(mesh)
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 1
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 1.0
        assert replace(mesh, triangles=mesh.triangles[:-1]).stats is None

    def test_equality_compares_arrays_and_ignores_stats(self, tetra_structure):
        a = TriangleMesh(np.eye(3), [[0, 1, 2]])
        assert a == TriangleMesh(np.eye(3), [[0, 1, 2]])
        assert a != TriangleMesh(np.eye(3), [[0, 2, 1]])
        assert a != TriangleMesh(2 * np.eye(3), [[0, 1, 2]])
        built = build_body_mesh(tetra_structure, "reuleaux", 8)
        assert built == TriangleMesh(built.vertices, built.triangles)
