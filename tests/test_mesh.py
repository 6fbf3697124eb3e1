"""Tests for mesh generation, mesh metrics, and export round-trips."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reuleaux.errors import MeshError
from reuleaux.formulas import (surface_meissner, surface_reuleaux,
                               volume_meissner, volume_reuleaux, wedge_volume)
import reuleaux.mesh
from reuleaux import cli
from reuleaux.mesh import (MeshBuilder, MeshStats, SpindleFrame, TriangleMesh,
                           _loop_solid_angle, _stitch_rings, build_body_mesh,
                           export_obj, export_ply, import_obj, inspect_mesh,
                           mesh_area, mesh_volume)
from reuleaux.polyhedron import (PointConfig, analyze_config, angle_pairs,
                                 config_from_generator)
from test_polyhedron import moved_pyramid

RNG = np.random.default_rng(31337)


def read_ply(path):
    """The vertex rows and the face rows of an ASCII PLY, each as an array
    parsed by numpy after the header; the package writes PLY but does not
    read it."""
    with open(path, "r", encoding="utf-8") as fh:
        counts = {}
        for line in fh:
            parts = line.split()
            if parts[:1] == ["element"]:
                counts[parts[1]] = int(parts[2])
            elif parts == ["end_header"]:
                break
        # loadtxt warns on an empty block
        return tuple(
            np.loadtxt(fh, dtype=dtype, max_rows=counts[name], ndmin=2,
                       comments=None)
            if counts[name] else np.zeros((0, width), dtype=dtype)
            for name, dtype, width in (("vertex", float, 3),
                                       ("face", np.int64, 4)))


def ply_mesh(path):
    """``read_ply`` as a mesh, after checking that every face row is a
    triangle."""
    v, f = read_ply(path)
    assert np.all(f[:, 0] == 3)
    return TriangleMesh(vertices=v, triangles=f[:, 1:])


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

    for face, (sx, sy, sz) in enumerate(itertools.product((1, -1), repeat=3)):
        corners = [(0, sx), (1, sy), (2, sz)]
        loop = np.concatenate([
            arc_ids(corners[0], corners[1])[:-1],
            arc_ids(corners[1], corners[2])[:-1],
            arc_ids(corners[2], corners[0])[:-1],
        ])
        builder.cap(np.zeros(3), loop, n, face)
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
        builder.cap(np.zeros(3), loop, 128, 0)
        area = inspect_mesh(builder.build()).total_area
        assert area == pytest.approx(math.pi / 2, abs=1e-4)

    def test_a_stray_loop_names_its_face(self):
        # three points near the north pole and one at the south pole: the
        # mean direction is northward, so the south point is about pi away
        builder = MeshBuilder()
        north = [[0.1 * math.cos(a), 0.1 * math.sin(a), 1.0]
                 for a in (0.0, 2.0, 4.0)]
        dirs = np.array(north + [[0.05, 0.0, -1.0]])
        loop = builder.add_points(dirs / np.linalg.norm(dirs, axis=1)[:, None])
        with pytest.raises(MeshError, match=r"^face 3 loop strays more than "
                                            r"3\.0 rad from its barycenter$"):
            builder.cap(np.zeros(3), loop, 8, 3)

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


def surface_residual(fr, pts):
    """Residual of the spindle's rotation-surface equation at the points."""
    w = np.atleast_2d(pts) - fr.mid
    axial = w @ fr.v
    trans = np.linalg.norm(w - axial[:, None] * fr.v, axis=1)
    return trans + math.cos(fr.theta_prime / 2.0) - np.sqrt(1.0 - axial ** 2)


def spindle_normal(fr, s, t):
    """Unit normal of the spindle at (s, t), pointing out of the wedge (into
    the Meissner body): the closed form of the normalized X_s x X_t."""
    tp = fr.theta_prime
    shifted = t - tp / 2.0
    return (math.cos(shifted) / math.cos(tp / 2.0)
            * (fr.eta(np.array([s]))[0] - fr.mid) + math.sin(shifted) * fr.v)


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
        assert np.max(np.abs(surface_residual(fr, pts))) < 1e-9

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
            n = spindle_normal(fr, s, t)
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

    def test_mesh_volume_rejects_one_flipped_triangle(self, tetra_structure):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        tris = mesh.triangles.copy()
        tris[7] = tris[7, ::-1]
        flipped = TriangleMesh(vertices=mesh.vertices, triangles=tris)
        assert inspect_mesh(flipped).watertight
        with pytest.raises(MeshError, match="orientation is inconsistent"):
            mesh_volume(flipped)

    def test_mesh_volume_rejects_open_meshes(self, tetra_structure):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        holed = TriangleMesh(vertices=mesh.vertices, triangles=mesh.triangles[:-1])
        with pytest.raises(MeshError, match="^mesh is not watertight; "):
            mesh_volume(holed)

    @pytest.mark.parametrize("kind, index, label", [
        ("reuleaux", None, "reuleaux"), ("meissner", None, "meissner"),
        ("wedge", 1, "wedge:1")])
    def test_an_open_body_mesh_names_its_body(self, monkeypatch,
                                              pentad_structure, kind, index,
                                              label):
        build = MeshBuilder.build

        def holed(self):
            mesh = build(self)
            return TriangleMesh(vertices=mesh.vertices,
                                triangles=mesh.triangles[:-1])

        monkeypatch.setattr(MeshBuilder, "build", holed)
        with pytest.raises(MeshError, match=f"^{label} mesh is not "
                                            "watertight; offending edges"):
            build_body_mesh(pentad_structure, kind, 8, wedge_index=index)


class TestWindingConvention:
    """Spindle and sliver windings come from the dual-pair orientation, not
    from a probe of the built geometry."""

    @pytest.mark.parametrize("shape", ["tetra", "pentad", 5, 9, 21])
    def test_mirrored_inputs_mesh_every_body(self, shape):
        # a mirror image swaps the handedness of every dual pair, which
        # pair_duals turns back by swapping p' and q'
        if isinstance(shape, int):
            pts = moved_pyramid(shape, 3 * shape).points
        else:
            pts = config_from_generator(shape).points
        structure = analyze_config(PointConfig(points=pts * [-1.0, 1.0, 1.0]))
        pairs = angle_pairs(structure)
        bodies = [("reuleaux", None, volume_reuleaux(pairs)),
                  ("meissner", None, volume_meissner(pairs))] + [
            ("wedge", i, wedge_volume(p)) for i, p in enumerate(pairs)]
        for kind, index, exact in bodies:
            mesh = build_body_mesh(structure, kind, 32, wedge_index=index)
            assert mesh_volume(mesh) == pytest.approx(exact, abs=1e-3), \
                (kind, index)

    @pytest.mark.parametrize("kind, index, patch", [
        ("meissner", None, 0), ("meissner", None, 2),
        ("wedge", 1, 0), ("wedge", 1, 1), ("wedge", 1, 2)])
    def test_one_wrong_winding_is_refused(self, monkeypatch, pentad_structure,
                                          kind, index, patch):
        # patch 0 is the first spindle; a wedge then adds the slivers on the
        # spheres of p and q
        grid = MeshBuilder.grid
        calls = []

        def one_flipped(self, grid_ids, flip):
            calls.append(flip)
            grid(self, grid_ids, flip != (len(calls) - 1 == patch))

        monkeypatch.setattr(MeshBuilder, "grid", one_flipped)
        label = kind if index is None else f"{kind}:{index}"
        with pytest.raises(MeshError, match=f"^{label} mesh orientation is "
                                            "inconsistent$"):
            build_body_mesh(pentad_structure, kind, 8, wedge_index=index)


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
        back = ply_mesh(str(path))
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.vertices.view(np.uint64),
                              mesh.vertices.view(np.uint64))

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

    @pytest.mark.parametrize("faces, lineno, count", [
        ("f 1 3 2\nf 1 4 3 2\n", 7, 4), ("f 1 2 3 4 5\n", 6, 5)])
    def test_obj_polygon_face(self, tmp_path, faces, lineno, count):
        # a square pyramid whose base is one quad, then a pentagon
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"
                        + faces)
        with pytest.raises(MeshError, match=f"line {lineno}: face has "
                                            f"{count} indices, needs 3"):
            import_obj(str(path))

    @pytest.mark.parametrize("verts, lineno", [
        # one short line: numpy alone would refuse the ragged rows
        ("v 0 0 0\nv 1 0\nv 0 1 0\n", 3),
        # every line short, 6 numbers: numpy alone would regroup them as
        # two vertices without a word
        ("v 0 0\nv 1 0\nv 0 1\n", 2)])
    def test_obj_vertex_with_two_coordinates(self, tmp_path, verts, lineno):
        path = tmp_path / "flat.obj"
        path.write_text("# short vertex\n" + verts + "f 1 2 3\n")
        with pytest.raises(MeshError, match=f"line {lineno}: vertex has 2 "
                                            "coordinates, needs 3"):
            import_obj(str(path))

    def test_obj_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "word.obj"
        path.write_text("# a word for a number\nv 0 0 0\n\nv 1 x 0\n"
                        "v 0 1 0\nf 1 2 3\n")
        with pytest.raises(MeshError, match="line 4: vertex coordinate is not "
                                            "a number"):
            import_obj(str(path))

    def test_obj_non_numeric_face_index(self, tmp_path):
        path = tmp_path / "word.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\n"
                        "# a word for an index\nf 1 2 a\n")
        with pytest.raises(MeshError, match="line 7: face index is not a "
                                            "number"):
            import_obj(str(path))

    def test_obj_face_index_beyond_int64(self, tmp_path):
        path = tmp_path / "huge.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
        with pytest.raises(MeshError, match="line 4: face index "
                                            r"99999999999999999999 outside 1\.\.3"):
            import_obj(str(path))

    def test_empty_mesh_header_only(self, tmp_path):
        empty = TriangleMesh(vertices=np.zeros((0, 3)),
                             triangles=np.zeros((0, 3), dtype=np.int64))
        obj = tmp_path / "empty.obj"
        ply = tmp_path / "empty.ply"
        export_obj(empty, str(obj))
        export_ply(empty, str(ply))
        assert import_obj(str(obj)).n_vertices == 0
        assert [a.shape for a in read_ply(str(ply))] == [(0, 3), (0, 4)]

    @pytest.mark.parametrize("text, error", [
        ("v 0 0 0\nv\nv 0 1 0\nf 1 2 3\n",
         "line 2: vertex has 0 coordinates, needs 3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n  v  \nf 1 2 3\n",
         "line 4: vertex has 0 coordinates, needs 3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf\n",
         "line 5: face has 0 indices, needs 3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf",
         "line 5: face has 0 indices, needs 3")])
    def test_obj_bare_tag(self, tmp_path, text, error):
        # numpy's text reader skips a blank row; a bare tag is no blank row
        path = tmp_path / "bare.obj"
        path.write_text(text)
        with pytest.raises(MeshError, match=error):
            import_obj(str(path))

    def test_obj_vertices_without_faces(self, tmp_path):
        # an empty face stream: no numpy warning, which would be an error here
        path = tmp_path / "cloud.obj"
        path.write_text("# points only\nv 0 0 0\nv 1 0 0\n")
        mesh = import_obj(str(path))
        assert mesh.vertices.shape == (2, 3)
        assert mesh.triangles.shape == (0, 3)
        assert mesh.triangles.dtype == np.int64

    def test_obj_one_vertex_and_one_face(self, tmp_path):
        path = tmp_path / "one.obj"
        path.write_text("v 0.5 -0 1e-320\nf 1 1/2/3 1//3\n")
        mesh = import_obj(str(path))
        assert mesh.vertices.shape == (1, 3)
        assert mesh.vertices.tobytes() == np.array([[0.5, -0.0, 1e-320]]).tobytes()
        assert mesh.triangles.tolist() == [[0, 0, 0]]

    def test_obj_face_index_one_past_the_last(self, tmp_path):
        path = tmp_path / "past.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\n"
                        "f 1 2 5\n")
        with pytest.raises(MeshError, match=r"line 6: face index 5 outside "
                                            r"1\.\.4"):
            import_obj(str(path))

    def test_obj_face_corner_without_vertex_index(self, tmp_path):
        # "/4" has no vertex index; it must not vanish from a quad
        path = tmp_path / "corner.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3 /4\n")
        with pytest.raises(MeshError, match="line 5: face index is not a "
                                            "number"):
            import_obj(str(path))

    @pytest.mark.parametrize("line, lineno, what", [
        ("v 1_0 0 0", 2, "vertex coordinate"),
        ("v 0 \u0661 0", 2, "vertex coordinate"),
        ("v 0 0 \uff11", 2, "vertex coordinate"),
        ("f 1 2 3_0", 5, "face index"),
        ("f 1 \u0662 3", 5, "face index"),
        ("f 1 2/1 3\u0663/1", 5, "face index")])
    def test_obj_grouped_or_non_ascii_number(self, tmp_path, line, lineno,
                                             what):
        # Python's float and int take these tokens; numpy's reader does not
        lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3"]
        lines.insert(lineno - 1, line)
        path = tmp_path / "grouped.obj"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MeshError, match=f"line {lineno}: {what} is not a "
                                            "number .* uses digit grouping"):
            import_obj(str(path))


# ---------------------------------------------------------------------------
# Loop, per-ring, np.unique and np.cross/norm/einsum versions kept as
# references for the vectorized kernels, and the line-by-line OBJ reader as
# the reference for the numpy one

def _obj_line_loop(path, tag, row):
    with open(path, "r", encoding="utf-8") as fh:
        tagged = (k for k, line in enumerate(fh, start=1)
                  if line.split()[:1] == [tag])
        return next(itertools.islice(tagged, row, None))


def _import_obj_loop(path):
    """import_obj with Python's float and int on lists of rows."""
    verts, tris = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "v":
                    verts.append([float(p) for p in parts[1:4]])
                elif parts[0] == "f":
                    tris.append([int(p.split("/")[0]) for p in parts[1:]])
            except ValueError as exc:
                tag = parts[0]
                row, what = ((len(verts), "vertex coordinate") if tag == "v"
                             else (len(tris), "face index"))
                raise MeshError(f"OBJ line {_obj_line_loop(path, tag, row)}: "
                                f"{what} is not a number ({exc})") from None
    try:
        v = np.array(verts, dtype=float).reshape(len(verts), 3)
    except ValueError:
        row = next(k for k, xyz in enumerate(verts) if len(xyz) < 3)
        raise MeshError(f"OBJ line {_obj_line_loop(path, 'v', row)}: vertex "
                        f"has {len(verts[row])} coordinates, needs 3") from None
    try:
        t = np.array(tris, dtype=np.int64).reshape(len(tris), 3)
        bad = (t < 1) | (t > len(verts))
    except ValueError:
        row = next(k for k, face in enumerate(tris) if len(face) != 3)
        raise MeshError(f"OBJ line {_obj_line_loop(path, 'f', row)}: face has "
                        f"{len(tris[row])} indices, needs 3") from None
    except OverflowError:
        bad = np.array([[not 1 <= i <= len(verts) for i in face]
                        for face in tris])
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise MeshError(f"OBJ line {_obj_line_loop(path, 'f', row)}: face "
                        f"index {tris[row][col]} outside 1..{len(verts)}")
    return TriangleMesh(vertices=v, triangles=t - 1)


def _ladder_loop(inner, outer, tie_to_outer=True):
    m, k = len(inner), len(outer)
    if m == 1:
        j = np.arange(k)
        return np.stack([np.full(k, inner[0]), outer[j], outer[(j + 1) % k]], axis=1)
    tris = []
    i = j = 0
    while i < m or j < k:
        outer_first = ((j + 1) * m <= (i + 1) * k if tie_to_outer
                       else (j + 1) * m < (i + 1) * k)
        if j < k and (i == m or outer_first):
            tris.append((inner[i % m], outer[j], outer[(j + 1) % k]))
            j += 1
        else:
            tris.append((inner[i % m], outer[j % k], inner[(i + 1) % m]))
            i += 1
    return np.asarray(tris, dtype=np.int64)


def _stitch_rings_loop(ids, sizes, tie_to_outer=True):
    """One ladder at a time between consecutive rings."""
    rings = np.split(np.asarray(ids), np.cumsum(sizes)[:-1])
    return np.vstack([_ladder_loop(inner, outer, tie_to_outer)
                      for inner, outer in zip(rings, rings[1:])])


def _ladder_sorted(inner, outer):
    """One ladder, its steps merged by a stable sort."""
    m, k = len(inner), len(outer)
    if m == 1:
        j = np.arange(k)
        return np.stack([np.full(k, inner[0]), outer[j], outer[(j + 1) % k]], axis=1)
    steps = np.concatenate([np.arange(1, k + 1) * m, np.arange(1, m + 1) * k])
    outer_step = np.argsort(steps, kind="stable") < k
    j = np.cumsum(outer_step) - outer_step
    i = np.cumsum(~outer_step) - ~outer_step
    third = np.where(outer_step, outer[(j + 1) % k], inner[(i + 1) % m])
    return np.stack([inner[i], outer[j % k], third], axis=1)


def _cap_per_ring(self, center, loop_ids, refine, face):
    """MeshBuilder.cap one ring at a time, each ring stitched to the last."""
    dirs = self.coords_of(loop_ids) - center
    solid = _loop_solid_angle(dirs)
    if abs(solid) < 1e-9:
        return
    if solid < 0.0:
        loop_ids = loop_ids[::-1]
        dirs = dirs[::-1]
    apex_dir = dirs.mean(axis=0)
    apex_dir = apex_dir / np.linalg.norm(apex_dir)
    apex = int(self.add_points((center + apex_dir)[None, :])[0])
    L = len(loop_ids)
    omega = np.arccos(np.clip(dirs @ apex_dir, -1.0, 1.0))
    rows = max(2, refine)

    def ring_ids(r):
        if r == rows:
            return np.asarray(loop_ids, dtype=np.int64)
        m = max(3, round(L * r / rows))
        c = np.arange(m) * (L / m)
        k = np.floor(c).astype(int)
        frac = c - k
        kn = (k + 1) % L
        between = (1.0 - frac)[:, None] * dirs[k] + frac[:, None] * dirs[kn]
        between /= np.linalg.norm(between, axis=1)[:, None]
        ang = ((1.0 - frac) * omega[k] + frac * omega[kn]) * (r / rows)
        full = np.arccos(np.clip(between @ apex_dir, -1.0, 1.0))
        safe = np.maximum(np.sin(full), 1e-14)
        ring = (np.sin(full - ang) / safe)[:, None] * apex_dir \
            + (np.sin(ang) / safe)[:, None] * between
        ring /= np.linalg.norm(ring, axis=1)[:, None]
        return self.add_points(center + ring)

    prev = np.array([apex], dtype=np.int64)
    for r in range(1, rows + 1):
        ring = ring_ids(r)
        self.emit(_ladder_sorted(prev, ring))
        prev = ring


def _areas_reference(mesh):
    v, t = mesh.vertices, mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def _volume_reference(mesh):
    v, t = mesh.vertices, mesh.triangles
    return float(np.einsum("ij,ij->i", v[t[:, 0]],
                           np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


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
    areas = _areas_reference(mesh)
    return MeshStats(
        watertight=watertight,
        oriented=oriented,
        euler_characteristic=int(used.size - uniq.size + t.shape[0]),
        n_vertices=int(used.size),
        n_edges=int(uniq.size),
        n_triangles=int(t.shape[0]),
        min_triangle_area=float(areas.min()) if areas.size else 0.0,
        bad_edges=bad,
        total_area=float(areas.sum()),
        total_volume=_volume_reference(mesh),
    )


class TestKernelsAgainstReferences:
    def test_stitch_rings_matches_the_loop(self):
        for m in range(1, 49):
            inner = np.arange(m, dtype=np.int64) + 1000
            for k in range(3, 49):
                outer = np.arange(k, dtype=np.int64) + 2000
                expect = _ladder_loop(inner, outer)
                assert np.array_equal(
                    _stitch_rings(np.concatenate([inner, outer]), [m, k]),
                    expect), (m, k)
                assert np.array_equal(_ladder_sorted(inner, outer), expect), (m, k)

    def test_multi_ring_ladders_match_the_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            sizes = np.concatenate([[1], rng.integers(3, 40, size=rng.integers(1, 9))])
            ids = rng.permutation(5000)[:sizes.sum()]
            assert np.array_equal(_stitch_rings(ids, sizes),
                                  _stitch_rings_loop(ids, sizes)), sizes
        # the ring sizes of one real cap: loop of 97, 12 rows
        sizes = [1] + [max(3, round(97 * r / 12)) for r in range(1, 12)] + [97]
        ids = np.arange(sum(sizes))
        assert np.array_equal(_stitch_rings(ids, sizes),
                              _stitch_rings_loop(ids, sizes))

    def test_a_tie_sent_to_the_inner_step_is_caught(self):
        # 4 -> 6 points tie at step 12, where the outer step goes first
        sizes = [1, 4, 6]
        ids = np.arange(11)
        assert np.array_equal(_stitch_rings(ids, sizes),
                              _stitch_rings_loop(ids, sizes))
        assert not np.array_equal(_stitch_rings(ids, sizes),
                                  _stitch_rings_loop(ids, sizes,
                                                     tie_to_outer=False))

    def test_a_regrouped_norm_is_caught(self, tetra_structure):
        mesh = build_body_mesh(tetra_structure, "reuleaux", 16)
        v, t = mesh.vertices, mesh.triangles
        n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        regrouped = 0.5 * np.sqrt(n[:, 0] ** 2 + (n[:, 1] ** 2 + n[:, 2] ** 2))
        areas = reuleaux.mesh._triangle_terms(mesh)[0]
        assert np.array_equal(areas, _areas_reference(mesh))
        assert not np.array_equal(areas, regrouped)

    def test_inspect_mesh_matches_unique(self, tetra_structure, pentad_structure):
        meshes = [build_body_mesh(tetra_structure, "reuleaux", 8),
                  build_body_mesh(pentad_structure, "meissner", 12),
                  build_body_mesh(pentad_structure, "wedge", 5, wedge_index=0),
                  _sphere_from_octants(6)]
        base = meshes[0]
        v, t = base.vertices, base.triangles
        flipped = t.copy()
        flipped[7] = flipped[7, ::-1]
        holed = TriangleMesh(vertices=v, triangles=t[:-1])
        misoriented = TriangleMesh(vertices=v, triangles=flipped)
        tripled = TriangleMesh(vertices=v, triangles=np.vstack([t, t[3:4]]))
        # its one repeated directed edge, 0 -> 1, is the lowest key
        lowest_twice = TriangleMesh(vertices=v[:4], triangles=[[0, 1, 2], [0, 1, 3]])
        meshes += [
            holed, misoriented, tripled, lowest_twice,
            TriangleMesh(vertices=v, triangles=t - 1),
            TriangleMesh(vertices=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64)),
        ]
        # the edges of the blocked area and volume pass: one triangle, a
        # block less one, one block, one more, and built meshes of several
        # whole blocks and of several blocks plus a remainder
        block = reuleaux.mesh._BLOCK_TRIANGLES
        whole = build_body_mesh(tetra_structure, "reuleaux", 64)
        remainder = build_body_mesh(tetra_structure, "meissner", 32)
        assert whole.n_triangles == 6 * block
        assert remainder.n_triangles % block and remainder.n_triangles > 2 * block
        for size in (1, block - 1, block, block + 1):
            meshes.append(TriangleMesh(vertices=remainder.vertices,
                                       triangles=remainder.triangles[:size]))
        meshes += [whole, remainder]
        for mesh in meshes:
            got, want = inspect_mesh(mesh), _inspect_mesh_unique(mesh)
            assert got == want, mesh.n_triangles
            for name in ("min_triangle_area", "total_area", "total_volume"):
                assert (getattr(got, name).hex()
                        == getattr(want, name).hex()), (name, mesh.n_triangles)
        assert not inspect_mesh(holed).watertight
        assert not inspect_mesh(misoriented).oriented
        assert not inspect_mesh(lowest_twice).oriented
        assert not inspect_mesh(tripled).watertight


class TestOnePassMeshes:
    """One-pass caps and column integrals against the per-ring caps and the
    np.cross / norm / einsum integrals, bit for bit."""

    @pytest.mark.parametrize("refine", [2, 3, 8, 16, 33, 64, 128])
    @pytest.mark.parametrize("generator", ["tetra", "pentad"])
    def test_meshes_match_the_per_ring_build(self, request, monkeypatch,
                                             generator, refine):
        structure = request.getfixturevalue(f"{generator}_structure")
        bodies = [("reuleaux", None), ("meissner", None)] + [
            ("wedge", i) for i in range(len(structure.pairs))]
        for kind, index in bodies:
            label = (kind, index, refine)
            mesh = build_body_mesh(structure, kind, refine, wedge_index=index)
            with monkeypatch.context() as patch:
                patch.setattr(MeshBuilder, "cap", _cap_per_ring)
                ref = build_body_mesh(structure, kind, refine, wedge_index=index)
            assert mesh.vertices.tobytes() == ref.vertices.tobytes(), label
            assert np.array_equal(mesh.triangles, ref.triangles), label
            # connectivity is checked against np.unique elsewhere; here the
            # area fields come from the np.cross / norm reference
            areas = _areas_reference(ref)
            assert mesh.stats == replace(
                ref.stats, min_triangle_area=float(areas.min())), label
            assert mesh_volume(mesh).hex() == _volume_reference(ref).hex(), label
            assert mesh_area(mesh).hex() == float(areas.sum()).hex(), label


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

    @pytest.fixture
    def kernel_passes(self, monkeypatch):
        """The meshes passed to the area and volume pass."""
        calls = []
        kernel = reuleaux.mesh._triangle_terms

        def counting(mesh):
            calls.append(mesh.n_triangles)
            return kernel(mesh)
        monkeypatch.setattr(reuleaux.mesh, "_triangle_terms", counting)
        return calls

    def test_areas_once_per_built_mesh(self, kernel_passes, pentad_structure,
                                       tmp_path):
        # the CLI's mesh block reads mesh_volume and mesh_area too
        assert cli.main(["mesh", "generator:pentad", "--body", "meissner",
                         "--refine", "8", "--json", str(tmp_path / "m.json")]) == 0
        assert len(kernel_passes) == 1
        mesh = build_body_mesh(pentad_structure, "reuleaux", 8)
        assert len(kernel_passes) == 2
        assert mesh_volume(mesh) == mesh.stats.total_volume
        assert mesh_area(mesh) == mesh.stats.total_area
        assert len(kernel_passes) == 2

    def test_full_report_makes_one_kernel_pass_per_body(self, kernel_passes,
                                                        tmp_path):
        assert cli.main(["report", "generator:tetra", "--full", "--samples",
                         "20000", "--batch", "20000", "--refine", "8",
                         "--json", str(tmp_path / "r.json")]) == 0
        assert len(kernel_passes) == 2

    def test_areas_once_per_imported_mesh(self, kernel_passes, tetra_structure,
                                          tmp_path):
        path = tmp_path / "body.obj"
        built = build_body_mesh(tetra_structure, "meissner", 8)
        export_obj(built, str(path))
        kernel_passes.clear()
        assert mesh_area(import_obj(str(path))) == mesh_area(built)
        assert len(kernel_passes) == 1
        assert mesh_volume(import_obj(str(path))) == mesh_volume(built)
        assert len(kernel_passes) == 2

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


# OBJ texts for the differential test of import_obj against the loop
COORDS = st.one_of(st.floats(width=64).map(repr), st.sampled_from(
    ["0", "-0", "+3", "nan", "-nan", "inf", "-Infinity", "1e-320",
     "4.9e-324", ".5", "1.", "1E5", "1e400"]))
CORNER_FORMS = ["{}", "{}/1", "{}//2", "{}/3/4", "{}/"]
OTHER_LINES = ["#", "# v 1 2 3", "", "vn 0 0 1", "vt 0.5 0.5", "o body",
               "g part", "s off", "usemtl m", "#v 1", "vx 1 2 3", "fo 1 2 3",
               "v#", "f#"]
WORDS = ["x", "1.5.2", "--1", "1/2", "0x10", "nan(1)", "1e", "/", "/3",
         "1.0", "1e0"]
INDICES = ["0", "-1", "-3", "99", "+1", "01", "9223372036854775807",
           "99999999999999999999", "-99999999999999999999"]
GROUPED = ["1_0", "0_1", "\u0661", "\uff11", "1\u0662"]
GAPS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1f", "\xa0", "\x85",
        "\u2003", "\u2028"]


@st.composite
def obj_texts(draw):
    """An OBJ text and whether a token in it uses digit grouping or
    non-ASCII digits."""
    n = draw(st.integers(1, 5))
    corner = st.builds(lambda form, i: form.format(i),
                       st.sampled_from(CORNER_FORMS), st.integers(1, n))
    rows = ([["v"] + draw(st.lists(COORDS, min_size=3, max_size=4))
             for _ in range(n)]
            + draw(st.lists(st.lists(corner, min_size=3, max_size=3).map(
                lambda c: ["f"] + c), max_size=6))
            + [line.split() for line in draw(st.lists(
                st.sampled_from(OTHER_LINES), max_size=4))])
    rows = draw(st.permutations(rows))
    grouped = False
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(
            ["short", "long", "word", "index", "grouped"]))
        # an index mutant goes into a face
        targets = [k for k, row in enumerate(rows)
                   if mutation != "index" or row[:1] == ["f"]]
        if not targets:
            continue
        k = draw(st.sampled_from(targets))
        row = list(rows[k])
        if mutation == "short":
            row = row[:draw(st.integers(1, 3))]
        elif mutation == "long":
            row += draw(st.lists(st.sampled_from(["1", "2", "0.5", "x"]),
                                 min_size=1, max_size=2))
        elif len(row) > 1:
            pool = {"word": WORDS, "index": INDICES + [str(n + 1)],
                    "grouped": GROUPED}
            row[draw(st.integers(1, len(row) - 1))] = draw(
                st.sampled_from(pool[mutation]))
            grouped |= mutation == "grouped"
        rows[k] = row
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        gap = draw(st.sampled_from(GAPS[:3] + [draw(st.sampled_from(GAPS))]))
        lead = draw(st.sampled_from(["", "", " ", "\t "]))
        tail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + gap.join(row) + tail)
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text, grouped


def _read(reader, path):
    """The arrays of a mesh as bytes under a uint64 view, or the error text."""
    try:
        mesh = reader(path)
    except MeshError as exc:
        return str(exc)
    return (mesh.vertices.shape, mesh.vertices.view(np.uint64).tobytes(),
            mesh.triangles.shape, mesh.triangles.tobytes())


# each writer with a reader, and for OBJ the loop reference
FORMATS = ((export_obj, import_obj, _import_obj_loop),
           (export_ply, ply_mesh, None))


class TestObjReaderAgainstTheLoop:
    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=obj_texts())
    def test_same_arrays_or_same_error(self, tmp_path, case):
        text, grouped = case
        path = tmp_path / "fuzz.obj"
        path.write_bytes(text.encode("utf-8"))
        got = _read(import_obj, str(path))
        expect = _read(_import_obj_loop, str(path))
        if grouped and got != expect:
            # the loop takes these tokens; the numpy grammar refuses them
            assert isinstance(got, str) and "uses digit grouping" in got, text
        else:
            assert got == expect, text

    @pytest.mark.parametrize("generator", ["tetra", "pentad", "pyramid"])
    def test_exported_meshes(self, request, tmp_path, generator):
        structure = (analyze_config(moved_pyramid(5, 3))
                     if generator == "pyramid"
                     else request.getfixturevalue(f"{generator}_structure"))
        bodies = [("reuleaux", None), ("meissner", None)] + [
            ("wedge", i) for i in range(len(structure.pairs))]
        path = tmp_path / "body"
        for refine in (2, 3, 17):
            for kind, index in bodies:
                mesh = build_body_mesh(structure, kind, refine,
                                       wedge_index=index)
                for export, reader, loop in FORMATS:
                    export(mesh, str(path))
                    got = _read(reader, str(path))
                    if loop is not None:
                        assert got == _read(loop, str(path))
                    assert got[1] == mesh.vertices.view(np.uint64).tobytes()
                    assert got[3] == mesh.triangles.tobytes()

    def test_import_holds_no_rows_as_python_objects(self, pentad_structure,
                                                    tmp_path):
        # the loop's lists of rows take about 9x the arrays they become
        mesh = build_body_mesh(pentad_structure, "meissner", 48)
        path = tmp_path / "body.obj"
        arrays = mesh.vertices.nbytes + mesh.triangles.nbytes
        export_obj(mesh, str(path))
        tracemalloc.start()
        try:
            import_obj(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * arrays, (peak, arrays)

