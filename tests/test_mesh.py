"""Tests for mesh generation, mesh metrics, and export round-trips."""

import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reuleaux.errors import MeshError
from reuleaux.geom import max_distance_to_arc_many
from reuleaux.formulas import (surface_meissner, surface_reuleaux,
                               volume_meissner, volume_reuleaux, wedge_volume)
import reuleaux.mesh
from reuleaux import cli
from reuleaux.mesh import (MeshBuilder, MeshStats, TriangleMesh, _stitch_rings,
                           build_body_mesh, export_obj, export_ply, import_obj,
                           inspect_mesh, mesh_area, mesh_volume)
from reuleaux.polyhedron import (PointConfig, analyze_config, angle_pairs,
                                 config_from_generator, pentad_points)

import golden
from golden import generic_sets, moved_pyramid, pentad_grown


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


def traced_peak(fn):
    """``fn()`` and the peak of the memory that tracemalloc traced during
    the call, above what it traced at the call's start; numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


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
        area = inspect_mesh(builder.build()).surface_area
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


def surface_residual(pts, pair, x):
    """Residual at the points x of the rotation-surface equation of the
    pair's spindle: about the axis through p' and q', the meridian is the
    unit circle around the kept circle's point, which lies cos(theta'/2)
    from the axis."""
    mid = 0.5 * (pts[pair.p_prime] + pts[pair.q_prime])
    v = pts[pair.p_prime] - pts[pair.q_prime]
    v = v / np.linalg.norm(v)
    w = np.atleast_2d(x) - mid
    axial = w @ v
    trans = np.linalg.norm(w - axial[:, None] * v, axis=1)
    return (trans + math.cos(pair.angles.theta_prime / 2.0)
            - np.sqrt(1.0 - axial ** 2))


class TestSpindleGeometry:
    """The spindle rows of built meshes, found by geometry alone: every
    vertex strictly inside all the balls of X is a spindle-interior one.
    The spindle's normal and area element are checked against the closed
    forms by the independent quadrature oracle (``oracles.py``)."""

    @pytest.mark.parametrize("shape", ["tetra", "pentad", "generic9",
                                       "mirrored"])
    def test_interior_rows_lie_on_spheres_around_the_kept_arc(self, shape):
        if shape == "generic9":
            cfg = generic_sets(9)[0]
        elif shape == "mirrored":
            cfg = PointConfig(points=config_from_generator("pentad").points
                              * [-1.0, 1.0, 1.0])
        else:
            cfg = config_from_generator(shape)
        structure = analyze_config(cfg)
        pts = structure.config.points
        n = 16
        bodies = [("meissner", None, structure.pairs)] + [
            ("wedge", i, [p]) for i, p in enumerate(structure.pairs)]
        for kind, index, pairs in bodies:
            v = build_body_mesh(structure, kind, n, wedge_index=index).vertices
            reach = np.linalg.norm(v[:, None] - pts[None], axis=2).max(axis=1)
            interior = reach < 1.0 - 1e-9
            owners = np.zeros(len(v), dtype=int)
            for pair in pairs:
                # the two spindles at the pentad's dangling vertex share
                # their surface, so the row spheres tell them apart
                centers = pair.kept.arc.sample_points(n)
                unit = np.abs(np.linalg.norm(
                    v[:, None] - centers[None], axis=2) - 1.0) < 1e-12
                on_surface = np.abs(surface_residual(pts, pair, v)) < 1e-12
                mine = interior & on_surface & unit.any(axis=1)
                owners += mine
                # each vertex on one row's sphere, each row of n - 1 vertices
                assert unit[mine].sum(axis=1).tolist() == [1] * (n - 1) ** 2
                assert unit[mine].sum(axis=0).tolist() == [n - 1] * (n - 1)
            assert np.array_equal(owners, interior), (kind, index)


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


@functools.lru_cache(maxsize=None)
def pentad_relabellings():
    return tuple(analyze_config(PointConfig(points=pentad_points()[list(p)]))
                 for p in itertools.permutations(range(5)))


class TestCapsStayInsideTheirFaces:
    """Each ring point of a face cap lies on a geodesic from the apex to the
    loop's geodesic polygon, so inside the face, which is spherically
    convex.  Hence every R and M vertex lies within 1 of every point of X,
    every M vertex within 1 of every kept arc, every triangle faces away
    from mean X (which lies inside both bodies), and the mesh, inscribed in
    its body, has less volume than the closed form."""

    CLOSED_FORMS = {"reuleaux": (volume_reuleaux, surface_reuleaux),
                    "meissner": (volume_meissner, surface_meissner)}

    def faults(self, structure, kind, refine):
        """The invariants the mesh breaks, each with its measure, and the
        mesh's area error."""
        pts = structure.config.points
        mesh = build_body_mesh(structure, kind, refine)
        v = mesh.vertices
        reach = np.linalg.norm(v[:, None] - pts, axis=2).max()
        if kind == "meissner":
            reach = max(reach, *(max_distance_to_arc_many(v, p.kept.arc).max()
                                 for p in structure.pairs))
        a, b, c = v[mesh.triangles].transpose(1, 0, 2)
        inward = int(np.count_nonzero(np.einsum(
            "ij,ij->i", np.cross(b - a, c - a),
            (a + b + c) / 3.0 - pts.mean(axis=0)) <= 0.0))
        volume, area = (form(angle_pairs(structure))
                        for form in self.CLOSED_FORMS[kind])
        excess = mesh.stats.volume - volume
        checks = {"outside by": (reach - 1.0, reach <= 1.0 + 1e-12),
                  "inward triangles": (inward, inward == 0),
                  "volume excess": (excess, excess < 0.0)}
        return ({name: x for name, (x, ok) in checks.items() if not ok},
                mesh.stats.surface_area - area)

    @pytest.mark.parametrize("refine", [16, 32])
    def test_pentad_relabellings(self, refine):
        # the area errors are negative too; a grown set may overshoot its
        # area without a fold (R, edge 1 at f = 0.5, refine 16: +2.9e-4)
        for i, structure in enumerate(pentad_relabellings()):
            for kind in self.CLOSED_FORMS:
                faults, area_error = self.faults(structure, kind, refine)
                assert not faults, (i, kind, faults)
                assert area_error < 0.0, (i, kind, area_error)

    @pytest.mark.parametrize("refine", [16, 32, 64, 128])
    def test_pentad(self, pentad_structure, refine):
        for kind in self.CLOSED_FORMS:
            faults = self.faults(pentad_structure, kind, refine)[0]
            assert not faults, (kind, faults)

    @pytest.mark.parametrize("refine", [16, 32])
    @pytest.mark.parametrize("f", [0.25, 0.5])
    def test_pentad_grown_on_each_edge(self, f, refine):
        for edge, pts in enumerate(pentad_grown(f)):
            structure = analyze_config(PointConfig(points=pts))
            for kind in self.CLOSED_FORMS:
                faults = self.faults(structure, kind, refine)[0]
                assert not faults, (edge, kind, faults)


# numpy's reason for a row with other than a tag and three numbers
_COLUMNS = "the dtype passed requires 4 columns but {} were found"
_TETRA_VERTICES = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
_SQUARE_PYRAMID_VERTICES = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"


class TestWedgeBytes:
    @pytest.mark.parametrize("generator", ["tetra", "pentad"])
    def test_wedge_obj_bytes_are_pinned(self, generator):
        """Every wedge OBJ at refine 16 keeps its recorded bytes."""
        golden.check(golden.MESH, "wedge_obj", generator)


class TestCapBytes:
    """The bodies with face caps keep their recorded bytes."""

    @pytest.mark.parametrize("kind", ["reuleaux", "meissner"])
    @pytest.mark.parametrize("generator", ["tetra", "pentad"])
    def test_obj_bytes_are_pinned(self, generator, kind):
        golden.check(golden.MESH, "cap_obj", generator, kind)

    @pytest.mark.parametrize("kind", ["reuleaux", "meissner"])
    def test_arrays_across_point_blocks_are_pinned(self, kind):
        golden.check(golden.MESH, "cap_arrays", kind)


class TestBlockSeamBytes:
    @pytest.mark.parametrize("export", [export_obj, export_ply])
    def test_bytes_across_block_seams_are_pinned(self, export):
        """The rows on both sides of every writer block seam, and the part
        blocks at the ends, keep their bytes."""
        golden.check(golden.MESH, "block_seams",
                     export.__name__.removeprefix("export_"))


PLACEMENT_KEYS = golden.CORPORA[golden.MESH, "placement"][0]


class TestOnePassMeshes:
    """One-pass caps and column integrals: every body keeps the bytes and
    closure statistics that the per-ring cap build gave, as the placement
    corpus records them, and its volume, area and smallest triangle equal
    the np.cross / norm / einsum integrals, bit for bit."""

    @pytest.mark.parametrize("generator, refine", [
        key for key in PLACEMENT_KEYS
        if key[0] in ("tetra", "pentad", "pyramid5", "generic9")])
    def test_meshes_match_the_per_ring_build(self, generator, refine):
        golden.check(golden.MESH, "placement", generator, refine)
        for mesh in golden.placement_meshes(generator, refine):
            areas = _areas_reference(mesh)
            assert mesh.stats.min_triangle_area == float(areas.min())
            assert mesh_volume(mesh).hex() == _volume_reference(mesh).hex()
            assert mesh_area(mesh).hex() == float(areas.sum()).hex()


class TestColumnPlacement:
    """The column-form placement, written into the pool block by block,
    keeps the bytes of the row form, computed whole and then copied in, as
    the placement corpus records them."""

    @pytest.mark.parametrize("name, refine", [
        key for key in PLACEMENT_KEYS if key[1] in (2, 3, 16, 33)]
        + [("tetra", 128), ("pentad", 128)])
    def test_meshes_match_the_row_form(self, name, refine):
        golden.check(golden.MESH, "placement", name, refine)


class TestBoundedMemory:
    @pytest.mark.parametrize("export", [export_obj, export_ply])
    def test_writer_peak_does_not_grow_with_the_mesh(
            self, tetra_structure, tmp_path, export):
        # whole-file formatting peaked at 1.5 MB at refine 24 and 6.3 MB at
        # refine 48; a block of rows is 1.2 to 1.6 MB at both
        path = str(tmp_path / "body")
        meshes = [build_body_mesh(tetra_structure, "meissner", refine)
                  for refine in (24, 48)]
        # 10,224 and 41,184 triangles: more than one block in both
        assert meshes[0].n_triangles > reuleaux.mesh._BLOCK_ROWS
        peaks = [traced_peak(lambda: export(mesh, path))[1] for mesh in meshes]
        assert peaks[1] <= peaks[0] + 0.5e6, peaks

    def test_build_holds_little_beside_its_mesh(self, pentad_structure):
        # building and checking pentad Meissner at refine 64 peaked at 3.8x
        # the mesh's arrays with whole-mesh temporaries; now about 1.9x
        mesh, peak = traced_peak(
            lambda: build_body_mesh(pentad_structure, "meissner", 64))
        arrays = mesh.vertices.nbytes + mesh.triangles.nbytes
        assert peak < 2.2 * arrays, (peak, arrays)
        # the point array is the builder's own, shrunk to its rows
        assert mesh.vertices.base is None and mesh.vertices.flags.owndata


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
        ("f 0 2 3", 0), ("f 1 -1 3", -1), ("f 2 3 9", 9), ("f 1 2 2.5", 2.5),
        ("f 1 nan 3", math.nan), ("f -inf 2 3", -math.inf)])
    def test_obj_face_index_out_of_range(self, tmp_path, face, index):
        path = tmp_path / "bad.obj"
        path.write_text("# tetrahedron\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                        f"f 1 3 2\n\n{face}\n")
        # the first face, f 1 3 2, is good
        with pytest.raises(MeshError, match=r"bad\.obj: face indices must be "
                                            r"whole numbers in 1\.\.4, got "
                                            rf"{re.escape(str(float(index)))}$"):
            import_obj(str(path))

    @pytest.mark.parametrize("text, reason", [
        # numpy's text reader skips a blank row; a bare tag is no blank row
        pytest.param("v 0 0 0\nv\nv 0 1 0\nf 1 2 3\n", _COLUMNS.format(1),
                     id="bare-v"),
        pytest.param("v 0 0 0\nv 1 0 0\nv 0 1 0\n  v  \nf 1 2 3\n",
                     _COLUMNS.format(1), id="bare-v-between-blanks"),
        pytest.param("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf\n",
                     _COLUMNS.format(1), id="bare-f"),
        pytest.param("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf",
                     _COLUMNS.format(1), id="bare-f-at-end"),
        pytest.param("# short vertex\nv 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
                     _COLUMNS.format(3), id="one-vertex-with-two-coordinates"),
        # every vertex short, 6 numbers: they must not regroup as two vertices
        pytest.param("# short vertex\nv 0 0\nv 1 0\nv 0 1\nf 1 2 3\n",
                     _COLUMNS.format(3), id="every-vertex-with-two-coordinates"),
        pytest.param("v 0 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
                     _COLUMNS.format(5), id="a-fourth-vertex-number"),
        pytest.param(_TETRA_VERTICES + "f 1 3 2\nf 1 2\n", _COLUMNS.format(3),
                     id="one-face-with-two-indices"),
        pytest.param(_TETRA_VERTICES + "f 1 2\nf 2 3\nf 3 4\n",
                     _COLUMNS.format(3), id="every-face-with-two-indices"),
        # a square pyramid whose base is one quad, then a pentagon
        pytest.param(_SQUARE_PYRAMID_VERTICES + "f 1 3 2\nf 1 4 3 2\n",
                     _COLUMNS.format(5), id="one-quad"),
        pytest.param(_SQUARE_PYRAMID_VERTICES + "f 1 2 3 4 5\n",
                     _COLUMNS.format(6), id="every-face-a-pentagon"),
        # export_obj writes no corner slashes and no other records
        pytest.param("v 0.5 -0 1e-320\nf 1 1/2/3 1//3\n",
                     "could not convert string '1/2/3' to float64",
                     id="slash-corners"),
        pytest.param(_TETRA_VERTICES + "vn 0 0 1\nf 1 2 3\n",
                     r"only v and f records are read, got \['vn'\]$",
                     id="normal-record"),
        pytest.param("o body\n" + _TETRA_VERTICES, _COLUMNS.format(2),
                     id="object-record"),
        pytest.param(_TETRA_VERTICES + "vt 0.5 0.5\n", _COLUMNS.format(3),
                     id="texture-record"),
        pytest.param(b"v 0 0 0\nv 1 0 \xe9\n", "'utf-8' codec",
                     id="not-utf-8")])
    def test_obj_refused(self, tmp_path, text, reason):
        path = tmp_path / "bad.obj"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MeshError, match=f"^OBJ file {re.escape(str(path))}"
                                            f": {reason}"):
            import_obj(str(path))

    def test_obj_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "word.obj"
        path.write_text("# a word for a number\nv 0 0 0\n\nv 1 x 0\n"
                        "v 0 1 0\nf 1 2 3\n")
        with pytest.raises(MeshError, match=r"word\.obj: could not convert "
                                            "string 'x' to float64"):
            import_obj(str(path))

    def test_obj_non_numeric_face_index(self, tmp_path):
        path = tmp_path / "word.obj"
        path.write_text(_TETRA_VERTICES + "f 1 3 2\n"
                        "# a word for an index\nf 1 2 a\n")
        with pytest.raises(MeshError, match=r"word\.obj: could not convert "
                                            "string 'a' to float64"):
            import_obj(str(path))

    def test_obj_face_index_beyond_int64(self, tmp_path):
        path = tmp_path / "huge.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
        with pytest.raises(MeshError, match=r"huge\.obj: face indices must be "
                                            r"whole numbers in 1\.\.3, got "
                                            r"1e\+20$"):
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

    def test_obj_vertices_without_faces(self, tmp_path):
        # no faces, and a file of nothing: no numpy warning, which would be an
        # error here
        path = tmp_path / "cloud.obj"
        path.write_text("# points only\nv 0 0 0\nv 1 0 0\n")
        mesh = import_obj(str(path))
        assert mesh.vertices.shape == (2, 3)
        assert mesh.triangles.shape == (0, 3)
        assert mesh.triangles.dtype == np.int64
        path.write_text("")
        mesh = import_obj(str(path))
        assert mesh.vertices.shape == mesh.triangles.shape == (0, 3)

    def test_obj_one_vertex_and_one_face(self, tmp_path):
        # face indices are read as floats: 1.0 and 1e0 are the index 1
        path = tmp_path / "one.obj"
        path.write_text("v 0.5 -0 1e-320\nf 1 1.0 1e0\n")
        mesh = import_obj(str(path))
        assert mesh.vertices.shape == (1, 3)
        assert mesh.vertices.tobytes() == np.array([[0.5, -0.0, 1e-320]]).tobytes()
        assert mesh.triangles.tolist() == [[0, 0, 0]]

    def test_obj_face_index_one_past_the_last(self, tmp_path):
        path = tmp_path / "past.obj"
        path.write_text(_TETRA_VERTICES + "f 1 3 2\nf 1 2 5\n")
        with pytest.raises(MeshError, match=r"past\.obj: face indices must be "
                                            r"whole numbers in 1\.\.4, got "
                                            r"5\.0$"):
            import_obj(str(path))

    def test_obj_face_corner_without_vertex_index(self, tmp_path):
        # "/4" has no vertex index; it must not vanish from a quad
        path = tmp_path / "corner.obj"
        path.write_text(_TETRA_VERTICES + "f 1 2 3 /4\n")
        with pytest.raises(MeshError, match=r"corner\.obj: "
                                            + _COLUMNS.format(5)):
            import_obj(str(path))

    @pytest.mark.parametrize("line, lineno", [
        pytest.param(line, lineno, id=f"{line}-{lineno}-{what}")
        for line, lineno, what in [
            ("v 1_0 0 0", 2, "vertex coordinate"),
            ("v 0 \u0661 0", 2, "vertex coordinate"),
            ("v 0 0 \uff11", 2, "vertex coordinate"),
            ("f 1 2 3_0", 5, "face index"),
            ("f 1 \u0662 3", 5, "face index"),
            ("f 1 2/1 3\u0663/1", 5, "face index")]])
    def test_obj_grouped_or_non_ascii_number(self, tmp_path, line, lineno):
        # Python's float takes these tokens, slashes aside; numpy's reader
        # does not
        lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3"]
        lines.insert(lineno - 1, line)
        path = tmp_path / "grouped.obj"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MeshError, match=r"grouped\.obj: could not convert "
                                            "string '(.*)' to float64") as exc:
            import_obj(str(path))
        token = re.search("string '(.*)' to", str(exc.value)).group(1)
        assert token in line.split()[1:]


# ---------------------------------------------------------------------------
# Loop, np.unique and np.cross/norm/einsum versions kept as references for
# the vectorized kernels, and the line-by-line OBJ reader as the reference
# for the numpy one

def _import_obj_loop(path):
    """import_obj with str.split and Python's float on lists of rows."""
    rows = {"v": [], "f": []}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.partition("#")[0].split()
            if not parts:
                continue
            if parts[0] not in rows or len(parts) != 4:
                raise MeshError("not a v or f row of three numbers")
            try:
                rows[parts[0]].append([float(p) for p in parts[1:]])
            except ValueError:
                raise MeshError("not a number") from None
    verts, tris = rows["v"], rows["f"]
    if not all(i.is_integer() and 1 <= i <= len(verts)
               for face in tris for i in face):
        raise MeshError("a face index is not a whole number in 1..vertex count")
    return TriangleMesh(
        vertices=np.array(verts, dtype=float).reshape(-1, 3),
        triangles=np.array(tris, dtype=np.int64).reshape(-1, 3) - 1)


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
        surface_area=float(areas.sum()),
        volume=_volume_reference(mesh),
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
            TriangleMesh(vertices=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64)),
        ]
        # ids -1 and n are refused before any check could count them
        for shifted in (t - 1, t + 1):
            with pytest.raises(MeshError, match=r"^vertex ids must lie in "
                                                rf"0\.\.{len(v) - 1}, got "):
                TriangleMesh(vertices=v, triangles=shifted)
        # the edges of the blocked area and volume pass: one triangle, a
        # block less one, one block, one more, and built meshes of several
        # whole blocks and of several blocks plus a remainder
        block = reuleaux.mesh._BLOCK_ROWS
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
            for name in ("min_triangle_area", "surface_area", "volume"):
                assert (getattr(got, name).hex()
                        == getattr(want, name).hex()), (name, mesh.n_triangles)
        assert not inspect_mesh(holed).watertight
        assert not inspect_mesh(misoriented).oriented
        assert not inspect_mesh(lowest_twice).oriented
        assert not inspect_mesh(tripled).watertight


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

    def test_imported_and_hand_built_meshes_are_checked_once(
            self, checks, tetra_structure, tmp_path):
        path = tmp_path / "body.obj"
        built = build_body_mesh(tetra_structure, "meissner", 8)
        export_obj(built, str(path))
        hand_built = TriangleMesh(built.vertices.tolist(),
                                  built.triangles.tolist())
        for mesh in (import_obj(str(path)), hand_built):
            checks.clear()
            assert mesh_volume(mesh) == mesh_volume(built)
            assert mesh_area(mesh) == mesh_area(built)
            assert mesh.stats == built.stats
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
        assert mesh_volume(mesh) == mesh.stats.volume
        assert mesh_area(mesh) == mesh.stats.surface_area
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
        cut = replace(mesh, triangles=mesh.triangles[:-1])
        assert cut.stats == inspect_mesh(cut)
        assert not cut.stats.watertight

    def test_hand_built_mesh_is_frozen_apart_from_the_callers_arrays(self):
        vertices, triangles = np.eye(3), np.array([[0, 1, 2]])
        mesh = TriangleMesh(vertices, triangles)
        before = inspect_mesh(mesh)
        with pytest.raises(ValueError):
            mesh.triangles[0, 2] = 5
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 2.0
        assert vertices.flags.writeable and triangles.flags.writeable
        triangles[0, 2] = 5
        vertices[0, 0] = 2.0
        assert mesh.triangles.tolist() == [[0, 1, 2]]
        assert mesh.vertices.tolist() == np.eye(3).tolist()
        after = inspect_mesh(mesh)
        assert after == before
        assert (after.surface_area, after.volume) == (
            before.surface_area, before.volume)

    def test_only_a_writable_input_is_copied(self):
        vertices, triangles = np.eye(3), np.array([[0, 1, 2]], dtype=np.int64)
        mesh = TriangleMesh(vertices, triangles)
        assert not np.shares_memory(mesh.vertices, vertices)
        assert not np.shares_memory(mesh.triangles, triangles)
        vertices.flags.writeable = triangles.flags.writeable = False
        mesh = TriangleMesh(vertices, triangles)
        assert np.shares_memory(mesh.vertices, vertices)
        assert np.shares_memory(mesh.triangles, triangles)

    @pytest.mark.parametrize("name, shape", [
        ("vertices", (3, 4)), ("vertices", (4, 4)), ("triangles", (3,))])
    def test_arrays_not_k_by_3_are_refused(self, name, shape):
        # no reshape regroups them: (3, 4) is not four vertices
        arrays = dict(vertices=np.zeros((3, 3)), triangles=[[0, 1, 2]])
        arrays[name] = np.zeros(shape, dtype=np.int64)
        with pytest.raises(MeshError, match=rf"^{name} must have shape "
                                            rf"\(k, 3\), got {re.escape(str(shape))}$"):
            TriangleMesh(**arrays)

    def test_imported_mesh_is_read_only(self, tetra_structure, tmp_path):
        path = tmp_path / "body.obj"
        export_obj(build_body_mesh(tetra_structure, "reuleaux", 8), str(path))
        mesh = import_obj(str(path))
        assert not (mesh.vertices.flags.writeable
                    or mesh.triangles.flags.writeable)


# OBJ texts for the differential test of import_obj against the loop
COORDS = st.one_of(st.floats(width=64).map(repr), st.sampled_from(
    ["0", "-0", "+3", "nan", "-nan", "inf", "-Infinity", "1e-320",
     "4.9e-324", ".5", "1.", "1E5", "1e400"]))
# spellings of a face index, all of which both readers take
CORNER_FORMS = ["{}", "{}", "{}.0", "{}e0", "+{}", "0{}"]
SKIPPED_LINES = ["#", "# v 1 2 3", "", "#v 1"]
# records and corners that export_obj does not write
OTHER_RECORDS = ["vn 0 0 1", "vt 0.5 0.5", "o body", "g part", "s off",
                 "usemtl m", "vx 1 2 3", "fo 1 2 3", "v#", "f#",
                 "f 1/1 2/2 3/3", "f 1//2 1 1", "f", "v"]
WORDS = ["x", "1.5.2", "--1", "1/2", "0x10", "nan(1)", "1e", "/", "/3",
         "1/2/3", "1//3"]
INDICES = ["0", "-1", "-3", "99", "+1", "01", "9223372036854775807",
           "99999999999999999999", "-99999999999999999999", "1.5", "nan",
           "inf", "-0", "1.0", "1e0"]
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
    rows = ([["v"] + draw(st.lists(COORDS, min_size=3, max_size=3))
             for _ in range(n)]
            + draw(st.lists(st.lists(corner, min_size=3, max_size=3).map(
                lambda c: ["f"] + c), max_size=6))
            + [line.split() for line in draw(st.lists(
                st.sampled_from(SKIPPED_LINES), max_size=4))])
    rows = draw(st.permutations(rows))
    grouped = False
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(
            ["short", "long", "word", "index", "grouped", "record"]))
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
        elif mutation == "record":
            row = draw(st.sampled_from(OTHER_RECORDS)).split()
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
        tail = draw(st.sampled_from(["", "", " ", "\t", " # v 1", "#f"]))
        lines.append(lead + gap.join(row) + tail)
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text, grouped


REFUSED = "refused"


def _read(reader, path):
    """The arrays of a mesh as bytes under a uint64 view, or REFUSED."""
    try:
        mesh = reader(path)
    except MeshError:
        return REFUSED
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
            assert got == REFUSED, text
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
        peak = traced_peak(lambda: import_obj(str(path)))[1]
        assert peak < 3 * arrays, (peak, arrays)

