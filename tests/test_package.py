"""The public namespace: every exported name resolves, retired ones are gone;
the runtime loads nothing beyond the standard library and numpy."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import reuleaux
from reuleaux import cli, formulas, geom, mesh, oracle, polyhedron

import golden


def resolve(module, dotted):
    """The object at ``module.<dotted name>``, or None where a part of the
    name is missing; rows name what they check as strings, so a retired
    name fails its own row and not the collection of this module."""
    owner = module
    for part in dotted.split("."):
        # a record's field has no class attribute unless it has a default
        fields = getattr(owner, "__dataclass_fields__", {})
        owner = fields[part] if part in fields else getattr(owner, part, None)
    return owner


def test_every_exported_name_resolves():
    assert [n for n in reuleaux.__all__ if not hasattr(reuleaux, n)] == []
    assert len(set(reuleaux.__all__)) == len(reuleaux.__all__)


@pytest.mark.parametrize("module, name", [
    (geom, "max_distance_to_arc"), (geom, "intersect_interval_sets"),
    (polyhedron, "diameter_graph"), (polyhedron, "DiameterGraph"),
    (mesh, "import_ply"), (geom, "ball_constraint_interval"),
    (geom, "ball_constraint_intervals"), (geom, "AngularIntervalSet")])
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(reuleaux, name)
    assert name not in reuleaux.__all__


@pytest.mark.parametrize("module, name", [
    (formulas, "_CLAMP"), (formulas, "_asin"), (formulas, "_sqrt"),
    (polyhedron, "load_config"), (mesh, "MeshBuilder.strip"),
    (geom, "AngularIntervalSet.measure"), (mesh, "_refuse_ply"),
    (mesh, "_ply_header"), (mesh, "_ply_block"), (mesh, "_ply_count"),
    (mesh, "_text_block"), (mesh, "_face_loops"),
    (polyhedron, "_match_vertex"), (polyhedron, "_free_arc_bound"),
    (polyhedron, "_BLOCK"), (mesh, "triangle_areas"), (mesh, "_corners"),
    (mesh, "MeshBuilder._all_coords"), (polyhedron, "check_wedge_index"),
    (oracle, "BODY_KINDS"), (cli, "_label"), (mesh, "SpindleFrame"),
    (mesh, "_chord_angle"), (geom, "ArcOnCircle.sample_angles"),
    (mesh, "_number"), (mesh, "_obj_records"), (mesh, "_refuse_obj"),
    (cli, "_mesh_block"), (mesh, "_obj_rows"), (mesh, "_obj_block"),
    (polyhedron, "ExtremalityReport.to_dict"),
    (polyhedron, "StructureReport.to_dict"), (formulas, "BodyScalars.to_dict"),
    (oracle, "McEstimate.to_dict"), (polyhedron, "StructureReport.face_counts"),
    (mesh, "MeshStats.total_area"), (mesh, "MeshStats.total_volume"),
    (geom, "FULL"), (geom, "_canonical"), (geom, "_arc"), (geom, "_meet"),
    (geom, "components"), (geom, "trim_circle"), (geom, "trim_circles"),
    (geom, "_NEARLY_FULL"), (geom, "Tolerances.ang_eps"),
    (geom, "Tolerances.match_eps"), (geom, "Tolerances.on_axis"),
    (polyhedron, "_candidate_pairs"), (polyhedron, "_split_at_vertices"),
    (polyhedron, "_match_vertices"), (geom, "reference_direction"),
    (geom, "_unit"), (polyhedron, "_chord_angle"),
    (geom, "circle_of_sphere_pair"), (geom, "Circle3.angle_of"),
    (geom, "as_point"), (oracle, "_pooled")])
def test_retired_surface_is_gone(module, name):
    assert resolve(module, name) is None
    assert name.rpartition(".")[2] not in reuleaux.__all__


def test_obj_reader_is_not_exported():
    # kept in reuleaux.mesh for round-trip checks only
    assert hasattr(mesh, "import_obj")
    assert not hasattr(reuleaux, "import_obj")
    assert "import_obj" not in reuleaux.__all__


def test_mesh_builder_is_not_exported():
    # kept in reuleaux.mesh for the body mesher and the tests only
    assert hasattr(mesh, "MeshBuilder")
    assert not hasattr(reuleaux, "MeshBuilder")
    assert "MeshBuilder" not in reuleaux.__all__


def perfbench_patches():
    """The (module, name) rows of the ``PATCHES`` dict in
    ``perfbench/layers.py``, read with ``ast`` so that the benchmark is not
    imported; a module is named by the ``from reuleaux import`` alias the
    file gives it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "layers.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name: alias.name
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "reuleaux" for alias in node.names}
    (patches,) = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["PATCHES"]]
    return [(modules[key.id], name)
            for key, names in zip(patches.keys, patches.values)
            for name in ast.literal_eval(names)]


def test_benchmark_patches_name_existing_functions():
    # the traced benchmark run wraps each of these; a rename must fail here
    rows = perfbench_patches()
    assert len(rows) > 20
    missing = [(module, name) for module, name in rows
               if not callable(getattr(importlib.import_module(
                   f"reuleaux.{module}"), name, None))]
    assert missing == []


def test_mesh_fields_are_its_two_arrays():
    # the closure stats are computed by the mesh itself, not set on it
    assert [f.name for f in dataclasses.fields(mesh.TriangleMesh)] == [
        "vertices", "triangles"]


def test_only_slerp_calls_sin():
    # every cap ring, spindle row and geodesic point is placed by the one
    # slerp, mesh._slerp; a second copy could drift from it bit by bit
    tree = ast.parse(inspect.getsource(mesh))

    def sines(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and n.attr == "sin" and ast.unparse(n.value) in ("np", "numpy")]
    users = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and sines(node)}
    assert users == {"_slerp"}
    (slerp,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_slerp"]
    # none outside a function either
    assert len(sines(tree)) == len(sines(slerp)) > 0


def test_pinned_digests_live_in_golden():
    # no test file holds a sha256, and the files under tests/golden/ hold
    # exactly the corpora and keys that golden.py computes
    tests = pathlib.Path(__file__).parent
    assert [path.name for path in tests.glob("*.py")
            if re.search(r"[0-9a-fA-F]{64}", path.read_text())] == []
    committed = {}
    for path in (tests / "golden").glob("*.json"):
        for name, digests in json.loads(path.read_text())["sha256"].items():
            committed[path.name, name] = list(digests)
    assert committed == {file_corpus: list(map(golden.label, keys))
                         for file_corpus, (keys, _) in golden.CORPORA.items()}


def test_dist_eps_is_the_only_tolerance_setting():
    assert [f.name for f in dataclasses.fields(geom.Tolerances)] == ["dist_eps"]
    # theta_max is the one other entry, a constant
    assert [name for name in vars(geom.Tolerances)
            if not name.startswith("_")] == ["dist_eps", "theta_max"]
    with pytest.raises(TypeError):
        geom.Tolerances(match_eps=1e-6)


def test_circle_derives_v_ref():
    unit = dict(center=(0, 0, 0), radius=1.0, axis=(0, 0, 1), u_ref=(1, 0, 0))
    assert geom.Circle3(**unit).v_ref.tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(TypeError):
        geom.Circle3(**unit, v_ref=np.array([5.0, 5.0, 5.0]))


RUNTIME_SCRIPT = """
import sys
from reuleaux import cli
from reuleaux.mesh import import_obj
assert cli.main(["mesh", "generator:tetra", "--refine", "8",
                 "--out", "x.obj", "--json", "x.json"]) == 0
assert import_obj("x.obj").n_triangles > 0
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_runtime_is_numpy_only(tmp_path):
    # -S keeps site-packages and its .pth imports out; the path holds the
    # package and numpy's install directory, so any other import would load
    # from there and show up below
    path = [os.path.dirname(os.path.dirname(reuleaux.__file__)),
            os.path.dirname(os.path.dirname(np.__file__))]
    done = subprocess.run(
        [sys.executable, "-S", "-c", RUNTIME_SCRIPT], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120, check=True)
    loaded = done.stdout.split()
    assert {"numpy", "reuleaux"} <= set(loaded)
    assert [name for name in loaded if name not in sys.stdlib_module_names
            and name not in ("__main__", "numpy", "reuleaux")] == []
