"""The public namespace: every exported name resolves, retired ones are gone;
the runtime loads nothing beyond the standard library and numpy."""

import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import reuleaux
from reuleaux import formulas, geom, mesh, polyhedron


def resolve(module, dotted):
    """The object at ``module.<dotted name>``, or None where a part of the
    name is missing; rows name what they check as strings, so a retired
    name fails its own row and not the collection of this module."""
    owner = module
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
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
    (mesh, "MeshBuilder._all_coords")])
def test_retired_surface_is_gone(module, name):
    assert resolve(module, name) is None
    assert name.rpartition(".")[2] not in reuleaux.__all__


def test_dist_eps_is_the_only_tolerance_setting():
    assert [f.name for f in dataclasses.fields(geom.Tolerances)] == ["dist_eps"]
    tol = geom.Tolerances(dist_eps=1e-8)
    assert (tol.ang_eps, tol.match_eps) == (1e-7, 1e-7)
    with pytest.raises(TypeError):
        geom.Tolerances(match_eps=1e-6)


@pytest.mark.parametrize("module, name, params", [
    (geom, "_canonical", ["raw"]), (geom, "_meet", ["a", "b"]),
    (geom, "components", ["intervals"]),
    (geom, "trim_circle", ["circle", "centers"])])
def test_interval_layer_takes_no_slack_argument(module, name, params):
    # the one angular slack is Tolerances.ang_eps, read where it acts
    assert list(inspect.signature(resolve(module, name)).parameters) == params


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
