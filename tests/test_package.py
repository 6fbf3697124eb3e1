"""The public namespace: every exported name resolves, retired ones are gone."""

import dataclasses

import pytest

import reuleaux
from reuleaux import formulas, geom, mesh, polyhedron


def test_every_exported_name_resolves():
    assert [n for n in reuleaux.__all__ if not hasattr(reuleaux, n)] == []
    assert len(set(reuleaux.__all__)) == len(reuleaux.__all__)


@pytest.mark.parametrize("module, name", [
    (geom, "max_distance_to_arc"), (geom, "intersect_interval_sets"),
    (polyhedron, "diameter_graph"), (polyhedron, "DiameterGraph")])
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(reuleaux, name)
    assert name not in reuleaux.__all__


@pytest.mark.parametrize("owner, name", [
    (formulas, "_CLAMP"), (formulas, "_asin"), (formulas, "_sqrt"),
    (polyhedron, "load_config"), (mesh.MeshBuilder, "strip"),
    (geom.AngularIntervalSet, "measure")])
def test_retired_surface_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in reuleaux.__all__


def test_dist_eps_is_the_only_tolerance_setting():
    assert [f.name for f in dataclasses.fields(geom.Tolerances)] == ["dist_eps"]
    tol = geom.Tolerances(dist_eps=1e-8)
    assert (tol.ang_eps, tol.match_eps) == (1e-7, 1e-7)
    with pytest.raises(TypeError):
        geom.Tolerances(match_eps=1e-6)
