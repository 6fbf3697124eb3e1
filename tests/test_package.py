"""The public namespace: every exported name resolves, retired ones are gone."""

import pytest

import reuleaux
from reuleaux import geom, polyhedron


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
