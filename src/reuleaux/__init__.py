"""Reuleaux and Meissner polyhedra in R^3.

Builds the ball polyhedron of an extremal point set, extracts its circular
edges and dual edge pairs, evaluates closed-form volumes and surface areas
for the body and its Meissner smoothing, and cross-checks everything with
seeded Monte Carlo sampling and divergence-theorem integration over generated
boundary meshes.
"""

from .errors import (DegenerateInputError, DomainError, GeometryError,
                     MeshError, NotExtremalError, StructureError)
from .formulas import (AnglePair, BodyScalars, PairTerm,
                       blaschke_defect_term, blaschke_gap,
                       meissner_area_term, meissner_scalars,
                       reuleaux_area_term, reuleaux_scalars,
                       reuleaux_volume_term, sliver_area, sliver_flux,
                       spindle_area, spindle_flux, surface_meissner,
                       surface_reuleaux, volume_meissner, volume_reuleaux,
                       wedge_volume, wedge_volume_via_flux)
from .geom import ArcOnCircle, Circle3, Tolerances
from .mesh import (TriangleMesh, build_body_mesh, export_obj, export_ply,
                   inspect_mesh, mesh_area, mesh_volume)
from .oracle import (BodySpec, McConfig, McEstimate, UnitDraws,
                     body_from_structure, bounding_box, mc_volume, unit_draws)
from .polyhedron import (DualPair, EdgeArc, ExtremalityReport, PointConfig,
                         Structure, StructureReport, analyze_config,
                         angle_pairs, check_extremal, config_from_generator,
                         config_from_json_dict, extract_edges, pair_duals,
                         pentad_points, tetra_points)

__all__ = [
    # geometry primitives
    "ArcOnCircle", "Circle3", "Tolerances",
    # structure
    "DualPair", "EdgeArc", "ExtremalityReport", "PointConfig", "Structure",
    "StructureReport", "analyze_config", "angle_pairs", "check_extremal",
    "config_from_generator", "config_from_json_dict", "extract_edges",
    "pair_duals", "pentad_points", "tetra_points",
    # closed forms
    "AnglePair", "BodyScalars", "PairTerm", "blaschke_defect_term",
    "blaschke_gap", "meissner_area_term", "meissner_scalars",
    "reuleaux_area_term", "reuleaux_scalars", "reuleaux_volume_term",
    "sliver_area", "sliver_flux", "spindle_area", "spindle_flux",
    "surface_meissner", "surface_reuleaux", "volume_meissner",
    "volume_reuleaux", "wedge_volume", "wedge_volume_via_flux",
    # Monte Carlo oracle
    "BodySpec", "McConfig", "McEstimate", "UnitDraws", "body_from_structure",
    "bounding_box", "mc_volume", "unit_draws",
    # meshes
    "TriangleMesh", "build_body_mesh", "export_obj", "export_ply",
    "inspect_mesh", "mesh_area", "mesh_volume",
    # errors
    "DegenerateInputError", "DomainError", "GeometryError", "MeshError",
    "NotExtremalError", "StructureError",
]

__version__ = "0.1.0"
