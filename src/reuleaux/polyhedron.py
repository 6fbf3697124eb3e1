"""Structure of the ball polyhedron B(X) of an extremal point set X.

B(X) is the intersection of closed unit balls centered at the points of X.
For extremal X (diameter 1 attained by the maximum 2|X|-2 point pairs) its
vertices coincide with X, it has one spherical face per point, and its edges
are circular arcs that come in |X|-1 dual pairs: the supporting center pair
of each edge equals the endpoint pair of its partner and vice versa.

This module validates extremality, extracts the edge arcs by angular-interval
arithmetic on the support circles, matches dual pairs, and classifies
vertices.  Every edge arc of a dual pair is kept on one side and removed on
the other when the associated Meissner body is formed; the canonical
orientation chosen here (lexicographically smaller support keeps its arc) is
what the oracle and mesh modules consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotExtremalError, StructureError
from .formulas import AnglePair
from .geom import (TWO_PI, AngularIntervalSet, ArcOnCircle, Tolerances,
                   ball_constraint_interval, circle_of_sphere_pair)


@dataclass(frozen=True)
class PointConfig:
    """A finite labeled point set X in R^3 with its tolerance policy.

    ``dist`` is the read-only matrix of pairwise distances, the one source of
    every pair distance the structure checks compare against 1.
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None
    tol: Tolerances = field(default_factory=Tolerances)
    dist: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 4:
            raise ValueError("at least 4 points are required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if dist[np.triu_indices(pts.shape[0], k=1)].min() <= self.tol.dist_eps:
            raise ValueError("points must be pairwise distinct")
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise ValueError("labels must match the number of points")
        for name, arr in (("points", pts), ("dist", dist)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ExtremalityReport:
    diameter: float
    diametric_pair_count: int
    is_extremal: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "diameter": self.diameter,
            "diametric_pair_count": self.diametric_pair_count,
            "is_extremal": self.is_extremal,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class EdgeArc:
    """One edge of B(X): a circular arc on the circle of its support pair.

    ``support`` indexes the two centers whose sphere intersection carries the
    arc; ``endpoints`` indexes the vertices at the arc's start and end angle.
    """

    support: tuple[int, int]
    endpoints: tuple[int, int]
    arc: ArcOnCircle
    index: int = -1

    @property
    def endpoint_set(self) -> tuple[int, int]:
        return tuple(sorted(self.endpoints))


@dataclass(frozen=True)
class DualPair:
    """A matched dual edge pair with its angle data.

    ``kept`` is the arc retained by the canonical Meissner surgery, ``removed``
    the arc it replaces.  ``angles.theta`` is the geodesic length between the
    kept arc's endpoints, ``angles.theta_prime`` the one between the removed
    arc's endpoints; ``angles.phi``/``angles.phi_prime`` are the matching
    dihedral angles.  The oriented endpoint indices (p, q) of the kept arc and
    (p_prime, q_prime) of the removed arc satisfy the right-handedness
    convention ``(P' - mid) x (Q' - mid) . (P - Q) > 0`` with mid the kept
    chord midpoint, which fixes the rotation sense used by the spindle
    parametrization.
    """

    kept: EdgeArc
    removed: EdgeArc
    angles: AnglePair
    p: int
    q: int
    p_prime: int
    q_prime: int


@dataclass(frozen=True)
class StructureReport:
    vertex_classes: tuple[str, ...]
    face_counts: tuple[int, ...]
    edge_count: int
    face_count: int
    dual_pair_count: int
    euler_characteristic: int

    def to_dict(self) -> dict:
        return {
            "vertex_classes": list(self.vertex_classes),
            "faces_per_vertex": list(self.face_counts),
            "edge_count": self.edge_count,
            "face_count": self.face_count,
            "dual_pair_count": self.dual_pair_count,
            "euler_characteristic": self.euler_characteristic,
        }


@dataclass(frozen=True)
class Structure:
    """Validated structure of B(X): edges, dual pairs, and the report."""

    config: PointConfig
    extremality: ExtremalityReport
    edges: tuple[EdgeArc, ...]
    pairs: tuple[DualPair, ...]
    report: StructureReport


def check_extremal(cfg: PointConfig) -> ExtremalityReport:
    """Diameter-1 check plus the 2n-2 diametric pair count."""
    eps = cfg.tol.dist_eps
    n = cfg.n
    iu = np.triu_indices(n, k=1)
    dist = cfg.dist[iu]
    diameter = float(dist.max())
    violations = [f"pair ({i}, {j}) at distance {d:.12g} exceeds 1"
                  for i, j, d in zip(*iu, dist) if d > 1.0 + eps]
    count = int(np.count_nonzero(np.abs(dist - 1.0) <= eps))
    if abs(diameter - 1.0) > eps:
        violations.append(f"diameter {diameter:.12g} is not 1")
    if count != 2 * n - 2:
        violations.append(
            f"diametric pair count {count} differs from 2n-2 = {2 * n - 2}")
    return ExtremalityReport(
        diameter=diameter,
        diametric_pair_count=count,
        is_extremal=not violations,
        violations=tuple(violations),
    )


def _match_vertex(cfg: PointConfig, p: np.ndarray) -> int:
    """Nearest point of X within match_eps; lowest index on ties."""
    d = np.linalg.norm(cfg.points - p, axis=1)
    i = int(np.argmin(d))
    if d[i] > cfg.tol.match_eps:
        raise StructureError(
            f"arc endpoint {p} matches no vertex (nearest at distance {d[i]:.3g})")
    return i


def extract_edges(cfg: PointConfig) -> tuple[EdgeArc, ...]:
    """Edge arcs of B(X), one per connected boundary component.

    For each candidate support pair the circle of its sphere intersection is
    trimmed against every other ball, then split where a point of X lies on
    the circle interior to the surviving set (a dangling vertex cuts the arc
    in two).  Components shorter than ang_eps are tangency noise and dropped.
    """
    pts = cfg.points
    tol = cfg.tol
    on_sphere = np.abs(cfg.dist - 1.0) <= tol.match_eps
    edges: list[EdgeArc] = []
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if cfg.dist[i, j] > 1.0 + tol.dist_eps:
                continue
            circle = circle_of_sphere_pair(pts[i], pts[j])
            surviving = AngularIntervalSet.full()
            for k in range(cfg.n):
                if k in (i, j):
                    continue
                surviving = surviving.intersect(
                    ball_constraint_interval(circle, pts[k], tol.ang_eps),
                    tol.ang_eps)
                if surviving.is_empty:
                    break
            if surviving.is_empty:
                continue
            # Points of X on this circle (distance 1 from both centers)
            # split the surviving set: edges live on the circle minus X.
            # The zero diagonal of dist keeps i and j themselves out.
            splits = [circle.angle_of(pts[k])
                      for k in np.flatnonzero(on_sphere[i] & on_sphere[j])]
            if surviving.is_full:
                if not splits:
                    raise StructureError(
                        f"support pair ({i}, {j}) leaves a full circle with no "
                        "vertex on it")
                cuts = sorted(a % TWO_PI for a in splits)
                comps = [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
                comps.append((cuts[-1], cuts[0] + TWO_PI))
            else:
                comps = []
                for lo, hi in surviving.components(tol.ang_eps):
                    inner = []
                    for s in splits:
                        rel = (s - lo) % TWO_PI
                        if tol.ang_eps < rel < (hi - lo) - tol.ang_eps:
                            inner.append(lo + rel)
                    bounds = [lo] + sorted(inner) + [hi]
                    comps.extend(zip(bounds[:-1], bounds[1:]))
            for lo, hi in comps:
                if hi - lo <= tol.ang_eps:
                    continue
                u = _match_vertex(cfg, circle.point(lo))
                w = _match_vertex(cfg, circle.point(hi))
                edges.append(EdgeArc(
                    support=(i, j),
                    endpoints=(u, w),
                    arc=ArcOnCircle(circle, lo, hi),
                ))
    edges.sort(key=lambda e: (e.support, e.endpoint_set))
    return tuple(EdgeArc(e.support, e.endpoints, e.arc, index=k)
                 for k, e in enumerate(edges))


def _chord_angle(pts: np.ndarray, u: int, w: int) -> float:
    half = 0.5 * float(np.linalg.norm(pts[u] - pts[w]))
    return 2.0 * math.asin(min(half, 1.0))


def pair_duals(edges: tuple[EdgeArc, ...], cfg: PointConfig) -> tuple[DualPair, ...]:
    """Match every edge with the unique partner whose support and endpoint
    pairs swap, and populate the angle data.

    Raises StructureError if any edge is unmatched or the pair count differs
    from |X| - 1, and DomainError if a pair's angles fail AnglePair's checks.
    """
    pts = cfg.points
    by_key = {}
    for e in edges:
        key = (e.support, e.endpoint_set)
        if key in by_key:
            raise StructureError(f"two edges share support/endpoints {key}")
        by_key[key] = e
    pairs = []
    seen = set()
    for e in edges:
        if e.index in seen:
            continue
        partner = by_key.get((e.endpoint_set, e.support))
        if partner is None or partner.index in seen:
            raise StructureError(
                f"edge with support {e.support} and endpoints {e.endpoints} "
                "has no dual partner")
        seen.add(e.index)
        seen.add(partner.index)
        kept, removed = (e, partner) if e.support < partner.support else (partner, e)
        p, q = kept.endpoints
        pp, qp = removed.endpoints
        mid = 0.5 * (pts[p] + pts[q])
        orient = float(np.cross(pts[pp] - mid, pts[qp] - mid) @ (pts[p] - pts[q]))
        if orient < 0.0:
            pp, qp = qp, pp
        elif orient == 0.0:
            raise StructureError(
                f"degenerate orientation for dual pair {kept.support}/{removed.support}")
        angles = AnglePair(_chord_angle(pts, p, q), _chord_angle(pts, pp, qp))
        pairs.append(DualPair(kept=kept, removed=removed, angles=angles,
                              p=p, q=q, p_prime=pp, q_prime=qp))
    if len(pairs) != cfg.n - 1:
        raise StructureError(
            f"found {len(pairs)} dual pairs, expected {cfg.n - 1}")
    pairs.sort(key=lambda dp: dp.kept.support)
    return tuple(pairs)


def classify_vertices(cfg: PointConfig, edges: tuple[EdgeArc, ...],
                      pairs: tuple[DualPair, ...]) -> StructureReport:
    """Count per-vertex face membership from incident edge supports and run
    the Euler check V - E + F = 2."""
    faces_at = [set() for _ in range(cfg.n)]
    for e in edges:
        for v in e.endpoints:
            faces_at[v].update(e.support)
    counts = tuple(len(s) for s in faces_at)
    classes = []
    for i, c in enumerate(counts):
        if c >= 3:
            classes.append("principal")
        elif c == 2:
            classes.append("dangling")
        else:
            raise StructureError(
                f"vertex {i} lies on only {c} faces; structure is broken")
    supports = {s for e in edges for s in e.support}
    if supports != set(range(cfg.n)):
        raise StructureError("some point of X supports no edge")
    euler = cfg.n - len(edges) + cfg.n
    if euler != 2:
        raise StructureError(f"Euler characteristic {euler} != 2")
    return StructureReport(
        vertex_classes=tuple(classes),
        face_counts=counts,
        edge_count=len(edges),
        face_count=cfg.n,
        dual_pair_count=len(pairs),
        euler_characteristic=euler,
    )


def analyze_config(cfg: PointConfig) -> Structure:
    """Full validation pipeline; raises NotExtremalError, StructureError or
    DomainError."""
    extremality = check_extremal(cfg)
    if not extremality.is_extremal:
        raise NotExtremalError(extremality)
    edges = extract_edges(cfg)
    pairs = pair_duals(edges, cfg)
    report = classify_vertices(cfg, edges, pairs)
    return Structure(config=cfg, extremality=extremality, edges=edges,
                     pairs=pairs, report=report)


def angle_pairs(structure: Structure) -> tuple[AnglePair, ...]:
    """The angle pairs feeding all closed-form evaluations."""
    return tuple(dp.angles for dp in structure.pairs)


# ---------------------------------------------------------------------------
# Built-in generators and point-set JSON

def tetra_points() -> np.ndarray:
    """Regular tetrahedron with unit side length."""
    h = 1.0 / (2.0 * math.sqrt(2.0))
    return np.array([
        [0.5, 0.0, -h],
        [-0.5, 0.0, -h],
        [0.0, 0.5, h],
        [0.0, -0.5, h],
    ])


def pentad_points() -> np.ndarray:
    """Five-point extremal set with one dangling vertex.

    Two poles at (0, 0, +-1/2) and three equatorial points on the circle of
    radius sqrt(3)/2 at angles 0, delta/2, delta with delta = 2*asin(1/sqrt(3)),
    so the outer equatorial pair is diametric and the middle point dangles.
    """
    delta = 2.0 * math.asin(1.0 / math.sqrt(3.0))
    r = math.sqrt(3.0) / 2.0
    rows = [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]]
    for k in range(3):
        a = k * delta / 2.0
        rows.append([r * math.cos(a), r * math.sin(a), 0.0])
    return np.array(rows)


GENERATORS = {
    "tetra": (tetra_points, ("b0", "b1", "b2", "b3")),
    "pentad": (pentad_points, ("b", "c", "p1", "p2", "p3")),
}


def config_from_generator(name: str, tol: Tolerances | None = None) -> PointConfig:
    try:
        fn, labels = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; choose from {sorted(GENERATORS)}") from None
    return PointConfig(points=fn(), labels=labels, tol=tol or Tolerances())


def config_from_json_dict(data: dict, tol: Tolerances | None = None) -> PointConfig:
    """Point-set JSON: {"points": [[x, y, z], ...], "labels": [...]}"""
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('point-set JSON must be an object with a "points" key')
    pts = data["points"]
    if (not isinstance(pts, list) or len(pts) == 0
            or not all(isinstance(row, list) and len(row) == 3 for row in pts)):
        raise ValueError('"points" must be a non-empty list of [x, y, z] rows')
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError('"labels" must be a list of strings')
        labels = tuple(labels)
    return PointConfig(points=np.array(pts, dtype=float), labels=labels,
                       tol=tol or Tolerances())


def load_config(path: str, tol: Tolerances | None = None) -> PointConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json_dict(json.load(fh), tol=tol)
