"""Structure of the ball polyhedron B(X) of an extremal point set X.

B(X) is the intersection of closed unit balls centered at the points of X.
For extremal X (diameter 1 attained by the maximum 2|X|-2 point pairs) its
vertices coincide with X, it has one spherical face per point, and its edges
are circular arcs that come in |X|-1 dual pairs: the supporting center pair
of each edge equals the endpoint pair of its partner and vice versa.

This module validates extremality, extracts the edge arcs by trimming the
support circles against the balls in one batch, matches dual pairs, walks
each face's boundary loop once for the mesh module, and classifies
vertices.  Every edge arc of a dual pair is kept on one side and removed on
the other when the associated Meissner body is formed; the canonical
orientation chosen here (lexicographically smaller support keeps its arc) is
what the oracle and mesh modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotExtremalError, StructureError
from .formulas import AnglePair
from .geom import (TWO_PI, ArcOnCircle, Tolerances,
                   circle_of_sphere_pair, cross, trim_circles)

@dataclass(frozen=True, eq=False)
class PointConfig:
    """A finite point set X in R^3 with its tolerance policy.

    ``dist`` is the read-only matrix of pairwise distances, the one source of
    every pair distance the structure checks compare against 1.
    """

    points: np.ndarray
    tol: Tolerances = field(default_factory=Tolerances)
    dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # a copy, so freezing it leaves the caller's array alone
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 4:
            raise ValueError("at least 4 points are required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        # huge finite coordinates overflow to inf, which the extremality
        # check reports; numpy need not warn about it on stderr
        with np.errstate(over="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if dist[np.triu_indices(pts.shape[0], k=1)].min() <= self.tol.dist_eps:
            raise ValueError("points must be pairwise distinct")
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


@dataclass(frozen=True, eq=False)
class EdgeArc:
    """One edge of B(X): a circular arc on the circle of its support pair.

    ``support`` indexes the two centers whose sphere intersection carries the
    arc; ``endpoints`` indexes the vertices at the arc's start and end angle.
    """

    support: tuple[int, int]
    endpoints: tuple[int, int]
    arc: ArcOnCircle
    index: int

    @property
    def endpoint_set(self) -> tuple[int, int]:
        return tuple(sorted(self.endpoints))


@dataclass(frozen=True, eq=False)
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
    parametrization and, with it, the winding of every spindle and sliver
    patch of the mesh oracle; the mesh closure check refuses a wrong one.
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
    faces_per_vertex: tuple[int, ...]
    edge_count: int
    face_count: int
    dual_pair_count: int
    euler_characteristic: int


@dataclass(frozen=True, eq=False)
class Structure:
    """Validated structure of B(X): edges, dual pairs, face loops, and the
    report.  ``face_loops[x]`` is the boundary cycle of face x as (edge
    index, forward) steps; a forward step runs from ``endpoints[0]``."""

    config: PointConfig
    extremality: ExtremalityReport
    edges: tuple[EdgeArc, ...]
    pairs: tuple[DualPair, ...]
    face_loops: tuple[tuple[tuple[int, bool], ...], ...]
    report: StructureReport


def check_extremal(cfg: PointConfig) -> ExtremalityReport:
    """Diameter-1 check plus the 2n-2 diametric pair count.

    The report names the first 16 pairs beyond 1 + dist_eps, in
    lexicographic order, and counts the rest in one line.
    """
    eps = cfg.tol.dist_eps
    n = cfg.n
    iu = np.triu_indices(n, k=1)
    dist = cfg.dist[iu]
    diameter = float(dist.max())
    over = np.flatnonzero(dist > 1.0 + eps)
    violations = [f"pair ({iu[0][k]}, {iu[1][k]}) at distance {dist[k]:.12g} "
                  "exceeds 1" for k in over[:16]]
    if over.size > 16:
        violations.append(f"{over.size - 16} more pairs exceed 1")
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


def _match_vertices(cfg: PointConfig, ends: np.ndarray,
                    supports: list[tuple[int, int]]) -> list[int]:
    """For each row of ``ends``, the nearest point of X within match_eps;
    lowest index on ties.  The error names the support pair
    (``supports[r]`` for row r) whose arc ends at the first row that
    matches none."""
    d = np.linalg.norm(cfg.points - ends[:, None], axis=2)
    gap = d.min(axis=1)
    miss = np.flatnonzero(gap > cfg.tol.match_eps)
    if miss.size:
        r = miss[0]
        raise StructureError(
            f"extract_edges: support pair {supports[r]}: arc endpoint "
            f"{ends[r]} matches no vertex (nearest at distance {gap[r]:.3g})")
    return d.argmin(axis=1).tolist()


def _candidate_pairs(cfg: PointConfig) -> list[tuple[int, int]]:
    """Support pairs (i < j, in lexicographic order) with two or more common
    neighbours at distance within max(dist_eps, 2 match_eps) of 1.

    For extremal X each edge joins two distinct points of X on both support
    spheres (its dual swaps support and endpoints); an arc end is on both up
    to rounding and within match_eps of its point.  The dist_eps term keeps
    the diametric pairs, so an arc end that misses its vertex is named.  The
    outcome differs from trimming every pair only on sets refused either
    way: a sliver whose two ends match one vertex, which is no edge.
    """
    tol = cfg.tol
    near = np.abs(cfg.dist - 1.0) <= max(tol.dist_eps, 2.0 * tol.match_eps)
    a = near.astype(float)
    # einsum's single-threaded loop, not BLAS: at n = 102 on a loaded 2-core
    # VM, OpenBLAS's threaded product took 17-21 ms on 5 % of calls
    i, j = np.nonzero(np.triu(np.einsum("ik,kj->ij", a, a) >= 2.0, k=1))
    return list(zip(i.tolist(), j.tolist()))


def _split_at_vertices(comps: list[tuple[float, float]], splits
                       ) -> list[tuple[float, float]]:
    """The pieces (lo, hi) of one support pair's trimmed circle: each
    component cut at the split angles interior to it.  Pieces up to ang_eps
    are tangency noise and dropped."""
    eps = Tolerances.ang_eps
    pieces = []
    for lo, hi in comps:
        inner = []
        for s in splits:
            rel = (s - lo) % TWO_PI
            if eps < rel < (hi - lo) - eps:
                inner.append(lo + rel)
        bounds = [lo] + sorted(inner) + [hi]
        pieces.extend((a, b) for a, b in zip(bounds[:-1], bounds[1:])
                      if b - a > eps)
    return pieces


def extract_edges(cfg: PointConfig
                  ) -> tuple[ExtremalityReport, tuple[EdgeArc, ...]]:
    """The extremality report of X and the edge arcs of B(X), one per
    connected boundary component.

    Two steps, for extremal X only (NotExtremalError otherwise).  The
    circles of the pairs that ``_candidate_pairs`` keeps are trimmed
    against every other ball in one batch (``geom.trim_circles``).  Each
    surviving component is split where a point of X lies on the circle
    interior to it (a dangling vertex cuts the arc in two).  The ends of
    all pieces match their vertices in one batch, and each arc runs from
    the angle (``Circle3.angle_of``) of its first endpoint vertex to that
    of its second: the trim decides which vertices bound an edge, and the
    vertices fix every arc angle.
    """
    report = check_extremal(cfg)
    if not report.is_extremal:
        raise NotExtremalError(report)
    pts = cfg.points
    pairs = _candidate_pairs(cfg)
    ij = np.array(pairs, dtype=int).reshape(-1, 2)
    circles = [circle_of_sphere_pair(pts[i], pts[j]) for i, j in pairs]
    # Points of X on a circle (distance 1 from both centers) split its
    # surviving set: edges live on the circle minus X.  The zero diagonal
    # of dist keeps a pair's own two points out.
    on_sphere = np.abs(cfg.dist - 1.0) <= cfg.tol.match_eps
    on_circle = [[] for _ in pairs]
    for p, k in np.argwhere(on_sphere[ij[:, 0]] & on_sphere[ij[:, 1]]).tolist():
        on_circle[p].append(k)
    pieces = []
    for pair, circle, comps, ks in zip(
            pairs, circles, trim_circles(circles, pts, ij), on_circle):
        # never the full circle: a common neighbour of a candidate pair
        # lies on it, and its ball keeps at most 2.47 rad of it
        angles = {k: circle.angle_of(pts[k]) for k in ks}
        pieces += [(pair, circle, angles, lo, hi)
                   for lo, hi in _split_at_vertices(comps, angles.values())]
    near = _match_vertices(
        cfg, np.array([circle.point(x) for _, circle, _, lo, hi in pieces
                       for x in (lo, hi)]).reshape(-1, 3),
        [piece[0] for piece in pieces for _ in (0, 1)])
    found = []
    for (pair, circle, angles, lo, hi), u, w in zip(pieces, near[::2],
                                                    near[1::2]):
        if u == w:
            raise StructureError(
                f"extract_edges: support pair {pair}: arc from {lo:.12g} to "
                f"{hi:.12g} rad starts and ends at vertex {u}")
        start, end = (angles[v] if v in angles else circle.angle_of(pts[v])
                      for v in (u, w))
        found.append((pair, (u, w), ArcOnCircle(
            circle, start, start + (end - start) % TWO_PI)))
    found.sort(key=lambda t: (t[0], sorted(t[1])))
    return report, tuple(EdgeArc(support, ends, arc, k)
                         for k, (support, ends, arc) in enumerate(found))


def _chord_angle(pts: np.ndarray, u: int, w: int) -> float:
    half = 0.5 * float(np.linalg.norm(pts[u] - pts[w]))
    return 2.0 * math.asin(half)


def pair_duals(edges: tuple[EdgeArc, ...], cfg: PointConfig) -> tuple[DualPair, ...]:
    """Match every edge with the unique partner whose support and endpoint
    pairs swap, and populate the angle data.

    One pass in edge order emits each pair at its kept edge, the one with
    the lower support, and skips the partner; on the support-sorted list of
    ``extract_edges`` the pairs come out in kept-support order.

    Raises StructureError if any edge is unmatched or the pair count differs
    from |X| - 1, and DomainError if a pair's angles fail AnglePair's checks.
    """
    pts = cfg.points
    xs = pts.tolist()
    by_key = {}
    for e in edges:
        key = (e.support, e.endpoint_set)
        if key in by_key:
            raise StructureError(
                f"pair_duals: two edges share support/endpoints {key}")
        by_key[key] = e
    pairs = []
    for kept in edges:
        removed = by_key.get((kept.endpoint_set, kept.support))
        if removed is None:
            raise StructureError(
                f"pair_duals: edge with support {kept.support} and endpoints "
                f"{kept.endpoints} has no dual partner")
        if removed.support < kept.support:
            continue
        p, q = kept.endpoints
        pp, qp = removed.endpoints
        mid = [0.5 * (s + t) for s, t in zip(xs[p], xs[q])]
        normal = cross([s - m for s, m in zip(xs[pp], mid)],
                       [s - m for s, m in zip(xs[qp], mid)])
        orient = sum([c * (s - t) for c, s, t in zip(normal, xs[p], xs[q])])
        if orient < 0.0:
            pp, qp = qp, pp
        elif orient == 0.0:
            raise StructureError(
                "pair_duals: degenerate orientation for dual pair "
                f"{kept.support}/{removed.support}")
        angles = AnglePair(_chord_angle(pts, p, q), _chord_angle(pts, pp, qp))
        pairs.append(DualPair(kept=kept, removed=removed, angles=angles,
                              p=p, q=q, p_prime=pp, q_prime=qp))
    if len(pairs) != cfg.n - 1:
        raise StructureError(
            f"pair_duals: found {len(pairs)} dual pairs, expected {cfg.n - 1}")
    return tuple(pairs)


def _face_loops(n: int, edges: tuple[EdgeArc, ...]
                ) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The boundary cycle of each face as (edge index, forward) steps, from
    the first edge it supports; raises StructureError naming a face with no
    boundary edges or whose edges do not form one simple cycle."""
    incident: list[list[EdgeArc]] = [[] for _ in range(n)]
    for e in edges:
        for x in e.support:
            incident[x].append(e)
    loops = []
    for x, face in enumerate(incident):
        if not face:
            raise StructureError(f"face_loops: face {x} has no boundary edges")
        at_vertex: dict[int, list[EdgeArc]] = {}
        for e in face:
            for v in e.endpoints:
                at_vertex.setdefault(v, []).append(e)
        if any(len(ends) != 2 for ends in at_vertex.values()):
            raise StructureError(
                f"face_loops: face {x} boundary is not a simple cycle")
        start = step = face[0]
        loop = [(start.index, True)]
        vertex = start.endpoints[1]
        # every vertex has exactly two edge ends, and one other than the
        # start is entered with one of them used, so the other is unused
        while vertex != start.endpoints[0]:
            a, b = at_vertex[vertex]
            step = b if a is step else a
            forward = step.endpoints[0] == vertex
            loop.append((step.index, forward))
            vertex = step.endpoints[1] if forward else step.endpoints[0]
        if len(loop) != len(face):
            raise StructureError(
                f"face_loops: face {x} boundary has several components")
        loops.append(tuple(loop))
    return tuple(loops)


def classify_vertices(cfg: PointConfig, edges: tuple[EdgeArc, ...],
                      pairs: tuple[DualPair, ...]) -> StructureReport:
    """Count per-vertex face membership from incident edge supports and
    report the Euler characteristic V - E + F."""
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
            raise StructureError(f"classify_vertices: vertex {i} lies on "
                                 f"only {c} faces; structure is broken")
    # pair_duals matched the edges into exactly n - 1 disjoint pairs, so
    # E = 2n - 2 and V - E + F = n - (2n - 2) + n = 2
    euler = cfg.n - len(edges) + cfg.n
    return StructureReport(
        vertex_classes=tuple(classes),
        faces_per_vertex=counts,
        edge_count=len(edges),
        face_count=cfg.n,
        dual_pair_count=len(pairs),
        euler_characteristic=euler,
    )


def analyze_config(cfg: PointConfig) -> Structure:
    """Full validation pipeline; raises NotExtremalError, StructureError or
    DomainError."""
    extremality, edges = extract_edges(cfg)
    pairs = pair_duals(edges, cfg)
    face_loops = _face_loops(cfg.n, edges)
    report = classify_vertices(cfg, edges, pairs)
    return Structure(config=cfg, extremality=extremality, edges=edges,
                     pairs=pairs, face_loops=face_loops, report=report)


def angle_pairs(structure: Structure) -> tuple[AnglePair, ...]:
    """The angle pairs feeding all closed-form evaluations."""
    return tuple(dp.angles for dp in structure.pairs)


def body_label(kind: str, wedge_index: int | None, pair_count: int) -> str:
    """The name of a body of X: "reuleaux" (B(X)), "meissner", or "wedge:<i>"
    for the wedge cut at dual pair i in 0..pair_count-1; refuse any other."""
    if kind in ("reuleaux", "meissner"):
        return kind
    if kind != "wedge":
        raise DomainError(
            f"body kind must be reuleaux, meissner or wedge, got {kind!r}")
    if wedge_index is None or not 0 <= wedge_index < pair_count:
        raise DomainError(f"wedge index {wedge_index} is outside 0..{pair_count - 1}")
    return f"wedge:{wedge_index}"


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


GENERATORS = {"tetra": tetra_points, "pentad": pentad_points}


def config_from_generator(name: str, tol: Tolerances | None = None) -> PointConfig:
    try:
        fn = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; choose from {sorted(GENERATORS)}") from None
    return PointConfig(points=fn(), tol=tol or Tolerances())


def config_from_json_dict(data: dict, tol: Tolerances | None = None) -> PointConfig:
    """Point-set JSON: {"points": [[x, y, z], ...], "labels": [...]}, with
    JSON numbers for coordinates (no strings or booleans) that fit a double.
    The optional labels, one string per point, are checked and not kept."""
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
    for k, row in enumerate(pts):
        if not all(type(x) in (int, float) for x in row):
            raise ValueError(f"point {k}: coordinates must be JSON numbers")
    try:
        points = np.array(pts, dtype=float)
    except OverflowError:
        raise ValueError("an integer coordinate is too large for a "
                         "double") from None
    cfg = PointConfig(points=points, tol=tol or Tolerances())
    # after the point checks, which report first
    if labels is not None and len(labels) != cfg.n:
        raise ValueError("labels must match the number of points")
    return cfg
