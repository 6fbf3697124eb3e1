"""Structure of the ball polyhedron B(X) of an extremal point set X.

B(X) is the intersection of closed unit balls centered at the points of X.
For extremal X (diameter 1 attained by the maximum 2|X|-2 point pairs) its
vertices coincide with X, it has one spherical face per point, and its edges
are circular arcs that come in |X|-1 dual pairs: the supporting center pair
of each edge equals the endpoint pair of its partner and vice versa.

This module validates extremality, extracts the edge arcs by angular-interval
arithmetic on the support circles, matches dual pairs, walks each face's
boundary loop once for the mesh module, and classifies vertices.  Every edge
arc of a dual pair is kept on one side and removed on the other when the
associated Meissner body is formed; the canonical orientation chosen here
(lexicographically smaller support keeps its arc) is what the oracle and
mesh modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotExtremalError, StructureError
from .formulas import AnglePair
from .geom import (TWO_PI, ArcOnCircle, Tolerances, circle_of_sphere_pair,
                   trim_circle)

# (pair, center) entries per block of the vectorized candidate pass
_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class PointConfig:
    """A finite labeled point set X in R^3 with its tolerance policy.

    ``dist`` is the read-only matrix of pairwise distances, the one source of
    every pair distance the structure checks compare against 1.
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None
    tol: Tolerances = field(default_factory=Tolerances)
    dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
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


@dataclass(frozen=True, eq=False)
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


def _match_vertex(cfg: PointConfig, p: np.ndarray,
                  support: tuple[int, int]) -> int:
    """Nearest point of X within match_eps; lowest index on ties.  The error
    names the support pair whose arc ends at ``p``."""
    d = np.linalg.norm(cfg.points - p, axis=1)
    i = int(np.argmin(d))
    if d[i] > cfg.tol.match_eps:
        raise StructureError(
            f"extract_edges: support pair {support}: arc endpoint {p} matches "
            f"no vertex (nearest at distance {d[i]:.3g})")
    return i


def _free_arc_bound(pts: np.ndarray, i: np.ndarray, j: np.ndarray,
                    d: np.ndarray, delta: np.ndarray,
                    slack: float) -> np.ndarray:
    """Per pair (i[p], j[p]): an upper bound on the longest arc of the circle
    of the pair that lies in every ball of X, or 0 if some ball provably
    misses the circle.

    Every constraint K*cos(psi - alpha) >= C is enlarged: C/K is taken from
    C - delta over K +- delta, the half-angle widens by the direction error
    3*delta/K plus ``slack``, an arc within ``slack`` of 2*pi - ang_eps is
    full, and K ~ 0 (direction unknown) is full unless C is clearly positive.

    A, B and C take their dots from (pairs x 3)(3 x n) products on ``pts``,
    X moved to its bounding box's center, of half-width h: a 3-term dot
    there rounds within 4.5 eps h^2, so C = |x|^2 - 2 m.x + |m|^2 + r^2 - 1
    (m the pair's center) is off by under 45 eps h^2 and K by under 25 eps h,
    plus a few eps; delta holds 64 eps (1 + 2 h^2) for them.
    """
    center = 0.5 * (pts[i] + pts[j])
    axis = (pts[i] - pts[j]) / d[:, None]
    r = np.sqrt(1.0 - 0.25 * d * d)
    # any orthonormal frame will do: arc lengths do not depend on it
    rows = np.arange(len(d))
    ref = np.argmin(np.abs(axis), axis=1)
    u = np.eye(3)[ref] - axis[rows, ref][:, None] * axis
    u /= np.linalg.norm(u, axis=1)[:, None]
    # axis x u, spelled out: np.cross has a large per-call overhead
    v = (axis[:, [1, 2, 0]] * u[:, [2, 0, 1]]
         - axis[:, [2, 0, 1]] * u[:, [1, 2, 0]])
    two_r = (2.0 * r)[:, None]
    a = two_r * (u @ pts.T - np.vecdot(u, center)[:, None])
    b = two_r * (v @ pts.T - np.vecdot(v, center)[:, None])
    c = ((np.vecdot(pts, pts) - 2.0 * (center @ pts.T))
         + (np.vecdot(center, center) + r * r - 1.0)[:, None])
    k = np.hypot(a, b)
    dl = delta[:, None]
    c_lo = c - dl
    k_lo = k - dl - Tolerances.on_axis
    vague = k_lo <= 0.0
    k_safe = np.where(vague, 1.0, k_lo)
    empty = c_lo >= k + dl
    ratio = np.where(c_lo > 0.0, c_lo / (k + dl), c_lo / k_safe)
    half = (np.arccos(np.clip(ratio, -1.0, 1.0)) + 3.0 * dl / k_safe
            + slack)
    full = vague | (2.0 * half >= TWO_PI - Tolerances.ang_eps - slack)
    full[rows, i] = full[rows, j] = True
    # the complement of each arc is one gap; full arcs have none
    start = np.where(full, np.inf, (np.arctan2(b, a) + half) % TWO_PI)
    end = np.where(full, -np.inf, start + (TWO_PI - 2.0 * half))
    order = np.argsort(start, axis=1)
    start = start[rows[:, None], order]
    reach = np.maximum.accumulate(end[rows[:, None], order], axis=1)
    last = reach[:, -1:]
    # free arcs: from the furthest gap end so far (or the part of the circle
    # after angle 0 that a gap wrapping past 2*pi covers) to the next start;
    # the free arc crossing angle 0 runs from the last end to the first start
    inner = np.where(np.isfinite(start[:, 1:]),
                     start[:, 1:] - np.maximum(reach[:, :-1],
                                               last - TWO_PI), 0.0)
    longest = np.maximum(inner.max(axis=1, initial=0.0),
                         start[:, 0] + TWO_PI - last[:, 0])
    return np.where(empty.any(axis=1), 0.0, longest)


def _candidate_pairs(cfg: PointConfig) -> list[tuple[int, int]]:
    """Support pairs (i < j, in lexicographic order) whose circle may carry
    an edge: a superset of the pairs whose exact trim ends non-empty.

    For blocks of about _BLOCK (pair, center) entries over the pairs at
    |x_i - x_j| <= 1 + dist_eps, one numpy pass computes every other
    center's ball-constraint arc on the pair's circle, enlarged past the
    rounding of either step (``_free_arc_bound``).  A pair is dropped when
    some arc is provably empty, or when no free arc (one inside every
    enlarged constraint) is longer than ang_eps - 2*slack.

    Dropping is sound because the exact trim never closes a gap: every gap
    of an intersection holds a gap of one of its operands, so every gap of
    the surviving set holds some constraint's complement, which is longer
    than ang_eps (a shorter complement makes ``from_raw`` return the full
    circle, and the enlarged constraint is full then too).  So the surviving
    set lies in the intersection of the constraints, hence in the enlarged
    one.  A pair whose enlarged free arcs are all at most ang_eps long keeps
    no interval longer than ang_eps, and ``from_raw`` discards the shorter
    ones: its trim ends empty.
    """
    pts = cfg.points
    tol = cfg.tol
    n = cfg.n
    i, j = np.nonzero(np.triu(cfg.dist <= 1.0 + tol.dist_eps, k=1))
    d = cfg.dist[i, j]
    eps = np.finfo(float).eps
    moved = pts - 0.5 * (pts.max(axis=0) + pts.min(axis=0))
    h = float(np.abs(moved).max())
    # generous bounds on the absolute error of C and K (the trim rounds to
    # |x|, the pass's dots to h, the axis is a difference over d) and of the
    # angles (acos, atan2 and n trim steps)
    delta = (64.0 * eps * (1.0 + float(np.abs(pts).max()) + 2.0 * h * h)
             / np.minimum(d, 1.0))
    slack = 64.0 * eps * TWO_PI * (n + 1)
    bound = np.empty(len(d))
    step = max(1, _BLOCK // n)
    for s in range(0, len(d), step):
        blk = slice(s, s + step)
        bound[blk] = _free_arc_bound(moved, i[blk], j[blk], d[blk],
                                     delta[blk], slack)
    keep = bound > tol.ang_eps - 2.0 * slack
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def _pair_edges(cfg: PointConfig, on_sphere: np.ndarray, i: int,
                j: int) -> list[EdgeArc]:
    """The exact trim-and-split of one support pair's circle."""
    pts = cfg.points
    eps = Tolerances.ang_eps
    circle = circle_of_sphere_pair(pts[i], pts[j])
    surviving = trim_circle(circle, np.delete(pts, (i, j), axis=0))
    if surviving.is_empty:
        return []
    # Points of X on this circle (distance 1 from both centers)
    # split the surviving set: edges live on the circle minus X.
    # The zero diagonal of dist keeps i and j themselves out.
    splits = [circle.angle_of(pts[k])
              for k in np.flatnonzero(on_sphere[i] & on_sphere[j])]
    if surviving.is_full:
        if not splits:
            raise StructureError(
                f"extract_edges: support pair ({i}, {j}) leaves a full "
                "circle with no vertex on it")
        cuts = sorted(a % TWO_PI for a in splits)
        comps = [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
        comps.append((cuts[-1], cuts[0] + TWO_PI))
    else:
        comps = []
        for lo, hi in surviving.components():
            inner = []
            for s in splits:
                rel = (s - lo) % TWO_PI
                if eps < rel < (hi - lo) - eps:
                    inner.append(lo + rel)
            bounds = [lo] + sorted(inner) + [hi]
            comps.extend(zip(bounds[:-1], bounds[1:]))
    edges = []
    for lo, hi in comps:
        if hi - lo <= eps:
            continue
        u = _match_vertex(cfg, circle.point(lo), (i, j))
        w = _match_vertex(cfg, circle.point(hi), (i, j))
        edges.append(EdgeArc(
            support=(i, j),
            endpoints=(u, w),
            arc=ArcOnCircle(circle, lo, hi),
        ))
    return edges


def extract_edges(cfg: PointConfig) -> tuple[EdgeArc, ...]:
    """Edge arcs of B(X), one per connected boundary component.

    Two steps.  A vectorized pass (``_candidate_pairs``) keeps the support
    pairs whose circle may carry an edge.  On each of those, in (i, j) order,
    the circle of the sphere intersection is trimmed against every other
    ball, then split where a point of X lies on the circle interior to the
    surviving set (a dangling vertex cuts the arc in two).  Components
    shorter than ang_eps are tangency noise and dropped.  The float sequence
    of the trim (``geom.trim_circle``) fixes every arc angle.
    """
    on_sphere = np.abs(cfg.dist - 1.0) <= cfg.tol.match_eps
    edges: list[EdgeArc] = []
    for i, j in _candidate_pairs(cfg):
        edges.extend(_pair_edges(cfg, on_sphere, i, j))
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
            raise StructureError(
                f"pair_duals: two edges share support/endpoints {key}")
        by_key[key] = e
    pairs = []
    seen = set()
    for e in edges:
        if e.index in seen:
            continue
        partner = by_key.get((e.endpoint_set, e.support))
        if partner is None or partner.index in seen:
            raise StructureError(
                f"pair_duals: edge with support {e.support} and endpoints "
                f"{e.endpoints} has no dual partner")
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
                "pair_duals: degenerate orientation for dual pair "
                f"{kept.support}/{removed.support}")
        angles = AnglePair(_chord_angle(pts, p, q), _chord_angle(pts, pp, qp))
        pairs.append(DualPair(kept=kept, removed=removed, angles=angles,
                              p=p, q=q, p_prime=pp, q_prime=qp))
    if len(pairs) != cfg.n - 1:
        raise StructureError(
            f"pair_duals: found {len(pairs)} dual pairs, expected {cfg.n - 1}")
    pairs.sort(key=lambda dp: dp.kept.support)
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
            raise StructureError(
                f"vertex {i} lies on only {c} faces; structure is broken")
    # pair_duals matched the edges into exactly n - 1 disjoint pairs, so
    # E = 2n - 2 and V - E + F = n - (2n - 2) + n = 2
    euler = cfg.n - len(edges) + cfg.n
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
    face_loops = _face_loops(cfg.n, edges)
    report = classify_vertices(cfg, edges, pairs)
    return Structure(config=cfg, extremality=extremality, edges=edges,
                     pairs=pairs, face_loops=face_loops, report=report)


def angle_pairs(structure: Structure) -> tuple[AnglePair, ...]:
    """The angle pairs feeding all closed-form evaluations."""
    return tuple(dp.angles for dp in structure.pairs)


def check_wedge_index(index: int | None, pair_count: int) -> None:
    """Wedges are numbered 0..n-2, one per dual pair; refuse any other."""
    if index is None or not 0 <= index < pair_count:
        raise DomainError(f"wedge index {index} is outside 0..{pair_count - 1}")


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
    """Point-set JSON: {"points": [[x, y, z], ...], "labels": [...]}, with
    JSON numbers for coordinates (no strings or booleans) that fit a double."""
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
    for k, row in enumerate(pts):
        if not all(type(x) in (int, float) for x in row):
            raise ValueError(f"point {k}: coordinates must be JSON numbers")
    try:
        points = np.array(pts, dtype=float)
    except OverflowError:
        raise ValueError("an integer coordinate is too large for a "
                         "double") from None
    return PointConfig(points=points, labels=labels, tol=tol or Tolerances())
