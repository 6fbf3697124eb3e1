"""Structure of the ball polyhedron B(X) of an extremal point set X.

B(X) is the intersection of closed unit balls centered at the points of X.
For extremal X (diameter 1 attained by the maximum 2|X|-2 point pairs) its
vertices coincide with X, it has one spherical face per point, and its edges
are circular arcs that come in |X|-1 dual pairs: the supporting center pair
of each edge equals the endpoint pair of its partner and vice versa.

This module validates extremality and reads the rest from the diameter
graph alone: every face's neighbours in angular order, one edge arc per
step of each face order (no circle is trimmed against the balls and no arc
end is matched to a vertex), the dual pairs, each face's boundary loop for
the mesh module, and the vertex classes.  The geometry of every edge is one
batch: the support circles (``geom.circles_of_sphere_pairs``, each frame
checked once), the arc angles of both ends (``geom.circle_angles``) and,
in ``pair_duals``, every chord angle; each keeps the floats of the
one-row formulas (``np.vecdot`` for dot products, ``math.atan2`` and
``math.asin`` per value).  Every edge arc of a dual pair is
kept on one side and removed on the other when the associated Meissner
body is formed; the canonical orientation chosen here (lexicographically
smaller support keeps its arc) is what the oracle and mesh modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotExtremalError, StructureError
from .formulas import AnglePair
from .geom import (TWO_PI, ArcOnCircle, Tolerances, circle_angles,
                   circles_of_sphere_pairs, cross, reference_frames)

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


def _face_orders(cfg: PointConfig, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (x, u) of the diameter graph ``g``, sorted by face x and then
    by the angle of u about the mean direction from x to its neighbours,
    with each row's position in its face.  The frame about that direction
    is a support circle's (``reference_frames``)."""
    pts = cfg.points
    x, u = np.nonzero(g)
    d = pts[u] - pts[x]
    mean = np.stack([np.bincount(x, d[:, k], cfg.n) for k in range(3)], axis=1)
    ref, other = reference_frames(
        mean / np.sqrt(np.vecdot(mean, mean))[:, None])
    order = np.lexsort((np.arctan2(np.vecdot(d, other[x]),
                                   np.vecdot(d, ref[x])), x))
    x, u = x[order], u[order]
    return x, u, np.arange(len(x)) - np.searchsorted(x, x)


def extract_edges(cfg: PointConfig
                  ) -> tuple[ExtremalityReport, tuple[EdgeArc, ...],
                             tuple[tuple[tuple[int, bool], ...], ...]]:
    """The extremality report of X, the edge arcs of B(X) and the boundary
    loop of each face, for extremal X only (NotExtremalError otherwise).

    For extremal X, B(X) is combinatorially self-dual (Kupitz, Martini and
    Perles 2010): face x is the convex spherical polygon on x's diameter
    neighbours N(x), and its edge from u to the next vertex w lies on the
    circle of x and some z in N(u) & N(w) - {x}.  So three batches on the
    diameter graph, the one relation ``dist_eps`` decides, give the edges:
    the graph, every face order in one lexsort (``_face_orders``), and the
    arcs.  For each step (u, w) of a face and each candidate z, the short
    arc of circle (x, z) from u to w is kept when its midpoint lies within
    1 + dist_eps of every point and no other point of N(x) & N(z) lies on
    it (nearer to both u and w than they are to each other).  A face keeps
    one arc per step, a digon face (two neighbours) two arcs on its one
    step, and every edge must come from both its support faces;
    StructureError names the face and step, or the support pair, that
    breaks this.  Each arc runs counterclockwise, by less than pi, from the
    angle of one endpoint vertex on its circle to the other's; the circles
    are one batch over the support pairs, and the angles one more.

    ``face_loops[x]`` lists face x's edges in angular order as (edge index,
    forward) steps, from its lowest-index edge, which runs forward.
    """
    report = check_extremal(cfg)
    if not report.is_extremal:
        raise NotExtremalError(report)
    pts, dist, n = cfg.points, cfg.dist, cfg.n
    eps = cfg.tol.dist_eps
    g = np.abs(dist - 1.0) <= eps
    degree = g.sum(axis=1)
    if degree.min() < 2:
        x = int(degree.argmin())
        raise StructureError(f"extract_edges: face {x} has {degree[x]} "
                             "diameter neighbours; a face needs 2 or more")
    x, u, pos = _face_orders(cfg, g)
    size = degree[x]
    rows = np.arange(len(x))
    w = u[np.where(pos + 1 < size, rows + 1, rows - pos)]
    # a digon face has one step, and both of its arcs run along it
    step = np.flatnonzero((size != 2) | (pos == 0))
    need = np.where(size[step] == 2, 2, 1)
    cand = g[u[step]] & g[w[step]]
    cand[np.arange(len(step)), x[step]] = False
    s, z = np.nonzero(cand)
    cx, cu, cw = x[step[s]], u[step[s]], w[step[s]]
    # the midpoint of the short arc of circle (x, z) from u to w
    center = 0.5 * (pts[cx] + pts[z])
    along = pts[cx] - pts[z]
    half2 = 0.25 * np.vecdot(along, along)
    along /= np.sqrt(4.0 * half2)[:, None]
    mid = np.zeros_like(center)
    for end in (pts[cu], pts[cw]):
        r = end - center
        r -= np.vecdot(r, along)[:, None] * along
        mid += r / np.sqrt(np.vecdot(r, r))[:, None]
    mid *= np.sqrt((1.0 - half2) / np.vecdot(mid, mid))[:, None]
    gap = pts[None] - center[:, None] - mid[:, None]
    chord = dist[cu, cw][:, None]
    on_arc = g[cx] & g[z] & (dist[cu] < chord) & (dist[cw] < chord)
    inside = (np.vecdot(gap, gap) <= (1.0 + eps) ** 2).all(axis=1)
    keep = np.flatnonzero(inside & ~on_arc.any(axis=1))
    found = np.bincount(s[keep], minlength=len(step))
    bad = np.flatnonzero(found != need)
    if bad.size:
        t = bad[0]
        r = step[t]
        raise StructureError(
            f"extract_edges: face {x[r]}, step ({u[r]}, {w[r]}): found "
            f"{found[t]} arcs, expected {need[t]}")
    s, cx, z, cu, cw = s[keep], cx[keep], z[keep], cu[keep], cw[keep]
    lo, hi = np.minimum(cx, z), np.maximum(cx, z)
    a, b = np.minimum(cu, cw), np.maximum(cu, cw)
    keys, edge_of, twice = np.unique(((lo * n + hi) * n + a) * n + b,
                                     return_inverse=True, return_counts=True)
    once = np.flatnonzero(twice[edge_of] != 2)
    if once.size:
        c = once[0]
        raise StructureError(
            f"extract_edges: support pair ({lo[c]}, {hi[c]}): its edge "
            f"between vertices {a[c]} and {b[c]} comes from face {cx[c]} only")
    # one circle per support pair, in one batch, and both arc ends' angles
    # on it
    pair, v0 = np.divmod(keys, n * n)
    v0, v1 = np.divmod(v0, n)
    pair, circle_of = np.unique(pair, return_inverse=True)
    first, second = np.divmod(pair, n)
    circles = circles_of_sphere_pairs(pts[first], pts[second])
    supports = list(zip(first.tolist(), second.tolist()))
    frame = [rows[circle_of] for rows in
             (circles.center, circles.u_ref, circles.v_ref)]
    starts, ends = (circle_angles(pts[v], *frame) for v in (v0, v1))
    edges = []
    for k, (c, u0, u1, start, end) in enumerate(zip(
            circle_of.tolist(), v0.tolist(), v1.tolist(), starts, ends)):
        span = (end - start) % TWO_PI
        if span >= math.pi:
            u0, u1, start, span = u1, u0, end, (start - end) % TWO_PI
        edges.append(EdgeArc(supports[c], (u0, u1), ArcOnCircle(
            circles[c], start, start + span), k))
    # each row's edge; a digon's two arcs go to its two rows
    row_edge = np.empty(len(x), dtype=int)
    row_edge[step[s] + np.arange(len(s)) - np.searchsorted(s, s)] = edge_of
    edges = tuple(edges)
    return report, edges, _face_loops(n, x, u, row_edge, edges)


def _face_loops(n: int, x: np.ndarray, u: np.ndarray, row_edge: np.ndarray,
                edges: tuple[EdgeArc, ...]
                ) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Each face's edges in its angular order (row r of the face orders runs
    from u[r] to the next row's vertex along edge row_edge[r]), rotated to
    start at the face's lowest-index edge and turned so that it runs
    forward, as (edge index, forward) steps."""
    bounds = np.searchsorted(x, np.arange(n + 1)).tolist()
    ids = row_edge.tolist()
    along = (np.array([e.endpoints[0] for e in edges])[row_edge] == u).tolist()
    loops = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        face, runs = ids[lo:hi], along[lo:hi]
        k = face.index(min(face))
        turn = 1 if runs[k] else -1
        loops.append(tuple(
            (face[t], runs[t] == runs[k]) for t in
            ((k + turn * i) % len(face) for i in range(len(face)))))
    return tuple(loops)


def pair_duals(edges: tuple[EdgeArc, ...], cfg: PointConfig) -> tuple[DualPair, ...]:
    """Match every edge with the unique partner whose support and endpoint
    pairs swap, and populate the angle data.

    One pass in edge order emits each pair at its kept edge, the one with
    the lower support, and skips the partner; on the support-sorted list of
    ``extract_edges`` the pairs come out in kept-support order.  Each edge's
    chord angle 2 asin(|P - Q| / 2) comes from one ``np.vecdot`` batch of
    the chords, with ``math.asin`` per value; the kept edge's is theta and
    its partner's theta'.

    Raises StructureError if any edge is unmatched or the pair count differs
    from |X| - 1, and DomainError if a pair's angles fail AnglePair's checks.
    """
    pts = cfg.points
    xs = pts.tolist()
    ends = np.array([e.endpoints for e in edges], dtype=int).reshape(-1, 2)
    chord = pts[ends[:, 0]] - pts[ends[:, 1]]
    theta = [2.0 * math.asin(0.5 * length)
             for length in np.sqrt(np.vecdot(chord, chord)).tolist()]
    by_key = {}
    for k, e in enumerate(edges):
        key = (e.support, e.endpoint_set)
        if key in by_key:
            raise StructureError(
                f"pair_duals: two edges share support/endpoints {key}")
        by_key[key] = k
    pairs = []
    for k, kept in enumerate(edges):
        r = by_key.get((kept.endpoint_set, kept.support))
        if r is None:
            raise StructureError(
                f"pair_duals: edge with support {kept.support} and endpoints "
                f"{kept.endpoints} has no dual partner")
        removed = edges[r]
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
        pairs.append(DualPair(kept=kept, removed=removed,
                              angles=AnglePair(theta[k], theta[r]),
                              p=p, q=q, p_prime=pp, q_prime=qp))
    if len(pairs) != cfg.n - 1:
        raise StructureError(
            f"pair_duals: found {len(pairs)} dual pairs, expected {cfg.n - 1}")
    return tuple(pairs)


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
    extremality, edges, face_loops = extract_edges(cfg)
    pairs = pair_duals(edges, cfg)
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
