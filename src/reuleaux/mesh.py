"""Watertight triangle meshes of the body boundaries, plus mesh metrics.

Faces are spherical polygons triangulated in concentric rings around the
spherical barycenter of their boundary loop, read from
``Structure.face_loops``; Meissner surgery swaps each removed arc for the
geodesic between its endpoints on the face's own sphere and inserts the
spindle patch swept between the two geodesics of the pair.

Watertightness comes from construction, not welding: every boundary polyline
(edge arc, geodesic, single vertex) is sampled once into a shared vertex pool
and all adjacent patches index the same records.  Mesh volume is the signed
divergence-theorem sum of tetrahedra against the origin and area the plain
triangle-area sum; both come from the mesh's single closure check, which
computes them in one pass over blocks of triangles: block temporaries are
small enough to be reused from the heap, where whole-mesh ones would be
page-faulted afresh on every check.

Meshes are written as ASCII OBJ or PLY; only OBJ is read back, for
round-trip checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import MeshError, StructureError
from .polyhedron import (DualPair, PointConfig, Structure, _chord_angle,
                         check_wedge_index)


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup with outward orientation.

    ``stats`` holds the closure statistics of a mesh that has already been
    checked.  Only ``build_body_mesh`` sets it, after making both arrays
    read-only, so the statistics cannot go stale; a mesh constructed any
    other way, ``dataclasses.replace`` included, starts without stats and is
    checked by ``mesh_volume`` and ``mesh_area``.  Two meshes are equal when
    their vertex and triangle arrays are; ``stats`` is ignored.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    stats: MeshStats | None = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriangleMesh):
            return NotImplemented
        return (np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.triangles, other.triangles))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class MeshStats:
    """Closure statistics of one mesh, from its single check.

    ``total_area`` and ``total_volume`` come from the same blocked pass over
    the triangles that gives ``min_triangle_area``: the triangle-area sum,
    which ``mesh_area`` reads, and the signed volume sum, which
    ``mesh_volume`` reads.  They take no part in equality and are not
    written by ``to_dict``.
    """

    watertight: bool
    oriented: bool
    euler_characteristic: int
    n_vertices: int
    n_edges: int
    n_triangles: int
    min_triangle_area: float
    bad_edges: tuple[tuple[int, int], ...]
    total_area: float = field(compare=False)
    total_volume: float = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "watertight": self.watertight,
            "oriented": self.oriented,
            "euler_characteristic": self.euler_characteristic,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "n_triangles": self.n_triangles,
            "min_triangle_area": self.min_triangle_area,
        }


# Triangles per block of the area and volume pass.  Each block temporary is
# 8192 float64, 64 KB: under glibc's default 128 KB mmap threshold, so it is
# reused from the heap instead of page-faulted afresh, and the block's working
# set stays in L2.
_BLOCK_TRIANGLES = 8192


def _triangle_terms(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per triangle: its area and its volume term det(v0, v1, v2).

    One pass over blocks of ``_BLOCK_TRIANGLES`` triangles, each block
    written into the two T-long outputs.  The area is half the norm of
    (v1 - v0) x (v2 - v0) in the operation order of ``np.cross`` and
    ``np.linalg.norm(axis=1)``, whose squares sum (x + y) + z; the volume
    term is v0 . (v1 x v2) in the order of ``np.cross`` and
    ``np.einsum("ij,ij->i")``, whose dot product sums (x + z) + y."""
    v, t = mesh.vertices, mesh.triangles
    areas = np.empty(t.shape[0])
    dets = np.empty(t.shape[0])
    for lo in range(0, t.shape[0], _BLOCK_TRIANGLES):
        rows = slice(lo, lo + _BLOCK_TRIANGLES)
        (ax, bx, cx), (ay, by, cy), (az, bz, cz) = (
            [v[:, axis][t[rows, corner]] for corner in range(3)]
            for axis in range(3))
        det = dets[rows]
        np.multiply(ax, by * cz - bz * cy, out=det)
        det += az * (bx * cy - by * cx)
        det += ay * (bz * cx - bx * cz)
        # the corners b and c become the edges u = b - a and w = c - a
        (ux, wx), (uy, wy), (uz, wz) = (bx, cx), (by, cy), (bz, cz)
        for a, u, w in ((ax, ux, wx), (ay, uy, wy), (az, uz, wz)):
            u -= a
            w -= a
        sq = uy * wz - uz * wy
        sq *= sq
        ny = uz * wx - ux * wz
        sq += ny * ny
        nz = ux * wy - uy * wx
        sq += nz * nz
        np.sqrt(sq, out=sq)
        np.multiply(sq, 0.5, out=areas[rows])
    return areas, dets


def inspect_mesh(mesh: TriangleMesh) -> MeshStats:
    """Connectivity, orientation, area and volume statistics; never raises."""
    # the areas and volume terms come first, before the key arrays hold memory
    areas, dets = _triangle_terms(mesh)
    t = mesh.triangles
    n = mesh.n_vertices
    tail = t.ravel()
    head = np.roll(t, -1, axis=1).ravel()
    keys = np.multiply(tail, n)
    keys += head
    keys.sort()
    # step[i] marks keys[i] != keys[i - 1]: a new directed, then undirected, edge
    step = np.empty(keys.size, dtype=bool)
    step[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    oriented = bool(step.all())
    np.minimum(tail, head, out=keys)
    keys *= n
    np.maximum(tail, head, out=head)
    keys += head
    keys.sort()
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    # a run of equal sorted keys is one edge, its length the edge's use count;
    # every run has length 2 exactly when the runs start at every even slot
    n_edges = int(np.count_nonzero(step))
    watertight = keys.size == 2 * n_edges and bool(step[::2].all())
    bad = ()
    if not watertight:
        first = np.flatnonzero(step)
        counts = np.diff(first, append=keys.size)
        bad = tuple((int(k // n), int(k % n))
                    for k in keys[first[counts != 2][:16]])
    # the shift lets malformed negative ids be counted instead of raising
    np.subtract(tail, tail.min(initial=0), out=head)
    used = int(np.count_nonzero(np.bincount(head)))
    return MeshStats(
        watertight=watertight,
        oriented=oriented,
        euler_characteristic=used - n_edges + t.shape[0],
        n_vertices=used,
        n_edges=n_edges,
        n_triangles=int(t.shape[0]),
        min_triangle_area=float(areas.min()) if areas.size else 0.0,
        bad_edges=bad,
        total_area=float(areas.sum()),
        total_volume=float(dets.sum() / 6.0),
    )


def _require_closed(mesh: TriangleMesh, name: str = "mesh") -> MeshStats:
    stats = mesh.stats if mesh.stats is not None else inspect_mesh(mesh)
    if not stats.watertight:
        raise MeshError(f"{name} is not watertight; offending edges {stats.bad_edges}")
    if not stats.oriented:
        raise MeshError(f"{name} orientation is inconsistent")
    return stats


def mesh_volume(mesh: TriangleMesh) -> float:
    """Signed volume sum det(v0, v1, v2)/6, read from the mesh's single
    closure check; positive for outward orientation."""
    return _require_closed(mesh).total_volume


def mesh_area(mesh: TriangleMesh) -> float:
    """Triangle-area sum, read from the mesh's single closure check."""
    return _require_closed(mesh).total_area


# ---------------------------------------------------------------------------
# Spindle parametrization

class SpindleFrame:
    """Rotation-surface parametrization of one dual pair in world coordinates.

    The map traces, for each s in [0, phi'], the geodesic from the removed
    arc's first endpoint to its second on the unit sphere centered at the
    kept-arc point eta(s); eta runs along the kept arc from its first oriented
    endpoint to the second.
    """

    def __init__(self, cfg: PointConfig, pair: DualPair):
        pts = cfg.points
        self.theta_prime = pair.angles.theta_prime
        self.phi_prime = pair.angles.phi_prime
        self.start = pts[pair.p]
        self.finish = pts[pair.q]
        self.pole_a = pts[pair.p_prime]
        self.pole_b = pts[pair.q_prime]
        self.mid = 0.5 * (self.pole_a + self.pole_b)
        axis = self.pole_a - self.pole_b
        self.v = axis / np.linalg.norm(axis)
        end = self.eta(np.array([self.phi_prime]))[0]
        if np.linalg.norm(end - self.finish) > 1e-6:
            raise StructureError("kept arc does not close onto its far endpoint")

    def eta(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        rel = self.start - self.mid
        swept = np.cross(self.v, rel)
        return (self.mid + np.cos(s)[..., None] * rel
                + np.sin(s)[..., None] * swept)

    def point(self, s, t) -> np.ndarray:
        """X(s, t) on the [0, phi'] x [0, theta'] rectangle; broadcasts."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(s < -1e-12) or np.any(s > self.phi_prime + 1e-12) \
                or np.any(t < -1e-12) or np.any(t > self.theta_prime + 1e-12):
            raise ValueError("parameters outside the spindle rectangle")
        tp = self.theta_prime
        e = self.eta(s)
        ct = np.cos(t)[..., None]
        st = np.sin(t)[..., None]
        return (e + ct * (self.pole_a - e)
                + st * (self.pole_b - e - math.cos(tp) * (self.pole_a - e))
                / math.sin(tp))


# ---------------------------------------------------------------------------
# Builder with a shared boundary pool

class MeshBuilder:
    """Accumulates vertices and triangles with pooled boundary polylines.

    The points live in one array whose capacity doubles when full, so a
    point is copied once on insertion and once per doubling, and
    ``coords_of`` reads the array in place."""

    def __init__(self):
        self._coords = np.empty((1024, 3))
        self._count = 0
        self._tris: list[np.ndarray] = []
        self.pool: dict = {}

    def add_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        start, stop = self._count, self._count + len(pts)
        if stop > len(self._coords):
            grown = np.empty((max(stop, 2 * len(self._coords)), 3))
            grown[:start] = self._coords[:start]
            self._coords = grown
        self._coords[start:stop] = pts
        self._count = stop
        return np.arange(start, stop, dtype=np.int64)

    def polyline(self, key, points_fn) -> np.ndarray:
        """Pooled polyline: the first caller materializes it, later callers
        reuse the identical vertex ids."""
        if key not in self.pool:
            self.pool[key] = self.add_points(points_fn())
        return self.pool[key]

    def emit(self, tris) -> None:
        arr = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
        if arr.size:
            self._tris.append(arr)

    def build(self) -> TriangleMesh:
        tris = np.vstack(self._tris) if self._tris else np.zeros((0, 3), dtype=np.int64)
        return TriangleMesh(vertices=self._coords[:self._count], triangles=tris)

    # -- patches ------------------------------------------------------------

    def cap(self, center: np.ndarray, loop_ids: np.ndarray, refine: int,
            face: int) -> None:
        """Spherical polygon patch gridded from the barycenter of its loop.

        The loop must be a closed cycle of pooled vertex ids on the unit
        sphere around ``center``, listed counterclockwise or clockwise; the
        orientation is fixed internally so triangles face outward.  Interior
        ring r of ``rows`` carries max(3, round(L*r/rows)) points for a loop
        of L, so triangle sizes stay uniform from apex to boundary.  All
        interior rings are computed in one pass, ring after ring, and all
        ladders from the apex fan to the loop are stitched in one call.  A
        loop of solid angle below 1e-9 (a face fully excised, both arcs of a
        dangling vertex replaced by the same geodesic) gets no patch.
        """
        dirs = self.coords_of(loop_ids) - center
        solid = _loop_solid_angle(dirs)
        if abs(solid) < 1e-9:
            return
        if solid < 0.0:
            loop_ids = loop_ids[::-1]
            dirs = dirs[::-1]
        apex_dir = dirs.mean(axis=0)
        apex_dir = apex_dir / np.linalg.norm(apex_dir)
        apex = self.add_points((center + apex_dir)[None, :])
        L = len(loop_ids)
        omega = np.arccos(np.clip(dirs @ apex_dir, -1.0, 1.0))
        if np.any(omega > 3.0):
            raise MeshError(f"face {face} loop strays more than 3.0 rad from "
                            "its barycenter")

        rows = max(2, refine)
        # rint rounds half to even, as round does
        sizes = np.maximum(3, np.rint(L * np.arange(1, rows) / rows)).astype(np.int64)
        r, pos = _ranks(sizes)
        m = sizes[r]
        c = pos * (L / m)
        k = np.floor(c).astype(int)
        frac = c - k
        kn = (k + 1) % L
        # interpolate along the loop, then pull toward the apex
        between = (1.0 - frac)[:, None] * dirs[k] + frac[:, None] * dirs[kn]
        between /= np.linalg.norm(between, axis=1)[:, None]
        ang = ((1.0 - frac) * omega[k] + frac * omega[kn]) * ((r + 1) / rows)
        full = np.arccos(np.clip(between @ apex_dir, -1.0, 1.0))
        safe = np.maximum(np.sin(full), 1e-14)
        ring = (np.sin(full - ang) / safe)[:, None] * apex_dir \
            + (np.sin(ang) / safe)[:, None] * between
        ring /= np.linalg.norm(ring, axis=1)[:, None]
        ids = np.concatenate([apex, self.add_points(center + ring),
                              np.asarray(loop_ids, dtype=np.int64)])
        self.emit(_stitch_rings(ids, np.concatenate([[1], sizes, [L]])))

    def grid(self, grid_ids: np.ndarray, flip: bool) -> None:
        """Quad grid split into triangles, skipping collapsed cells.

        ``grid_ids`` has shape (ns+1, nt+1); rows or columns may repeat a
        single id where the patch collapses to a point; two columns make a
        ladder.  The cell at (i, j) gives the triangles (a, b, c) and
        (a, c, d) with a = g[i, j], b = g[i+1, j], c = g[i+1, j+1] and
        d = g[i, j+1], each reversed if ``flip``.  Callers take ``flip`` from
        the dual-pair orientation (see ``DualPair``); a wrong choice leaves
        the mesh inconsistently oriented, which its closure check refuses.
        """
        g = np.asarray(grid_ids, dtype=np.int64)
        a = g[:-1, :-1].ravel()
        b = g[1:, :-1].ravel()
        c = g[1:, 1:].ravel()
        d = g[:-1, 1:].ravel()
        t1 = np.stack([a, b, c], axis=1)
        t2 = np.stack([a, c, d], axis=1)
        tris = np.vstack([t1[(a != b) & (b != c) & (c != a)],
                          t2[(a != c) & (c != d) & (d != a)]])
        self.emit(tris[:, ::-1] if flip else tris)

    def coords_of(self, ids: np.ndarray) -> np.ndarray:
        return self._coords[:self._count][np.asarray(ids, dtype=np.int64)]


def _ranks(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end: each slot's run index
    and its position within the run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def _stitch_rings(ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Wraparound triangle ladders between consecutive concentric closed rings.

    ``ids`` lists the rings one after another and ``sizes`` their lengths.
    All rings are ordered by the same angular parameter starting at the same
    fraction; a ring of one point is an apex, and its ladder is a fan.

    A ladder from m inner to k outer points merges the outer steps (j+1)*m
    with the inner steps (i+1)*k, a tie going to the outer step; a fan has
    no inner steps.  The merge has a closed form: outer step j lands at
    j + ((j+1)*m - 1)//k and inner step i at i + (i+1)*k//m.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    m, k = sizes[:-1], sizes[1:]
    inner_steps = np.where(m > 1, m, 0)
    per_ladder = k + inner_steps
    base = np.cumsum(per_ladder) - per_ladder
    tris = np.empty((int(per_ladder.sum()), 3), dtype=np.int64)

    lad, j = _ranks(k)
    mj, kj, at_in, at_out = m[lad], k[lad], first[lad], first[lad + 1]
    i = ((j + 1) * mj - 1) // kj
    at = base[lad] + j + i
    tris[at, 0] = ids[at_in + i]
    tris[at, 1] = ids[at_out + j]
    tris[at, 2] = ids[at_out + (j + 1) % kj]

    lad, i = _ranks(inner_steps)
    mi, ki, at_in, at_out = m[lad], k[lad], first[lad], first[lad + 1]
    j = (i + 1) * ki // mi
    at = base[lad] + i + j
    tris[at, 0] = ids[at_in + i]
    tris[at, 1] = ids[at_out + j % ki]
    tris[at, 2] = ids[at_in + (i + 1) % mi]
    return tris


def _loop_solid_angle(dirs: np.ndarray) -> float:
    """Signed solid angle subtended by a closed loop of unit directions."""
    d = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    a, b, c = d[0], d[1:-1], d[2:]
    num = np.cross(b, c) @ a
    den = 1.0 + b @ a + np.einsum("ij,ij->i", b, c) + c @ a
    return float(2.0 * np.arctan2(num, den).sum())


# ---------------------------------------------------------------------------
# Body meshes

def _geodesic_points(pts: np.ndarray, sphere: int, ui: int, wi: int,
                     n: int) -> np.ndarray:
    """Uniform geodesic samples from pts[ui] to pts[wi] on the unit sphere
    around pts[sphere]."""
    center, u, w = pts[sphere], pts[ui], pts[wi]
    du = u - center
    dw = w - center
    ang = _chord_angle(pts, ui, wi)
    f = np.linspace(0.0, 1.0, n + 1)
    out = (np.sin((1.0 - f) * ang)[:, None] * du
           + np.sin(f * ang)[:, None] * dw) / math.sin(ang)
    out += center
    out[0] = u
    out[-1] = w
    return out


class _BodyMesher:
    def __init__(self, structure: Structure, refine: int):
        if refine < 2:
            raise ValueError("refine must be at least 2")
        self.structure = structure
        self.refine = refine
        self.builder = MeshBuilder()
        self.pts = structure.config.points
        self.removed = {dp.removed.index: dp for dp in structure.pairs}

    def vx(self, i: int) -> int:
        return int(self.builder.polyline(("vx", i), lambda: self.pts[i][None, :])[0])

    def arc_ids(self, edge) -> np.ndarray:
        def sample():
            pts = edge.arc.sample_points(self.refine)
            pts[0] = self.pts[edge.endpoints[0]]
            pts[-1] = self.pts[edge.endpoints[1]]
            return pts[1:-1]
        inner = self.builder.polyline(("arc", edge.index), sample)
        return np.concatenate([[self.vx(edge.endpoints[0])], inner,
                               [self.vx(edge.endpoints[1])]])

    def geodesic_ids(self, sphere: int, u: int, w: int) -> np.ndarray:
        lo, hi = (u, w) if u < w else (w, u)

        def sample():
            return _geodesic_points(self.pts, sphere, lo, hi,
                                    self.refine)[1:-1]
        inner = self.builder.polyline(("geo", sphere, lo, hi), sample)
        ids = np.concatenate([[self.vx(lo)], inner, [self.vx(hi)]])
        return ids if (u, w) == (lo, hi) else ids[::-1]

    def face_loop_ids(self, x: int, steps, meissner: bool) -> np.ndarray:
        chunks = []
        for idx, forward in steps:
            e = self.structure.edges[idx]
            if meissner and idx in self.removed:
                ids = self.geodesic_ids(x, *e.endpoints)
            else:
                ids = self.arc_ids(e)
            if not forward:
                ids = ids[::-1]
            chunks.append(ids[:-1])
        return np.concatenate(chunks)

    def add_faces(self, meissner: bool) -> None:
        for x, steps in enumerate(self.structure.face_loops):
            self.builder.cap(self.pts[x], self.face_loop_ids(x, steps, meissner),
                             self.refine, x)

    def spindle_grid(self, pair: DualPair) -> np.ndarray:
        frame = SpindleFrame(self.structure.config, pair)
        n = self.refine
        grid = np.empty((n + 1, n + 1), dtype=np.int64)
        grid[0, :] = self.geodesic_ids(pair.p, pair.p_prime, pair.q_prime)
        grid[n, :] = self.geodesic_ids(pair.q, pair.p_prime, pair.q_prime)
        grid[:, 0] = self.vx(pair.p_prime)
        grid[:, n] = self.vx(pair.q_prime)
        s = np.linspace(0.0, frame.phi_prime, n + 1)[1:-1]
        t = np.linspace(0.0, frame.theta_prime, n + 1)[1:-1]
        interior = frame.point(s[:, None], t[None, :])
        grid[1:-1, 1:-1] = self.builder.add_points(
            interior.reshape(-1, 3)).reshape(n - 1, n - 1)
        return grid

    # The right-handed (p, q, p', q') of each dual pair fixes every winding:
    # the spindle grid faces out of its wedge, so it is flipped in the
    # Meissner body, and of the two slivers that close the wedge the one on
    # p's sphere is flipped and the one on q's sphere is not.

    def add_spindles(self) -> None:
        for pair in self.structure.pairs:
            self.builder.grid(self.spindle_grid(pair), flip=True)

    def add_wedge(self, index: int) -> None:
        pair = self.structure.pairs[index]
        self.builder.grid(self.spindle_grid(pair), flip=False)
        removed = pair.removed
        arc_ids = self.arc_ids(removed)
        if removed.endpoints[0] != pair.p_prime:
            arc_ids = arc_ids[::-1]
        for sphere, flip in ((pair.p, True), (pair.q, False)):
            geo = self.geodesic_ids(sphere, pair.p_prime, pair.q_prime)
            self.builder.grid(np.column_stack([arc_ids, geo]), flip)


def build_body_mesh(structure: Structure, kind: str, refine: int,
                    wedge_index: int | None = None) -> TriangleMesh:
    """Triangulate the boundary of one body of the structure.

    ``kind`` is "reuleaux", "meissner", or "wedge" (then ``wedge_index``
    selects the dual pair).  ``refine`` is the per-boundary sample count; all
    patches share boundary samples, so the result is watertight.
    """
    mesher = _BodyMesher(structure, refine)
    if kind == "reuleaux":
        mesher.add_faces(meissner=False)
    elif kind == "meissner":
        mesher.add_faces(meissner=True)
        mesher.add_spindles()
    elif kind == "wedge":
        check_wedge_index(wedge_index, len(structure.pairs))
        mesher.add_wedge(wedge_index)
    else:
        raise ValueError(f"unknown body kind {kind!r}")
    mesh = mesher.builder.build()
    mesh.vertices.flags.writeable = False
    mesh.triangles.flags.writeable = False
    label = f"wedge:{wedge_index}" if kind == "wedge" else kind
    object.__setattr__(mesh, "stats", _require_closed(mesh, f"{label} mesh"))
    return mesh


# ---------------------------------------------------------------------------
# Export / import

def export_obj(mesh: TriangleMesh, path: str) -> None:
    """ASCII OBJ with v/f records and 1-based indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# reuleaux mesh\n")
        fh.write(("v %.17g %.17g %.17g\n" * mesh.n_vertices)
                 % tuple(mesh.vertices.ravel().tolist()))
        fh.write(("f %d %d %d\n" * mesh.n_triangles)
                 % tuple((mesh.triangles + 1).ravel().tolist()))


def _number(token: str, kind: type) -> int | float:
    """``kind(token)`` in the grammar numpy's text reader takes: Python's,
    without ``_`` digit grouping or non-ASCII digits."""
    value = kind(token)
    if "_" in token or not token.isascii():
        raise ValueError(f"{token!r} uses digit grouping or non-ASCII digits")
    return value


def _obj_rows(fh, tag: str):
    """The text after ``tag`` on each line whose first whitespace token is
    ``tag``, in one pass over ``fh``.

    A bare tag is yielded whole, so numpy refuses it where it would skip a
    blank row.  A face's ``i/j/k`` keeps its vertex index ``i``; an empty
    ``i`` keeps the slashes, which numpy refuses.
    """
    for line in fh:
        s = line.lstrip()
        if s[:1] != tag:
            continue
        rest = s[1:]
        if not rest or rest.isspace():
            yield s
        elif rest[0].isspace():
            if tag == "f" and "/" in rest:
                rest = " ".join(p.split("/")[0] or p for p in rest.split())
            yield rest


def _obj_block(fh, tag: str, dtype, usecols=None) -> np.ndarray | None:
    """The ``tag`` rows of the file parsed by ``np.loadtxt``, (0, 3) when
    there are none; None when numpy refuses a row."""
    fh.seek(0)
    rows = _obj_rows(fh, tag)
    first = next(rows, None)
    # loadtxt warns on an empty stream
    if first is None:
        return np.zeros((0, 3), dtype=dtype)
    try:
        return np.loadtxt(itertools.chain([first], rows), dtype=dtype,
                          usecols=usecols, ndmin=2, comments=None)
    except ValueError:
        return None


def _obj_records(path: str):
    """(line number, tag, tokens after the tag) of each ``v`` and ``f`` line;
    a vertex keeps its first three tokens, a face index its part before the
    first slash."""
    with open(path, "r", encoding="utf-8") as fh:
        for k, line in enumerate(fh, start=1):
            parts = line.split()
            if parts[:1] == ["v"]:
                yield k, "v", parts[1:4]
            elif parts[:1] == ["f"]:
                yield k, "f", [p.split("/")[0] for p in parts[1:]]


def _refuse_obj(path: str) -> NoReturn:
    """Raise the MeshError of the first defect of an OBJ file.

    Defects rank in this order: a coordinate or index that is not a number,
    in file order; the first vertex with fewer than three coordinates; the
    first face with other than three indices; the first face index outside
    1..vertex count.
    """
    short = wrong = None
    n_verts = 0
    for k, tag, tokens in _obj_records(path):
        kind, what = ((float, "vertex coordinate") if tag == "v"
                      else (int, "face index"))
        try:
            for p in tokens:
                _number(p, kind)
        except ValueError as exc:
            raise MeshError(f"OBJ line {k}: {what} is not a number "
                            f"({exc})") from None
        if tag == "v":
            n_verts += 1
            if short is None and len(tokens) < 3:
                short = k, len(tokens)
        elif wrong is None and len(tokens) != 3:
            wrong = k, len(tokens)
    if short is not None:
        raise MeshError(f"OBJ line {short[0]}: vertex has {short[1]} "
                        "coordinates, needs 3")
    if wrong is not None:
        raise MeshError(f"OBJ line {wrong[0]}: face has {wrong[1]} indices, "
                        "needs 3")
    for k, tag, tokens in _obj_records(path):
        if tag == "f":
            for i in map(int, tokens):
                if not 1 <= i <= n_verts:
                    raise MeshError(f"OBJ line {k}: face index {i} outside "
                                    f"1..{n_verts}")
    # not reached while the grammar of _number is numpy's
    raise MeshError(f"OBJ file {path}: numpy's text reader refused it")


def import_obj(path: str) -> TriangleMesh:
    """Read ``v`` and ``f`` lines; face indices must lie in 1..vertex count.

    Two streaming passes over the file hand the ``v`` rows and then the
    ``f`` rows to numpy's text reader.  The mesh layer is triangle-only.
    Raises MeshError naming the first ``v`` or ``f`` line with a coordinate
    or index that is not a number (in Python's grammar without ``_`` digit
    grouping or non-ASCII digits), the first ``v`` line with fewer than three
    coordinates, the first face line with other than three indices, or the
    first with an index outside that range (0, a relative negative index, or
    past the last vertex).
    """
    with open(path, "r", encoding="utf-8") as fh:
        v = _obj_block(fh, "v", float, usecols=(0, 1, 2))
        t = None if v is None else _obj_block(fh, "f", np.int64)
    if t is None or t.shape[1] != 3 or (
            t.size and (t.min() < 1 or t.max() > len(v))):
        _refuse_obj(path)
    t -= 1
    return TriangleMesh(vertices=v, triangles=t)


def export_ply(mesh: TriangleMesh, path: str) -> None:
    """ASCII PLY with vertex and face elements."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float64 x\nproperty float64 y\nproperty float64 z\n")
        fh.write(f"element face {mesh.n_triangles}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        fh.write(("%.17g %.17g %.17g\n" * mesh.n_vertices)
                 % tuple(mesh.vertices.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * mesh.n_triangles)
                 % tuple(mesh.triangles.ravel().tolist()))
