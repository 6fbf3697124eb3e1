"""Watertight triangle meshes of the body boundaries, plus mesh metrics.

Faces are spherical polygons triangulated in concentric rings around the
spherical barycenter of their boundary loop (``Structure.face_loops``); ring
r of ``rows`` lies r/rows along the geodesics from it to the loop's geodesic
polygon, so inside the convex face.  Meissner surgery swaps each removed arc
for the geodesic between its endpoints on the face's own sphere and inserts
the spindle patch swept between the two geodesics of the pair.

Points are placed in column form: ``_slerp``, the one slerp of the mesher,
runs each op once per coordinate column over all of a block's points, where
an op on (N, 3) rows with an (N, 1) factor would loop three elements at a
time.  Cap rings and spindle rows are written straight into the builder's
point array, ``_BLOCK_ROWS`` points at a time, so no whole-face array is
built and then copied in.  Each step keeps the bits of the row form: a norm
sums its squares (x + y) + z, as ``np.linalg.norm(axis=1)`` does, and the
apex angle of a cap ring point stays the gemv ``between @ apex_dir``, on a
(block, 3) array of rows.

Watertightness comes from construction, not welding: every boundary polyline
(edge arc, geodesic, single vertex) is sampled once into a shared vertex pool
and all adjacent patches index the same records.  Mesh volume is the signed
divergence-theorem sum of tetrahedra against the origin and area the plain
triangle-area sum; both come from the mesh's single closure check, which
computes them in one pass over blocks of ``_BLOCK_ROWS`` triangles: block
temporaries are small enough to be reused from the heap, where whole-mesh
ones would be page-faulted afresh on every check.  The check reduces those
per-triangle terms to its scalars before it fills its edge keys, one corner
at a time, so beside the mesh it holds at most T-long temporaries and the
3T keys, for T triangles.

Meshes are written as ASCII OBJ or PLY, ``_BLOCK_ROWS`` rows formatted and
written at a time, so a writer's temporaries do not grow with the mesh;
only OBJ is read back, exactly as ``export_obj`` writes it, for round-trip
checks.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import MeshError
from .geom import cross
from .polyhedron import DualPair, Structure, body_label


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle soup with outward orientation.

    Both arrays are read-only; a writable input is copied first.  ``stats``
    is the mesh's closure check, run once on its first read; a mesh made by
    ``dataclasses.replace`` is checked afresh.  Like every record that
    holds arrays, a mesh compares and hashes by identity.  Every vertex id
    lies in 0..n_vertices-1; a mesh with any other is refused.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("vertices", float), ("triangles", np.int64)):
            x = getattr(self, name)
            # a writable input is copied, so freezing leaves the caller's alone
            writable = not isinstance(x, np.ndarray) or x.flags.writeable
            arr = np.array(x, dtype, copy=True if writable else None)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise MeshError(f"{name} must have shape (k, 3), got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        t = self.triangles
        if t.size and not 0 <= t.min() <= t.max() < self.n_vertices:
            raise MeshError(f"vertex ids must lie in 0..{self.n_vertices - 1}, "
                            f"got {t.min()}..{t.max()}")

    @functools.cached_property
    def stats(self) -> MeshStats:
        return inspect_mesh(self)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class MeshStats:
    """Closure statistics of one mesh, from its single check, held as
    ``TriangleMesh.stats``.

    ``surface_area`` and ``volume`` come from the same blocked pass over
    the triangles that gives ``min_triangle_area``: the triangle-area sum,
    which ``mesh_area`` reads, and the signed volume sum, which
    ``mesh_volume`` reads.  They take no part in equality.
    """

    watertight: bool
    oriented: bool
    euler_characteristic: int
    n_vertices: int
    n_edges: int
    n_triangles: int
    min_triangle_area: float
    bad_edges: tuple[tuple[int, int], ...]
    surface_area: float = field(compare=False)
    volume: float = field(compare=False)

    def to_dict(self) -> dict:
        """The report's mesh block: every field but ``bad_edges``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "bad_edges"}


# Rows per block of the area and volume pass, of the point placement, and of
# the writers.  Each pass or placement temporary is 8192 float64, 64 KB:
# under glibc's default 128 KB mmap threshold, so it is reused from the heap
# instead of page-faulted afresh, and the block's working set stays in L2.  A
# writer's block of text is about 0.5 MB.
_BLOCK_ROWS = 8192


def _triangle_terms(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per triangle: its area and its volume term det(v0, v1, v2).

    One pass over blocks of ``_BLOCK_ROWS`` triangles, each block
    written into the two T-long outputs.  Both cross products are
    ``geom.cross``'s, on the coordinate columns of the corners a, b, c.  The
    area is half the norm of (b - a) x (c - a) with the squares summed
    (x + y) + z, as ``np.linalg.norm(axis=1)`` sums them; the volume term
    is a . (b x c) summed (x + z) + y, as ``np.einsum("ij,ij->i")`` sums
    it."""
    v, t = mesh.vertices, mesh.triangles
    areas = np.empty(t.shape[0])
    dets = np.empty(t.shape[0])
    for lo in range(0, t.shape[0], _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        a, b, c = ([v[:, axis][t[rows, corner]] for axis in range(3)]
                   for corner in range(3))
        x, y, z = cross(b, c)
        dets[rows] = a[0] * x + a[2] * z + a[1] * y
        x, y, z = cross([s - r for s, r in zip(b, a)],
                        [s - r for s, r in zip(c, a)])
        areas[rows] = 0.5 * np.sqrt(x * x + y * y + z * z)
    return areas, dets


def inspect_mesh(mesh: TriangleMesh) -> MeshStats:
    """Connectivity, orientation, area and volume statistics; never raises."""
    areas, dets = _triangle_terms(mesh)
    min_area = float(areas.min()) if areas.size else 0.0
    area, volume = float(areas.sum()), float(dets.sum() / 6.0)
    # the per-triangle terms go before any edge key holds memory
    del areas, dets
    t = mesh.triangles
    n = mesh.n_vertices
    # one sort for both checks: a directed edge's key is its undirected key
    # min*n + max, shifted left by one, plus its direction bit; row c of the
    # keys holds the edges from corner c, and min*n + max is formed in place
    # as min*(n - 1) + tail + head
    keys = np.empty((3, t.shape[0]), dtype=np.int64)
    # a mask, not np.bincount: bincount copies a read-only input, as a built
    # mesh's triangles are
    used_ids = np.zeros(n, dtype=bool)
    for corner, key in enumerate(keys):
        tail, head = t[:, corner], t[:, (corner + 1) % 3]
        np.minimum(tail, head, out=key)
        key *= n - 1
        key += tail
        key += head
        key <<= 1
        key += tail > head
        used_ids[tail] = True
    keys = keys.ravel()
    keys.sort()
    # step[i] marks keys[i] != keys[i - 1]: a new directed, then undirected, edge
    step = np.empty(keys.size, dtype=bool)
    step[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    oriented = bool(step.all())
    keys >>= 1
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
    used = int(np.count_nonzero(used_ids))
    return MeshStats(
        watertight=watertight,
        oriented=oriented,
        euler_characteristic=used - n_edges + t.shape[0],
        n_vertices=used,
        n_edges=n_edges,
        n_triangles=int(t.shape[0]),
        min_triangle_area=min_area,
        bad_edges=bad,
        surface_area=area,
        volume=volume,
    )


def _require_closed(mesh: TriangleMesh, name: str = "mesh") -> MeshStats:
    stats = mesh.stats
    if not stats.watertight:
        raise MeshError(f"{name} is not watertight; offending edges {stats.bad_edges}")
    if not stats.oriented:
        raise MeshError(f"{name} orientation is inconsistent")
    return stats


def mesh_volume(mesh: TriangleMesh) -> float:
    """Signed volume sum det(v0, v1, v2)/6, read from the mesh's single
    closure check; positive for outward orientation."""
    return _require_closed(mesh).volume


def mesh_area(mesh: TriangleMesh) -> float:
    """Triangle-area sum, read from the mesh's single closure check."""
    return _require_closed(mesh).surface_area


# ---------------------------------------------------------------------------
# Builder with a shared boundary pool

class MeshBuilder:
    """Accumulates vertices and triangles with pooled boundary polylines.

    The points live in one array whose capacity doubles when full, so a
    point is copied once per doubling, and ``coords_of`` reads the array in
    place.  ``reserve`` hands out rows of that array for the caller to fill,
    as the patches do; ``add_points`` copies given points into such rows.
    Both grow the array the same way.  ``build`` shrinks it to its points in
    place and hands it to the mesh."""

    def __init__(self):
        self._coords = np.empty((1024, 3))
        self._count = 0
        self._tris: list[np.ndarray] = []
        self.pool: dict = {}

    def reserve(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The ids of n new points and their (n, 3) rows of the point array,
        which the caller fills before its next reservation: a growth moves
        the points to a new array, and the rows would then be lost."""
        start, stop = self._count, self._count + n
        if stop > len(self._coords):
            grown = np.empty((max(stop, 2 * len(self._coords)), 3))
            grown[:start] = self._coords[:start]
            self._coords = grown
        self._count = stop
        return np.arange(start, stop, dtype=np.int64), self._coords[start:stop]

    def add_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ids, rows = self.reserve(len(pts))
        rows[...] = pts
        return ids

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
        """The mesh of the points and triangles so far, its arrays made
        read-only here so that the mesh holds them uncopied.  The point
        array loses its spare capacity in place, and the triangle blocks
        give way to their stack, so the builder holds nothing beside the
        mesh; a later ``add_points`` grows into a new array."""
        # no view of the point array outlives a call, so none can dangle
        self._coords.resize((self._count, 3), refcheck=False)
        tris = np.vstack(self._tris) if self._tris else np.zeros((0, 3), dtype=np.int64)
        self._tris = [tris]
        self._coords.flags.writeable = tris.flags.writeable = False
        return TriangleMesh(vertices=self._coords, triangles=tris)

    # -- patches ------------------------------------------------------------

    def cap(self, center: np.ndarray, loop_ids: np.ndarray, refine: int,
            face: int) -> None:
        """Spherical polygon patch gridded from the barycenter of its loop.

        The loop must be a closed cycle of pooled vertex ids on the unit
        sphere around ``center``, listed counterclockwise or clockwise; the
        orientation is fixed internally so triangles face outward.  Interior
        ring r of ``rows`` carries max(3, round(L*r/rows)) points for a loop
        of L, so triangle sizes stay uniform from apex to boundary, and each
        lies at r/rows of the apex geodesic to a point of the loop's geodesic
        polygon, so inside the face.  The apex and the rings take one
        reservation of the point array; the rings are placed in column form,
        ``_BLOCK_ROWS`` points at a time from the blend of two loop
        directions to the slerp, each block written into its rows, and are
        stitched, apex fan to loop, in one call.  A loop of solid angle below
        1e-9 (a face fully excised, both arcs of a dangling vertex replaced
        by the same geodesic) gets no patch.
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
        L = len(loop_ids)
        omega = np.arccos(np.clip(dirs @ apex_dir, -1.0, 1.0))
        if np.any(omega > 3.0):
            raise MeshError(f"face {face} loop strays more than 3.0 rad from "
                            "its barycenter")

        rows = max(2, refine)
        # rint rounds half to even, as round does
        sizes = np.maximum(3, np.rint(L * np.arange(1, rows) / rows)).astype(np.int64)
        r, pos = _ranks(sizes)
        ids, out = self.reserve(1 + r.size)
        out[0] = center + apex_dir
        dirs = np.ascontiguousarray(dirs.T)
        # rows, not columns, for the gemv below, whose bits a column dot
        # would not keep
        between = np.empty((min(r.size, _BLOCK_ROWS), 3))
        for lo in range(0, r.size, _BLOCK_ROWS):
            rb, pb = r[lo:lo + _BLOCK_ROWS], pos[lo:lo + _BLOCK_ROWS]
            c = pb * (L / sizes.take(rb))
            k = np.floor(c).astype(int)
            frac = c - k
            kn = (k + 1) % L
            b = between[:rb.size]
            cols = b.T
            for col, d in zip(cols, dirs):
                np.add((1.0 - frac) * d.take(k), frac * d.take(kn), out=col)
            x, y, z = cols
            # the squares summed as np.linalg.norm(axis=1) sums them
            cols /= np.sqrt((x * x + y * y) + z * z)
            full = np.arccos(np.clip(b @ apex_dir, -1.0, 1.0))
            _slerp(apex_dir, cols, full, (rb + 1) / rows, center,
                   out[1 + lo:1 + lo + rb.size].T)
        ids = np.concatenate([ids, np.asarray(loop_ids, dtype=np.int64)])
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
    num = np.column_stack(cross(b.T, c.T)) @ a
    den = 1.0 + b @ a + np.einsum("ij,ij->i", b, c) + c @ a
    return float(2.0 * np.arctan2(num, den).sum())


def _slerp(u, w, angle, f, center, out) -> None:
    """Write into ``out`` the points at fractions f of the geodesic of
    length ``angle`` from the unit vector u to the unit vector w, plus
    ``center``.  ``out``, u, w and ``center`` are each given by their x, y
    and z columns, and everything broadcasts to the shape of a column of
    ``out``: each op runs once per column over all of its points, not once
    per point over three coordinates."""
    a, b, s = np.sin((1.0 - f) * angle), np.sin(f * angle), np.sin(angle)
    for col, uc, wc, cc in zip(out, u, w, center):
        np.add(a * uc, b * wc, out=col)
        col /= s
        col += cc


# ---------------------------------------------------------------------------
# Body meshes

def _geodesic_points(center: np.ndarray, u: np.ndarray, w: np.ndarray,
                     angle: float, n: int, out: np.ndarray) -> None:
    """Write into ``out``, of shape (n - 1, 3), the n - 1 inner points of n
    equal steps along the geodesic of length ``angle`` from u to w on the
    unit sphere around ``center``, whose ends are pooled vertices.  A stack
    of k centers takes an ``out`` of shape (k, n - 1, 3)."""
    center = [np.asarray(center)[..., i, None] for i in range(3)]
    f = np.linspace(0.0, 1.0, n + 1)[1:-1]
    _slerp([x - c for x, c in zip(u, center)],
           [x - c for x, c in zip(w, center)], angle, f, center,
           np.moveaxis(out, -1, 0))


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
        inner = self.builder.polyline(
            ("arc", edge.index),
            lambda: edge.arc.sample_points(self.refine))
        return np.concatenate([[self.vx(edge.endpoints[0])], inner,
                               [self.vx(edge.endpoints[1])]])

    def geodesic_ids(self, sphere: int, pair: DualPair) -> np.ndarray:
        """The geodesic from p' to q' on the unit sphere around point
        ``sphere``, pooled and sampled from the lower vertex index."""
        lo, hi = sorted((pair.p_prime, pair.q_prime))

        def sample():
            points = np.empty((self.refine - 1, 3))
            _geodesic_points(self.pts[sphere], self.pts[lo], self.pts[hi],
                             pair.angles.theta_prime, self.refine, points)
            return points
        inner = self.builder.polyline(("geo", sphere, lo, hi), sample)
        ids = np.concatenate([[self.vx(lo)], inner, [self.vx(hi)]])
        return ids if lo == pair.p_prime else ids[::-1]

    def face_loop_ids(self, x: int, steps, meissner: bool) -> np.ndarray:
        chunks = []
        for idx, forward in steps:
            e = self.structure.edges[idx]
            if meissner and idx in self.removed:
                pair = self.removed[idx]
                ids = self.geodesic_ids(x, pair)
                # the geodesic runs from p', the edge from its first endpoint
                forward ^= e.endpoints[0] != pair.p_prime
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
        """The spindle as a grid of ids: row i is the geodesic from p' to q'
        on the unit sphere around the kept arc's i-th sample, so rows 0 and
        n are the geodesics on the spheres of p and q."""
        n = self.refine
        grid = np.empty((n + 1, n + 1), dtype=np.int64)
        grid[0, :] = self.geodesic_ids(pair.p, pair)
        grid[n, :] = self.geodesic_ids(pair.q, pair)
        grid[:, 0] = self.vx(pair.p_prime)
        grid[:, n] = self.vx(pair.q_prime)
        centers = pair.kept.arc.sample_points(n)
        ids, out = self.builder.reserve((n - 1) ** 2)
        grid[1:-1, 1:-1] = ids.reshape(n - 1, n - 1)
        out = out.reshape(n - 1, n - 1, 3)
        # whole rows of about _BLOCK_ROWS points at a time
        step = max(1, _BLOCK_ROWS // (n - 1))
        for lo in range(0, n - 1, step):
            _geodesic_points(centers[lo:lo + step], self.pts[pair.p_prime],
                             self.pts[pair.q_prime], pair.angles.theta_prime,
                             n, out[lo:lo + step])
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
            geo = self.geodesic_ids(sphere, pair)
            self.builder.grid(np.column_stack([arc_ids, geo]), flip)


def build_body_mesh(structure: Structure, kind: str, refine: int,
                    wedge_index: int | None = None) -> TriangleMesh:
    """Triangulate the boundary of one body of the structure.

    ``kind`` and ``wedge_index`` name the body as ``body_label`` reads them.
    ``refine`` is the per-boundary sample count; all patches share boundary
    samples, so the result is watertight.
    """
    mesher = _BodyMesher(structure, refine)
    label = body_label(kind, wedge_index, len(structure.pairs))
    if kind == "wedge":
        mesher.add_wedge(wedge_index)
    else:
        mesher.add_faces(meissner=kind == "meissner")
        if kind == "meissner":
            mesher.add_spindles()
    mesh = mesher.builder.build()
    _require_closed(mesh, f"{label} mesh")
    return mesh


# ---------------------------------------------------------------------------
# Export / import

def _write_rows(fh, row: str, array: np.ndarray, offset: int = 0) -> None:
    """Write each row of ``array``, plus ``offset``, as ``row`` formats it,
    one block of ``_BLOCK_ROWS`` rows at a time."""
    for lo in range(0, len(array), _BLOCK_ROWS):
        block = array[lo:lo + _BLOCK_ROWS]
        if offset:
            # only when nonzero: adding 0 would turn -0.0 into 0.0
            block = block + offset
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def export_obj(mesh: TriangleMesh, path: str) -> None:
    """ASCII OBJ with v/f records and 1-based indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# reuleaux mesh\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d\n", mesh.triangles, offset=1)


# export_obj's row, its tag two characters wide so that vn and the like fail
_OBJ_ROW = np.dtype([("tag", "U2"), ("xyz", float, 3)])


def import_obj(path: str) -> TriangleMesh:
    """Read what ``export_obj`` writes: ``v x y z`` and ``f i j k`` rows,
    blank lines and text after ``#``, in one ``np.loadtxt`` call, whose
    number grammar is Python's without ``_`` digit grouping or non-ASCII
    digits.  Raises MeshError naming the file: with numpy's reason (its row
    and column) when it refuses a row or the file is not UTF-8, for any
    other tag, and for a face index not a whole number in 1..vertex count.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty or comment-only file is the empty mesh
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, _OBJ_ROW, comments="#", ndmin=1)
    except ValueError as exc:
        raise MeshError(f"OBJ file {path}: {exc}") from None
    tags = rows["tag"]
    v, f = (rows["xyz"][tags == tag] for tag in "vf")
    if len(v) + len(f) < len(rows):
        raise MeshError(f"OBJ file {path}: only v and f records are read, got "
                        f"{np.setdiff1d(tags, ['v', 'f']).tolist()}")
    # the row block goes before the index cast, which bounds the peak memory
    del rows, tags
    bad = f[(f != np.rint(f)) | (f < 1) | (f > len(v))]
    if bad.size:
        raise MeshError(f"OBJ file {path}: face indices must be whole numbers "
                        f"in 1..{len(v)}, got {bad[0]}")
    t = f.astype(np.int64)
    t -= 1
    # read-only, so the mesh holds the parsed arrays uncopied
    v.flags.writeable = t.flags.writeable = False
    return TriangleMesh(vertices=v, triangles=t)


def export_ply(mesh: TriangleMesh, path: str) -> None:
    """ASCII PLY with vertex and face elements."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float64 x\nproperty float64 y\nproperty float64 z\n")
        fh.write(f"element face {mesh.n_triangles}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        _write_rows(fh, "%.17g %.17g %.17g\n", mesh.vertices)
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles)
