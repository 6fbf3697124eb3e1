"""Watertight triangle meshes of the body boundaries, plus mesh metrics.

Faces are spherical polygons triangulated in concentric rings around the
spherical barycenter of their boundary loop; Meissner surgery swaps each
removed arc for the geodesic between its endpoints on the face's own sphere
and inserts the spindle patch swept between the two geodesics of the pair.

Watertightness comes from construction, not welding: every boundary polyline
(edge arc, geodesic, single vertex) is sampled once into a shared vertex pool
and all adjacent patches index the same records.  Mesh volume is the signed
divergence-theorem sum of tetrahedra against the origin; area is the plain
triangle-area sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, StructureError
from .polyhedron import DualPair, PointConfig, Structure, _chord_angle


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
    watertight: bool
    oriented: bool
    euler_characteristic: int
    n_vertices: int
    n_edges: int
    n_triangles: int
    min_triangle_area: float
    bad_edges: tuple[tuple[int, int], ...]

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


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def inspect_mesh(mesh: TriangleMesh) -> MeshStats:
    """Connectivity and orientation statistics; never raises."""
    t = mesh.triangles
    n = mesh.n_vertices
    tail = t.ravel()
    head = t[:, [1, 2, 0]].ravel()
    keys = np.sort(tail * n + head)
    oriented = not np.any(keys[1:] == keys[:-1])
    und_keys = np.sort(np.minimum(tail, head) * n + np.maximum(tail, head))
    # a run of equal sorted keys is one edge, its length the edge's use count
    new_edge = np.ones(und_keys.size, dtype=bool)
    new_edge[1:] = und_keys[1:] != und_keys[:-1]
    first = np.flatnonzero(new_edge)
    uniq = und_keys[first]
    counts = np.diff(first, append=und_keys.size)
    watertight = bool(np.all(counts == 2))
    bad = ()
    if not watertight:
        bad_keys = uniq[counts != 2][:16]
        bad = tuple((int(k // n), int(k % n)) for k in bad_keys)
    # the shift lets malformed negative ids be counted instead of raising
    used = int(np.count_nonzero(np.bincount(tail - tail.min(initial=0))))
    areas = triangle_areas(mesh)
    return MeshStats(
        watertight=watertight,
        oriented=oriented,
        euler_characteristic=used - uniq.size + t.shape[0],
        n_vertices=used,
        n_edges=int(uniq.size),
        n_triangles=int(t.shape[0]),
        min_triangle_area=float(areas.min()) if areas.size else 0.0,
        bad_edges=bad,
    )


def _require_closed(mesh: TriangleMesh) -> MeshStats:
    stats = mesh.stats if mesh.stats is not None else inspect_mesh(mesh)
    if not stats.watertight:
        raise MeshError(f"mesh is not watertight; offending edges {stats.bad_edges}")
    if not stats.oriented:
        raise MeshError("mesh orientation is inconsistent")
    return stats


def mesh_volume(mesh: TriangleMesh) -> float:
    """Signed volume sum det(v0, v1, v2)/6; positive for outward orientation."""
    _require_closed(mesh)
    v = mesh.vertices
    t = mesh.triangles
    return float(np.einsum("ij,ij->i", v[t[:, 0]],
                           np.cross(v[t[:, 1]], v[t[:, 2]])).sum() / 6.0)


def mesh_area(mesh: TriangleMesh) -> float:
    _require_closed(mesh)
    return float(triangle_areas(mesh).sum())


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

    def normal(self, s, t) -> np.ndarray:
        """Unit normal pointing out of the wedge (into the Meissner body)."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        tp = self.theta_prime
        shifted = t - tp / 2.0
        return (np.cos(shifted)[..., None] / math.cos(tp / 2.0)
                * (self.eta(s) - self.mid)
                + np.sin(shifted)[..., None] * self.v)

    def surface_residual(self, pts: np.ndarray) -> np.ndarray:
        """Residual of the rotation-surface equation at the given points."""
        w = np.atleast_2d(pts) - self.mid
        axial = w @ self.v
        trans = np.linalg.norm(w - axial[:, None] * self.v, axis=1)
        return trans + math.cos(self.theta_prime / 2.0) - np.sqrt(1.0 - axial ** 2)


# ---------------------------------------------------------------------------
# Builder with a shared boundary pool

class MeshBuilder:
    """Accumulates vertices and triangles with pooled boundary polylines."""

    def __init__(self):
        self._chunks: list[np.ndarray] = []
        self._count = 0
        self._tris: list[np.ndarray] = []
        self.pool: dict = {}
        self._flat: np.ndarray | None = None

    def add_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ids = np.arange(self._count, self._count + len(pts), dtype=np.int64)
        self._chunks.append(pts)
        self._count += len(pts)
        self._flat = None
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
        tris = np.vstack(self._tris) if self._tris else np.zeros((0, 3), dtype=np.int64)
        return TriangleMesh(vertices=self._all_coords(), triangles=tris)

    def _all_coords(self) -> np.ndarray:
        if self._flat is None:
            self._flat = np.vstack(self._chunks) if self._chunks else np.zeros((0, 3))
            self._chunks = [self._flat]
        return self._flat

    # -- patches ------------------------------------------------------------

    def cap(self, center: np.ndarray, loop_ids: np.ndarray, refine: int) -> None:
        """Spherical polygon patch gridded from the barycenter of its loop.

        The loop must be a closed cycle of pooled vertex ids on the unit
        sphere around ``center``, listed counterclockwise or clockwise; the
        orientation is fixed internally so triangles face outward.  Interior
        rings carry a point count proportional to their radius fraction, so
        triangle sizes stay uniform from apex to boundary; adjacent rings are
        stitched with a wraparound ladder.
        """
        coords = self.coords_of(loop_ids)
        dirs = coords - center
        if _loop_solid_angle(dirs) < 0.0:
            loop_ids = loop_ids[::-1]
            dirs = dirs[::-1]
        apex_dir = dirs.mean(axis=0)
        apex_dir = apex_dir / np.linalg.norm(apex_dir)
        apex = int(self.add_points((center + apex_dir)[None, :])[0])
        L = len(loop_ids)
        omega = np.arccos(np.clip(dirs @ apex_dir, -1.0, 1.0))
        if np.any(omega > 3.0):
            raise MeshError("face loop strays beyond the barycenter hemisphere")

        rows = max(2, refine)

        def ring_ids(r: int) -> np.ndarray:
            if r == rows:
                return np.asarray(loop_ids, dtype=np.int64)
            m = max(3, round(L * r / rows))
            c = np.arange(m) * (L / m)
            k = np.floor(c).astype(int)
            frac = c - k
            kn = (k + 1) % L
            # interpolate along the loop, then pull toward the apex
            between = (1.0 - frac)[:, None] * dirs[k] + frac[:, None] * dirs[kn]
            between /= np.linalg.norm(between, axis=1)[:, None]
            ang = ((1.0 - frac) * omega[k] + frac * omega[kn]) * (r / rows)
            full = np.arccos(np.clip(between @ apex_dir, -1.0, 1.0))
            safe = np.maximum(np.sin(full), 1e-14)
            ring = (np.sin(full - ang) / safe)[:, None] * apex_dir \
                + (np.sin(ang) / safe)[:, None] * between
            ring /= np.linalg.norm(ring, axis=1)[:, None]
            return self.add_points(center + ring)

        prev = np.array([apex], dtype=np.int64)
        for r in range(1, rows + 1):
            ring = ring_ids(r)
            self.emit(_stitch_rings(prev, ring))
            prev = ring

    def grid(self, grid_ids: np.ndarray, outward_at_center: np.ndarray) -> None:
        """Quad grid split into triangles, skipping collapsed cells.

        ``grid_ids`` has shape (ns+1, nt+1); rows or columns may repeat a
        single id where the patch collapses to a point.  Winding is chosen so
        the probe triangle's normal aligns with ``outward_at_center``.
        """
        g = np.asarray(grid_ids, dtype=np.int64)
        ns, nt = g.shape[0] - 1, g.shape[1] - 1
        a = g[:-1, :-1].ravel()
        b = g[1:, :-1].ravel()
        c = g[1:, 1:].ravel()
        d = g[:-1, 1:].ravel()
        t1 = np.stack([a, b, c], axis=1)
        t2 = np.stack([a, c, d], axis=1)
        tris = np.vstack([t1[(a != b) & (b != c) & (c != a)],
                          t2[(a != c) & (c != d) & (d != a)]])
        probe = g[ns // 2:ns // 2 + 2, nt // 2:nt // 2 + 2]
        pa, pb, pc = (self.coords_of(np.array([probe[0, 0], probe[1, 0], probe[1, 1]])))
        if float(np.cross(pb - pa, pc - pa) @ outward_at_center) < 0.0:
            tris = tris[:, ::-1]
        self.emit(tris)

    def strip(self, left_ids: np.ndarray, right_ids: np.ndarray,
              outward_at_center: np.ndarray) -> None:
        """Ladder between two polylines sharing their first and last ids."""
        l = np.asarray(left_ids, dtype=np.int64)
        r = np.asarray(right_ids, dtype=np.int64)
        if l[0] != r[0] or l[-1] != r[-1]:
            raise MeshError("strip polylines must share their endpoints")
        a, b = l[:-1], l[1:]
        c, d = r[1:], r[:-1]
        t1 = np.stack([a, b, c], axis=1)
        t2 = np.stack([a, c, d], axis=1)
        tris = np.vstack([t1[(a != b) & (b != c) & (c != a)],
                          t2[(a != c) & (c != d) & (d != a)]])
        mid = len(l) // 2
        pa, pb, pc = self.coords_of(np.array([l[mid], l[mid + 1], r[mid + 1]]))
        n = np.cross(pb - pa, pc - pa)
        if np.linalg.norm(n) < 1e-18:
            pa, pb, pc = self.coords_of(tris[len(tris) // 2])
            n = np.cross(pb - pa, pc - pa)
        if float(n @ outward_at_center) < 0.0:
            tris = tris[:, ::-1]
        self.emit(tris)

    def coords_of(self, ids: np.ndarray) -> np.ndarray:
        return self._all_coords()[np.asarray(ids, dtype=np.int64)]


def _stitch_rings(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Wraparound triangle ladder between two concentric closed rings.

    Both rings are ordered by the same angular parameter starting at the same
    fraction; the inner ring may be a single point (the apex fan).
    """
    m, k = len(inner), len(outer)
    if m == 1:
        j = np.arange(k)
        return np.stack([np.full(k, inner[0]), outer[j], outer[(j + 1) % k]], axis=1)
    # merge the outer steps (j+1)*m with the inner steps (i+1)*k; a tie goes
    # to the outer step, which the stable sort keeps first
    steps = np.concatenate([np.arange(1, k + 1) * m, np.arange(1, m + 1) * k])
    outer_step = np.argsort(steps, kind="stable") < k
    j = np.cumsum(outer_step) - outer_step
    i = np.cumsum(~outer_step) - ~outer_step
    third = np.where(outer_step, outer[(j + 1) % k], inner[(i + 1) % m])
    return np.stack([inner[i], outer[j % k], third], axis=1)


def _loop_solid_angle(dirs: np.ndarray) -> float:
    """Signed solid angle subtended by a closed loop of unit directions."""
    d = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    a, b, c = d[0], d[1:-1], d[2:]
    num = np.cross(b, c) @ a
    den = 1.0 + b @ a + np.einsum("ij,ij->i", b, c) + c @ a
    return float(2.0 * np.arctan2(num, den).sum())


# ---------------------------------------------------------------------------
# Body meshes

def _face_loops(structure: Structure) -> dict[int, list[tuple[int, bool]]]:
    """Cyclic boundary of each face as (edge index, forward?) steps."""
    loops = {}
    for x in range(structure.config.n):
        incident = [e for e in structure.edges if x in e.support]
        if not incident:
            raise StructureError(f"face {x} has no boundary edges")
        at_vertex: dict[int, list[int]] = {}
        for e in incident:
            for v in e.endpoints:
                at_vertex.setdefault(v, []).append(e.index)
        if any(len(v) != 2 for v in at_vertex.values()):
            raise StructureError(f"face {x} boundary is not a simple cycle")
        by_index = {e.index: e for e in incident}
        start = incident[0]
        loop = [(start.index, True)]
        vertex = start.endpoints[1]
        used = {start.index}
        while vertex != start.endpoints[0]:
            options = [i for i in at_vertex[vertex] if i not in used]
            if not options:
                raise StructureError(f"face {x} boundary walk got stuck")
            nxt = by_index[options[0]]
            forward = nxt.endpoints[0] == vertex
            loop.append((nxt.index, forward))
            used.add(nxt.index)
            vertex = nxt.endpoints[1] if forward else nxt.endpoints[0]
        if len(used) != len(incident):
            raise StructureError(f"face {x} boundary has several components")
        loops[x] = loop
    return loops


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
        by_index = {e.index: e for e in self.structure.edges}
        for idx, forward in steps:
            e = by_index[idx]
            if meissner and idx in self.removed:
                ids = self.geodesic_ids(x, *e.endpoints)
            else:
                ids = self.arc_ids(e)
            if not forward:
                ids = ids[::-1]
            chunks.append(ids[:-1])
        return np.concatenate(chunks)

    def add_faces(self, meissner: bool) -> None:
        loops = _face_loops(self.structure)
        for x, steps in loops.items():
            loop_ids = self.face_loop_ids(x, steps, meissner)
            dirs = self.builder.coords_of(loop_ids) - self.pts[x]
            # a fully excised face (both arcs of a dangling vertex replaced by
            # the same geodesic) collapses to zero solid angle and is skipped
            if abs(_loop_solid_angle(dirs)) < 1e-9:
                continue
            self.builder.cap(self.pts[x], loop_ids, self.refine)

    def spindle_grid(self, pair: DualPair) -> tuple[np.ndarray, SpindleFrame]:
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
        return grid, frame

    def add_spindles(self, into_body: bool) -> None:
        for pair in self.structure.pairs:
            grid, frame = self.spindle_grid(pair)
            mid_n = frame.normal(frame.phi_prime / 2.0, frame.theta_prime / 2.0)
            outward = mid_n if not into_body else -mid_n
            self.builder.grid(grid, np.asarray(outward, dtype=float).reshape(3))

    def add_wedge(self, index: int) -> None:
        pair = self.structure.pairs[index]
        grid, frame = self.spindle_grid(pair)
        self.builder.grid(grid, np.asarray(
            frame.normal(frame.phi_prime / 2.0, frame.theta_prime / 2.0)).reshape(3))
        removed = pair.removed
        arc_ids = self.arc_ids(removed)
        if removed.endpoints[0] != pair.p_prime:
            arc_ids = arc_ids[::-1]
        for sphere in (pair.p, pair.q):
            geo = self.geodesic_ids(sphere, pair.p_prime, pair.q_prime)
            mid_pt = 0.5 * (self.builder.coords_of(arc_ids[[self.refine // 2]])[0]
                            + self.builder.coords_of(geo[[self.refine // 2]])[0])
            outward = mid_pt - self.pts[sphere]
            self.builder.strip(arc_ids, geo, outward)


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
        mesher.add_spindles(into_body=True)
    elif kind == "wedge":
        if wedge_index is None or not 0 <= wedge_index < len(structure.pairs):
            raise ValueError("wedge mesh requires a valid pair index")
        mesher.add_wedge(wedge_index)
    else:
        raise ValueError(f"unknown body kind {kind!r}")
    mesh = mesher.builder.build()
    mesh.vertices.flags.writeable = False
    mesh.triangles.flags.writeable = False
    object.__setattr__(mesh, "stats", _require_closed(mesh))
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


def _obj_face_line(path: str, row: int) -> int:
    """Line number of the ``row``-th face line of an OBJ file."""
    with open(path, "r", encoding="utf-8") as fh:
        face_lines = (k for k, line in enumerate(fh, start=1)
                      if line.split()[:1] == ["f"])
        return next(itertools.islice(face_lines, row, None))


def import_obj(path: str) -> TriangleMesh:
    """Read ``v`` and ``f`` lines; face indices must lie in 1..vertex count.

    Raises MeshError naming the first face line with fewer than three
    indices, or with an index outside that range (0, a relative negative
    index, or past the last vertex).
    """
    verts, tris = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                tris.append([int(p.split("/")[0]) for p in parts[1:4]])
    # the offending line is located only on error, keeping the parse lean
    try:
        t = np.array(tris, dtype=np.int64).reshape(len(tris), 3)
    except ValueError:
        row = next(k for k, face in enumerate(tris) if len(face) < 3)
        raise MeshError(f"OBJ line {_obj_face_line(path, row)}: face has "
                        f"{len(tris[row])} indices, needs 3") from None
    bad = (t < 1) | (t > len(verts))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise MeshError(f"OBJ line {_obj_face_line(path, row)}: face index "
                        f"{t[row, col]} outside 1..{len(verts)}")
    return TriangleMesh(vertices=np.array(verts, dtype=float).reshape(-1, 3),
                        triangles=t - 1)


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


def import_ply(path: str) -> TriangleMesh:
    """Read an ASCII PLY; face indices must lie in 0..vertex count - 1.

    Raises MeshError naming the first face with fewer than three indices, or
    with an index outside that range.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_v = n_f = 0
        for line in fh:
            parts = line.split()
            if parts[:2] == ["element", "vertex"]:
                n_v = int(parts[2])
            elif parts[:2] == ["element", "face"]:
                n_f = int(parts[2])
            elif parts == ["end_header"]:
                break
        verts = [[float(p) for p in fh.readline().split()[:3]] for _ in range(n_v)]
        tris = [[int(p) for p in fh.readline().split()[1:4]] for _ in range(n_f)]
    try:
        t = np.array(tris, dtype=np.int64).reshape(n_f, 3)
    except ValueError:
        row = next(k for k, face in enumerate(tris) if len(face) < 3)
        raise MeshError(f"PLY face {row}: {len(tris[row])} indices, "
                        "needs 3") from None
    bad = (t < 0) | (t >= n_v)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise MeshError(f"PLY face {row}: vertex index {t[row, col]} "
                        f"outside 0..{n_v - 1}")
    return TriangleMesh(vertices=np.array(verts, dtype=float).reshape(-1, 3),
                        triangles=t)
