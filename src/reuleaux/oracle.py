"""Seeded Monte Carlo volume estimation via exact membership predicates.

A point is in the Reuleaux body when it is within distance 1 of every center.
The Meissner body additionally requires distance at most 1 from every point
of each kept edge arc; the wedge cut away at pair i is the part of the
Reuleaux body at max-distance >= 1 from the i-th kept arc.  Membership uses
closed inequalities with no epsilon: the boundaries have measure zero.

Sampling is hit-or-miss over an axis-aligned box.  Chunk k of the run draws
from the Philox substream jumped(k) of the seed, so estimates are
bit-identical for a fixed (seed, samples, batch) regardless of worker count.
Before the exact test, a draw is dropped when one coordinate already puts it
outside some ball: the box where all balls meet, widened by a rounding slack
and mapped back to the unit draws, is a window that every hit lies in.  A
wedge's window is also cut to the box of the ball on its kept arc's support
segment, which holds the wedge.  Only the kept draws are scaled, to the same
floats as before, so hit counts are those of testing every draw.

Every body of a run reads the same unit draws, so ``unit_draws`` draws each
chunk once, in the calling thread, for a set of bodies.  It keeps the draws
in the hull of their windows: on each axis, from the lowest to the highest
bound of any window, and uncut on an axis some window leaves uncut.  The
hull contains every window and the filter keeps draw order, so each body,
filtering the pool by its own window, gets the very draws, and after scaling
the very floats, it would get from the whole chunk; its hit count is
unchanged.  The pool holds about half the draws on tetra, pentad and an
n = 6 pyramid, about 12 bytes per sample, until the run's last body is
tested.

The oracle works on coordinate columns.  Each chunk's pooled draws are one
contiguous (3, m) block, cut from the (size, 3) draw by one mask over every
axis of the hull; each body's window is one mask and one ``take`` of that
block, scaled in place per coordinate, which gives the floats of scaling
the rows.  One kernel, ``_members``, tests the columns against the balls,
center by center, for ``mc_volume`` and ``contains_many`` alike, and only
its survivors, about 2 % of a box, go back to rows for the arc tests.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geom import ArcOnCircle, max_distance_to_arc_many
from .polyhedron import PointConfig, Structure, body_label


@dataclass(frozen=True, eq=False)
class BodySpec:
    """Which body a membership test targets.

    ``arcs`` are the kept arcs of all dual pairs, in pair order; they are
    required for the Meissner and wedge kinds and ignored for Reuleaux.
    """

    kind: str
    config: PointConfig
    arcs: tuple[ArcOnCircle, ...] = ()
    wedge_index: int | None = None

    def __post_init__(self) -> None:
        body_label(self.kind, self.wedge_index, len(self.arcs))
        if self.kind != "reuleaux" and not self.arcs:
            raise ValueError(f"{self.kind} body requires the kept edge arcs")


def body_from_structure(structure: Structure, kind: str,
                        wedge_index: int | None = None) -> BodySpec:
    return BodySpec(kind=kind, config=structure.config,
                    arcs=tuple(dp.kept.arc for dp in structure.pairs),
                    wedge_index=wedge_index)


@dataclass(frozen=True)
class McConfig:
    seed: int
    samples: int
    batch: int = 1_000_000
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError("seed must lie in 0..2**128 - 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.batch < 1 or self.workers < 1:
            raise ValueError("batch and workers must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    volume_mean: float
    std_error: float
    hit_count: int
    sample_count: int
    bbox_volume: float


def contains_many(body: BodySpec, points: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (N, 3) array of sample points: the
    rows' columns, tested by the one kernel ``mc_volume`` runs too."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(pts), dtype=bool)
    inside[_members(body, pts.T)] = True
    return inside


def _members(body: BodySpec, cols: np.ndarray) -> np.ndarray:
    """The indices, in order, of the points in ``body`` among those whose
    coordinate columns are the three rows of ``cols``.

    The ball test takes one center at a time and keeps only the points still
    inside, so most points leave after the first few centers.  A squared
    distance is summed (dx^2 + dz^2) + dy^2, the order in which
    ``np.einsum("ij,ij->i")`` sums a row: any other order, or the expanded
    |p|^2 - 2 p.c + |c|^2, rounds differently and moves points near a sphere
    across it (``tests/test_oracle.py`` keeps the all-centers reference that
    pins this).  The arc tests read the ball test's survivors as rows.
    """
    x, y, z = cols
    idx = None
    for cx, cy, cz in body.config.points.tolist():
        d2 = x - cx
        d2 *= d2
        t = z - cz
        t *= t
        d2 += t
        np.subtract(y, cy, out=t)
        t *= t
        d2 += t
        keep = np.flatnonzero(d2 <= 1.0)
        x, y, z = x.take(keep), y.take(keep), z.take(keep)
        idx = keep if idx is None else idx.take(keep)
        if not idx.size:
            return idx
    if body.kind == "reuleaux":
        return idx
    sub = np.stack((x, y, z), axis=1)
    if body.kind == "meissner":
        ok = np.ones(len(sub), dtype=bool)
        for arc in body.arcs:
            ok &= max_distance_to_arc_many(sub, arc) <= 1.0
        return idx[ok]
    return idx[max_distance_to_arc_many(sub, body.arcs[body.wedge_index])
               >= 1.0]


def bounding_box(body: BodySpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box guaranteed to contain the body.

    Every body point lies within 1 of all centers, so the global box is the
    centers' box expanded by 1.  Wedge boxes are tightened to the box of the
    ball-pair lens of the kept arc's endpoints, whose spheres carry the
    wedge's sliver patches.
    """
    pts = body.config.points
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    if body.kind == "wedge":
        arc = body.arcs[body.wedge_index]
        p = arc.circle.point(arc.start_angle)
        q = arc.circle.point(arc.end_angle)
        d = float(np.linalg.norm(p - q))
        axis = (p - q) / d
        mid = 0.5 * (p + q)
        along = 1.0 - d / 2.0
        across = math.sqrt(max(1.0 - d * d / 4.0, 0.0))
        extent = along * np.abs(axis) + across * np.sqrt(
            np.maximum(1.0 - axis * axis, 0.0))
        lo = np.maximum(lo, mid - extent)
        hi = np.minimum(hi, mid + extent)
    return lo, hi


def _unit_window(body: BodySpec, lo: np.ndarray,
                 span: np.ndarray) -> list[tuple[int, float, float]]:
    """(axis, low, high) bounds on the unit draws outside which a sample is
    certainly outside the body, narrowest first; axes the window does not
    cut are left out.

    Every body point lies within 1 of every center, so on axis a it lies in
    [max_c c_a - 1, min_c c_a + 1].  The wedge of pair i also lies in the
    closed ball B(m, h) whose diameter is the kept arc's support pair p', q':
    m is the center of the kept arc's circle, of radius r, and
    h = sqrt(1 - r^2) = |p'q'| / 2.  Proof: the wedge's boundary is the
    spindle and two slivers, the patches ``mesh._BodyMesher.add_wedge``
    meshes.  Every spindle row, and the removed arc, is a minor arc
    from p' to q' of a unit circle, so by Thales' theorem it lies in the ball
    with diameter p'q'.  Each sliver lies on the sphere of a kept endpoint,
    between two such arcs, which lie in that sphere's cap inside the ball,
    of angular radius asin(h) <= pi/6; the cap is geodesically convex, so
    the sliver lies in it too.  The wedge lies in the convex hull of its
    boundary, hence in the ball, and the wedge window is cut to the box
    m +- (h + 1e-6).  The fixed 1e-6 covers the rounding of the membership
    test and of m, a few ulps, and of h, about eps / h; the wedge reaches the
    ball's sphere only at its tips p', q', where ``tests/test_oracle.py``
    probes it down to 1e-8.

    Both boxes are widened by the slack s = 64 eps (1 + max |x|), then
    mapped to the draws of the sampling box ``lo + u*span``.  A draw below
    ``low`` or above ``high`` scales to a coordinate farther than 1 + s
    from some center, or farther than h + 1e-6 + s from m: the map and
    this window's own arithmetic round by a few ulps of the coordinates'
    size, far below s.  The exact test subtracts that center and gets
    fl(p_a - c_a) beyond 1 in magnitude, so its squared distance, a sum of
    non-negative terms, exceeds 1 and ``contains_many`` rejects the sample
    too; a sample beyond the ball's box is not in the wedge.
    """
    pts = body.config.points
    s = 64.0 * np.finfo(float).eps * (1.0 + float(np.abs(pts).max()))
    bottom = pts.max(axis=0) - 1.0
    top = pts.min(axis=0) + 1.0
    if body.kind == "wedge":
        circle = body.arcs[body.wedge_index].circle
        h = math.sqrt(max(1.0 - circle.radius * circle.radius, 0.0)) + 1e-6
        bottom = np.maximum(bottom, circle.center - h)
        top = np.minimum(top, circle.center + h)
    low = (bottom - s - lo) / span
    high = (top + s - lo) / span
    return [(int(a), float(low[a]), float(high[a]))
            for a in np.argsort(high - low, kind="stable")
            if low[a] > 0.0 or high[a] < 1.0]


@dataclass(frozen=True, eq=False)
class UnitDraws:
    """The unit draws of one run, drawn once for ``bodies``: ``rows[k]``
    holds, in draw order, the draws of ``Philox(key=seed).jumped(k)``'s
    (size, 3) draw that lie in the hull of those bodies' unit windows, as
    one contiguous (3, m) block of coordinate columns."""

    mc: McConfig
    bodies: tuple[BodySpec, ...]
    rows: tuple[np.ndarray, ...]


def _box(body: BodySpec) -> tuple[np.ndarray, np.ndarray]:
    """The body's sampling box as ``lo`` and ``span``."""
    lo, hi = bounding_box(body)
    return lo, hi - lo


def _kept(cols: np.ndarray,
          window: list[tuple[int, float, float]]) -> np.ndarray:
    """The indices, in order, of the points of the coordinate columns
    ``cols`` inside ``window``: one mask over every axis the window cuts."""
    keep = np.ones(cols.shape[1], dtype=bool)
    for a, low, high in window:
        keep &= cols[a] >= low
        keep &= cols[a] <= high
    return np.flatnonzero(keep)


def _pooled(draw: np.ndarray,
            hull: list[tuple[int, float, float]]) -> np.ndarray:
    """The rows of the (size, 3) ``draw`` inside ``hull``, in order, as one
    contiguous (3, m) block of coordinate columns."""
    idx = _kept(draw.T, hull)
    block = np.empty((3, idx.size))
    # column by column: one take of the draw's strided columns would first
    # copy the whole draw into columns
    for col, out in zip(draw.T, block):
        out[:] = col[idx]
    return block


def unit_draws(bodies, mc: McConfig) -> UnitDraws:
    """Draw every chunk of ``mc`` once, in the calling thread, and keep the
    draws that some body's unit window may keep: on each axis every window
    cuts, those between the lowest low and the highest high."""
    bodies = tuple(bodies)
    if not bodies:
        raise ValueError("unit draws need at least one body")
    cuts = [{a: (low, high) for a, low, high in _unit_window(b, *_box(b))}
            for b in bodies]
    hull = sorted(((a, min(c[a][0] for c in cuts), max(c[a][1] for c in cuts))
                   for a in range(3) if all(a in c for c in cuts)),
                  key=lambda w: w[2] - w[1])
    rows = []
    for k, start in enumerate(range(0, mc.samples, mc.batch)):
        rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(k))
        # the draw is a temporary: it is freed before the next one is made
        rows.append(_pooled(
            rng.random((min(mc.batch, mc.samples - start), 3)), hull))
    return UnitDraws(mc=mc, bodies=bodies, rows=tuple(rows))


def mc_volume(body: BodySpec, mc: McConfig,
              draws: UnitDraws | None = None) -> McEstimate:
    """Unbiased hit-or-miss volume estimate over the bounding box.

    The unit draws come from ``draws``, drawn for a set of bodies that holds
    this one, or, without it, from a pool drawn for this body alone.  Draws
    outside the unit window of ``_unit_window`` skip the scaling and the
    exact test, which would reject them; hit counts are those of testing
    every draw.
    """
    if draws is None:
        draws = unit_draws((body,), mc)
    else:
        label = body_label(body.kind, body.wedge_index, len(body.arcs))
        drawn = draws.mc
        if (drawn.seed, drawn.samples, drawn.batch) != \
                (mc.seed, mc.samples, mc.batch):
            raise ValueError(f"the draws for {label} were made with seed "
                             f"{drawn.seed}, {drawn.samples} samples and "
                             f"batch {drawn.batch}, not with seed {mc.seed}, "
                             f"{mc.samples} samples and batch {mc.batch}")
        if not any(b is body for b in draws.bodies):
            raise ValueError(f"the draws were not made for {label}: they "
                             "hold only the rows their own bodies may hit")
    lo, span = _box(body)
    window = _unit_window(body, lo, span)
    box_volume = float(np.prod(span))

    def hits_of(block: np.ndarray) -> int:
        pts = block.take(_kept(block, window), axis=1)
        pts *= span[:, None]
        pts += lo[:, None]
        return len(_members(body, pts))

    if mc.workers > 1 and len(draws.rows) > 1:
        with ThreadPoolExecutor(max_workers=mc.workers) as pool:
            hits = sum(pool.map(hits_of, draws.rows))
    else:
        hits = sum(map(hits_of, draws.rows))
    n = mc.samples
    p = hits / n
    return McEstimate(
        volume_mean=box_volume * p,
        std_error=box_volume * math.sqrt(p * (1.0 - p) / n),
        hit_count=hits,
        sample_count=n,
        bbox_volume=box_volume,
    )
