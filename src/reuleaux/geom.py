"""Primitive geometry for unit-ball intersections.

Circles arising as intersections of two unit spheres, arcs on those circles,
and closed angular-interval arithmetic on canonical tuples used to trim
circles against further ball constraints.  All values are immutable after
construction and every operation is a pure function, so everything here is
safe to share across workers.  Lengths are unitless; the unit ball radius 1
sets the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DegenerateInputError

TWO_PI = 2.0 * math.pi
# An angular set is a finite union of closed intervals on the circle
# [0, 2*pi), held as a canonical tuple ((lo, hi), ...): sorted, pairwise
# disjoint, each interval inside [0, 2*pi].  () is the empty set and FULL
# the whole circle.  Intervals shorter than Tolerances.ang_eps are dropped
# and gaps shorter than it closed, which suppresses tangency noise.
FULL = ((0.0, TWO_PI),)

_BASIS = np.eye(3)


def as_point(p) -> np.ndarray:
    """A finite float 3-vector copied from ``p``, so a record may freeze it."""
    a = np.array(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError("coordinates must be finite")
    return a


def cross(a, b) -> tuple:
    """The components of ``a x b`` with ``np.cross``'s floats, each one
    rounded product minus another; ``a`` and ``b`` hold three floats, or
    three arrays (the columns of a stack of vectors)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _unit(v: np.ndarray) -> np.ndarray:
    # the ddot of np.linalg.norm; a Python sum of squares rounds otherwise
    n = math.sqrt(float(v @ v))
    if n == 0.0:
        raise DegenerateInputError("zero vector has no direction")
    return v / n


def reference_direction(axis: np.ndarray) -> np.ndarray:
    """Deterministic angle-zero direction orthogonal to ``axis``.

    Uses the global basis vector least aligned with the axis (lowest index on
    ties), so arc parametrizations are reproducible across runs.
    """
    a = axis.tolist()
    k = min(range(3), key=lambda i: abs(a[i]))
    return _unit(_BASIS[k] - a[k] * axis)


@dataclass(frozen=True)
class Tolerances:
    """The one table of numerical slack; ``dist_eps`` is its only setting.

    dist_eps (the CLI's --tol-dist): a pair within dist_eps of distance 1
        is diametric; one beyond 1 + dist_eps breaks the diameter.
    ang_eps: circle intervals and gaps shorter than this are tangency noise
        (edge extraction).
    match_eps: how near an arc endpoint must come to its vertex, and a
        point of X to a support circle.
    on_axis: a ball constraint of amplitude below this has its center on
        the circle's axis (``trim_circle``).
    theta_max: the bound on the angles of every ``AnglePair``, about pi/3 +
        1.15e-9: the chord angle of the longest distance the default
        dist_eps accepts, so a set that validates at the default also
        analyzes.  A larger dist_eps leaves it in place.
    Fixed where they act: edge extraction trims the pairs with two common
    neighbours within max(dist_eps, 2 match_eps) of distance 1, a mesh face
    of solid angle below 1e-9 is collapsed, a face cap refuses a loop point
    more than 3.0 rad from its barycenter direction and floors the sine it
    divides by at 1e-14 (``MeshBuilder.cap``), a spindle must close within
    1e-6 (``SpindleFrame``) and ``SpindleFrame.point`` takes parameters up
    to 1e-12 outside its rectangle, ``pair_duals`` refuses a dual pair whose
    orientation sign is exactly 0, ``Circle3`` checks its frame to 1e-9 and
    its radius to 1 + 1e-12, ``circle_of_sphere_pair`` takes centers within
    1e-12 as coincident, and the Monte Carlo window of unit draws is widened
    by 64 eps (1 + max |x|), far above its rounding (``oracle._unit_window``).
    """

    dist_eps: float = 1e-9
    ang_eps: ClassVar[float] = 1e-7
    match_eps: ClassVar[float] = 1e-7
    on_axis: ClassVar[float] = 1e-15
    theta_max: ClassVar[float] = 2.0 * math.asin((1.0 + dist_eps) / 2.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.dist_eps < 1e-3:
            raise ValueError("dist_eps must lie in (0, 1e-3)")


@dataclass(frozen=True, eq=False)
class Circle3:
    """A circle in 3-space with an orthonormal frame fixing the angle origin.

    Points are ``center + radius*(cos(psi)*u_ref + sin(psi)*v_ref)`` with
    ``v_ref = axis x u_ref``; angles increase counterclockwise about ``axis``.
    """

    center: np.ndarray
    radius: float
    axis: np.ndarray
    u_ref: np.ndarray
    v_ref: np.ndarray = field(init=False)  # axis x u_ref, set in __post_init__

    def __post_init__(self) -> None:
        center = as_point(self.center)
        axis = as_point(self.axis)
        u_ref = as_point(self.u_ref)
        a = axis.tolist()
        u = u_ref.tolist()
        if abs(math.hypot(*a) - 1.0) > 1e-9:
            raise DegenerateInputError("axis must be a unit vector")
        if abs(math.hypot(*u) - 1.0) > 1e-9:
            raise DegenerateInputError("u_ref must be a unit vector")
        if abs(a[0] * u[0] + a[1] * u[1] + a[2] * u[2]) > 1e-9:
            raise DegenerateInputError("u_ref must be orthogonal to axis")
        if not 0.0 < self.radius <= 1.0 + 1e-12:
            raise DegenerateInputError("radius must lie in (0, 1]")
        for name, arr in (("center", center), ("axis", axis), ("u_ref", u_ref),
                          ("v_ref", np.array(cross(a, u)))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def point(self, psi: float) -> np.ndarray:
        return self.center + self.radius * (
            math.cos(psi) * self.u_ref + math.sin(psi) * self.v_ref)

    def points(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=float)
        return (self.center
                + self.radius * (np.cos(psi)[..., None] * self.u_ref
                                 + np.sin(psi)[..., None] * self.v_ref))

    def angle_of(self, p: np.ndarray) -> float:
        """Angle of the (projected) point ``p`` on this circle, in [0, 2*pi)."""
        w = as_point(p) - self.center
        return math.atan2(float(w @ self.v_ref), float(w @ self.u_ref)) % TWO_PI


@dataclass(frozen=True, eq=False)
class ArcOnCircle:
    """Closed arc ``start_angle <= psi <= end_angle`` on a circle.

    ``end_angle`` may exceed 2*pi for arcs crossing the angle origin; the span
    is always positive and strictly less than a full turn.
    """

    circle: Circle3
    start_angle: float
    end_angle: float

    def __post_init__(self) -> None:
        if not 0.0 < self.span < TWO_PI:
            raise DegenerateInputError(
                f"arc span must lie in (0, 2*pi), got {self.span}")

    @property
    def span(self) -> float:
        return self.end_angle - self.start_angle

    def sample_angles(self, n: int) -> np.ndarray:
        return np.linspace(self.start_angle, self.end_angle, n + 1)

    def sample_points(self, n: int) -> np.ndarray:
        return self.circle.points(self.sample_angles(n))


def _canonical(raw) -> tuple[tuple[float, float], ...]:
    """The canonical intervals (see ``FULL``) of raw (lo, hi) pairs, any
    real lo; a pair with hi <= lo is skipped."""
    eps = Tolerances.ang_eps
    pieces = []
    for lo, hi in raw:
        span = hi - lo
        if span <= 0.0:
            continue
        if span >= TWO_PI - eps:
            return FULL
        lo = lo % TWO_PI
        hi = lo + span
        if hi > TWO_PI:
            pieces.append((lo, TWO_PI))
            pieces.append((0.0, hi - TWO_PI))
        else:
            pieces.append((lo, hi))
    if not pieces:
        return ()
    pieces.sort()
    merged = [pieces[0]]
    for lo, hi in pieces[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + eps:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    kept = tuple([iv for iv in merged if iv[1] - iv[0] > eps])
    if sum([hi - lo for lo, hi in kept]) >= TWO_PI - eps:
        return FULL
    return kept


def _arc(lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    """``_canonical(((lo, hi),))``, float for float; only an arc that is
    empty, nearly full or wraps past 2*pi goes through the list and sort."""
    eps = Tolerances.ang_eps
    span = hi - lo
    start = lo % TWO_PI
    end = start + span
    if not 0.0 < span < TWO_PI - eps or end > TWO_PI:
        return _canonical(((lo, hi),))
    span = end - start
    return (FULL if span >= TWO_PI - eps
            else ((start, end),) if span > eps else ())


def _meet(a, b) -> tuple[tuple[float, float], ...]:
    """The canonical intersection of canonical intervals ``a`` and ``b``."""
    if a == FULL:
        return b
    if b == FULL:
        return a
    if len(a) == 1 == len(b):
        return _arc(max(a[0][0], b[0][0]), min(a[0][1], b[0][1]))
    out = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi - lo > 0.0:
                out.append((lo, hi))
    return _arc(*out[0]) if len(out) == 1 else _canonical(out)


def components(intervals) -> list[tuple[float, float]]:
    """Connected components of canonical intervals; a component crossing the
    angle origin is returned as one interval with hi > 2*pi."""
    eps = Tolerances.ang_eps
    ivs = list(intervals)
    if len(ivs) >= 2 and ivs[0][0] <= eps and ivs[-1][1] >= TWO_PI - eps:
        first = ivs.pop(0)
        last = ivs.pop()
        ivs.append((last[0], first[1] + TWO_PI))
    return ivs


def circle_of_sphere_pair(b, c) -> Circle3:
    """Circle of points at distance 1 from both ``b`` and ``c``.

    Requires 0 < |b - c| < 2; the center is the midpoint, the axis points
    from c to b, and the radius is sqrt(1 - |b-c|^2/4).
    """
    b = as_point(b)
    c = as_point(c)
    diff = b - c
    d = math.sqrt(float(diff @ diff))  # the ddot of np.linalg.norm
    if d < 1e-12:
        raise DegenerateInputError("sphere centers coincide")
    r2 = 1.0 - 0.25 * d * d
    if r2 <= 0.0:
        raise DegenerateInputError(
            f"sphere centers too far apart for a common circle: |b-c|={d}")
    axis = diff / d
    return Circle3(center=0.5 * (b + c), radius=math.sqrt(r2), axis=axis,
                   u_ref=reference_direction(axis))


def trim_circle(circle: Circle3, centers: np.ndarray
                ) -> tuple[tuple[float, float], ...]:
    """The canonical intervals of the angles psi with
    |circle.point(psi) - x| <= 1 for every row x of the (m, 3) float array
    ``centers``: () when a ball misses the circle, FULL when none cuts it.
    Rows are intersected in order up to the first empty set.  A row's
    constraint K*cos(psi - alpha) >= C takes its three dots from one
    ``np.vecdot`` batch (rounded per row as the 1-D ``@``) and its angles
    from ``math`` (numpy's round differently)."""
    w = centers - circle.center
    wu = np.vecdot(w, circle.u_ref).tolist()
    wv = np.vecdot(w, circle.v_ref).tolist()
    ww = np.vecdot(w, w).tolist()
    r = circle.radius
    two_r = 2.0 * r
    r2 = r * r
    surviving = FULL
    for pu, pv, pw in zip(wu, wv, ww):
        a = two_r * pu
        b = two_r * pv
        c = pw + r2 - 1.0
        k = math.hypot(a, b)
        ratio = (c / k if k >= Tolerances.on_axis
                 else -1.0 if c <= 0.0 else 1.0)  # x on the circle's axis
        if ratio >= 1.0:
            return ()
        if ratio > -1.0:
            alpha = math.atan2(b, a)
            half = math.acos(ratio)
            surviving = _meet(surviving, _arc(alpha - half, alpha + half))
            if not surviving:
                break
    return surviving


def max_distance_to_arc_many(points: np.ndarray, arc: ArcOnCircle) -> np.ndarray:
    """Max distance from each row of ``points`` to the closed arc.

    Analytic: the unconstrained maximizer angle on the circle is clamped
    against the arc interval, then compared with the endpoint distances.
    """
    circle = arc.circle
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = pts - circle.center
    a = w @ circle.u_ref
    b = w @ circle.v_ref
    base = np.einsum("ij,ij->i", w, w) + circle.radius * circle.radius
    two_r = 2.0 * circle.radius
    psi_star = np.arctan2(-b, -a)
    inside = (psi_star - arc.start_angle) % TWO_PI <= arc.span
    d2_interior = base + two_r * np.hypot(a, b)
    d2_lo = base - two_r * (a * math.cos(arc.start_angle)
                            + b * math.sin(arc.start_angle))
    d2_hi = base - two_r * (a * math.cos(arc.end_angle)
                            + b * math.sin(arc.end_angle))
    d2 = np.where(inside, d2_interior, np.maximum(d2_lo, d2_hi))
    return np.sqrt(np.maximum(d2, 0.0))
