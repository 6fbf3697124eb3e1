"""Primitive geometry for unit-ball intersections.

Circles arising as intersections of two unit spheres, arcs on those circles,
and closed angular-interval arithmetic used to trim circles against further
ball constraints.  All values are immutable after construction and every
operation is a pure function, so everything here is safe to share across
workers.  Lengths are unitless; the unit ball radius 1 sets the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

TWO_PI = 2.0 * math.pi

_BASIS = np.eye(3)


def as_point(p) -> np.ndarray:
    """Coerce ``p`` to a finite float 3-vector."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    return a


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise DegenerateInputError("zero vector has no direction")
    return v / n


def reference_direction(axis: np.ndarray) -> np.ndarray:
    """Deterministic angle-zero direction orthogonal to ``axis``.

    Uses the global basis vector least aligned with the axis (lowest index on
    ties), so arc parametrizations are reproducible across runs.
    """
    k = int(np.argmin(np.abs(axis)))
    return _unit(_BASIS[k] - axis[k] * axis)


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack policy.

    dist_eps: distance-equality slack (diametric-pair detection).
    ang_eps: angular slack on circles; intervals shorter than this are
        treated as tangency noise and discarded.
    match_eps: arc-endpoint-to-vertex matching radius.
    """

    dist_eps: float = 1e-9
    ang_eps: float = 1e-7
    match_eps: float = 1e-7

    def __post_init__(self) -> None:
        if not 0.0 < self.dist_eps < 1e-3:
            raise ValueError("dist_eps must lie in (0, 1e-3)")
        if self.ang_eps <= 0.0 or self.match_eps <= 0.0:
            raise ValueError("all tolerances must be strictly positive")


@dataclass(frozen=True)
class Circle3:
    """A circle in 3-space with an orthonormal frame fixing the angle origin.

    Points are ``center + radius*(cos(psi)*u_ref + sin(psi)*v_ref)`` with
    ``v_ref = axis x u_ref``; angles increase counterclockwise about ``axis``.
    """

    center: np.ndarray
    radius: float
    axis: np.ndarray
    u_ref: np.ndarray
    v_ref: np.ndarray = None  # derived; filled in __post_init__

    def __post_init__(self) -> None:
        center = as_point(self.center)
        axis = as_point(self.axis)
        u_ref = as_point(self.u_ref)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
            raise DegenerateInputError("axis must be a unit vector")
        if abs(np.linalg.norm(u_ref) - 1.0) > 1e-9:
            raise DegenerateInputError("u_ref must be a unit vector")
        if abs(float(axis @ u_ref)) > 1e-9:
            raise DegenerateInputError("u_ref must be orthogonal to axis")
        if not 0.0 < self.radius <= 1.0 + 1e-12:
            raise DegenerateInputError("radius must lie in (0, 1]")
        for name, arr in (("center", center), ("axis", axis), ("u_ref", u_ref),
                          ("v_ref", np.cross(axis, u_ref))):
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


@dataclass(frozen=True)
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


class AngularIntervalSet:
    """Finite union of closed angular intervals on the circle [0, 2*pi).

    Stored in canonical form: sorted, pairwise disjoint, each interval inside
    [0, 2*pi].  A set covering the whole circle is stored as ((0, 2*pi),).
    Intervals shorter than the construction epsilon are discarded, and gaps
    shorter than it are closed, which suppresses tangency noise.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[float, float], ...]):
        self.intervals = intervals

    @staticmethod
    def empty() -> "AngularIntervalSet":
        return AngularIntervalSet(())

    @staticmethod
    def full() -> "AngularIntervalSet":
        return AngularIntervalSet(((0.0, TWO_PI),))

    @classmethod
    def from_raw(cls, raw, eps: float) -> "AngularIntervalSet":
        """Canonicalize raw (lo, hi) pairs with hi > lo, any real lo."""
        pieces = []
        for lo, hi in raw:
            span = hi - lo
            if span <= 0.0:
                continue
            if span >= TWO_PI - eps:
                return cls.full()
            lo = lo % TWO_PI
            hi = lo + span
            if hi > TWO_PI:
                pieces.append((lo, TWO_PI))
                pieces.append((0.0, hi - TWO_PI))
            else:
                pieces.append((lo, hi))
        if not pieces:
            return cls.empty()
        pieces.sort()
        merged = [pieces[0]]
        for lo, hi in pieces[1:]:
            mlo, mhi = merged[-1]
            if lo <= mhi + eps:
                merged[-1] = (mlo, max(mhi, hi))
            else:
                merged.append((lo, hi))
        kept = tuple(iv for iv in merged if iv[1] - iv[0] > eps)
        if sum(hi - lo for lo, hi in kept) >= TWO_PI - eps:
            return cls.full()
        return cls(kept)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return self.intervals == ((0.0, TWO_PI),)

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def intersect(self, other: "AngularIntervalSet",
                  eps: float) -> "AngularIntervalSet":
        if self.is_full:
            return other
        if other.is_full:
            return self
        out = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if hi - lo > 0.0:
                    out.append((lo, hi))
        return AngularIntervalSet.from_raw(out, eps)

    def components(self, eps: float) -> list[tuple[float, float]]:
        """Connected components; a component crossing the angle origin is
        returned as one interval with hi > 2*pi."""
        if self.is_full or self.is_empty:
            return list(self.intervals)
        ivs = list(self.intervals)
        if len(ivs) >= 2 and ivs[0][0] <= eps and ivs[-1][1] >= TWO_PI - eps:
            first = ivs.pop(0)
            last = ivs.pop()
            ivs.append((last[0], first[1] + TWO_PI))
        return ivs

    def __repr__(self) -> str:
        return f"AngularIntervalSet({self.intervals!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, AngularIntervalSet)
                and self.intervals == other.intervals)


def circle_of_sphere_pair(b, c) -> Circle3:
    """Circle of points at distance 1 from both ``b`` and ``c``.

    Requires 0 < |b - c| < 2; the center is the midpoint, the axis points
    from c to b, and the radius is sqrt(1 - |b-c|^2/4).
    """
    b = as_point(b)
    c = as_point(c)
    d = float(np.linalg.norm(b - c))
    if d < 1e-12:
        raise DegenerateInputError("sphere centers coincide")
    r2 = 1.0 - 0.25 * d * d
    if r2 <= 0.0:
        raise DegenerateInputError(
            f"sphere centers too far apart for a common circle: |b-c|={d}")
    axis = (b - c) / d
    return Circle3(center=0.5 * (b + c), radius=math.sqrt(r2), axis=axis,
                   u_ref=reference_direction(axis))


def ball_constraint_interval(circle: Circle3, x,
                             ang_eps: float = 1e-7) -> AngularIntervalSet:
    """Angles psi with |circle.point(psi) - x| <= 1.

    The constraint reduces to K*cos(psi - alpha) >= C, giving the empty set,
    one closed arc, or the full circle.
    """
    w = as_point(x) - circle.center
    r = circle.radius
    a = 2.0 * r * float(w @ circle.u_ref)
    b = 2.0 * r * float(w @ circle.v_ref)
    c = float(w @ w) + r * r - 1.0
    k = math.hypot(a, b)
    if k < 1e-15:
        # x on the circle axis: distance is constant around the circle
        return AngularIntervalSet.full() if c <= 0.0 else AngularIntervalSet.empty()
    ratio = c / k
    if ratio >= 1.0:
        return AngularIntervalSet.empty()
    if ratio <= -1.0:
        return AngularIntervalSet.full()
    alpha = math.atan2(b, a)
    half = math.acos(ratio)
    return AngularIntervalSet.from_raw([(alpha - half, alpha + half)], ang_eps)


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
