"""Primitive geometry for unit-ball intersections.

Circles arising as intersections of two unit spheres, arcs on those
circles, and the distance from points to an arc.  No circle is trimmed
against the balls: edge extraction reads the diameter graph alone
(``polyhedron.extract_edges``).  All values are immutable after
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
        is diametric; one beyond 1 + dist_eps breaks the diameter.  The
        diameter graph it decides is all that edge extraction reads, with
        one more use: an edge arc's midpoint lies within 1 + dist_eps of
        every point.
    theta_max: the bound on the angles of every ``AnglePair``, about pi/3 +
        1.15e-9: the chord angle of the longest distance the default
        dist_eps accepts, so a set that validates at the default also
        analyzes.  A larger dist_eps leaves it in place.
    Fixed where they act: a mesh face of solid angle below 1e-9 is
    collapsed, a face cap refuses a loop point more than 3.0 rad from its
    barycenter direction (``MeshBuilder.cap``), ``pair_duals`` refuses a
    dual pair whose orientation sign is exactly 0, ``Circle3`` checks its
    frame to 1e-9 and its radius to 1 + 1e-12, ``circle_of_sphere_pair``
    takes centers within 1e-12 as coincident, and the Monte Carlo window of
    unit draws is widened by 64 eps (1 + max |x|), far above its rounding,
    and a wedge's ball box m +- h by a further 1e-6
    (``oracle._unit_window``).
    """

    dist_eps: float = 1e-9
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
        psi = math.atan2(float(w @ self.v_ref), float(w @ self.u_ref)) % TWO_PI
        return psi if psi < TWO_PI else 0.0  # -tiny % 2*pi rounds to 2*pi


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

    def sample_points(self, n: int) -> np.ndarray:
        """The n - 1 interior points of n equal steps along the arc."""
        return self.circle.points(
            np.linspace(self.start_angle, self.end_angle, n + 1)[1:-1])


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
