"""Primitive geometry for unit-ball intersections.

Circles arising as intersections of two unit spheres, arcs on those
circles, and the distance from points to an arc.  No circle is trimmed
against the balls: edge extraction reads the diameter graph alone
(``polyhedron.extract_edges``).  All values are immutable after
construction and every operation is a pure function, so everything here is
safe to share across workers.  Lengths are unitless; the unit ball radius 1
sets the scale.

Support circles are built in one batch (``circles_of_sphere_pairs``), each
frame checked once over the whole batch (``_check_frames``), and the batch
hands back its frame arrays with its records.  The batch
keeps the floats of the one-row formulas: its dot products are
``np.vecdot`` over 3-wide rows, which rounds as the ddot of ``v @ v`` and
``np.linalg.norm`` do (a matrix product over a stack of rows may not), and
its angles are ``math.atan2`` per value, whose floats ``np.arctan2`` does
not always reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DegenerateInputError

TWO_PI = 2.0 * math.pi

_BASIS = np.eye(3)


def _vector(p) -> np.ndarray:
    """A float 3-vector copied from ``p``, so a record may freeze it."""
    a = np.array(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def cross(a, b) -> tuple:
    """The components of ``a x b`` with ``np.cross``'s floats, each one
    rounded product minus another; ``a`` and ``b`` hold three floats, or
    three arrays (the columns of a stack of vectors)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def reference_frames(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angle-zero direction u of each unit row of ``axes``, and
    v = axis x u, as (k, 3) arrays.

    u is the global basis vector least aligned with the axis (lowest index
    on ties) made orthogonal to it and unit, so arc parametrizations are
    reproducible across runs.
    """
    k = np.argmin(np.abs(axes), axis=1)
    u = _BASIS[k] - axes[np.arange(len(axes)), k][:, None] * axes
    u /= np.sqrt(np.vecdot(u, u))[:, None]
    return u, np.stack(cross(axes.T, u.T), axis=1)


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
    dual pair whose orientation sign is exactly 0, the frame check
    (``_check_frames``, run once over each batch of support circles and once
    per hand-built ``Circle3``) holds axis and u_ref unit and orthogonal to
    1e-9 and the radius to 1 + 1e-12, ``circles_of_sphere_pairs`` takes
    centers within 1e-12 as coincident, and the Monte Carlo window of
    unit draws is widened by 64 eps (1 + max |x|), far above its rounding,
    and a wedge's ball box m +- h by a further 1e-6
    (``oracle._unit_window``).
    """

    dist_eps: float = 1e-9
    theta_max: ClassVar[float] = 2.0 * math.asin((1.0 + dist_eps) / 2.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.dist_eps < 1e-3:
            raise ValueError("dist_eps must lie in (0, 1e-3)")


def _named(message: str, k: int, centers) -> str:
    """``message``, naming row k by its sphere centers (b, c) when a batch
    of sphere pairs made the row; a hand-built circle has no centers."""
    if centers is None:
        return message
    b, c = centers
    return f"{message} (row {k}: centers {b[k].tolist()} and {c[k].tolist()})"


def _check_frames(center: np.ndarray, radius: np.ndarray, axis: np.ndarray,
                  u_ref: np.ndarray, centers=None) -> None:
    """Refuse the first row of the (k, 3) frame arrays (k radii) that is not
    a circle's: ValueError unless every coordinate is finite, then
    DegenerateInputError unless axis and u_ref are unit and orthogonal to
    1e-9 and the radius lies in (0, 1 + 1e-12]."""
    checks = (
        (ValueError, "coordinates must be finite", lambda: ~(
            np.isfinite(center) & np.isfinite(axis)
            & np.isfinite(u_ref)).all(axis=1)),
        (DegenerateInputError, "axis must be a unit vector",
         lambda: np.abs(np.sqrt(np.vecdot(axis, axis)) - 1.0) > 1e-9),
        (DegenerateInputError, "u_ref must be a unit vector",
         lambda: np.abs(np.sqrt(np.vecdot(u_ref, u_ref)) - 1.0) > 1e-9),
        (DegenerateInputError, "u_ref must be orthogonal to axis",
         lambda: np.abs(np.vecdot(axis, u_ref)) > 1e-9),
        (DegenerateInputError, "radius must lie in (0, 1]",
         lambda: ~((0.0 < radius) & (radius <= 1.0 + 1e-12))))
    # in order: a NaN passes the unit and orthogonality checks
    for error, message, bad in checks:
        rows = np.flatnonzero(bad())
        if rows.size:
            raise error(_named(message, rows[0], centers))


def circle_angles(points: np.ndarray, center: np.ndarray, u_ref: np.ndarray,
                  v_ref: np.ndarray) -> list[float]:
    """The angle in [0, 2*pi) of each (projected) row of ``points`` on the
    circle of the same row of the frame arrays, or of one frame for all."""
    w = points - center
    angles = []
    for y, x in zip(np.vecdot(w, v_ref).tolist(),
                    np.vecdot(w, u_ref).tolist()):
        psi = math.atan2(y, x) % TWO_PI
        angles.append(psi if psi < TWO_PI else 0.0)  # -tiny % 2*pi is 2*pi
    return angles


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
        center, axis, u_ref = map(_vector, (self.center, self.axis, self.u_ref))
        _check_frames(center[None], np.array([self.radius], dtype=float),
                      axis[None], u_ref[None])
        v_ref = np.array(cross(axis.tolist(), u_ref.tolist()))
        for name, arr in (("center", center), ("axis", axis), ("u_ref", u_ref),
                          ("v_ref", v_ref)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _of_rows(cls, center: np.ndarray, radius: float, axis: np.ndarray,
                 u_ref: np.ndarray, v_ref: np.ndarray) -> Circle3:
        """A record on read-only rows of a batch that ``_check_frames``
        has passed, so its frame is not checked a second time."""
        circle = object.__new__(cls)
        vars(circle).update(center=center, radius=radius, axis=axis,
                            u_ref=u_ref, v_ref=v_ref)
        return circle

    def point(self, psi: float) -> np.ndarray:
        return self.center + self.radius * (
            math.cos(psi) * self.u_ref + math.sin(psi) * self.v_ref)

    def points(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=float)
        return (self.center
                + self.radius * (np.cos(psi)[..., None] * self.u_ref
                                 + np.sin(psi)[..., None] * self.v_ref))


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


class CircleBatch(tuple):
    """The ``Circle3`` records of one batch, in row order, with the batch's
    read-only (k, 3) arrays ``center``, ``u_ref`` and ``v_ref``, whose rows
    the records hold, for callers that work on the whole batch."""

    center: np.ndarray
    u_ref: np.ndarray
    v_ref: np.ndarray


def circles_of_sphere_pairs(b: np.ndarray, c: np.ndarray) -> CircleBatch:
    """The circle of points at distance 1 from both ``b[k]`` and ``c[k]``,
    for each row k of the (k, 3) center arrays, in one batch.

    Requires 0 < |b - c| < 2 on every row; the center is the midpoint, the
    axis points from c to b, the radius is sqrt(1 - |b-c|^2/4), and the
    frame is ``reference_frames``'.  The frames are checked once, over the
    whole batch, and a refusal names the row and its centers.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    diff = b - c
    d = np.sqrt(np.vecdot(diff, diff))
    rows = np.flatnonzero(d < 1e-12)
    if rows.size:
        raise DegenerateInputError(
            _named("sphere centers coincide", rows[0], (b, c)))
    r2 = 1.0 - 0.25 * d * d
    rows = np.flatnonzero(r2 <= 0.0)
    if rows.size:
        k = rows[0]
        raise DegenerateInputError(_named(
            "sphere centers too far apart for a common circle: "
            f"|b-c|={float(d[k])}", k, (b, c)))
    axis = diff / d[:, None]
    u_ref, v_ref = reference_frames(axis)
    center = 0.5 * (b + c)
    radius = np.sqrt(r2)
    _check_frames(center, radius, axis, u_ref, (b, c))
    for arr in (center, axis, u_ref, v_ref):
        arr.flags.writeable = False
    batch = CircleBatch(map(Circle3._of_rows, center, radius.tolist(), axis,
                            u_ref, v_ref))
    batch.center, batch.u_ref, batch.v_ref = center, u_ref, v_ref
    return batch


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
