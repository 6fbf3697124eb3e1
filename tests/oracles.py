"""Independent numerical oracles used by the test suite.

Adaptive 2-D quadrature of the boundary-patch integrands, parametrized in the
frame where the kept chord sits on the z-axis and the removed endpoints lie
in the z = 0 plane; the scalar trim of the edge extraction this package
once ran: the ball constraint one center at a time, intersected by a frozen
copy of the angular-interval arithmetic; and frozen copies of the
support-circle frame and of the matching of an arc end to its vertex, with
their own slacks.  Nothing here calls the closed forms, the circle
constructor or the extraction under test.
"""

import math

import numpy as np
from scipy import integrate

from reuleaux.errors import StructureError
from reuleaux.geom import TWO_PI

QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11)

# the reference trim's slacks: trimmed components and pieces no longer than
# ANG_EPS are tangency noise, an arc end matches a vertex within MATCH_EPS
# (as does a point of X its support circle), and a ball constraint of
# amplitude below ON_AXIS has its center on the circle's axis
ANG_EPS = 1e-7
MATCH_EPS = 1e-7
ON_AXIS = 1e-15


def special_frame(theta, theta_prime):
    """Endpoint coordinates (kept chord endpoints b, c; removed bp, cp)."""
    a = math.sin(theta / 2.0)
    phi = 2.0 * math.asin(math.sin(theta_prime / 2.0) / math.cos(theta / 2.0))
    w = math.sqrt(1.0 - a * a)
    b = np.array([0.0, 0.0, a])
    c = np.array([0.0, 0.0, -a])
    bp = np.array([w, 0.0, 0.0])
    cp = np.array([w * math.cos(phi), w * math.sin(phi), 0.0])
    return a, phi, b, c, bp, cp


def _t_upper(psi, a, phi):
    num = a * math.cos(psi - phi / 2.0)
    den = math.sqrt((1.0 - a * a) * math.cos(phi / 2.0) ** 2 + num * num)
    return math.asin(num / den)


def sliver_area_quad(theta, theta_prime):
    a, phi, *_ = special_frame(theta, theta_prime)
    val, _ = integrate.dblquad(
        lambda t, psi: math.cos(t),
        0.0, phi, lambda psi: math.asin(a), lambda psi: _t_upper(psi, a, phi),
        **QUAD_OPTS)
    return val


def sliver_flux_quad(theta, theta_prime):
    a, phi, *_ = special_frame(theta, theta_prime)
    val, _ = integrate.dblquad(
        lambda t, psi: (1.0 - a * math.sin(t)) * math.cos(t),
        0.0, phi, lambda psi: math.asin(a), lambda psi: _t_upper(psi, a, phi),
        **QUAD_OPTS)
    return val


class SpindleFrame:
    """Rotation-surface parametrization built from the endpoint coordinates."""

    def __init__(self, theta, theta_prime):
        a, phi, b, c, bp, cp = special_frame(theta, theta_prime)
        self.theta_prime = theta_prime
        self.phi_prime = 2.0 * math.asin(
            math.sin(theta / 2.0) / math.cos(theta_prime / 2.0))
        self.b, self.bp, self.cp = b, bp, cp
        self.mid = 0.5 * (bp + cp)
        self.v = (bp - cp) / np.linalg.norm(bp - cp)

    def eta(self, s):
        rel = self.b - self.mid
        return self.mid + math.cos(s) * rel + math.sin(s) * np.cross(self.v, rel)

    def point(self, s, t):
        tp = self.theta_prime
        e = self.eta(s)
        return (e + math.cos(t) * (self.bp - e)
                + math.sin(t) * (self.cp - e - math.cos(tp) * (self.bp - e))
                / math.sin(tp))

    def normal(self, s, t):
        tp = self.theta_prime
        return (math.cos(t - tp / 2.0) / math.cos(tp / 2.0) * (self.eta(s) - self.mid)
                + math.sin(t - tp / 2.0) * self.v)

    def area_element(self, t):
        tp = self.theta_prime
        return math.cos(t - tp / 2.0) - math.cos(tp / 2.0)


def spindle_area_quad(theta, theta_prime):
    fr = SpindleFrame(theta, theta_prime)
    val, _ = integrate.dblquad(
        lambda t, s: fr.area_element(t),
        0.0, fr.phi_prime, lambda s: 0.0, lambda s: fr.theta_prime,
        **QUAD_OPTS)
    return val


def spindle_flux_quad(theta, theta_prime):
    fr = SpindleFrame(theta, theta_prime)
    val, _ = integrate.dblquad(
        lambda t, s: float(fr.point(s, t) @ fr.normal(s, t)) * fr.area_element(t),
        0.0, fr.phi_prime, lambda s: 0.0, lambda s: fr.theta_prime,
        **QUAD_OPTS)
    return val


class FrozenIntervalSet:
    """The scalar angular-interval arithmetic that edge extraction ran
    when it trimmed circles against the balls, kept verbatim: the judge
    whose edges the diameter-graph extraction must reproduce."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = intervals

    @staticmethod
    def empty():
        return FrozenIntervalSet(())

    @staticmethod
    def full():
        return FrozenIntervalSet(((0.0, TWO_PI),))

    @classmethod
    def from_raw(cls, raw):
        """Canonicalize raw (lo, hi) pairs with hi > lo, any real lo."""
        eps = ANG_EPS
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
    def is_empty(self):
        return not self.intervals

    @property
    def is_full(self):
        return self.intervals == ((0.0, TWO_PI),)

    def intersect(self, other):
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
        return FrozenIntervalSet.from_raw(out)

    def components(self):
        """Connected components; a component crossing the angle origin is
        returned as one interval with hi > 2*pi."""
        if self.is_full or self.is_empty:
            return list(self.intervals)
        eps = ANG_EPS
        ivs = list(self.intervals)
        if len(ivs) >= 2 and ivs[0][0] <= eps and ivs[-1][1] >= TWO_PI - eps:
            first = ivs.pop(0)
            last = ivs.pop()
            ivs.append((last[0], first[1] + TWO_PI))
        return ivs


def frozen_circle_frame(b, c):
    """(center, radius, axis, u_ref, v_ref) of the circle of the unit
    spheres about ``b`` and ``c``, as the package built one circle at a
    time before its frames moved to plain floats and then to one batch
    (``geom.circles_of_sphere_pairs``): norms by ``np.linalg.norm``, the
    angle-zero axis by ``np.argmin`` and v_ref by ``np.cross``.  The floats
    the package must reproduce."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = float(np.linalg.norm(b - c))
    axis = (b - c) / d
    k = int(np.argmin(np.abs(axis)))
    u = np.eye(3)[k] - axis[k] * axis
    u = u / float(np.linalg.norm(u))
    return (0.5 * (b + c), math.sqrt(1.0 - 0.25 * d * d), axis, u,
            np.cross(axis, u))


def scalar_ball_constraint(circle, x):
    """Angles psi with |circle.point(psi) - x| <= 1, by three 1-D dots, as a
    ``FrozenIntervalSet``."""
    w = np.asarray(x, dtype=float) - circle.center
    r = circle.radius
    a = 2.0 * r * float(w @ circle.u_ref)
    b = 2.0 * r * float(w @ circle.v_ref)
    c = float(w @ w) + r * r - 1.0
    k = math.hypot(a, b)
    if k < ON_AXIS:
        return FrozenIntervalSet.full() if c <= 0.0 else FrozenIntervalSet.empty()
    ratio = c / k
    if ratio >= 1.0:
        return FrozenIntervalSet.empty()
    if ratio <= -1.0:
        return FrozenIntervalSet.full()
    alpha = math.atan2(b, a)
    half = math.acos(ratio)
    return FrozenIntervalSet.from_raw([(alpha - half, alpha + half)])


def scalar_trim(circle, centers):
    """The circle's angles inside every ball of ``centers``, one
    ``scalar_ball_constraint`` at a time up to the first empty set."""
    surviving = FrozenIntervalSet.full()
    for x in centers:
        surviving = surviving.intersect(scalar_ball_constraint(circle, x))
        if surviving.is_empty:
            break
    return surviving


def match_vertex(cfg, p, support):
    """Nearest point of X within MATCH_EPS; lowest index on ties.  The error
    names the support pair whose arc ends at ``p``: extraction's matching
    of one arc end, as it stood before both ends were matched in one call."""
    d = np.linalg.norm(cfg.points - p, axis=1)
    i = int(np.argmin(d))
    if d[i] > MATCH_EPS:
        raise StructureError(
            f"extract_edges: support pair {support}: arc endpoint {p} matches "
            f"no vertex (nearest at distance {d[i]:.3g})")
    return i
