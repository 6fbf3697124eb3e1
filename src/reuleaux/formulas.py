"""Closed-form scalar quantities of Reuleaux and Meissner polyhedra.

Every quantity is driven by the two geodesic angles (theta, theta_prime) of a
dual edge pair: theta between the endpoints of the kept arc, theta_prime
between the endpoints of the removed arc.  Per-pair terms:

  meissner_area_term   -> per-pair deduction from 2*pi for the Meissner
                          surface area (and, halved, for its volume)
  reuleaux_area_term   -> per-pair deduction for the Reuleaux surface area
  reuleaux_volume_term -> per-pair deduction (halved) for the Reuleaux volume

The wedge cut away by one Meissner surgery is bounded by two sliver patches
(on the spheres of the kept arc's endpoints) and one spindle patch (surface
of revolution about the removed arc's endpoint axis); their areas and
divergence-theorem fluxes have the closed forms below, and assembling the
fluxes reproduces the wedge volume, which the grid tests exercise.

Every term is plain arithmetic (+ - * /) on the fields of an ``AnglePair``,
which derives each transcendental once, so one term function evaluates a
single pair of floats or a whole batch of the angle grid with the same
rounding.  Angles are radians in (0, Tolerances.theta_max], theta_max being
pi/3 plus the slack of the default dist_eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geom import Tolerances


def _cube(x: float) -> float:
    return x ** 3


def _elementwise(f):
    """f applied to each element of a 1-D array, in libm's rounding."""
    return lambda x: np.fromiter(map(f, x.tolist()), float, len(x))


# The functions AnglePair derives its fields with: for floats, and for batches.
_SCALAR = (math.sin, math.cos, math.tan, math.asin, math.sqrt, _cube)
_BATCH = tuple(map(_elementwise, _SCALAR))


def _half_angle(x, sin, cos, tan, cube):
    """sin, cos and tan of x/2, and sin(x/2)**3."""
    s = sin(x / 2.0)
    return s, cos(x / 2.0), tan(x / 2.0), cube(s)


def _distinct_half_angle(x, sin, cos, tan, cube):
    """_half_angle of a batch, evaluated once per distinct angle and gathered
    back through the inverse index, so each element keeps its own bits."""
    distinct, inverse = np.unique(x, return_inverse=True)
    return [f[inverse] for f in _half_angle(distinct, sin, cos, tan, cube)]


@dataclass(frozen=True, eq=False)
class AnglePair:
    """Geodesic angle pair (theta, theta_prime) of one dual edge pair, or a
    batch of them.

    Construction validates the pair and stores every derived value once, so
    each closed form reads the same values: the half-angle sines,
    ``cos_half_prime`` = cos(theta'/2), the dihedral angles ``phi`` (at the
    kept arc, sin(phi/2) = sin(theta'/2)/cos(theta/2)) and ``phi_prime`` (at
    the removed arc, sin(phi'/2) = sin(theta/2)/cos(theta'/2)), ``psi =
    asin(tan(theta/2)*tan(theta'/2))``, ``root`` = sqrt(1 - sin^2(theta/2) -
    sin^2(theta'/2)), ``cos_half_phi_prime`` = cos(phi'/2), and the cubes
    ``sin_half_cubed`` and ``sin_half_prime_cubed``.

    theta and theta_prime are two floats, or two 1-D float arrays of one
    length (a batch; every field is then an array).  Each transcendental
    is a ``math`` function, applied to each element of a batch, so a batch
    field equals the scalar one bit for bit.  The one-angle values (sin,
    cos and tan of theta/2 and of theta'/2, and the sine cubes) are
    evaluated once per distinct angle of a batch and gathered back, so a
    sweep block of r theta rows over n grid angles makes r + n calls of each
    instead of r*n; the values that mix both angles stay elementwise.
    Either way libm sees the same floats.  numpy's own ``arcsin``,
    ``tan`` and ``**`` are not used: with numpy 2.4.6 on an AVX-512 host
    they differ from libm in the last bit (arcsin on 18,717, x**3 on 10,325
    and tan on 1,257 of 200,000 uniform draws in [0, 0.6) from
    ``default_rng(0)``, and tan on 1 of the 200 half-angles of
    ``sweep --grid 200``; sin, cos and sqrt on none).  A batch compares and
    hashes by identity, as every record that holds arrays does.

    theta and theta' must lie in (0, Tolerances.theta_max], pi/3 plus the
    slack of the default dist_eps; otherwise DomainError, naming the field
    and (for a batch) its first offending value.  There every asin argument
    is at most tan(theta_max/2) < 0.578 and every sqrt argument 1 -
    sin^2(theta/2) - sin^2(theta'/2) at least 0.4999, so none is clamped.
    """

    theta: float | np.ndarray
    theta_prime: float | np.ndarray
    sin_half: float | np.ndarray = field(init=False, repr=False)
    sin_half_prime: float | np.ndarray = field(init=False, repr=False)
    cos_half_prime: float | np.ndarray = field(init=False, repr=False)
    phi: float | np.ndarray = field(init=False, repr=False)
    phi_prime: float | np.ndarray = field(init=False, repr=False)
    psi: float | np.ndarray = field(init=False, repr=False)
    root: float | np.ndarray = field(init=False, repr=False)
    cos_half_phi_prime: float | np.ndarray = field(init=False, repr=False)
    sin_half_cubed: float | np.ndarray = field(init=False, repr=False)
    sin_half_prime_cubed: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t, tp = self.theta, self.theta_prime
        if isinstance(t, np.ndarray) or isinstance(tp, np.ndarray):
            _check_batch(t, tp)
            sin, cos, tan, asin, sqrt, cube = _BATCH
            half_angle = _distinct_half_angle
        else:
            for name, x in (("theta", t), ("theta_prime", tp)):
                if not 0.0 < x <= Tolerances.theta_max:
                    raise DomainError(f"{name} must lie in (0, pi/3], got {x}")
            sin, cos, tan, asin, sqrt, cube = _SCALAR
            half_angle = _half_angle
        s, c, tan_half, s_cubed = half_angle(t, sin, cos, tan, cube)
        sp, cp, tan_half_prime, sp_cubed = half_angle(tp, sin, cos, tan, cube)
        phi_prime = 2.0 * asin(s / cp)
        # one dict update, since a frozen dataclass refuses plain assignment:
        # one object.__setattr__ call per field makes a scalar pair about
        # 40 % dearer to build, though a field read from this dict costs about
        # twice as much
        vars(self).update(
            sin_half=s, sin_half_prime=sp, cos_half_prime=cp,
            phi=2.0 * asin(sp / c), phi_prime=phi_prime,
            psi=asin(tan_half * tan_half_prime),
            # cos(theta/2)*cos(phi/2) collapses to this root
            root=sqrt(1.0 - s * s - sp * sp),
            cos_half_phi_prime=cos(phi_prime / 2.0),
            sin_half_cubed=s_cubed, sin_half_prime_cubed=sp_cubed)


def _check_batch(theta, theta_prime) -> None:
    """A batch is two 1-D arrays of one length inside the angle domain."""
    if not (isinstance(theta, np.ndarray)
            and isinstance(theta_prime, np.ndarray)
            and theta.ndim == 1 and theta.shape == theta_prime.shape):
        raise ValueError("a batch AnglePair takes two 1-D arrays of one "
                         "length")
    for name, x in (("theta", theta), ("theta_prime", theta_prime)):
        bad = ~((x > 0.0) & (x <= Tolerances.theta_max))
        if bad.any():
            raise DomainError(f"{name} must lie in (0, pi/3], got "
                              f"{float(x[bad.argmax()])}")


def meissner_area_term(p: AnglePair) -> float:
    """phi' * t' * cos(t'/2), with sin(phi'/2) = sin(t/2)/cos(t'/2)."""
    return p.phi_prime * p.theta_prime * p.cos_half_prime


def reuleaux_area_term(p: AnglePair) -> float:
    """Symmetric surface-area term of the unsmoothed body."""
    return 4.0 * (p.phi_prime / 2.0 * p.sin_half_prime
                  + p.phi / 2.0 * p.sin_half
                  - p.psi)


def reuleaux_volume_term(p: AnglePair) -> float:
    """Symmetric volume term of the unsmoothed body."""
    s, sp = p.sin_half, p.sin_half_prime
    return 4.0 * (
        p.phi / 2.0 * (s - p.sin_half_cubed / 3.0)
        + p.phi_prime / 2.0 * (sp - p.sin_half_prime_cubed / 3.0)
        - (2.0 / 3.0) * p.psi
        - (1.0 / 3.0) * sp * s * p.root)


def sliver_area(p: AnglePair) -> float:
    """Area of one sliver patch between the removed arc and a geodesic."""
    return 2.0 * p.psi - p.sin_half * p.phi


def spindle_area(p: AnglePair) -> float:
    """Area of the spindle patch swept between the two geodesics."""
    return 2.0 * p.phi_prime * (p.sin_half_prime
                                - p.cos_half_prime * p.theta_prime / 2.0)


def sliver_flux(p: AnglePair) -> float:
    """Divergence-theorem flux of x through one sliver patch.

    The second sliver of the wedge is the mirror image of the first and
    carries the same flux, so no separate operation is needed.
    """
    s = p.sin_half
    return (2.0 * p.psi
            - 1.5 * p.phi * s
            + p.sin_half_cubed * p.phi / 2.0
            + s * p.cos_half_phi_prime * p.theta_prime / 2.0)


def spindle_flux(p: AnglePair) -> float:
    """Divergence-theorem flux of x through the spindle patch."""
    s, sp = p.sin_half, p.sin_half_prime
    return (-p.phi_prime * (3.0 * sp
                            - 3.0 * p.cos_half_prime * p.theta_prime / 2.0
                            - p.sin_half_prime_cubed)
            + 2.0 * sp * s * p.root
            - p.theta_prime * s * p.cos_half_phi_prime)


def wedge_volume(p: AnglePair) -> float:
    """Volume of the wedge removed by one surgery."""
    return 0.5 * meissner_area_term(p) - 0.5 * reuleaux_volume_term(p)


def wedge_volume_via_flux(p: AnglePair) -> float:
    """Wedge volume assembled from the three boundary fluxes."""
    return (2.0 * sliver_flux(p) + spindle_flux(p)) / 3.0


def blaschke_defect_term(p: AnglePair) -> float:
    """Per-pair excess of the volume term over the area term.

    Algebraically cancelled form of reuleaux_volume_term - reuleaux_area_term;
    strictly positive on the open angle square, which makes the Reuleaux
    volume fall strictly below half the surface area minus pi/3.
    """
    return (4.0 / 3.0) * (
        p.psi
        - p.sin_half_prime * p.sin_half * p.root
        - p.phi / 2.0 * p.sin_half_cubed
        - p.phi_prime / 2.0 * p.sin_half_prime_cubed)


@dataclass(frozen=True)
class PairTerm:
    """One dual pair's angles and its term of a body's closed form."""

    theta: float
    theta_prime: float
    term: float


@dataclass(frozen=True)
class BodyScalars:
    """Closed-form volume and surface area with the per-pair terms."""

    volume: float
    surface_area: float
    per_pair_terms: tuple[PairTerm, ...]


def volume_reuleaux(pairs) -> float:
    """2*pi/3 - (1/2) * sum of volume terms."""
    return 2.0 * math.pi / 3.0 - 0.5 * sum(reuleaux_volume_term(p) for p in pairs)


def surface_reuleaux(pairs) -> float:
    return 2.0 * math.pi - sum(reuleaux_area_term(p) for p in pairs)


def volume_meissner(pairs) -> float:
    """2*pi/3 - (1/2) * sum of Meissner area terms (Blaschke's relation)."""
    return 2.0 * math.pi / 3.0 - 0.5 * sum(meissner_area_term(p) for p in pairs)


def surface_meissner(pairs) -> float:
    return 2.0 * math.pi - sum(meissner_area_term(p) for p in pairs)


def reuleaux_scalars(pairs) -> BodyScalars:
    pairs = list(pairs)
    return BodyScalars(
        volume=volume_reuleaux(pairs),
        surface_area=surface_reuleaux(pairs),
        per_pair_terms=tuple(
            PairTerm(p.theta, p.theta_prime, reuleaux_volume_term(p))
            for p in pairs),
    )


def meissner_scalars(pairs) -> BodyScalars:
    pairs = list(pairs)
    return BodyScalars(
        volume=volume_meissner(pairs),
        surface_area=surface_meissner(pairs),
        per_pair_terms=tuple(
            PairTerm(p.theta, p.theta_prime, meissner_area_term(p))
            for p in pairs),
    )


def blaschke_gap(pairs) -> float:
    """(surface/2 - pi/3) - volume for the unsmoothed body; 0 for no pairs,
    strictly positive otherwise."""
    return 0.5 * sum(blaschke_defect_term(p) for p in pairs)
