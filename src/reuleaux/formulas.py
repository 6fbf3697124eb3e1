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

All functions are pure; angles are radians in (0, pi/3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .geom import Tolerances


@dataclass(frozen=True)
class AnglePair:
    """Geodesic angle pair (theta, theta_prime) of one dual edge pair.

    Construction validates the pair and stores every derived angle once, so
    each closed form reads the same values: the half-angle sines and cosines,
    the dihedral angles ``phi`` (at the kept arc, sin(phi/2) =
    sin(theta'/2)/cos(theta/2)) and ``phi_prime`` (at the removed arc,
    sin(phi'/2) = sin(theta/2)/cos(theta'/2)), and
    ``psi = asin(tan(theta/2)*tan(theta'/2))``.

    theta and theta' must lie in (0, Tolerances.theta_max], pi/3 plus the
    slack of the default dist_eps; otherwise DomainError.  There every asin
    argument is at most tan(theta_max/2) < 0.578 and every sqrt argument
    1 - sin^2(theta/2) - sin^2(theta'/2) at least 0.4999, so none is clamped.
    """

    theta: float
    theta_prime: float
    sin_half: float = field(init=False, compare=False, repr=False)
    sin_half_prime: float = field(init=False, compare=False, repr=False)
    cos_half: float = field(init=False, compare=False, repr=False)
    cos_half_prime: float = field(init=False, compare=False, repr=False)
    phi: float = field(init=False, compare=False, repr=False)
    phi_prime: float = field(init=False, compare=False, repr=False)
    psi: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, t in (("theta", self.theta), ("theta_prime", self.theta_prime)):
            if not 0.0 < t <= Tolerances.theta_max:
                raise DomainError(f"{name} must lie in (0, pi/3], got {t}")
        s = math.sin(self.theta / 2.0)
        sp = math.sin(self.theta_prime / 2.0)
        c = math.cos(self.theta / 2.0)
        cp = math.cos(self.theta_prime / 2.0)
        tan_product = math.tan(self.theta / 2.0) * math.tan(self.theta_prime / 2.0)
        for name, value in (("sin_half", s), ("sin_half_prime", sp),
                            ("cos_half", c), ("cos_half_prime", cp),
                            ("phi", 2.0 * math.asin(sp / c)),
                            ("phi_prime", 2.0 * math.asin(s / cp)),
                            ("psi", math.asin(tan_product))):
            object.__setattr__(self, name, value)


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
    root = math.sqrt(1.0 - s * s - sp * sp)
    return 4.0 * (
        p.phi / 2.0 * (s - s ** 3 / 3.0)
        + p.phi_prime / 2.0 * (sp - sp ** 3 / 3.0)
        - (2.0 / 3.0) * p.psi
        - (1.0 / 3.0) * sp * s * root)


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
            + s ** 3 * p.phi / 2.0
            + s * math.cos(p.phi_prime / 2.0) * p.theta_prime / 2.0)


def spindle_flux(p: AnglePair) -> float:
    """Divergence-theorem flux of x through the spindle patch."""
    s, sp = p.sin_half, p.sin_half_prime
    # cos(theta/2)*cos(phi/2) collapses to this root
    root = math.sqrt(1.0 - s * s - sp * sp)
    return (-p.phi_prime * (3.0 * sp
                            - 3.0 * p.cos_half_prime * p.theta_prime / 2.0
                            - sp ** 3)
            + 2.0 * sp * s * root
            - p.theta_prime * s * math.cos(p.phi_prime / 2.0))


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
    s, sp = p.sin_half, p.sin_half_prime
    root = math.sqrt(1.0 - s * s - sp * sp)
    return (4.0 / 3.0) * (
        p.psi
        - sp * s * root
        - p.phi / 2.0 * s ** 3
        - p.phi_prime / 2.0 * sp ** 3)


@dataclass(frozen=True)
class BodyScalars:
    """Closed-form volume and surface area with the per-pair terms."""

    volume: float
    surface_area: float
    per_pair_terms: tuple[tuple[float, float, float], ...]

    def to_dict(self) -> dict:
        return {
            "volume": self.volume,
            "surface_area": self.surface_area,
            "per_pair_terms": [
                {"theta": t, "theta_prime": tp, "term": v}
                for t, tp, v in self.per_pair_terms
            ],
        }


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
        per_pair_terms=tuple((p.theta, p.theta_prime, reuleaux_volume_term(p))
                             for p in pairs),
    )


def meissner_scalars(pairs) -> BodyScalars:
    pairs = list(pairs)
    return BodyScalars(
        volume=volume_meissner(pairs),
        surface_area=surface_meissner(pairs),
        per_pair_terms=tuple((p.theta, p.theta_prime, meissner_area_term(p))
                             for p in pairs),
    )


def blaschke_gap(pairs) -> float:
    """(surface/2 - pi/3) - volume for the unsmoothed body; 0 for no pairs,
    strictly positive otherwise."""
    return 0.5 * sum(blaschke_defect_term(p) for p in pairs)
