"""Tests for the closed-form volume, area, and flux expressions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reuleaux.errors import DomainError
from reuleaux.formulas import (AnglePair, blaschke_defect_term, blaschke_gap,
                               meissner_area_term, meissner_scalars,
                               reuleaux_area_term, reuleaux_scalars,
                               reuleaux_volume_term, sliver_area, sliver_flux,
                               spindle_area, spindle_flux, surface_meissner,
                               surface_reuleaux, volume_meissner,
                               volume_reuleaux, wedge_volume,
                               wedge_volume_via_flux)
from reuleaux.geom import Tolerances
from reuleaux.polyhedron import angle_pairs
from test_polyhedron import ladder_structures

RNG = np.random.default_rng(90201)

SYM = AnglePair(math.pi / 3, math.pi / 3)
TETRA_VOLUME = 8 * math.pi / 3 + math.sqrt(2) / 4 - 6.75 * math.acos(1 / 3)


def random_pairs(n, lo=0.05, hi=math.pi / 3):
    return [AnglePair(t, tp) for t, tp in RNG.uniform(lo, hi, size=(n, 2))]


def swapped(p):
    """The pair with theta and theta' exchanged."""
    return AnglePair(p.theta_prime, p.theta)


FIELDS = [f.name for f in dataclasses.fields(AnglePair)]
TERMS = (meissner_area_term, reuleaux_area_term, reuleaux_volume_term,
         sliver_area, spindle_area, sliver_flux, spindle_flux, wedge_volume,
         wedge_volume_via_flux, blaschke_defect_term)
ANGLE = st.floats(min_value=0.0, max_value=Tolerances.theta_max,
                  exclude_min=True)


@st.composite
def pooled_pairs(draw):
    """Pairs over a pool of at most four angles, theta_max and 1e-6 among
    them, so a batch repeats its angles as a sweep block does."""
    pool = st.sampled_from([Tolerances.theta_max, 1e-6]
                           + draw(st.lists(ANGLE, max_size=2)))
    return draw(st.lists(st.tuples(pool, pool), min_size=1, max_size=40))


class TestSymmetricPointValues:
    """Anchor values at theta = theta' = pi/3, the regular tetrahedron."""

    def test_meissner_area_term(self):
        expect = 2 * math.asin(1 / math.sqrt(3)) * (math.pi / 3) * (math.sqrt(3) / 2)
        assert meissner_area_term(SYM) == pytest.approx(expect, abs=1e-12)

    def test_reuleaux_area_term(self):
        expect = 4 * (2 * math.asin(1 / math.sqrt(3)) * 0.5 - math.asin(1 / 3))
        assert reuleaux_area_term(SYM) == pytest.approx(expect, abs=1e-12)

    def test_volume_term_reproduces_exact_tetrahedron_volume(self):
        vol = 2 * math.pi / 3 - 1.5 * reuleaux_volume_term(SYM)
        assert vol == pytest.approx(TETRA_VOLUME, abs=1e-12)

    def test_sliver_area_value(self):
        expect = 2 * math.asin(1 / 3) - 0.5 * math.acos(1 / 3)
        assert sliver_area(SYM) == pytest.approx(expect, abs=1e-12)

    def test_surface_values(self):
        assert surface_reuleaux([SYM] * 3) == pytest.approx(2.9754717, abs=1e-6)
        assert surface_meissner([SYM] * 3) == pytest.approx(2.9341152, abs=1e-6)

    def test_body_volumes(self):
        assert volume_reuleaux([SYM] * 3) == pytest.approx(0.4221577, abs=1e-6)
        assert volume_meissner([SYM] * 3) == pytest.approx(0.4198600, abs=1e-6)


class TestLimitsAndSymmetry:
    def test_terms_vanish_as_theta_goes_to_zero(self):
        p = AnglePair(1e-6, 0.9)
        assert abs(meissner_area_term(p)) < 1e-5
        assert abs(reuleaux_area_term(p)) < 1e-5
        assert abs(reuleaux_volume_term(p)) < 1e-5
        assert abs(sliver_area(p)) < 1e-5
        assert abs(sliver_flux(p)) < 1e-5
        q = AnglePair(0.9, 1e-6)
        assert abs(spindle_area(q)) < 1e-5
        assert abs(spindle_flux(q)) < 1e-5
        assert abs(wedge_volume(p)) < 1e-5

    def test_area_and_volume_terms_are_symmetric(self):
        for p in random_pairs(100):
            q = swapped(p)
            assert reuleaux_area_term(p) == pytest.approx(
                reuleaux_area_term(q), abs=1e-12)
            assert reuleaux_volume_term(p) == pytest.approx(
                reuleaux_volume_term(q), abs=1e-12)

    def test_meissner_term_is_asymmetric(self):
        p = AnglePair(0.5, 0.2)
        assert meissner_area_term(p) != meissner_area_term(swapped(p))

    def test_meissner_term_dihedral_identity(self):
        for p in random_pairs(100):
            expect = p.phi_prime * p.theta_prime * p.cos_half_prime
            assert meissner_area_term(p) == pytest.approx(expect, abs=1e-12)


class TestWedgeLemma:
    def test_flux_assembly_matches_direct_form_on_grid(self):
        ts = np.linspace(0.02, math.pi / 3 - 0.02, 20)
        for t in ts:
            for tp in ts:
                p = AnglePair(float(t), float(tp))
                assert abs(wedge_volume(p) - wedge_volume_via_flux(p)) < 1e-10

    def test_wedge_volume_positive_on_interior(self):
        for p in random_pairs(200):
            assert wedge_volume(p) > 0.0

    def test_symmetric_point_value(self):
        assert wedge_volume(SYM) == pytest.approx(7.659e-4, abs=1e-6)


class TestTheoremBounds:
    def test_ladder_obeys_the_theorem_bounds(self):
        # M lies in B(X), which lies in a body of constant width 1: the
        # isodiametric bound pi/6 and Blaschke's S = 2V + 2 pi/3 <= pi; the
        # ladder holds the generic sets m = 5, 9 and 21
        for structure in ladder_structures():
            pairs = angle_pairs(structure)
            assert volume_meissner(pairs) <= volume_reuleaux(pairs) \
                <= math.pi / 6
            assert surface_meissner(pairs) <= surface_reuleaux(pairs) \
                <= math.pi
            assert min(wedge_volume(p) for p in pairs) > 0.0


class TestBodyAggregates:
    def test_empty_pair_list_base_cases(self):
        assert volume_reuleaux([]) == pytest.approx(2 * math.pi / 3)
        assert volume_meissner([]) == pytest.approx(2 * math.pi / 3)
        assert surface_reuleaux([]) == pytest.approx(2 * math.pi)
        assert surface_meissner([]) == pytest.approx(2 * math.pi)
        assert blaschke_gap([]) == 0.0

    def test_blaschke_identity_for_meissner(self):
        for pairs in ([SYM] * 3, random_pairs(6), random_pairs(1)):
            lhs = volume_meissner(pairs)
            rhs = 0.5 * surface_meissner(pairs) - math.pi / 3
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_additivity_of_wedges(self, tetra_structure, pentad_structure):
        for structure in (tetra_structure, pentad_structure):
            pairs = angle_pairs(structure)
            total = volume_meissner(pairs) + sum(wedge_volume(p) for p in pairs)
            assert abs(volume_reuleaux(pairs) - total) < 1e-12

    def test_scalars_bundle(self, tetra_structure):
        pairs = angle_pairs(tetra_structure)
        rs = reuleaux_scalars(pairs)
        ms = meissner_scalars(pairs)
        assert rs.volume == pytest.approx(TETRA_VOLUME, abs=1e-12)
        assert rs.volume > 0 and rs.surface_area > 0
        assert ms.volume < rs.volume
        assert len(rs.per_pair_terms) == 3


class TestBlaschkeGap:
    def test_defect_term_equals_direct_difference(self):
        for p in random_pairs(100, lo=0.02):
            direct = reuleaux_volume_term(p) - reuleaux_area_term(p)
            assert blaschke_defect_term(p) == pytest.approx(direct, abs=1e-12)

    def test_defect_positive_near_origin_corner(self):
        p = AnglePair(0.01, math.pi / 3 - 0.01)
        assert blaschke_defect_term(p) > 0.0

    def test_gap_positive_for_real_structures(self, tetra_structure, pentad_structure):
        for structure in (tetra_structure, pentad_structure):
            pairs = angle_pairs(structure)
            gap = blaschke_gap(pairs)
            assert gap > 0.0
            direct = (0.5 * surface_reuleaux(pairs) - math.pi / 3
                      - volume_reuleaux(pairs))
            assert gap == pytest.approx(direct, abs=1e-12)

    def test_tetra_gap_value(self, tetra_structure):
        gap = blaschke_gap(angle_pairs(tetra_structure))
        assert gap == pytest.approx(0.0183801, abs=1e-6)

    def test_gap_positive_on_random_lists(self):
        for _ in range(100):
            pairs = random_pairs(RNG.integers(1, 8))
            assert blaschke_gap(pairs) > 0.0


class TestDomainPolicy:
    def test_zero_angle_rejected(self):
        with pytest.raises(DomainError):
            AnglePair(0.0, 0.5)

    def test_angle_beyond_pi_over_3_rejected(self):
        with pytest.raises(DomainError):
            AnglePair(1.2, 1.0)

    def test_tiny_overshoot_is_clamped(self):
        p = AnglePair(math.pi / 3 + 5e-10, math.pi / 3)
        assert math.isfinite(reuleaux_volume_term(p))


class TestBatchPairs:
    """A batch AnglePair holds, bit for bit, the fields of the scalar pairs,
    so every term on it equals the scalar term."""

    @staticmethod
    def assert_matches_scalar_pairs(theta, theta_prime):
        batch = AnglePair(theta, theta_prime)
        values = {name: getattr(batch, name) for name in FIELDS}
        values.update((term.__name__, term(batch)) for term in TERMS)
        for i, (t, tp) in enumerate(zip(theta.tolist(), theta_prime.tolist())):
            one = AnglePair(t, tp)
            expect = {name: getattr(one, name) for name in FIELDS}
            expect.update((term.__name__, term(one)) for term in TERMS)
            for name, value in values.items():
                assert float(value[i]).hex() == expect[name].hex(), (name, t, tp)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=40))
    @example([(Tolerances.theta_max, Tolerances.theta_max)])
    @example([(1e-6, Tolerances.theta_max), (Tolerances.theta_max, 1e-6),
              (1e-6, 1e-6)])
    def test_fields_match_the_scalar_pairs(self, pairs):
        theta, theta_prime = (np.array(c) for c in zip(*pairs))
        self.assert_matches_scalar_pairs(theta, theta_prime)

    @settings(max_examples=60, deadline=None)
    @given(pooled_pairs())
    def test_repeated_angles_match_the_scalar_pairs(self, pairs):
        theta, theta_prime = (np.array(c) for c in zip(*pairs))
        self.assert_matches_scalar_pairs(theta, theta_prime)

    def test_sweep_half_angles_match_the_scalar_pairs(self):
        # numpy's tan differs from libm on one of these 200 half-angles
        grid = np.linspace(0.01, math.pi / 3 - 0.01, 200)
        self.assert_matches_scalar_pairs(grid, grid[::-1])

    def test_the_sweep_square_matches_the_scalar_pairs(self):
        # the batch of a whole sweep at grid 200: each angle 200 times over
        grid = np.linspace(0.01, math.pi / 3 - 0.01, 200)
        self.assert_matches_scalar_pairs(np.repeat(grid, 200),
                                         np.tile(grid, 200))

    @pytest.mark.parametrize("bad", [0.0, math.nextafter(Tolerances.theta_max,
                                                         4.0), math.nan])
    @pytest.mark.parametrize("name", ["theta", "theta_prime"])
    def test_batch_outside_the_domain_names_the_first_value(self, name, bad):
        angles = {"theta": np.full(4, 0.5), "theta_prime": np.full(4, 0.5)}
        angles[name][1:] = bad, -1.0, 2.0
        with pytest.raises(DomainError,
                           match=rf"^{name} must lie in \(0, pi/3\], got "
                                 rf"{re.escape(str(bad))}$"):
            AnglePair(**angles)

    @pytest.mark.parametrize("theta, theta_prime", [
        (np.full(3, 0.5), np.full(4, 0.5)),
        (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        (np.full(3, 0.5), 0.5)])
    def test_batch_takes_two_1d_arrays_of_one_length(self, theta,
                                                      theta_prime):
        with pytest.raises(ValueError, match="two 1-D arrays of one length"):
            AnglePair(theta, theta_prime)


class TestAngleBound:
    """theta_max, the one angle bound, and the argument ranges it implies."""

    def test_bound_is_the_chord_angle_of_the_default_slack(self):
        bound = Tolerances.theta_max
        assert bound == 2 * math.asin((1 + Tolerances().dist_eps) / 2)
        assert math.pi / 3 + 1e-9 < bound < math.pi / 3 + 2e-9

    def test_bound_is_inclusive(self):
        top = Tolerances.theta_max
        p = AnglePair(top, top)
        assert all(math.isfinite(v) for v in (
            p.phi, p.phi_prime, p.psi, reuleaux_volume_term(p),
            blaschke_defect_term(p), spindle_flux(p)))
        for args in ((math.nextafter(top, 4.0), top),
                     (top, math.nextafter(top, 4.0))):
            with pytest.raises(DomainError, match="must lie in"):
                AnglePair(*args)

    def test_arguments_stay_far_inside_their_domains(self):
        # the bounds the AnglePair docstring states, on a grid of the square
        t = np.linspace(0.0, Tolerances.theta_max, 1001)[1:]
        t[-1] = Tolerances.theta_max
        th, tp = np.meshgrid(t, t)
        s, sp = np.sin(th / 2), np.sin(tp / 2)
        c, cp = np.cos(th / 2), np.cos(tp / 2)
        tan_product = np.tan(th / 2) * np.tan(tp / 2)
        assert max((sp / c).max(), (s / cp).max(), tan_product.max()) < 0.578
        assert (1.0 - s * s - sp * sp).min() >= 0.4999


class TestStructureDerivedValues:
    def test_pentad_wedges_positive_and_asymmetric(self, pentad_structure):
        pairs = angle_pairs(pentad_structure)
        vols = sorted(wedge_volume(p) for p in pairs)
        assert all(v > 0 for v in vols)
        # two small wedges from the split arcs, two tetrahedral ones
        assert vols[0] == pytest.approx(vols[1], abs=1e-12)
        assert vols[2] == pytest.approx(vols[3], abs=1e-12)
        assert vols[0] < vols[2]

    def test_pentad_bodies_nest(self, pentad_structure):
        pairs = angle_pairs(pentad_structure)
        assert volume_meissner(pairs) < volume_reuleaux(pairs)
        assert surface_meissner(pairs) < surface_reuleaux(pairs)
