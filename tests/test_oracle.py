"""Tests for the Monte Carlo membership oracle."""

import dataclasses
import math

import numpy as np
import pytest

from reuleaux.formulas import volume_meissner, volume_reuleaux, wedge_volume
from reuleaux.geom import Tolerances, max_distance_to_arc_many
from reuleaux.oracle import (BodySpec, McConfig, _unit_window,
                             body_from_structure, bounding_box, contains_many,
                             mc_volume, unit_draws)
from reuleaux.polyhedron import (PointConfig, analyze_config, angle_pairs,
                                 config_from_generator)
from golden import generic_sets, moved_pyramid, pyramid_points

RNG = np.random.default_rng(555)


class TestContains:
    def test_centroid_inside_both_bodies_outside_wedges(self, tetra_structure):
        centroid = tetra_structure.config.points.mean(axis=0)
        assert contains_many(
            body_from_structure(tetra_structure, "reuleaux"), centroid[None, :])[0]
        assert contains_many(
            body_from_structure(tetra_structure, "meissner"), centroid[None, :])[0]
        for i in range(3):
            assert not contains_many(
                body_from_structure(tetra_structure, "wedge", i), centroid[None, :])[0]

    def test_vertices_belong_to_the_body(self, tetra_structure):
        body = body_from_structure(tetra_structure, "reuleaux")
        for p in tetra_structure.config.points:
            assert contains_many(body, p[None, :])[0]

    def test_point_just_outside_some_ball_is_rejected(self, tetra_structure):
        pts = tetra_structure.config.points
        out = pts[0] + (1.0 + 1e-6) * (pts[1] - pts[0])
        for kind, idx in [("reuleaux", None), ("meissner", None), ("wedge", 0)]:
            assert not contains_many(
                body_from_structure(tetra_structure, kind, idx), out[None, :])[0]

    def test_meissner_subset_of_reuleaux(self, pentad_structure):
        reuleaux = body_from_structure(pentad_structure, "reuleaux")
        meissner = body_from_structure(pentad_structure, "meissner")
        lo, hi = bounding_box(reuleaux)
        pts = lo + RNG.random((50_000, 3)) * (hi - lo)
        in_m = contains_many(meissner, pts)
        in_r = contains_many(reuleaux, pts)
        assert np.all(~in_m | in_r)

    def test_wedges_partition_the_difference(self, tetra_structure):
        bodies = [body_from_structure(tetra_structure, "wedge", i) for i in range(3)]
        reuleaux = body_from_structure(tetra_structure, "reuleaux")
        meissner = body_from_structure(tetra_structure, "meissner")
        lo, hi = bounding_box(reuleaux)
        pts = lo + RNG.random((50_000, 3)) * (hi - lo)
        in_r = contains_many(reuleaux, pts)
        in_m = contains_many(meissner, pts)
        in_w = np.stack([contains_many(b, pts) for b in bodies]).any(axis=0)
        # every Reuleaux point is Meissner or in some wedge, and wedges lie in
        # the complement of the open Meissner body
        assert np.all(~in_r | in_m | in_w)

    def test_invalid_specs_rejected(self, tetra_structure):
        with pytest.raises(ValueError):
            BodySpec(kind="cube", config=tetra_structure.config)
        with pytest.raises(ValueError):
            BodySpec(kind="meissner", config=tetra_structure.config)
        with pytest.raises(ValueError):
            body_from_structure(tetra_structure, "wedge", 7)


class TestBoundingBox:
    def test_global_box_has_side_points_plus_two(self, tetra_structure):
        lo, hi = bounding_box(body_from_structure(tetra_structure, "reuleaux"))
        pts = tetra_structure.config.points
        assert np.allclose(lo, pts.min(axis=0) - 1.0)
        assert np.allclose(hi, pts.max(axis=0) + 1.0)

    def test_wedge_box_is_tighter_and_still_contains_the_wedge(self, tetra_structure):
        full = body_from_structure(tetra_structure, "reuleaux")
        flo, fhi = bounding_box(full)
        for i in range(3):
            wedge = body_from_structure(tetra_structure, "wedge", i)
            lo, hi = bounding_box(wedge)
            assert np.prod(hi - lo) < 0.5 * np.prod(fhi - flo)
            # sample the wedge through the big box; every hit is in the tight box
            pts = flo + RNG.random((200_000, 3)) * (fhi - flo)
            hits = pts[contains_many(wedge, pts)]
            assert len(hits) > 0
            assert np.all(hits >= lo - 1e-12) and np.all(hits <= hi + 1e-12)


def contains_reference(body, points):
    """The former kernel, kept as the reference: every sample against every
    center in one (N, n, 3) block, then the arc tests on the survivors."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - body.config.points[None, :, :]
    inside = (np.einsum("ijk,ijk->ij", diff, diff) <= 1.0).all(axis=1)
    if body.kind == "reuleaux" or not inside.any():
        return inside
    sub = pts[inside]
    if body.kind == "meissner":
        ok = np.ones(len(sub), dtype=bool)
        for arc in body.arcs:
            ok &= max_distance_to_arc_many(sub, arc) <= 1.0
            if not ok.any():
                break
        inside[np.flatnonzero(inside)] = ok
    else:
        far = max_distance_to_arc_many(sub, body.arcs[body.wedge_index]) >= 1.0
        inside[np.flatnonzero(inside)] = far
    return inside


def moved_pyramid_points():
    """n = 6: the pentagonal pyramid ``pyramid_points(5)`` under a fixed
    proper rotation and shift."""
    q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return pyramid_points(5) @ q.T + np.array([0.3, -0.7, 0.5])


def kernel_configs():
    shift = np.array([1e3, -1e3, 1e3])
    base = {"tetra": config_from_generator("tetra").points,
            "pentad": config_from_generator("pentad").points,
            "pyramid6": moved_pyramid_points()}
    out = dict(base)
    out.update({f"{name}+shift": pts + shift for name, pts in base.items()})
    return out


KERNEL_CONFIGS = kernel_configs()


def probe_points(body, rng):
    """Uniform points in the body's box, the vertices, and points within
    1e-15 (relative) of each center's sphere, aimed at the box."""
    lo, hi = bounding_box(body)
    box = lo + rng.random((200_000, 3)) * (hi - lo)
    centers = body.config.points
    shells = []
    for c in centers:
        u = box[:5000] - c
        u /= np.linalg.norm(u, axis=1)[:, None]
        shells.append(c + u * (1.0 + rng.uniform(-1e-15, 1e-15, (len(u), 1))))
    return box, centers, np.vstack(shells)


def order_flips(points, centers):
    """The per-center ball decisions on ``points`` that differ between the
    squares summed (x + z) + y, the kernel's order, and (x + y) + z."""
    sq = (points[:, None, :] - centers[None]) ** 2
    x, y, z = sq[..., 0], sq[..., 1], sq[..., 2]
    return int(np.count_nonzero(((x + z) + y <= 1.0) != ((x + y) + z <= 1.0)))


def every_body(structure):
    return ([("reuleaux", None), ("meissner", None)]
            + [("wedge", i) for i in range(len(structure.pairs))])


class TestKernelMatchesReference:
    @pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
    def test_masks_identical_on_every_body(self, name):
        structure = analyze_config(PointConfig(KERNEL_CONFIGS[name]))
        rng = np.random.default_rng(2024)
        for kind, idx in every_body(structure):
            body = body_from_structure(structure, kind, idx)
            for pts in probe_points(body, rng):
                expect = contains_reference(body, pts)
                assert np.array_equal(contains_many(body, pts), expect), (kind, idx)
            if kind == "reuleaux":
                # the shells straddle the body's boundary: both answers occur
                assert expect.any() and not expect.all()
                # and they see the order the squares are summed in
                assert order_flips(pts, structure.config.points) > 0

    @pytest.mark.parametrize("name, hits", [
        ("tetra", (17540, 17437, 236, 114, 85)),
        ("pentad", (17430, 17386, 10, 13, 113, 118)),
        ("pyramid6", (18335, 18315, 13, 7, 17, 11, 9)),
    ])
    def test_hit_counts_pinned(self, name, hits):
        # pyramid6 is the n = 6 JSON input of the golden report corpus
        cfg = (moved_pyramid(5, 35) if name == "pyramid6"
               else config_from_generator(name))
        structure = analyze_config(cfg)
        for workers in (1, 2):
            mc = McConfig(seed=1, samples=1_000_000, batch=250_000,
                          workers=workers)
            got = tuple(mc_volume(body_from_structure(structure, kind, idx),
                                  mc).hit_count
                        for kind, idx in every_body(structure))
            assert got == hits, workers


def mc_hits_reference(body, mc):
    """The former sampler, kept as the reference: every draw of every chunk
    scaled to the box and tested."""
    lo, hi = bounding_box(body)
    span = hi - lo
    hits = 0
    for k, start in enumerate(range(0, mc.samples, mc.batch)):
        rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(k))
        pts = rng.random((min(mc.batch, mc.samples - start), 3))
        pts *= span
        pts += lo
        hits += int(contains_many(body, pts).sum())
    return hits


def far_configs():
    """The base configurations of KERNEL_CONFIGS moved far from the origin,
    where the window's slack grows with the coordinates."""
    base = {name: pts for name, pts in KERNEL_CONFIGS.items()
            if "+" not in name}
    return {f"{name}{shift:+g}": pts + shift * np.array([1.0, -1.0, 1.0])
            for name, pts in base.items() for shift in (3e4, -2e5, 1e6)}


# with thin wedges: the moved n = 22 pyramid and a generic n = 10 set
WINDOW_CONFIGS = {**KERNEL_CONFIGS, **far_configs(),
                  "pyramid22": moved_pyramid(21, 147).points,
                  "generic10": generic_sets(9)[0].points}


def support_ball(structure, i):
    """Center and radius of the ball whose diameter is the kept support pair
    p', q' of pair i: m, the center of the kept arc's circle, and h."""
    a, b = (structure.config.points[j] for j in structure.pairs[i].kept.support)
    return 0.5 * (a + b), 0.5 * float(np.linalg.norm(a - b))


class TestUnitWindow:
    @pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
    def test_hit_counts_equal_the_reference_sampler(self, name):
        structure = analyze_config(PointConfig(WINDOW_CONFIGS[name]))
        bodies = [body_from_structure(structure, kind, idx)
                  for kind, idx in every_body(structure)]
        for seed in (1, 7):
            # three chunks, the last one ragged
            runs = [McConfig(seed=seed, samples=100_000, batch=40_000,
                             workers=w) for w in (1, 2)]
            # one pool for every body, as a report draws it
            shared = unit_draws(bodies, runs[0])
            for body in bodies:
                expect = mc_hits_reference(body, runs[0])
                label = (body.kind, body.wedge_index, seed)
                assert [mc_volume(body, mc).hit_count for mc in runs] == \
                    [expect, expect], label
                assert [mc_volume(body, mc, shared).hit_count
                        for mc in runs] == [expect, expect], label

    @pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
    def test_draws_just_outside_map_beyond_a_center(self, name):
        # the tighter of two boxes sets each edge: the box of all balls,
        # beyond which draws map beyond a center, and for a wedge the box of
        # B(m, h) on its kept support pair, beyond which they map farther
        # than h from m
        structure = analyze_config(PointConfig(WINDOW_CONFIGS[name]))
        centers = structure.config.points
        for kind, idx in every_body(structure):
            body = body_from_structure(structure, kind, idx)
            lo, hi = bounding_box(body)
            span = hi - lo
            window = _unit_window(body, lo, span)
            assert window, (kind, idx)
            if kind == "wedge":
                m, h = support_ball(structure, idx)
            middle = np.full(3, 0.5)
            for a, low, high in window:
                middle[a] = 0.5 * (max(low, 0.0) + min(high, 1.0))
            for a, low, high in window:
                sides = ((low, -1.0, centers[:, a].max()),
                         (high, 1.0, centers[:, a].min()))
                for edge, sign, extreme in sides:
                    if not 0.0 < edge < 1.0:
                        continue
                    u = np.tile(middle, (4, 1))
                    for ulps in range(4):
                        # 1, 2, 3 and 4 ulps outside the window
                        edge = np.nextafter(edge, 2.0 * sign)
                        u[ulps, a] = edge
                    pts = u * span
                    pts += lo
                    if kind == "wedge" and \
                            sign * (m[a] + sign * h - (extreme + sign)) < 0.0:
                        assert np.all(np.abs(pts[:, a] - m[a]) > h), (idx, a)
                    else:
                        assert np.all(np.abs(pts[:, a] - extreme) > 1.0), \
                            (kind, a)
                    assert not contains_many(body, pts).any(), (kind, a)


class TestUnitDraws:
    MC = McConfig(seed=4, samples=30_000, batch=10_000)

    @pytest.mark.parametrize("other", [
        dict(seed=5), dict(samples=40_000), dict(batch=15_000)])
    def test_draws_of_another_config_are_refused(self, tetra_structure,
                                                 other):
        body = body_from_structure(tetra_structure, "wedge", 1)
        draws = unit_draws([body], self.MC)
        mc = dataclasses.replace(self.MC, **other)
        with pytest.raises(ValueError, match="draws for wedge:1 were made"):
            mc_volume(body, mc, draws)

    def test_draws_for_other_bodies_are_refused(self, tetra_structure):
        draws = unit_draws([body_from_structure(tetra_structure, "reuleaux"),
                            body_from_structure(tetra_structure, "wedge", 0)],
                           self.MC)
        for kind, idx, label in (("meissner", None, "meissner"),
                                 ("wedge", 2, "wedge:2"),
                                 ("reuleaux", None, "reuleaux")):
            # a body is one of the pool's only if it is the same object
            body = body_from_structure(tetra_structure, kind, idx)
            with pytest.raises(ValueError,
                               match=f"draws were not made for {label}"):
                mc_volume(body, self.MC, draws)

    def test_no_body_is_refused(self):
        with pytest.raises(ValueError, match="at least one body"):
            unit_draws([], self.MC)

    def test_an_uncut_window_leaves_the_pool_unchanged(self):
        # four centers within 1e-15 of each other: the window is the whole
        # box, so the body reads every pooled row as the pool holds it
        tiny = PointConfig(np.eye(4)[:, :3] * 1e-15,
                           tol=Tolerances(dist_eps=1e-17))
        body = BodySpec("reuleaux", tiny)
        lo, hi = bounding_box(body)
        assert _unit_window(body, lo, hi - lo) == []
        draws = unit_draws([body], self.MC)
        before = [rows.copy() for rows in draws.rows]
        expect = mc_hits_reference(body, self.MC)
        for _ in range(2):
            assert mc_volume(body, self.MC, draws).hit_count == expect
            assert all(np.array_equal(a, b)
                       for a, b in zip(draws.rows, before))


def ball_configs():
    sets = {"tetra": config_from_generator("tetra"),
            "pentad": config_from_generator("pentad")}
    sets.update({f"pyramid{m + 1}": moved_pyramid(m, 7 * m)
                 for m in (5, 9, 21, 51)})
    sets.update({f"generic{m + 1}.{k}": cfg for m in (5, 9, 21)
                 for k, cfg in enumerate(generic_sets(m))})
    return sets


BALL_CONFIGS = ball_configs()


class TestWedgeInSupportBall:
    """Every wedge point lies in the closed ball B(m, h) whose diameter is
    its kept support pair p', q' (the lemma of ``oracle._unit_window``)."""

    @pytest.mark.parametrize("name", sorted(BALL_CONFIGS))
    def test_accepted_samples_lie_in_the_ball(self, name):
        structure = analyze_config(BALL_CONFIGS[name])
        rng = np.random.default_rng(31)
        for i, dp in enumerate(structure.pairs):
            body = body_from_structure(structure, "wedge", i)
            m, h = support_ball(structure, i)
            lo, hi = bounding_box(body)
            probes = [lo + rng.random((20_000, 3)) * (hi - lo)]
            # the wedge is thin: probe around its edge, the removed arc, and
            # in shells at 1e-2 ... 1e-8 around its tips p', q', the ends
            # of that arc, centered on the arc with spreads of 1 ... 1e-3
            # of the shell's radius
            arc = dp.removed.arc
            edge = arc.sample_points(64)
            spread = 10.0 ** -np.repeat(np.arange(4), 32)[:, None]
            for r in 10.0 ** -np.arange(2, 9):
                probes.append(edge + r * h * rng.standard_normal(edge.shape))
                turn = r / arc.circle.radius
                for psi in (arc.start_angle + turn, arc.end_angle - turn):
                    probes.append(arc.circle.point(psi) + r * spread
                                  * rng.standard_normal((len(spread), 3)))
            pts = np.vstack(probes)
            hits = pts[contains_many(body, pts)]
            tips = structure.config.points[list(dp.kept.support)]
            # some hits lie in the innermost shells
            assert np.linalg.norm(hits[:, None] - tips, axis=2).min() < 1e-7, \
                (name, i)
            # rounding aside, far inside the window's 1e-6
            assert np.linalg.norm(hits - m, axis=1).max() <= h + 1e-12, \
                (name, i)
            # mapped back to unit draws, every hit lies in the sampler's
            # window: a window that cut off the tips would drop these
            span = hi - lo
            u = (hits - lo) / span
            for a, low, high in _unit_window(body, lo, span):
                assert low <= u[:, a].min() and u[:, a].max() <= high, \
                    (name, i, a)


class TestMcVolume:
    def test_determinism_across_runs_and_workers(self, tetra_structure):
        body = body_from_structure(tetra_structure, "meissner")
        runs = [mc_volume(body, McConfig(seed=9, samples=400_000, batch=50_000,
                                         workers=w)) for w in (1, 1, 4, 8)]
        assert len({e.hit_count for e in runs}) == 1
        assert len({e.volume_mean for e in runs}) == 1

    def test_different_seeds_differ(self, tetra_structure):
        body = body_from_structure(tetra_structure, "reuleaux")
        a = mc_volume(body, McConfig(seed=1, samples=100_000))
        b = mc_volume(body, McConfig(seed=2, samples=100_000))
        assert a.hit_count != b.hit_count

    def test_estimate_fields_are_consistent(self, tetra_structure):
        body = body_from_structure(tetra_structure, "reuleaux")
        est = mc_volume(body, McConfig(seed=3, samples=250_000))
        p = est.hit_count / est.sample_count
        assert est.volume_mean == pytest.approx(est.bbox_volume * p, rel=1e-15)
        assert est.std_error == pytest.approx(
            est.bbox_volume * math.sqrt(p * (1 - p) / est.sample_count), rel=1e-12)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=0)

    def test_error_shrinks_like_inverse_sqrt(self, tetra_structure):
        body = body_from_structure(tetra_structure, "reuleaux")
        small = mc_volume(body, McConfig(seed=5, samples=100_000))
        big = mc_volume(body, McConfig(seed=5, samples=1_600_000))
        ratio = small.std_error / big.std_error
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_tetra_bodies_match_closed_forms(self, tetra_structure):
        pairs = angle_pairs(tetra_structure)
        checks = [("reuleaux", None, volume_reuleaux(pairs)),
                  ("meissner", None, volume_meissner(pairs)),
                  ("wedge", 1, wedge_volume(pairs[1]))]
        for kind, idx, expect in checks:
            body = body_from_structure(tetra_structure, kind, idx)
            est = mc_volume(body, McConfig(seed=11, samples=2_000_000))
            assert abs(est.volume_mean - expect) < 3.0 * est.std_error

    def test_pentad_asymmetric_wedges_match_closed_forms(self, pentad_structure):
        # the two wedges from the split arcs have theta != theta_prime, so this
        # pins the argument order of the per-pair area term
        pairs = angle_pairs(pentad_structure)
        for i in (0, 1):
            assert abs(pairs[i].theta - pairs[i].theta_prime) > 0.4
            body = body_from_structure(pentad_structure, "wedge", i)
            est = mc_volume(body, McConfig(seed=11, samples=4_000_000))
            assert abs(est.volume_mean - wedge_volume(pairs[i])) < 3.0 * est.std_error

    def test_additivity_of_mc_estimates(self, pentad_structure):
        mc = McConfig(seed=21, samples=2_000_000)
        est_r = mc_volume(body_from_structure(pentad_structure, "reuleaux"), mc)
        est_m = mc_volume(body_from_structure(pentad_structure, "meissner"), mc)
        wedges = [mc_volume(body_from_structure(pentad_structure, "wedge", i), mc)
                  for i in range(4)]
        total = est_m.volume_mean + sum(w.volume_mean for w in wedges)
        sigma = math.sqrt(est_r.std_error ** 2 + est_m.std_error ** 2
                          + sum(w.std_error ** 2 for w in wedges))
        assert abs(est_r.volume_mean - total) < 3.0 * sigma
