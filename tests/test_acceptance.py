"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also asserts, so the suite fails loudly on any violation.
"""

import json
import math

import numpy as np
import pytest

from reuleaux.cli import main as cli_main
from reuleaux.formulas import (AnglePair, blaschke_defect_term, blaschke_gap,
                               sliver_area, sliver_flux, spindle_area,
                               spindle_flux, surface_meissner,
                               surface_reuleaux, volume_meissner,
                               volume_reuleaux, wedge_volume,
                               wedge_volume_via_flux)
from reuleaux.mesh import build_body_mesh, inspect_mesh, mesh_area, mesh_volume
from reuleaux.oracle import McConfig, body_from_structure, mc_volume, \
    unit_draws
from reuleaux.polyhedron import angle_pairs

from oracles import (sliver_area_quad, sliver_flux_quad, spindle_area_quad,
                     spindle_flux_quad)


def report(line: str, ok: bool) -> None:
    print(f"{line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


GRID = np.linspace(0.01, math.pi / 3 - 0.01, 50)


def test_c1_exact_tetrahedron_volume(tetra_structure):
    computed = volume_reuleaux(angle_pairs(tetra_structure))
    exact = 8 * math.pi / 3 + math.sqrt(2) / 4 - (27 / 4) * math.acos(1 / 3)
    err = abs(computed - exact)
    report(f"C1 exact tetrahedron volume (err {err:.2e} <= 1e-9)", err <= 1e-9)


def test_c2_wedge_lemma_grid():
    worst = 0.0
    for t in GRID:
        for tp in GRID:
            p = AnglePair(float(t), float(tp))
            worst = max(worst, abs(wedge_volume(p) - wedge_volume_via_flux(p)))
    report(f"C2 wedge volume vs flux assembly on 50x50 grid "
           f"(max residual {worst:.2e} < 1e-10)", worst < 1e-10)


def test_c3_quadrature_agreement():
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for t, tp in rng.uniform(0.05, math.pi / 3, size=(20, 2)):
        p = AnglePair(float(t), float(tp))
        worst = max(
            worst,
            abs(sliver_area(p) - sliver_area_quad(p.theta, p.theta_prime)),
            abs(spindle_area(p) - spindle_area_quad(p.theta, p.theta_prime)),
            abs(sliver_flux(p) - sliver_flux_quad(p.theta, p.theta_prime)),
            abs(spindle_flux(p) - spindle_flux_quad(p.theta, p.theta_prime)),
        )
    report(f"C3 closed forms vs adaptive quadrature, 20 seeded pairs "
           f"(max err {worst:.2e} <= 1e-8)", worst <= 1e-8)


def test_c4_monte_carlo_tetra(tetra_structure):
    pairs = angle_pairs(tetra_structure)
    mc = McConfig(seed=42, samples=10_000_000)
    checks = [("reuleaux", None, volume_reuleaux(pairs)),
              ("meissner", None, volume_meissner(pairs))]
    checks += [("wedge", i, wedge_volume(pairs[i])) for i in range(3)]
    bodies = [body_from_structure(tetra_structure, kind, idx)
              for kind, idx, _ in checks]
    # one Philox stream for the five bodies; each body's hits are those of
    # drawing it alone (test_oracle.py's pinned counts cover that path)
    draws = unit_draws(bodies, mc)
    ok = True
    zs = []
    for body, (kind, idx, expect) in zip(bodies, checks):
        est = mc_volume(body, mc, draws)
        z = (est.volume_mean - expect) / est.std_error
        zs.append(f"{kind}{'' if idx is None else idx}:{z:+.2f}")
        ok &= abs(est.volume_mean - expect) < 3.0 * est.std_error
    report(f"C4 MC tetra seed 42, 1e7 samples, all within 3 sigma "
           f"(z = {', '.join(zs)})", ok)


def test_c5_mesh_oracle(tetra_structure, pentad_structure):
    ok = True
    details = []
    for name, structure in (("tetra", tetra_structure),
                            ("pentad", pentad_structure)):
        pairs = angle_pairs(structure)
        for kind, vol_fn, area_fn in (
                ("reuleaux", volume_reuleaux, surface_reuleaux),
                ("meissner", volume_meissner, surface_meissner)):
            mesh = build_body_mesh(structure, kind, 128)
            stats = inspect_mesh(mesh)
            verr = abs(mesh_volume(mesh) - vol_fn(pairs))
            aerr = abs(mesh_area(mesh) - area_fn(pairs))
            good = (verr <= 1e-3 and aerr <= 1e-3 and stats.watertight
                    and stats.oriented and stats.euler_characteristic == 2)
            details.append(f"{name}/{kind} V{verr:.1e} A{aerr:.1e}")
            ok &= good
    report(f"C5 mesh oracle n=128, both configs and bodies, watertight chi=2 "
           f"({'; '.join(details)})", ok)


def test_c6_structure(tetra_structure, pentad_structure):
    pent = pentad_structure
    ok = (pent.extremality.is_extremal
          and pent.extremality.diametric_pair_count == 8
          and pent.report.dual_pair_count == 4
          and pent.report.vertex_classes.count("dangling") == 1
          and pent.report.euler_characteristic == 2)
    tet_angle_err = max(max(abs(dp.angles.theta - math.pi / 3),
                            abs(dp.angles.theta_prime - math.pi / 3))
                        for dp in tetra_structure.pairs)
    ok &= (tetra_structure.report.dual_pair_count == 3
           and tet_angle_err <= 1e-12)
    report(f"C6 structure: pentad 8 pairs/4 duals/1 dangling/chi=2, tetra 3 "
           f"duals at pi/3 (angle err {tet_angle_err:.1e} <= 1e-12)", ok)


def test_c7_inequalities(tetra_structure, pentad_structure):
    min_defect = min(blaschke_defect_term(AnglePair(float(t), float(tp)))
                     for t in GRID for tp in GRID)
    gaps = [blaschke_gap(angle_pairs(s))
            for s in (tetra_structure, pentad_structure)]
    identity_err = 0.0
    for s in (tetra_structure, pentad_structure):
        pairs = angle_pairs(s)
        identity_err = max(identity_err,
                           abs(volume_meissner(pairs)
                               - (0.5 * surface_meissner(pairs) - math.pi / 3)))
    ok = (min_defect > 0.0 and all(g > 0.0 for g in gaps)
          and identity_err < 1e-12)
    report(f"C7 inequalities: volume-term gap > 0 on 2500 nodes (min "
           f"{min_defect:.2e}), body gaps > 0, Meissner half-area identity "
           f"(err {identity_err:.1e} < 1e-12)", ok)


def test_c8_additivity(tetra_structure, pentad_structure):
    closed_err = 0.0
    for s in (tetra_structure, pentad_structure):
        pairs = angle_pairs(s)
        closed_err = max(closed_err,
                         abs(volume_reuleaux(pairs) - volume_meissner(pairs)
                             - sum(wedge_volume(p) for p in pairs)))
    mc = McConfig(seed=42, samples=2_000_000)
    s = tetra_structure
    est_r = mc_volume(body_from_structure(s, "reuleaux"), mc)
    est_m = mc_volume(body_from_structure(s, "meissner"), mc)
    wedges = [mc_volume(body_from_structure(s, "wedge", i), mc) for i in range(3)]
    gap = abs(est_r.volume_mean - est_m.volume_mean
              - sum(w.volume_mean for w in wedges))
    sigma = math.sqrt(est_r.std_error ** 2 + est_m.std_error ** 2
                      + sum(w.std_error ** 2 for w in wedges))
    ok = closed_err < 1e-12 and gap < 3.0 * sigma
    report(f"C8 additivity: closed-form err {closed_err:.1e} < 1e-12; MC gap "
           f"{gap:.2e} < 3 sigma ({3 * sigma:.2e})", ok)


def test_c9_report_determinism(tmp_path):
    def run_report(workers, path):
        argv = ["report", "generator:pentad", "--full", "--seed", "42",
                "--samples", "200000", "--batch", "50000", "--refine", "16",
                "--workers", str(workers), "--json", str(path)]
        assert cli_main(argv) == 0
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("timing")
        return json.dumps(payload, sort_keys=True)

    first = run_report(1, tmp_path / "a.json")
    again = run_report(1, tmp_path / "b.json")
    threaded = run_report(8, tmp_path / "c.json")
    ok = first == again == threaded
    report("C9 cmd_report determinism across repeats and 1 vs 8 workers", ok)
