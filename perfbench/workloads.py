"""The three workloads: their inputs, their operations, their end-to-end
metrics.

Every workload runs every stage, because every workload must report every
end-to-end metric; a stage that is not the workload's subject runs as a
small probe (see NOTES.md for the table).

- report_full:      report --full on tetra, pentad and a seeded n=6 pyramid
                    read from point-set JSON (1e6 samples, 4 batches,
                    2 workers, refine 64).
- mesh_fine:        CLI mesh at refine 128 for {tetra, pentad} x
                    {reuleaux, meissner}, plus one refine-128 OBJ round trip.
- structure_ladder: analyze_config plus closed forms on moved pyramids,
                    n = 52 and 102 once and n = 4, 6, 10 ten times a cycle,
                    plus sweep --grid 200.
"""

from __future__ import annotations

import json
import os
import statistics

import numpy as np

from ops import (AnalyzeOp, ClosedForms, MeshOp, ObjRoundTripOp, ReportOp,
                 SweepOp, count_errors)
from pyramid import (TETRA_REULEAUX_VOLUME, diametric_pairs, point_set_json,
                     pyramid_points, rigid_motion)
from reuleaux import cli, polyhedron

FULL_MC = {"samples": 1_000_000, "batch": 250_000, "workers": 2, "refine": 64}
# The probe's MC seed is fixed: its error bars are seed noise on workloads
# whose subject is elsewhere (their spread was 0.1-0.19 over ten seeds),
# and report_full already samples them over seeds.
PROBE_MC = {"samples": 200_000, "batch": 50_000, "workers": 2, "refine": 48,
            "mc_seed": 1}
SMALL_M = (3, 5, 9)         # n = 4, 6, 10
PROBE_LARGE_M = 21          # n = 22
LARGE_M = (51, 101)         # n = 52, 102
COPIES = 4                  # rigidly moved copies of each pyramid
SELF_CHECK_TOL = 1e-9


class Inputs:
    """Seeded inputs shared by the workloads, with their references."""

    def __init__(self, seed: int, tmp: str, large: bool):
        self.seed = seed
        self.errors: list[str] = []
        rng = np.random.default_rng(seed)
        self.structure = {g: polyhedron.analyze_config(
            polyhedron.config_from_generator(g)) for g in ("tetra", "pentad")}
        self.ref = {g: ClosedForms.of(s) for g, s in self.structure.items()}
        self.copies: dict[int, list] = {}
        self.pyramid_ref: dict[int, ClosedForms | None] = {}
        wanted = SMALL_M + (PROBE_LARGE_M,) + (LARGE_M if large else ())
        for m in wanted:
            base = pyramid_points(m)
            moved = [rigid_motion(base, rng) for _ in range(COPIES)]
            for pts in [base] + moved:
                if diametric_pairs(pts) != 2 * m:
                    self.errors.append(
                        f"pyramid m={m}: {diametric_pairs(pts)} diameters, "
                        f"expected {2 * m}")
            self.copies[m] = [polyhedron.PointConfig(points=p) for p in moved]
            self.pyramid_ref[m] = None
            if m not in LARGE_M:
                s = polyhedron.analyze_config(polyhedron.PointConfig(base))
                rep = s.report
                self.errors += count_errors(
                    m + 1, s.extremality.diametric_pair_count,
                    rep.edge_count, rep.dual_pair_count,
                    rep.euler_characteristic)
                self.pyramid_ref[m] = ClosedForms.of(s)
        v_tetra = self.pyramid_ref[3].reuleaux[0]
        if abs(v_tetra - TETRA_REULEAUX_VOLUME) > SELF_CHECK_TOL:
            self.errors.append(f"pyramid m=3 gives V_R = {v_tetra:.9f}, not "
                               f"the tetrahedron's {TETRA_REULEAUX_VOLUME:.9f}")
        self.pyramid6_json = os.path.join(tmp, "pyramid6.json")
        with open(self.pyramid6_json, "w", encoding="utf-8") as fh:
            json.dump(point_set_json(self.copies[5][0].points), fh)

    def report(self, key: str, which: str, sizes: dict) -> ReportOp:
        args = {"mc_seed": self.seed, **sizes}
        if which == "pyramid6":
            return ReportOp(key, self.pyramid6_json, self.pyramid_ref[5],
                            **args)
        return ReportOp(key, f"generator:{which}", self.ref[which], **args)

    def mesh(self, generator: str, body: str, refine: int) -> MeshOp:
        return MeshOp(f"mesh.{generator}.{body}", generator, body, refine,
                      self.ref[generator])

    def roundtrip(self, refine: int) -> ObjRoundTripOp:
        return ObjRoundTripOp("io", self.structure["tetra"], "meissner",
                              refine, self.ref["tetra"])

    def analyze(self, role: str, m: int) -> AnalyzeOp:
        return AnalyzeOp(f"analyze.{role}.n{m + 1}", self.copies[m],
                         self.pyramid_ref[m])

    def small_set(self, reps: int) -> list[AnalyzeOp]:
        ops = [self.analyze("small", m) for m in SMALL_M]
        return [op for _ in range(reps) for op in ops]


def build(workload: str, seed: int, tmp: str) -> tuple[list, Inputs]:
    """The operations of one cycle, in the order they run.  The probes are
    interleaved with the subject's calls and repeated, so that the short
    ones get enough samples for a steady median."""
    inputs = Inputs(seed, tmp, large=workload == "structure_ladder")
    small = [inputs.analyze("small", m) for m in SMALL_M]
    sweep50 = SweepOp("sweep", 50)
    if workload == "report_full":
        n22 = inputs.analyze("large", PROBE_LARGE_M)
        probes = [inputs.mesh("tetra", "meissner", 48), inputs.roundtrip(48),
                  n22, n22, *small * 3, sweep50, sweep50]
        ops = []
        for w in ("tetra", "pentad", "pyramid6"):
            ops += [inputs.report(f"report.{w}", w, FULL_MC), *probes]
    elif workload == "mesh_fine":
        n22 = inputs.analyze("large", PROBE_LARGE_M)
        probes = [inputs.report("report.tetra", "tetra", PROBE_MC),
                  n22, n22, *small * 3, sweep50, sweep50]
        io = inputs.roundtrip(128)
        meshes = [inputs.mesh(g, b, 128) for g in ("tetra", "pentad")
                  for b in ("reuleaux", "meissner")]
        ops = [meshes[0], io, *probes, meshes[1], *probes,
               meshes[2], io, *probes, meshes[3], *probes]
    elif workload == "structure_ladder":
        probes = [inputs.report("report.tetra", "tetra", PROBE_MC),
                  inputs.mesh("tetra", "meissner", 48), inputs.roundtrip(48)]
        ops = []
        for m in LARGE_M:
            ops += [inputs.analyze("large", m), *small * 5,
                    SweepOp("sweep", 200), *probes]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, inputs


def warm_up(tmp: str) -> list[str]:
    """One tiny call down each path, so lazy imports and first-call costs
    land in set-up rather than in the first timed call."""
    out = os.path.join(tmp, "warm.json")
    calls = [["report", "generator:pentad", "--full", "--seed", "1",
              "--samples", "4000", "--batch", "1000", "--workers", "2",
              "--refine", "8", "--json", out],
             ["mesh", "generator:tetra", "--refine", "8", "--json", out],
             ["sweep", "--grid", "4", "--out", out + ".csv", "--json", out]]
    return [f"warm-up {argv[0]} exited {rc}" for argv in calls
            if (rc := cli.main(argv)) != 0]


# ---------------------------------------------------------------------------
# End-to-end metrics of an untraced run

def _medians(results, kind: str) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for op, data, _ in results:
        if op.kind == kind and data is not None:
            walls.setdefault(op.key, []).append(data["wall_s"])
    return {k: statistics.median(v) for k, v in walls.items()}


def _data(results, kind: str) -> list[dict]:
    return [d for op, d, _ in results if op.kind == kind and d is not None]


def end_to_end(results) -> dict[str, float]:
    """Per-operation medians, summed over the distinct calls of a pass."""
    reports = _data(results, "report")
    meshes = [d for k in ("report", "mesh", "io") for d in _data(results, k)]
    finest = max(d["refine"] for d in meshes)
    analyze = _medians(results, "analyze")
    sweep = _data(results, "sweep")
    return {
        "report_wall_s": sum(_medians(results, "report").values()),
        "mc_se_body": max(d["se_body"] for d in reports),
        "mc_se_wedge": max(d["se_wedge"] for d in reports),
        "mesh_err_max": max(d["mesh_err"] for d in meshes
                            if d["refine"] == finest),
        "mesh_wall_s": sum(_medians(results, "mesh").values()),
        "mesh_io_s": _medians(results, "io")["io"],
        "analyze_large_s": sum(v for k, v in analyze.items()
                               if ".large." in k),
        "analyze_small_ms": 1e3 * statistics.mean(
            v for k, v in analyze.items() if ".small." in k),
        "sweep_rows_per_s": (sweep[0]["rows"]
                             / _medians(results, "sweep")["sweep"]),
    }
