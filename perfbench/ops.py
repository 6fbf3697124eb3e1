"""Benchmark operations: each makes one call into the program, times it and
checks what comes back.

``run`` returns the measured data and a list of failed checks; an exception
means the operation produced nothing to measure.  The program is always
reached through module attributes (``cli.main``, ``polyhedron.analyze_config``)
so the tracer's patches see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom, norm

from calibrate import clock
from reuleaux import cli, formulas, polyhedron
from reuleaux import mesh as rmesh

MESH_TOL = 1e-3       # |mesh - closed form|, the C5 gate
GATED_REFINE = 48     # coarser meshes are measured, not held to MESH_TOL
Z_MAX = 5.0           # MC gate: two-sided tail of a 5-sigma normal deviate
INVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form values of one input, used as the reference for checks."""

    n: int
    reuleaux: tuple[float, float]   # volume, surface area
    meissner: tuple[float, float]
    wedges: tuple[float, ...]
    blaschke_gap: float

    @classmethod
    def of(cls, structure) -> "ClosedForms":
        pairs = polyhedron.angle_pairs(structure)
        r = formulas.reuleaux_scalars(pairs)
        m = formulas.meissner_scalars(pairs)
        return cls(n=structure.config.n,
                   reuleaux=(r.volume, r.surface_area),
                   meissner=(m.volume, m.surface_area),
                   wedges=tuple(formulas.wedge_volume(p) for p in pairs),
                   blaschke_gap=formulas.blaschke_gap(pairs))

    def body(self, label: str) -> tuple[float, float | None]:
        if label.startswith("wedge:"):
            return self.wedges[int(label.split(":")[1])], None
        return getattr(self, label)

    def invariance_errors(self, other: "ClosedForms") -> list[str]:
        mine = (*self.reuleaux, *self.meissner, *self.wedges, self.blaschke_gap)
        theirs = (*other.reuleaux, *other.meissner, *other.wedges,
                  other.blaschke_gap)
        worst = max(abs(a - b) for a, b in zip(mine, theirs))
        if len(mine) != len(theirs) or worst > INVARIANCE_TOL:
            return [f"closed forms moved by {worst:.3g} under a rigid motion"]
        return []


def count_errors(n: int, diametric: int, edges: int, pairs: int,
                 euler: int) -> list[str]:
    want = (2 * n - 2, 2 * n - 2, n - 1, 2)
    got = (diametric, edges, pairs, euler)
    if got != want:
        return [f"n={n}: (diameters, edges, dual pairs, euler) = {got}, "
                f"expected {want}"]
    return []


def mesh_errors(label: str, stats: dict, closed: tuple[float, float],
                refine: int) -> tuple[list[str], float, float]:
    errs = []
    if not (stats["watertight"] and stats["oriented"]
            and stats["euler_characteristic"] == 2):
        errs.append(f"mesh {label} is not a closed oriented sphere: "
                    f"watertight={stats['watertight']} "
                    f"oriented={stats['oriented']} "
                    f"chi={stats['euler_characteristic']}")
    d_vol = stats["volume"] - closed[0]
    d_area = stats["surface_area"] - closed[1]
    if refine >= GATED_REFINE and max(abs(d_vol), abs(d_area)) > MESH_TOL:
        errs.append(f"mesh {label}: volume error {d_vol:.3g}, "
                    f"area error {d_area:.3g} exceed {MESH_TOL}")
    return errs, d_vol, d_area


def mc_z(est: dict, closed: float) -> tuple[float, str | None]:
    """Signed z of an MC estimate against its closed form, from the exact
    binomial test of its hit count: the hits of an unbiased estimator are
    Binomial(n, closed / box volume).  The estimate's own std_error cannot
    serve here: a wedge expects fewer than ten hits in 1e6 samples, where
    the plug-in error shrinks with the hit count and turns an ordinary
    shortfall (one hit for 6.8 expected) into |z| > 5.  Returns the normal
    deviate of the same two-sided tail probability, or an error message."""
    n, hits = est["sample_count"], est["hit_count"]
    p0 = closed / est["bbox_volume"]
    if not 0.0 < p0 < 1.0:
        return math.inf, (f"closed form {closed:.6g} does not fit the "
                          f"sampling box of volume {est['bbox_volume']:.6g}")
    if not math.isclose(est["volume_mean"], est["bbox_volume"] * hits / n,
                        rel_tol=1e-12, abs_tol=1e-15):
        return math.inf, "volume_mean is not box volume times hit fraction"
    tail = min(binom.cdf(hits, n, p0), binom.sf(hits - 1, n, p0))
    z = norm.isf(min(1.0, 2.0 * tail) / 2.0)
    return math.copysign(z, hits - n * p0), None


def _call_cli(argv: list[str]) -> float:
    start = clock()
    rc = cli.main(argv)
    wall = clock() - start
    if rc != 0:
        raise RuntimeError(f"exit code {rc} from reuleaux {' '.join(argv)}")
    return wall


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One kind of call; ``key`` groups repeated calls for the medians."""

    kind = ""

    def __init__(self, key: str):
        self.key = key

    def run(self, tmp: str) -> tuple[dict, list[str]]:
        raise NotImplementedError


class ReportOp(Op):
    """``reuleaux report X --full`` in-process, then every oracle checked
    against the closed forms and the structure against the reference."""

    kind = "report"

    def __init__(self, key, descriptor, reference: ClosedForms, mc_seed: int,
                 samples: int, batch: int, workers: int, refine: int):
        super().__init__(key)
        self.reference = reference
        self.refine = refine
        self.samples = samples
        self.argv = ["report", descriptor, "--full", "--seed", str(mc_seed),
                     "--samples", str(samples), "--batch", str(batch),
                     "--workers", str(workers), "--refine", str(refine)]

    def run(self, tmp):
        path = os.path.join(tmp, "report.json")
        wall = _call_cli(self.argv + ["--json", path])
        payload = _load(path)
        ref = self.reference
        st, ex = payload["structure"], payload["extremality"]
        errs = count_errors(ref.n, ex["diametric_pair_count"],
                            st["edge_count"], st["dual_pair_count"],
                            st["euler_characteristic"])
        got = ClosedForms(
            n=ref.n,
            reuleaux=(payload["reuleaux"]["volume"],
                      payload["reuleaux"]["surface_area"]),
            meissner=(payload["meissner"]["volume"],
                      payload["meissner"]["surface_area"]),
            wedges=tuple(p["wedge_volume"] for p in payload["pairs"]),
            blaschke_gap=payload["blaschke_gap"])
        errs += got.invariance_errors(ref)
        se = {"body": 0.0, "wedge": 0.0}
        for label, est in payload["mc"]["estimates"].items():
            z, bad = mc_z(est, ref.body(label)[0])
            if bad is not None:
                errs.append(f"MC {label}: {bad}")
            elif abs(z) > Z_MAX:
                errs.append(f"MC {label}: z = {z:.2f} against the closed form "
                            f"({est['hit_count']} hits)")
            group = "wedge" if label.startswith("wedge:") else "body"
            se[group] = max(se[group], est["std_error"])
        mesh_err = 0.0
        for label, stats in payload["mesh"]["bodies"].items():
            e, d_vol, d_area = mesh_errors(label, stats, ref.body(label),
                                           self.refine)
            errs += e
            mesh_err = max(mesh_err, abs(d_vol), abs(d_area))
        return {"wall_s": wall, "se_body": se["body"], "se_wedge": se["wedge"],
                "mesh_err": mesh_err, "refine": self.refine,
                "estimates": payload["mc"]["estimates"]}, errs


class MeshOp(Op):
    """``reuleaux mesh generator:X --body B --refine R``."""

    kind = "mesh"

    def __init__(self, key, generator: str, body: str, refine: int,
                 reference: ClosedForms):
        super().__init__(key)
        self.label = f"{generator}.{body}"
        self.closed = reference.body(body)
        self.refine = refine
        self.argv = ["mesh", f"generator:{generator}", "--body", body,
                     "--refine", str(refine)]

    def run(self, tmp):
        path = os.path.join(tmp, "mesh.json")
        wall = _call_cli(self.argv + ["--json", path])
        stats = _load(path)["mesh"]
        errs, d_vol, d_area = mesh_errors(self.label, stats, self.closed,
                                          self.refine)
        return {"wall_s": wall, "refine": self.refine,
                "mesh_err": max(abs(d_vol), abs(d_area))}, errs


class ObjRoundTripOp(Op):
    """export_obj -> import_obj -> mesh_volume on one mesh.  The mesh is
    built on the first call and kept; only the round trip is timed."""

    kind = "io"

    def __init__(self, key, structure, body: str, refine: int,
                 reference: ClosedForms):
        super().__init__(key)
        self.structure = structure
        self.body = body
        self.refine = refine
        self.closed_volume = reference.body(body)[0]
        self._mesh = None

    def run(self, tmp):
        if self._mesh is None:
            self._mesh = rmesh.build_body_mesh(self.structure, self.body,
                                               self.refine)
        path = os.path.join(tmp, "roundtrip.obj")
        t0 = clock()
        rmesh.export_obj(self._mesh, path)
        t1 = clock()
        back = rmesh.import_obj(path)
        t2 = clock()
        volume = rmesh.mesh_volume(back)
        t3 = clock()
        size = os.path.getsize(path)
        os.remove(path)
        errs = []
        if not (np.array_equal(back.vertices, self._mesh.vertices)
                and np.array_equal(back.triangles, self._mesh.triangles)):
            errs.append("OBJ round trip changed the mesh")
        d_vol = volume - self.closed_volume
        if self.refine >= GATED_REFINE and abs(d_vol) > MESH_TOL:
            errs.append(f"imported mesh volume error {d_vol:.3g}")
        return {"wall_s": t3 - t0, "export_s": t1 - t0, "import_s": t2 - t1,
                "volume_s": t3 - t2, "obj_mb": size / 1e6,
                "refine": self.refine, "mesh_err": abs(d_vol)}, errs


class AnalyzeOp(Op):
    """analyze_config plus the closed forms on rigidly moved copies of one
    point set, taken in turn.  The closed forms must not move with the copy:
    they are compared with the unmoved set's, or, where that is too costly
    to compute in set-up, with the first copy's."""

    kind = "analyze"

    def __init__(self, key, copies, reference: ClosedForms | None):
        super().__init__(key)
        self.copies = copies
        self.reference = reference
        self._next = 0

    def run(self, tmp):
        cfg = self.copies[self._next % len(self.copies)]
        self._next += 1
        start = clock()
        structure = polyhedron.analyze_config(cfg)
        got = ClosedForms.of(structure)
        wall = clock() - start
        rep = structure.report
        errs = count_errors(cfg.n, structure.extremality.diametric_pair_count,
                            rep.edge_count, rep.dual_pair_count,
                            rep.euler_characteristic)
        if self.reference is None:
            self.reference = got
        errs += got.invariance_errors(self.reference)
        return {"wall_s": wall, "n": cfg.n, "edges": rep.edge_count}, errs


class SweepOp(Op):
    """``reuleaux sweep --grid G``: CSV to a file, summary JSON checked."""

    kind = "sweep"

    def __init__(self, key, grid: int):
        super().__init__(key)
        self.grid = grid

    def run(self, tmp):
        csv_path = os.path.join(tmp, "sweep.csv")
        json_path = os.path.join(tmp, "sweep.json")
        wall = _call_cli(["sweep", "--grid", str(self.grid), "--out", csv_path,
                          "--json", json_path])
        summary = _load(json_path)
        os.remove(csv_path)
        errs = []
        if summary["rows"] != self.grid ** 2 or summary["violations"] != 0:
            errs.append(f"sweep: {summary['rows']} rows, "
                        f"{summary['violations']} violations")
        return {"wall_s": wall, "rows": summary["rows"],
                "grid": self.grid}, errs


def triples(n: int) -> int:
    """Support pairs times other centers: the work of extract_edges."""
    return math.comb(n, 2) * (n - 2)
