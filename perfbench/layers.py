"""The traced run: one cycle of the workload with spans around every public
call, then direct measurements of single layers, then the per-layer metrics.

Spans come from patches installed here, outside the package.  Functions
called per grid point or per ball constraint (the formulas terms, the
geometry interval helpers) are not patched: a span there would cost more
than the call.  Their time is measured by calling them directly instead.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from ops import mesh_errors, triples
from tracing import Tracer, self_times
from reuleaux import cli, formulas, geom, oracle, polyhedron
from reuleaux import mesh as rmesh

MODULES = (cli, formulas, geom, rmesh, oracle, polyhedron)
LAYERS = ("cli", "polyhedron", "formulas", "oracle", "geom", "mesh")
KERNEL_POINTS = 250_000
CONVERGENCE_REFINES = (32, 64, 128)
SWEEP_TERMS = (formulas.wedge_volume, formulas.wedge_volume_via_flux,
               formulas.blaschke_defect_term, formulas.meissner_area_term,
               formulas.reuleaux_area_term, formulas.reuleaux_volume_term)


def _body_label(body, *_args, **_kwargs) -> str:
    return body.kind if body.wedge_index is None else \
        f"{body.kind}:{body.wedge_index}"


PATCHES = {
    cli: ("main", "load_input", "analyze_payload", "mc_payload",
          "mesh_payload", "emit_json"),
    polyhedron: ("analyze_config", "check_extremal", "extract_edges",
                 "pair_duals", "classify_vertices"),
    formulas: ("reuleaux_scalars", "meissner_scalars", "blaschke_gap"),
    oracle: ("mc_volume", "contains_many", "bounding_box"),
    geom: ("max_distance_to_arc_many",),
    rmesh: ("build_body_mesh", "inspect_mesh", "mesh_volume", "mesh_area",
            "export_obj", "import_obj"),
}
TAGS = {"mc_volume": _body_label,
        "contains_many": lambda body, points: len(points)}


def install(tracer: Tracer) -> None:
    for home, attrs in PATCHES.items():
        layer = home.__name__.rsplit(".", 1)[-1]
        others = [m for m in MODULES if m is not home]
        for attr in attrs:
            tracer.patch([home, *others], attr, f"{layer}.{attr}",
                         TAGS.get(attr))


def traced_cycle(ops, tmp, execute):
    """Each distinct operation of the cycle once, traced."""
    tracer = Tracer()
    install(tracer)
    results = []
    try:
        for i, op in enumerate(dict.fromkeys(ops)):
            tracer.run_id = i
            results.append(execute(op, tmp))
    finally:
        tracer.run_id = None
        tracer.restore()
    return results, tracer


# ---------------------------------------------------------------------------
# Direct measurements of single layers

def kernel_rates(structure, seed: int) -> dict[str, float]:
    """contains_many alone on points drawn beforehand, Msamples/s."""
    rng = np.random.default_rng(seed)
    out = {}
    for kind, idx in (("reuleaux", None), ("meissner", None), ("wedge", 0)):
        body = oracle.body_from_structure(structure, kind, idx)
        lo, hi = oracle.bounding_box(body)
        pts = lo + rng.random((KERNEL_POINTS, 3)) * (hi - lo)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            oracle.contains_many(body, pts)
            times.append(time.perf_counter() - start)
        out[kind] = KERNEL_POINTS / statistics.median(times) / 1e6
    return out


def kernel_bytes_per_sample(n: int) -> int:
    """Bytes the Reuleaux test touches per sample, from array shapes: the
    point (3 doubles), the (n, 3) difference block, n squared distances,
    n comparison flags and the reduced flag.  Computed, not measured."""
    return 8 * 3 + 8 * 3 * n + 8 * n + n + 1


def worker_speedup(structure, seed: int, errs: list[str]) -> float:
    """mc_volume with 1 and 2 workers on the same 4 chunks; the hit counts
    must be identical."""
    body = oracle.body_from_structure(structure, "reuleaux")
    times: dict[int, list[float]] = {1: [], 2: []}
    hits = set()
    for workers in (1, 2, 1, 2):
        cfg = oracle.McConfig(seed=seed, samples=1_000_000, batch=250_000,
                              workers=workers)
        start = time.perf_counter()
        est = oracle.mc_volume(body, cfg)
        times[workers].append(time.perf_counter() - start)
        hits.add(est.hit_count)
    if len(hits) != 1:
        errs.append(f"worker counts changed the hit count: {sorted(hits)}")
    return statistics.median(times[1]) / statistics.median(times[2])


def convergence(inputs, errs: list[str]) -> dict[str, float]:
    """Mesh errors at refine 32/64/128 and the observed order, per (input,
    body, quantity); stage timings at refine 128."""
    out: dict[str, float] = {}
    triangles, build_s = 0, 0.0
    for g in ("tetra", "pentad"):
        for body in ("reuleaux", "meissner"):
            label = f"{g}.{body}"
            err = {"volume": [], "area": []}
            for refine in CONVERGENCE_REFINES:
                t0 = time.perf_counter()
                mesh = rmesh.build_body_mesh(inputs.structure[g], body, refine)
                t1 = time.perf_counter()
                stats = rmesh.inspect_mesh(mesh)
                t2 = time.perf_counter()
                volume = rmesh.mesh_volume(mesh)
                t3 = time.perf_counter()
                area = rmesh.mesh_area(mesh)
                t4 = time.perf_counter()
                e, d_vol, d_area = mesh_errors(
                    f"{label}@{refine}",
                    dict(stats.to_dict(), volume=volume, surface_area=area),
                    inputs.ref[g].body(body), refine)
                errs += e
                err["volume"].append(d_vol)
                err["area"].append(d_area)
                for q, d in (("volume", d_vol), ("area", d_area)):
                    out[f"mesh.err_{q}.{label}.r{refine}"] = d
            for stage, t in (("build", t1 - t0), ("inspect", t2 - t1),
                             ("volume", t3 - t2), ("area", t4 - t3)):
                out[f"mesh.{stage}_s.{label}"] = t
            triangles += mesh.n_triangles
            build_s += t1 - t0
            for q, (e1, e2, e3) in err.items():
                out[f"mesh.order_{q}.{label}"] = math.log2(
                    abs((e1 - e2) / (e2 - e3)))
    out["mesh.triangles"] = triangles
    out["mesh.build_ktri_per_s"] = triangles / build_s / 1e3
    return out


def sweep_formulas_s(grid: int) -> float:
    """The sweep's own formula calls over its grid, without the CSV."""
    points = np.linspace(0.01, math.pi / 3 - 0.01, grid)
    start = time.perf_counter()
    for t in points:
        for tp in points:
            p = formulas.AnglePair(float(t), float(tp))
            for term in SWEEP_TERMS:
                term(p)
    return time.perf_counter() - start


def overhead_ratio(op, tmp, execute) -> float:
    """Median traced over median untraced wall of one operation, three
    alternating pairs."""
    plain, traced = [], []
    for _ in range(3):
        plain.append(execute(op, tmp)[1]["wall_s"])
        tracer = Tracer()
        install(tracer)
        try:
            traced.append(execute(op, tmp)[1]["wall_s"])
        finally:
            tracer.restore()
    return statistics.median(traced) / statistics.median(plain)


# ---------------------------------------------------------------------------
# Per-layer metrics

def per_layer(results, tracer: Tracer, inputs, overhead_op, tmp, execute
              ) -> tuple[dict[str, float], list[str]]:
    errs: list[str] = []
    spans = tracer.finished()
    selfs = self_times(spans)
    ids = {kind: [i for i, (op, d, _) in enumerate(results)
                  if op.kind == kind and d is not None]
           for kind in ("report", "mesh", "io", "analyze", "sweep")}
    large = [i for i in ids["analyze"] if ".large." in results[i][0].key]
    small = [i for i in ids["analyze"] if ".small." in results[i][0].key]

    def durations(name, run_ids):
        run_ids = set(run_ids)
        return [s.duration for s in spans
                if s.name == name and s.run_id in run_ids]

    out: dict[str, float] = {}
    for stage in ("check_extremal", "extract_edges", "pair_duals",
                  "classify_vertices"):
        name = f"polyhedron.{stage}"
        out[f"{name}_s.large"] = sum(durations(name, large))
        out[f"{name}_ms.small"] = 1e3 * statistics.median(
            durations(name, small))
    for role, run_ids in (("large", large), ("small", small)):
        out[f"polyhedron.edges.{role}"] = sum(results[i][1]["edges"]
                                              for i in run_ids)
        out[f"polyhedron.extract_edges_ns_per_triple.{role}"] = 1e9 * sum(
            durations("polyhedron.extract_edges", run_ids)) / sum(
            triples(results[i][1]["n"]) for i in run_ids)

    sweep_id = ids["sweep"][0]
    grid = results[sweep_id][1]["grid"]
    formulas_s = sweep_formulas_s(grid)
    out["formulas.terms_per_s"] = len(SWEEP_TERMS) * grid * grid / formulas_s
    out["cli.sweep_format_s"] = results[sweep_id][1]["wall_s"] - formulas_s
    scalar_s = sum(sum(durations(f"formulas.{f}", ids["analyze"]))
                   for f in ("reuleaux_scalars", "meissner_scalars",
                             "blaschke_gap"))
    out["formulas.scalars_us"] = 1e6 * scalar_s / len(ids["analyze"])

    # Oracle rows: the workload's report on the tetrahedron.
    rid = next(i for i in ids["report"]
               if results[i][0].key == "report.tetra")
    rop, rdata, _ = results[rid]
    mc = {s.tag: s.duration for s in spans
          if s.name == "oracle.mc_volume" and s.run_id == rid}
    out["oracle.passes"] = len(mc)
    out["oracle.hit_fraction_samples"] = rop.samples
    tetra = inputs.structure["tetra"]
    rates = kernel_rates(tetra, inputs.seed)
    for body, label in (("reuleaux", "reuleaux"), ("meissner", "meissner"),
                        ("wedge", "wedge:0")):
        est = rdata["estimates"][label]
        t = mc[label]
        out[f"oracle.mc_volume_s.{body}"] = t
        out[f"oracle.msamples_per_s.{body}"] = est["sample_count"] / t / 1e6
        out[f"oracle.hit_fraction.{body}"] = (est["hit_count"]
                                              / est["sample_count"])
        out[f"oracle.bbox_volume.{body}"] = est["bbox_volume"]
        out[f"oracle.sigma2_t.{body}"] = est["std_error"] ** 2 * t
        out[f"oracle.contains_many_msamples_per_s.{body}"] = rates[body]
    out["oracle.kernel_bytes_per_sample"] = kernel_bytes_per_sample(
        tetra.config.n)
    out["oracle.worker_speedup"] = worker_speedup(tetra, inputs.seed, errs)

    out.update(convergence(inputs, errs))
    io = results[ids["io"][0]][1]
    out["mesh.export_obj_s"] = io["export_s"]
    out["mesh.import_obj_s"] = io["import_s"]
    out["mesh.obj_mb"] = io["obj_mb"]
    out["mesh.closure_checks_per_mesh"] = len(
        durations("mesh.inspect_mesh", ids["mesh"])) / len(ids["mesh"])

    for stage in ("load_input", "analyze_payload", "mc_payload",
                  "mesh_payload", "emit_json"):
        out[f"cli.{stage}_s"] = sum(durations(f"cli.{stage}", ids["report"]))
    report_ids = set(ids["report"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            selfs[s.id] for s in spans if s.layer == layer
            and (layer != "cli" or s.run_id in report_ids))
    out["trace.spans"] = len(spans)
    out["trace.overhead_ratio"] = overhead_ratio(overhead_op, tmp, execute)
    return out, errs
