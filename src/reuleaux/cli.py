"""Command-line front end: validation, analysis, oracles, sweeps, meshes.

Outputs are JSON (reports) or CSV (sweeps); identical invocations with the
same seed produce byte-identical reports apart from the timing block.  Exit
codes: 0 success, 2 validation failure, 3 structure error, 4 numeric-domain
error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import formulas
from .errors import DomainError, MeshError, NotExtremalError, StructureError
from .geom import Tolerances
from .mesh import build_body_mesh, export_obj, export_ply, mesh_area, \
    mesh_volume
from .oracle import McConfig, body_from_structure, mc_volume
from .polyhedron import Structure, analyze_config, angle_pairs, \
    check_extremal, config_from_generator, config_from_json_dict

GENERATOR_PREFIX = "generator:"


def load_input(descriptor: str, tol: Tolerances):
    if descriptor.startswith(GENERATOR_PREFIX):
        name = descriptor[len(GENERATOR_PREFIX):]
        try:
            return config_from_generator(name, tol=tol)
        except ValueError as exc:
            raise FileNotFoundError(str(exc)) from exc
    with open(descriptor, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise OSError(f"{descriptor} is not valid JSON: {exc}") from exc
    return config_from_json_dict(data, tol=tol)


def parse_body(text: str) -> tuple[str, int | None]:
    if text in ("reuleaux", "meissner"):
        return text, None
    if text.startswith("wedge:"):
        try:
            return "wedge", int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise DomainError(f"--body must be reuleaux, meissner, or wedge:<i>, got {text!r}")


def _finite(value):
    """The payload with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def emit_json(payload: dict, path: str | None) -> None:
    """Write the payload as RFC 8259 JSON: a non-finite float becomes null."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, tol: Tolerances) -> dict:
    return {
        "input": args.input,
        "tolerances": {"dist_eps": tol.dist_eps, "ang_eps": tol.ang_eps,
                       "match_eps": tol.match_eps},
    }


def analyze_payload(structure: Structure) -> dict:
    pairs = angle_pairs(structure)
    table = []
    for dp, p in zip(structure.pairs, pairs):
        table.append({
            "kept_support": list(dp.kept.support),
            "kept_endpoints": list(dp.kept.endpoints),
            "removed_support": list(dp.removed.support),
            "removed_endpoints": list(dp.removed.endpoints),
            "theta": p.theta,
            "theta_prime": p.theta_prime,
            "phi": p.phi,
            "phi_prime": p.phi_prime,
            "wedge_volume": formulas.wedge_volume(p),
        })
    return {
        "extremality": structure.extremality.to_dict(),
        "structure": structure.report.to_dict(),
        "pairs": table,
        "reuleaux": formulas.reuleaux_scalars(pairs).to_dict(),
        "meissner": formulas.meissner_scalars(pairs).to_dict(),
        "blaschke_gap": formulas.blaschke_gap(pairs),
    }


def mc_payload(structure: Structure, seed: int, samples: int, batch: int,
               workers: int, bodies) -> dict:
    out = {"seed": seed, "samples": samples, "batch": batch, "estimates": {}}
    for kind, idx in bodies:
        body = body_from_structure(structure, kind, idx)
        est = mc_volume(body, McConfig(seed=seed, samples=samples, batch=batch,
                                       workers=workers))
        label = kind if idx is None else f"{kind}:{idx}"
        out["estimates"][label] = est.to_dict()
    return out


def mesh_payload(structure: Structure, refine: int, bodies) -> dict:
    out = {"refine": refine, "bodies": {}}
    for kind, idx in bodies:
        mesh = build_body_mesh(structure, kind, refine, wedge_index=idx)
        label = kind if idx is None else f"{kind}:{idx}"
        out["bodies"][label] = dict(mesh.stats.to_dict(),
                                    volume=mesh_volume(mesh),
                                    surface_area=mesh_area(mesh))
    return out


def cmd_validate(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    cfg = load_input(args.input, tol)
    report = check_extremal(cfg)
    payload = dict(_meta(args, tol), extremality=report.to_dict())
    emit_json(payload, args.json)
    return 0 if report.is_extremal else 2


def cmd_analyze(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    structure = analyze_config(load_input(args.input, tol))
    payload = dict(_meta(args, tol), **analyze_payload(structure))
    emit_json(payload, args.json)
    return 0


def cmd_mc(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    structure = analyze_config(load_input(args.input, tol))
    kind, idx = parse_body(args.body)
    payload = dict(_meta(args, tol), **analyze_payload(structure))
    payload["mc"] = mc_payload(structure, args.seed, args.samples, args.batch,
                               args.workers, [(kind, idx)])
    emit_json(payload, args.json)
    return 0


def cmd_mesh(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    structure = analyze_config(load_input(args.input, tol))
    kind, idx = parse_body(args.body)
    mesh = build_body_mesh(structure, kind, args.refine, wedge_index=idx)
    if args.out:
        writer = export_obj if args.format == "obj" else export_ply
        writer(mesh, args.out)
    payload = dict(_meta(args, tol),
                   mesh=dict(mesh.stats.to_dict(),
                             volume=mesh_volume(mesh),
                             surface_area=mesh_area(mesh),
                             refine=args.refine,
                             body=args.body,
                             out=args.out,
                             format=args.format))
    emit_json(payload, args.json)
    return 0


SWEEP_COLUMNS = ("theta", "theta_prime", "meissner_area_term",
                 "reuleaux_area_term", "reuleaux_volume_term",
                 "blaschke_defect_term", "wedge_volume", "wedge_flux_residual")


def cmd_sweep(args) -> int:
    n = args.grid
    lo, hi = 0.01, math.pi / 3 - 0.01
    grid = np.linspace(lo, hi, n)
    rows = []
    violations = 0
    max_residual = 0.0
    for t in grid:
        for tp in grid:
            p = formulas.AnglePair(float(t), float(tp))
            wedge = formulas.wedge_volume(p)
            residual = wedge - formulas.wedge_volume_via_flux(p)
            defect = formulas.blaschke_defect_term(p)
            max_residual = max(max_residual, abs(residual))
            if defect <= 0.0 or abs(residual) >= 1e-10:
                violations += 1
            rows.append((p.theta, p.theta_prime,
                         formulas.meissner_area_term(p),
                         formulas.reuleaux_area_term(p),
                         formulas.reuleaux_volume_term(p),
                         defect, wedge, residual))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([f"{x:.17g}" for x in row] for row in rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if args.json:
        emit_json({"grid": n, "rows": len(rows), "violations": violations,
                   "max_flux_residual": max_residual}, args.json)
    if violations:
        raise DomainError(
            f"sweep found {violations} violations of the term-gap or flux identity")
    return 0


def cmd_report(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    started = time.perf_counter()
    structure = analyze_config(load_input(args.input, tol))
    payload = dict(_meta(args, tol), **analyze_payload(structure))
    if args.full:
        bodies = [("reuleaux", None), ("meissner", None)]
        wedges = [("wedge", i) for i in range(len(structure.pairs))]
        payload["mc"] = mc_payload(structure, args.seed, args.samples,
                                   args.batch, args.workers, bodies + wedges)
        payload["mesh"] = mesh_payload(structure, args.refine, bodies)
    payload["timing"] = {"elapsed_s": time.perf_counter() - started}
    emit_json(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reuleaux",
        description="Ball polyhedra from extremal point sets: structure, "
                    "closed-form volumes and areas, Monte Carlo and mesh checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="point-set JSON path or generator:NAME")
        p.add_argument("--tol-dist", type=float, default=1e-9, metavar="EPS",
                       help="distance-equality tolerance (default 1e-9)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("validate", help="check extremality; exit 0 iff extremal")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="structure, angles, and closed forms")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mc", help="Monte Carlo volume estimate for one body")
    add_common(p)
    p.add_argument("--body", default="reuleaux",
                   help="reuleaux | meissner | wedge:<i>")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--batch", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1,
                   help="threads over the sample chunks; no effect unless "
                        "--samples > --batch")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("mesh", help="triangulate a body and report metrics")
    add_common(p)
    p.add_argument("--body", default="reuleaux",
                   help="reuleaux | meissner | wedge:<i>")
    p.add_argument("--refine", type=int, default=64)
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("sweep", help="CSV sweep of all per-pair terms over "
                                     "the angle square")
    add_common(p, with_input=False)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="consolidated report (analyze, and with "
                                      "--full also mc and mesh)")
    add_common(p)
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--batch", type=int, default=1_000_000)
    p.add_argument("--workers", type=int, default=1,
                   help="threads over the sample chunks; no effect unless "
                        "--samples > --batch")
    p.add_argument("--refine", type=int, default=64)
    p.set_defaults(func=cmd_report)

    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps(
        {"error": {"exit_code": code, "kind": kind, "message": message}},
        sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotExtremalError as exc:
        # the report is written first, so an unwritable --json path gives
        # one error, exit 5, as it does for validate
        try:
            emit_json({"extremality": exc.report.to_dict()},
                      getattr(args, "json", None))
        except OSError as io_exc:
            return _fail(5, "io", str(io_exc))
        return _fail(2, "validation", str(exc))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            return _fail(4, "domain", str(exc))
        return _fail(2, "validation", str(exc))
    except (StructureError, MeshError) as exc:
        return _fail(3, "structure", str(exc))
    except OSError as exc:
        return _fail(5, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
