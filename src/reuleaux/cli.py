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
import re
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
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise OSError(f"{descriptor} is not valid JSON: {exc}") from exc
    return config_from_json_dict(data, tol=tol)


def parse_body(text: str) -> tuple[str, int | None]:
    if text in ("reuleaux", "meissner"):
        return text, None
    # a minus and ASCII digits only, where int alone also takes "0_1", "+1",
    # " 1" and "\u0661"; a negative index is refused as out of range
    kind, _, index = text.partition(":")
    if kind == "wedge" and re.fullmatch(r"-?[0-9]+", index):
        return "wedge", int(index)
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


def _analyzed(args) -> tuple[dict, Structure]:
    """The report's meta block and the analyzed structure of the input."""
    tol = Tolerances(dist_eps=args.tol_dist)
    return _meta(args, tol), analyze_config(load_input(args.input, tol))


def _label(kind: str, idx: int | None) -> str:
    return kind if idx is None else f"{kind}:{idx}"


def _mesh_block(mesh) -> dict:
    return dict(mesh.stats.to_dict(), volume=mesh_volume(mesh),
                surface_area=mesh_area(mesh))


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
        out["estimates"][_label(kind, idx)] = est.to_dict()
    return out


def mesh_payload(structure: Structure, refine: int, bodies) -> dict:
    out = {"refine": refine, "bodies": {}}
    for kind, idx in bodies:
        mesh = build_body_mesh(structure, kind, refine, wedge_index=idx)
        out["bodies"][_label(kind, idx)] = _mesh_block(mesh)
    return out


def cmd_validate(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    cfg = load_input(args.input, tol)
    report = check_extremal(cfg)
    payload = dict(_meta(args, tol), extremality=report.to_dict())
    emit_json(payload, args.json)
    if not report.is_extremal:
        return _fail(2, "validation", "point set is not extremal")
    return 0


def cmd_analyze(args) -> int:
    meta, structure = _analyzed(args)
    payload = dict(meta, **analyze_payload(structure))
    emit_json(payload, args.json)
    return 0


def cmd_mc(args) -> int:
    meta, structure = _analyzed(args)
    kind, idx = parse_body(args.body)
    payload = dict(meta, **analyze_payload(structure))
    payload["mc"] = mc_payload(structure, args.seed, args.samples, args.batch,
                               args.workers, [(kind, idx)])
    emit_json(payload, args.json)
    return 0


def cmd_mesh(args) -> int:
    meta, structure = _analyzed(args)
    kind, idx = parse_body(args.body)
    mesh = build_body_mesh(structure, kind, args.refine, wedge_index=idx)
    if args.out:
        writer = export_obj if args.format == "obj" else export_ply
        writer(mesh, args.out)
    payload = dict(meta, mesh=dict(_mesh_block(mesh), refine=args.refine,
                                   body=_label(kind, idx), out=args.out,
                                   format=args.format))
    emit_json(payload, args.json)
    return 0


SWEEP_COLUMNS = ("theta", "theta_prime", "meissner_area_term",
                 "reuleaux_area_term", "reuleaux_volume_term",
                 "blaschke_defect_term", "wedge_volume", "wedge_flux_residual")


def cmd_sweep(args) -> int:
    n = args.grid
    if n < 1:
        raise ValueError(f"--grid must be at least 1, got {n}")
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
    started = time.perf_counter()
    meta, structure = _analyzed(args)
    payload = dict(meta, **analyze_payload(structure))
    if args.full:
        bodies = [("reuleaux", None), ("meissner", None)]
        wedges = [("wedge", i) for i in range(len(structure.pairs))]
        payload["mc"] = mc_payload(structure, args.seed, args.samples,
                                   args.batch, args.workers, bodies + wedges)
        payload["mesh"] = mesh_payload(structure, args.refine, bodies)
    payload["timing"] = {"elapsed_s": time.perf_counter() - started}
    emit_json(payload, args.json)
    return 0


# Every option, defined once; each subcommand lists the ones it takes.
OPTIONS = {
    "input": dict(help="point-set JSON path or generator:NAME"),
    "--tol-dist": dict(type=float, default=Tolerances.dist_eps, metavar="EPS",
                       help="distance-equality tolerance, the one numerical "
                            "setting (default %(default)s)"),
    "--json": dict(metavar="PATH", default=None,
                   help="write the JSON report here instead of stdout"),
    "--body": dict(default="reuleaux", help="reuleaux | meissner | wedge:<i>"),
    "--full": dict(action="store_true"),
    "--seed": dict(type=int, default=42),
    "--samples": dict(type=int, default=1_000_000),
    "--batch": dict(type=int, default=1_000_000),
    "--workers": dict(type=int, default=1,
                      help="threads over the sample chunks; no effect unless "
                           "--samples > --batch"),
    "--refine": dict(type=int, default=64),
    "--format": dict(choices=("obj", "ply"), default="obj"),
    "--grid": dict(type=int, default=50),
    "--out": dict(metavar="PATH", default=None),
}
COMMON = ("input", "--tol-dist", "--json")
MC_OPTIONS = ("--seed", "--samples", "--batch", "--workers")
COMMANDS = (
    ("validate", cmd_validate, "check extremality; exit 0 iff extremal",
     COMMON),
    ("analyze", cmd_analyze, "structure, angles, and closed forms", COMMON),
    ("mc", cmd_mc, "Monte Carlo volume estimate for one body",
     COMMON + ("--body",) + MC_OPTIONS),
    ("mesh", cmd_mesh, "triangulate a body and report metrics",
     COMMON + ("--body", "--refine", "--format", "--out")),
    ("sweep", cmd_sweep, "CSV sweep of all per-pair terms over the angle "
                         "square", ("--tol-dist", "--json", "--grid", "--out")),
    ("report", cmd_report, "consolidated report (analyze, and with --full "
                           "also mc and mesh)",
     COMMON + ("--full",) + MC_OPTIONS + ("--refine",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reuleaux",
        description="Ball polyhedra from extremal point sets: structure, "
                    "closed-form volumes and areas, Monte Carlo and mesh checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, options in COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
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
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        return _fail(4, "domain", str(exc))


if __name__ == "__main__":
    sys.exit(main())
