"""Command-line front end: validation, analysis, oracles, sweeps, meshes.

Outputs are JSON (reports) or CSV (sweeps); identical invocations with the
same seed produce byte-identical reports apart from the timing block.  Exit
codes: 0 success, 2 validation failure, 3 structure error, 4 numeric-domain
error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import re
import sys
import time
from typing import NoReturn

import numpy as np

from . import formulas
from .errors import DomainError, MeshError, NotExtremalError, StructureError
from .geom import Tolerances
from .mesh import build_body_mesh, export_obj, export_ply
from .oracle import McConfig, body_from_structure, mc_volume, unit_draws
from .polyhedron import Structure, analyze_config, angle_pairs, \
    body_label, check_extremal, config_from_generator, config_from_json_dict

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
    """The payload as JSON values: a record becomes the dict of its fields,
    and every non-finite float None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _finite(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def emit_json(payload: dict, path: str | None) -> None:
    """Write the payload as RFC 8259 JSON: a record becomes the object of
    its fields, and a non-finite float null."""
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
        "tolerances": {"dist_eps": tol.dist_eps},
    }


def _analyzed(args) -> tuple[dict, Structure]:
    """The report's meta block and the analyzed structure of the input."""
    tol = Tolerances(dist_eps=args.tol_dist)
    return _meta(args, tol), analyze_config(load_input(args.input, tol))


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
        "extremality": structure.extremality,
        "structure": structure.report,
        "pairs": table,
        "reuleaux": formulas.reuleaux_scalars(pairs),
        "meissner": formulas.meissner_scalars(pairs),
        "blaschke_gap": formulas.blaschke_gap(pairs),
    }


def mc_payload(structure: Structure, seed: int, samples: int, batch: int,
               workers: int, bodies) -> tuple[dict, dict]:
    """The mc block and its timing: the seconds of the draws all bodies
    share (``draws_s``) and of each body's run after them (``mc_s``, by
    label)."""
    out = {"seed": seed, "samples": samples, "batch": batch, "estimates": {}}
    seconds = {}
    mc = McConfig(seed=seed, samples=samples, batch=batch, workers=workers)
    specs = {body_label(kind, idx, len(structure.pairs)):
             body_from_structure(structure, kind, idx) for kind, idx in bodies}
    started = time.perf_counter()
    draws = unit_draws(specs.values(), mc)
    draws_s = time.perf_counter() - started
    for label, body in specs.items():
        started = time.perf_counter()
        out["estimates"][label] = mc_volume(body, mc, draws)
        seconds[label] = time.perf_counter() - started
    return out, {"draws_s": draws_s, "mc_s": seconds}


def mesh_payload(structure: Structure, refine: int, bodies) -> tuple[dict, dict]:
    """The mesh block and the seconds of each body's build, by label."""
    out = {"refine": refine, "bodies": {}}
    seconds = {}
    for kind, idx in bodies:
        started = time.perf_counter()
        mesh = build_body_mesh(structure, kind, refine, wedge_index=idx)
        label = body_label(kind, idx, len(structure.pairs))
        out["bodies"][label] = mesh.stats.to_dict()
        seconds[label] = time.perf_counter() - started
    return out, seconds


def cmd_validate(args) -> int:
    tol = Tolerances(dist_eps=args.tol_dist)
    cfg = load_input(args.input, tol)
    report = check_extremal(cfg)
    payload = dict(_meta(args, tol), extremality=report)
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
    payload["mc"], _ = mc_payload(structure, args.seed, args.samples,
                                  args.batch, args.workers, [(kind, idx)])
    emit_json(payload, args.json)
    return 0


def cmd_mesh(args) -> int:
    meta, structure = _analyzed(args)
    kind, idx = parse_body(args.body)
    mesh = build_body_mesh(structure, kind, args.refine, wedge_index=idx)
    label = body_label(kind, idx, len(structure.pairs))
    if args.out:
        writer = export_obj if args.format == "obj" else export_ply
        writer(mesh, args.out)
    payload = dict(meta, mesh=dict(mesh.stats.to_dict(), refine=args.refine,
                                   body=label, out=args.out,
                                   format=args.format))
    emit_json(payload, args.json)
    return 0


SWEEP_COLUMNS = ("theta", "theta_prime", "meissner_area_term",
                 "reuleaux_area_term", "reuleaux_volume_term",
                 "blaschke_defect_term", "wedge_volume", "wedge_flux_residual")


# Grid cells per block of whole theta rows that the sweep evaluates at once.
SWEEP_BLOCK_CELLS = 8192


def cmd_sweep(args) -> int:
    n = args.grid
    if n < 1:
        raise ValueError(f"--grid must be at least 1, got {n}")
    lo, hi = 0.01, math.pi / 3 - 0.01
    grid = np.linspace(lo, hi, n)
    rows_per_block = max(1, SWEEP_BLOCK_CELLS // n)
    # each grid angle is formatted once; a cell formats only its six terms
    text = ["%.17g" % x for x in grid.tolist()]
    terms = ",".join(["%.17g"] * (len(SWEEP_COLUMNS) - 2))
    tails = ["," + t + "," + terms + "\n" for t in text]
    violations = 0
    max_residual = 0.0
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for i in range(0, n, rows_per_block):
            thetas = grid[i:i + rows_per_block]
            p = formulas.AnglePair(np.repeat(thetas, n),
                                   np.tile(grid, len(thetas)))
            wedge = formulas.wedge_volume(p)
            residual = wedge - formulas.wedge_volume_via_flux(p)
            defect = formulas.blaschke_defect_term(p)
            # NaN fails both comparisons, so it counts as a violation
            violations += int(np.count_nonzero(
                ~((defect > 0.0) & (abs(residual) < 1e-10))))
            max_residual = np.maximum(max_residual, abs(residual).max())
            block = np.column_stack((formulas.meissner_area_term(p),
                                     formulas.reuleaux_area_term(p),
                                     formulas.reuleaux_volume_term(p),
                                     defect, wedge, residual))
            # row (t, t') is t + tails[t'], so a theta row is t + t.join(tails)
            fh.write("".join(t + t.join(tails)
                             for t in text[i:i + rows_per_block])
                     % tuple(block.ravel().tolist()))
    if args.json:
        emit_json({"grid": n, "rows": n * n, "violations": violations,
                   "max_flux_residual": float(max_residual)}, args.json)
    if violations:
        raise DomainError(
            f"sweep found {violations} violations of the term-gap or flux identity")
    return 0


def cmd_report(args) -> int:
    started = time.perf_counter()
    meta, structure = _analyzed(args)
    payload = dict(meta, **analyze_payload(structure))
    timing = {}
    if args.full:
        bodies = [("reuleaux", None), ("meissner", None)]
        wedges = [("wedge", i) for i in range(len(structure.pairs))]
        # the meshes first: a refine they refuse stops the report before
        # any draw
        payload["mesh"], timing["mesh_s"] = mesh_payload(
            structure, args.refine, bodies)
        payload["mc"], mc_timing = mc_payload(
            structure, args.seed, args.samples, args.batch, args.workers,
            bodies + wedges)
        timing.update(mc_timing)
    payload["timing"] = dict(timing, elapsed_s=time.perf_counter() - started)
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
                           "--samples > --batch, and the estimates do not "
                           "depend on it. More threads do not pay: on a "
                           "2-core VM, 2 ran report --full's MC at "
                           "0.88-0.94x the speed of 1"),
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
                         "square", ("--json", "--grid", "--out")),
    ("report", cmd_report, "consolidated report (analyze, and with --full "
                           "also mc and mesh)",
     COMMON + ("--full",) + MC_OPTIONS + ("--refine",)),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that main reports them as one error object."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotExtremalError as exc:
        # the report is written first, so an unwritable --json path gives
        # one error, exit 5, as it does for validate
        try:
            emit_json({"extremality": exc.report},
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
