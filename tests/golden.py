"""The pinned outputs of the package, and the point sets they are pinned on.

Each file under ``golden/`` is ``{"platform": ..., "sha256": {corpus: {key:
digest}}}``.  A corpus is defined once, here, by its keys and the function
that digests one key: the tests check their parts of it with ``check``, and
``python tests/golden.py`` rewrites every file from the same functions.
Another libm, numpy or Python may move last bits; a mismatch then fails,
naming the moved keys, the running platform and the recorded one.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import platform
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from reuleaux.cli import main
from reuleaux.errors import DomainError, NotExtremalError, StructureError
from reuleaux.mesh import _BLOCK_ROWS, build_body_mesh, export_obj, export_ply
from reuleaux.polyhedron import (PointConfig, analyze_config,
                                 config_from_generator, pentad_points)

GOLDEN = Path(__file__).parent / "golden"
EXTRACTION, MESH, CLI = ("extraction_sha256.json", "mesh_sha256.json",
                         "cli_sha256.json")


def running_platform():
    """The versions a pinned digest depends on."""
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"{platform.machine()}, {' '.join(platform.libc_ver())}")


# ---------------------------------------------------------------------------
# The point sets

def pyramid_points(m):
    """Odd regular m-gon with longest diagonal 1 in the plane z = 0, then an
    apex at unit distance from every base vertex: 2m = 2n - 2 diameters on
    n = m + 1 points, so the set is extremal; m = 3 is the tetrahedron."""
    radius = 0.5 / math.cos(math.pi / (2 * m))
    angles = 2 * math.pi * np.arange(m) / m
    base = np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                            np.zeros(m)])
    return np.vstack([base, [0.0, 0.0, math.sqrt(1.0 - radius * radius)]])


def random_rigid_motion(rng):
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(size=3)


def moved_pyramid(m, seed):
    rot, shift = random_rigid_motion(np.random.default_rng(seed))
    return PointConfig(points=pyramid_points(m) @ rot.T + shift)


def generic_extremal(m, seed):
    """The odd-m pyramid moved by normal noise of scale 0.02, then pulled
    back onto |x_i - x_j| = 1 over the pyramid's diameter graph by
    Gauss-Newton (minimum-norm ``lstsq`` steps); None unless analyze_config
    accepts the result.  Its angles take about n distinct values."""
    x = pyramid_points(m)
    dist = np.linalg.norm(x[:, None] - x[None], axis=2)
    i, j = np.nonzero(np.triu(np.abs(dist - 1.0) < 1e-9, k=1))
    x = x + np.random.default_rng(seed).normal(scale=0.02, size=x.shape)
    rows = np.arange(len(i))[:, None]
    cols = np.arange(3)
    # quadratic convergence reaches rounding in about five steps
    for _ in range(12):
        diff = x[i] - x[j]
        jac = np.zeros((len(i), x.size))
        jac[rows, 3 * i[:, None] + cols] = 2.0 * diff
        jac[rows, 3 * j[:, None] + cols] = -2.0 * diff
        res = np.einsum("ek,ek->e", diff, diff) - 1.0
        x = x - np.linalg.lstsq(jac, res)[0].reshape(x.shape)
    cfg = PointConfig(points=x)
    try:
        analyze_config(cfg)
    except (NotExtremalError, StructureError, DomainError):
        return None
    return cfg


@functools.cache
def generic_sets(m):
    """The first three generic extremal sets of base m, by seed."""
    cfgs = (generic_extremal(m, seed) for seed in range(30))
    return tuple(cfg for cfg in cfgs if cfg is not None)[:3]


def pentad_grown(f):
    """The pentad's points plus the point at fraction f of one of its edge
    arcs, one array per edge: each set is extremal, with one more diameter
    pair."""
    edges = analyze_config(config_from_generator("pentad")).edges
    return [np.vstack([pentad_points(), e.arc.circle.point(
        e.arc.start_angle + f * e.arc.span)]) for e in edges]


@functools.cache
def analyzed(kind, *args):
    """The structure of one pinned set: a generator's, pyramid m moved by
    seed 7m, the k-th generic set of base m, or the pentad grown at
    fraction f of its k-th edge arc."""
    if kind == "pyramid":
        points = moved_pyramid(args[0], 7 * args[0]).points
    elif kind == "generic":
        points = generic_sets(args[0])[args[1]].points
    elif kind == "grown":
        points = pentad_grown(args[0])[args[1]]
    else:
        points = config_from_generator(kind).points
    return analyze_config(PointConfig(points=points))


# ---------------------------------------------------------------------------
# The corpora

# (file, corpus) -> (its keys, each a tuple, and the digest of one key)
CORPORA = {}


def corpus(file, name, keys):
    """Register the decorated function, called with the parts of one key,
    as the digest of corpus ``name`` of ``file`` over ``keys``."""
    def register(digest):
        CORPORA[file, name] = (tuple(keys), digest)
        return digest
    return register


def label(key):
    """A key as the files name it."""
    return ":".join(map(str, key))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def export_sha256(export, mesh):
    """sha256 of the file that the writer ``export`` writes of the mesh."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh"
        export(mesh, str(path))
        return sha256(path.read_bytes())


def extraction_digest(*key):
    """sha256 of the float.hex rows of the analysis of one set: each edge's
    support, endpoints, index, start and end angle, and its circle's center,
    radius, axis, u_ref and v_ref; then each dual pair's (p, q, p', q'),
    theta and theta'."""
    structure = analyzed(*key)

    def hexes(*values):
        return " ".join(float(v).hex() for v in values)
    rows = []
    for e in structure.edges:
        c = e.arc.circle
        rows.append(f"edge {e.index} {e.support} {e.endpoints} " + hexes(
            e.arc.start_angle, e.arc.end_angle, *c.center, c.radius, *c.axis,
            *c.u_ref, *c.v_ref))
    for dp in structure.pairs:
        rows.append(f"pair {dp.p} {dp.q} {dp.p_prime} {dp.q_prime} " + hexes(
            dp.angles.theta, dp.angles.theta_prime))
    return sha256("\n".join(rows).encode())


# tetra, pentad, the pyramids m = 3...101 (odd), the generic sets of base
# 5, 9 and 21, and the pentad grown at f = 0.5...1e-7 on its 8 edges
for family, keys in (
        ("generators", [("tetra",), ("pentad",)]),
        ("pyramids", [("pyramid", m) for m in range(3, 102, 2)]),
        ("generic", [("generic", m, k) for m in (5, 9, 21) for k in range(3)]),
        ("grown", [("grown", f, k) for f in (0.5, 0.25, 1e-2, 1e-4, 1e-6, 1e-7)
                   for k in range(8)])):
    corpus(EXTRACTION, family, keys)(extraction_digest)


@corpus(MESH, "wedge_obj", [("tetra", i) for i in range(3)]
        + [("pentad", i) for i in range(4)])
def wedge_obj(generator, index):
    """export_obj of one wedge at refine 16."""
    return export_sha256(export_obj, build_body_mesh(
        analyzed(generator), "wedge", 16, wedge_index=index))


@corpus(MESH, "cap_obj",
        itertools.product(("tetra", "pentad"), ("reuleaux", "meissner")))
def cap_obj(generator, kind):
    """export_obj of a body with face caps at refine 16."""
    return export_sha256(export_obj,
                         build_body_mesh(analyzed(generator), kind, 16))


@corpus(MESH, "cap_arrays", [("reuleaux",), ("meissner",)])
def cap_arrays(kind):
    """vertices.tobytes() + triangles.tobytes() of the pentad at refine
    128, whose caps run to several blocks of points."""
    mesh = build_body_mesh(analyzed("pentad"), kind, 128)
    # its five caps place 16,257 to 32,512 ring points each: two to four
    # blocks, the last one part-filled
    assert mesh.n_vertices > 4 * _BLOCK_ROWS
    return sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes())


@corpus(MESH, "block_seams", [("obj",), ("ply",)])
def block_seams(fmt):
    """One writer's output for tetra Meissner at refine 64: the rows on both
    sides of every block seam, and the part blocks at the ends."""
    # 36,674 vertices and 73,344 triangles: several writer blocks, each
    # array ending in a part block
    mesh = build_body_mesh(analyzed("tetra"), "meissner", 64)
    block = _BLOCK_ROWS
    assert mesh.n_vertices > 4 * block and mesh.n_vertices % block
    assert mesh.n_triangles > 8 * block and mesh.n_triangles % block
    return export_sha256(export_obj if fmt == "obj" else export_ply, mesh)


# the sets of the placement corpus by name, as keys of ``analyzed``
PLACEMENT_SETS = {
    "tetra": [("tetra",)], "pentad": [("pentad",)],
    "pyramid5": [("pyramid", 5)], "pyramid9": [("pyramid", 9)],
    "generic9": [("generic", 9, 0)],
    "grown": [("grown", 0.25, k) for k in range(8)]}


@corpus(MESH, "placement",
        [(name, refine) for name in ("tetra", "pentad", "pyramid5", "generic9")
         for refine in (2, 3, 8, 16, 33, 64, 128)]
        + [(name, refine) for name in ("pyramid9", "grown")
           for refine in (2, 3, 16, 33)])
def placement(name, refine):
    """Every body of every set of ``name`` at ``refine``: its vertex and
    triangle bytes, and the float.hex or repr of each field of its closure
    statistics."""
    h = hashlib.sha256()
    for mesh in placement_meshes(name, refine):
        h.update(mesh.vertices.tobytes())
        h.update(mesh.triangles.tobytes())
        values = [getattr(mesh.stats, f.name) for f in fields(mesh.stats)]
        h.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                          for v in values).encode())
    return h.hexdigest()


def placement_meshes(name, refine):
    """The mesh of every body of every set of ``name`` at ``refine``, one
    at a time: R, M, then each wedge."""
    for structure in itertools.starmap(analyzed, PLACEMENT_SETS[name]):
        bodies = [("reuleaux", None), ("meissner", None)] + [
            ("wedge", i) for i in range(len(structure.pairs))]
        for kind, index in bodies:
            yield build_body_mesh(structure, kind, refine, wedge_index=index)


# the inputs of the pinned command payloads: two generators and a JSON file
PAYLOAD_INPUTS = ("tetra", "pentad", "pyramid5")


def payload_digest(name, command, *options):
    """Run ``reuleaux <command> <input> <options>`` on one pinned input
    (pyramid5 is ``moved_pyramid(5, 35)`` as a JSON file): the sha256 of its
    JSON report without the ``timing`` block, ``input`` set to the input's
    name, dumped with sorted keys."""
    with tempfile.TemporaryDirectory() as tmp:
        source = f"generator:{name}"
        if name == "pyramid5":
            source = f"{tmp}/pyramid5.json"
            Path(source).write_text(json.dumps(
                {"points": moved_pyramid(5, 35).points.tolist()}))
        report = Path(tmp) / "report.json"
        argv = [command, source, *options, "--json", str(report)]
        assert main(argv) == 0, argv
        payload = json.loads(report.read_text())
    payload.pop("timing", None)
    payload["input"] = name
    return sha256(json.dumps(payload, sort_keys=True).encode())


corpus(CLI, "analyze", [(name,) for name in PAYLOAD_INPUTS])(
    lambda name: payload_digest(name, "analyze"))
corpus(CLI, "report_full", [(name,) for name in PAYLOAD_INPUTS])(
    lambda name: payload_digest(name, "report", "--full", "--samples",
                                "20000", "--batch", "5000", "--refine", "16"))


@corpus(CLI, "mesh", itertools.product(
    PAYLOAD_INPUTS, ("reuleaux", "meissner", "wedge:0"), ("obj", "ply")))
def mesh_file(name, body, fmt):
    """The file ``reuleaux mesh`` writes at refine 16."""
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / f"body.{fmt}"
        payload_digest(name, "mesh", "--body", body, "--refine", "16",
                       "--format", fmt, "--out", str(path))
        return sha256(path.read_bytes())


@corpus(CLI, "sweep", [("grid", 50)])
def sweep_csv(_, grid):
    """The CSV that ``reuleaux sweep`` writes on stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["sweep", "--grid", str(grid)]) == 0
    return sha256(out.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------

def check(file, name, *prefix):
    """Fail unless every key of corpus ``name`` of ``file`` whose parts
    start with ``prefix`` (every key, when none is given) digests to its
    pinned value, naming the moved keys and both platforms."""
    keys, digest = CORPORA[file, name]
    chosen = [key for key in keys if key[:len(prefix)] == prefix]
    assert chosen, f"no key of {file} {name} starts with {prefix}"
    pinned = json.loads((GOLDEN / file).read_text())
    want = pinned["sha256"][name]
    moved = [label(key) for key in chosen
             if digest(*key) != want.get(label(key))]
    assert not moved, (
        f"{file} {name}: the digests of {moved} moved on "
        f"{running_platform()}; the pinned ones were recorded on "
        f"{pinned['platform']}")


def regenerate():
    """Rewrite every file under ``golden/`` from the registry, recording
    the running platform."""
    files = {}
    for (file, name), (keys, digest) in CORPORA.items():
        files.setdefault(file, {})[name] = {label(k): digest(*k) for k in keys}
    for file, corpora in files.items():
        text = json.dumps({"platform": running_platform(), "sha256": corpora},
                          indent=1)
        (GOLDEN / file).write_text(text + "\n")


if __name__ == "__main__":
    regenerate()
