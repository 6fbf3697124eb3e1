"""Seeded odd-m pyramids, the benchmark's large-n extremal point sets.

The base is a regular m-gon (m odd) whose longest diagonals have length 1;
the apex sits at unit distance from every base vertex.  The m longest
diagonals plus the m apex edges give 2m = 2n - 2 diameters for n = m + 1
points, the Gruenbaum-Heppes-Straszewicz maximum, so the set is extremal
(Kupitz-Martini-Perles, "Ball polytopes and the Vazsonyi problem", 2010).
m = 3 is the regular unit tetrahedron.
"""

from __future__ import annotations

import math

import numpy as np

# V(B(X)) of the regular unit tetrahedron, in closed form.
TETRA_REULEAUX_VOLUME = (8 * math.pi / 3 + math.sqrt(2) / 4
                         - (27 / 4) * math.acos(1 / 3))


def pyramid_points(m: int) -> np.ndarray:
    """The unmoved pyramid: m base vertices in the plane z = 0, then the apex."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and at least 3, got {m}")
    radius = 0.5 / math.cos(math.pi / (2 * m))
    angles = 2 * math.pi * np.arange(m) / m
    base = np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                            np.zeros(m)])
    apex = [0.0, 0.0, math.sqrt(1.0 - radius * radius)]
    return np.vstack([base, apex])


def rigid_motion(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a random proper rotation and a translation in [-1, 1]^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return points @ q.T + rng.uniform(-1.0, 1.0, 3)


def diametric_pairs(points: np.ndarray, eps: float = 1e-9) -> int:
    """Number of point pairs at distance 1 within eps, counted here rather
    than by the library so the generator checks itself independently."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    iu = np.triu_indices(len(points), k=1)
    return int((np.abs(dist[iu] - 1.0) <= eps).sum())


def point_set_json(points: np.ndarray) -> dict:
    m = len(points) - 1
    return {"points": points.tolist(),
            "labels": [f"b{k}" for k in range(m)] + ["apex"]}
