"""Flat-torus arithmetic on [0,1)^d.

Points are plain float arrays with every coordinate in [0,1); displacements
are minimum-image offsets with every coordinate in [-1/2, 1/2].  Antipodal
ties (a coordinate difference of exactly 1/2) resolve to +1/2 so that force
evaluations are reproducible.  All functions broadcast over leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wrap", "min_image", "torus_cost_sq"]


def wrap(raw) -> np.ndarray:
    """Wrap raw coordinates into [0,1)^d componentwise."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("wrap: non-finite coordinate")
    out = np.mod(raw, 1.0)
    # values like -1e-18 round to 1.0 under mod; fold them back
    return np.where(out >= 1.0, 0.0, out)


def min_image(x, y) -> np.ndarray:
    """Minimum-image displacement x - y with components in (-1/2, 1/2].

    Ties at |delta_i| = 1/2 resolve to +1/2.  Computed as r - ceil(r - 1/2),
    which is bitwise antisymmetric in (x, y) away from ties; pairwise forces
    then cancel exactly.
    """
    r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return r - np.ceil(r - 0.5)


def torus_cost_sq(x, y, axis: int = -1):
    """Squared transport cost: inf_k |x - y + k|^2 over integer shifts."""
    d = min_image(x, y)
    return np.sum(d * d, axis=axis)
