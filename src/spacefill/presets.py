"""Named built-in densities and viability predicates for the CLI.

Library users pass arbitrary callables; the command line only exposes this
fixed, safe menu.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DENSITIES", "VIABILITIES", "density_by_name", "viability_by_name"]


def _gauss_center(p: np.ndarray) -> float:
    """Peaked at the box center: exp(-20 * squared distance to center)."""
    r2 = float(((np.asarray(p) - 0.5) ** 2).sum())
    return float(np.exp(-20.0 * r2))


def _parabola(x0):
    """x2 on the parabola x2 = 3*(x1 - 0.5)^2; squared as c * c, which
    rounds alike for a scalar and an array (a scalar ``** 2`` may not)."""
    c = x0 - 0.5
    return 3.0 * (c * c)


def _parabola_above(p: np.ndarray) -> bool:
    """Region above the parabola x2 = 3*(x1 - 0.5)^2 (dims 0 and 1)."""
    return bool(p[1] >= _parabola(p[0]))


def _parabola_below(p: np.ndarray) -> bool:
    """Region below the parabola x2 = 3*(x1 - 0.5)^2 (dims 0 and 1)."""
    return bool(p[1] <= _parabola(p[0]))


# Array forms, (m, d) -> (m,): the same arithmetic on every row at once.
_gauss_center.batch = lambda p: np.exp(-20.0 * ((np.asarray(p) - 0.5) ** 2).sum(axis=1))
_parabola_above.batch = lambda p: p[:, 1] >= _parabola(p[:, 0])
_parabola_below.batch = lambda p: p[:, 1] <= _parabola(p[:, 0])


# name -> (density callable, declared maximum over the unit cube)
DENSITIES = {
    "gauss-center": (_gauss_center, 1.0),
}

VIABILITIES = {
    "parabola-above": _parabola_above,
    "parabola-below": _parabola_below,
}


def density_by_name(name: str):
    if name not in DENSITIES:
        raise ValueError(f"unknown density {name!r}; available: {sorted(DENSITIES)}")
    return DENSITIES[name]


def viability_by_name(name: str):
    if name not in VIABILITIES:
        raise ValueError(f"unknown viability {name!r}; available: {sorted(VIABILITIES)}")
    return VIABILITIES[name]
