"""Bernstein-basis segments and the one-segment shift of a step's plans.

A segment of degree n over duration dt is p(tau) = sum_l c_l * B_{l,n}(tau)
with tau in [0, 1] and B_{l,n}(tau) = C(n,l) tau^l (1-tau)^(n-l). The curve
stays inside the convex hull of its control points and interpolates the first
and last one, which is what lets pointwise constraints on control points bind
the whole curve.

A plan is M equal-duration segments glued in time, held as an (M, n+1, 3)
array of control points; a step's plans for N agents are one
(N, M, n+1, 3) array.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DEGREE = 10

# Exact binomial rows C(n, 0..n) for n <= MAX_DEGREE.
_BINOMIAL = tuple(
    tuple(math.comb(n, l) for l in range(n + 1)) for n in range(MAX_DEGREE + 1)
)


def basis_row(n: int, tau: float) -> np.ndarray:
    """All basis values B_{0..n,n}(tau) as one vector (non-negative, sums to 1)."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    l = np.arange(n + 1)
    return np.asarray(_BINOMIAL[n], dtype=float) * tau**l * (1.0 - tau) ** (n - l)


def derivative(points: np.ndarray, duration: float) -> np.ndarray:
    """Control points (..., n, 3) of the derivative of segments (..., n+1, 3).

    They are n * (c_{l+1} - c_l) / duration; the derivative of a Bernstein
    curve is again a Bernstein curve, so velocity and acceleration limits can
    be imposed on derivative control points via the convex hull property.
    """
    n = points.shape[-2] - 1
    if n < 1:
        raise ValueError("cannot differentiate a degree-0 segment")
    return n * np.diff(points, axis=-2) / duration


def shift_for_initial(plans: np.ndarray) -> np.ndarray:
    """Every plan of (N, M, n+1, 3) shifted by one segment, read-only: this
    step's guaranteed-feasible candidates.

    Segments 2..M of each plan move up one place, and a constant segment
    at the plan's final control point follows them. A constant plan shifts
    to itself bit for bit, so step 0 shifts the agents' hold-at-start plans
    like any other.
    """
    hold = np.repeat(plans[:, -1:, -1:], plans.shape[2], axis=2)
    shifted = np.concatenate([plans[:, 1:], hold], axis=1)
    shifted.setflags(write=False)
    return shifted
