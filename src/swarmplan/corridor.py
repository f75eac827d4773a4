"""Per-agent safe-box corridor and pairwise separating half-spaces.

Both constraint families are built from the shifted previous plans, arrays
of control points (see bernstein), which is what makes them feasible by
construction: the corridor reuses last step's boxes for the segments it
inherits, and each separating half-space is certified by the closest point
between the relative control-point hull and the collision model, placed so
that both agents' previous control points keep strictly positive slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmplan.errors import PlannerError, SafetyDegeneracyError
from swarmplan.geometry import closest_points_to_origin, to_sphere_frame
from swarmplan.world import OccupancyGrid

_DEGENERACY_EPS = 1e-9  # minimum hull-to-model clearance in the sphere frame
_CONTAINMENT_TOL = 1e-9


def advance_corridor(
    prev: np.ndarray | None,
    points: np.ndarray,
    grid: OccupancyGrid,
    radius: float,
    toward=None,
) -> np.ndarray:
    """Corridor for this step: inherit boxes 2..M, grow a fresh final box.

    A corridor is a read-only (M, 2, 3) array: box m, [min, max] corners,
    confines the control points of segment m. `points` (M, n+1, 3) is one
    agent's shifted plan. On the first step every segment shares one box
    grown at the (constant) plan's terminal control point. Afterwards
    segment m reuses the previous step's box m+1, which contained the
    previous segment m+1 and therefore contains this step's inherited
    segment m; only the new final segment, constant at the previous
    terminal point, needs a new box grown at that point. `toward` biases
    the growth order of that fresh box (see grow_free_box). Every control
    point of segment m is verified to lie in box m.
    """
    fresh = grid.grow_free_box(points[-1, -1], radius, toward=toward)
    if prev is None:
        corridor = np.repeat(fresh[None], len(points), axis=0)
    else:
        if len(prev) != len(points):
            raise ValueError("previous corridor length does not match trajectory")
        corridor = np.concatenate([prev[1:], fresh[None]])
    corridor.setflags(write=False)
    lo, hi = corridor[:, None, 0], corridor[:, None, 1]
    if not (np.all(points >= lo - _CONTAINMENT_TOL) and np.all(points <= hi + _CONTAINMENT_TOL)):
        raise PlannerError(
            "corridor does not contain the shifted trajectory; the previous "
            "plan must have violated its corridor constraints"
        )
    return corridor


@dataclass(frozen=True)
class PairTable:
    """Separating half-spaces of many pairs, as separate_pairs computes them.

    Pair p joins agents low[p] < high[p], rows of `points` (N, M, n+1, 3),
    which holds every agent's control points, its neighbours' anchors;
    `normals` (P, M, 3) are the low agent's, the high agent's are their
    negation; `margins` (P, M, n+1) serve both. All arrays are read-only.
    """

    low: np.ndarray
    high: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    margins: np.ndarray

    def rows_for(self, me: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The half-spaces of agent `me` (a row) against each of its K
        neighbours in the table, in table order: normals (K, M, 3), negated
        where the agent is the high one, anchors (K, M, n+1, 3) and margins
        (K, M, n+1), gathered by index (exact copies)."""
        pick = np.flatnonzero((self.low == me) | (self.high == me))
        is_low = self.low[pick] == me
        others = np.where(is_low, self.high[pick], self.low[pick])
        sign = np.where(is_low, 1.0, -1.0)[:, None, None]
        return self.normals[pick] * sign, self.points[others], self.margins[pick]


def separate_pairs(
    points: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    radius_sums: np.ndarray,
    downwash: float,
    safety_buffer: float,
) -> PairTable:
    """Separating half-spaces for many pairs, one normal per pair and segment.

    `points` (N, M, n+1, 3) holds the N agents' shifted plans, row i agent
    i's; the table keeps a read-only view of it. Pair p joins agents
    low[p] < high[p] with collision radius radius_sums[p]. Per pair and
    segment: transform the control-point differences low-high into the
    frame where the collision model is a sphere, take the closest hull
    point to the origin as the separating direction, map it back, and split
    the required separation evenly between the two agents. All P*M hulls go
    through one closest_points_to_origin call. Each hull's arithmetic does
    not depend on the batch it sits in, so a pair's result is bit-identical
    whether it is built alone or with the whole swarm.

    The constraints of the two agents of a pair are exact mirrors (negated
    normals, identical margins), computed once from the shared data;
    swapping low and high yields bit-identical constraints because every
    geometric step is deterministic and odd under negation.

    Raises SafetyDegeneracyError, naming agents low[p] and high[p] and the
    segment, for the first pair whose hull clears the model by less than
    1e-9, i.e. whose feasibility premise is already violated.
    """
    points = np.asarray(points, dtype=float).view()
    seg_count, pts_per_seg = points.shape[1:3]
    normals = np.zeros((0, 3))
    margins = np.zeros((0, pts_per_seg))
    if len(low):
        normals, margins = _separations(points, low, high, radius_sums, downwash)
    normals = normals.reshape(len(low), seg_count, 3)
    margins = (margins + safety_buffer).reshape(len(low), seg_count, pts_per_seg)
    for arr in (points, normals, margins):
        arr.setflags(write=False)
    return PairTable(low, high, points, normals, margins)


def _separations(points, low, high, radius_sums, downwash):
    """separate_pairs' normals (P*M, 3) and margins (P*M, n+1) before the
    safety buffer, for at least one pair."""
    pair_count, seg_count = len(low), points.shape[1]
    diffs = (points[low] - points[high]).reshape(pair_count * seg_count, -1, 3)
    sphere_diffs = to_sphere_frame(diffs, downwash)
    witnesses, dists = closest_points_to_origin(sphere_diffs)
    radius_rows = np.repeat(radius_sums, seg_count)

    def check(worst, failed, message):
        """Raise for the first pair with a failed segment, at its worst one."""
        bad = np.flatnonzero(np.any(failed.reshape(pair_count, seg_count), axis=1))
        if len(bad):
            p = int(bad[0])
            per_seg = worst.reshape(pair_count, seg_count)[p]
            m = int(np.argmin(per_seg))
            raise SafetyDegeneracyError(
                f"agents {low[p]} and {high[p]}, segment {m}: "
                + message.format(per_seg[m])
            )

    clearance = dists - radius_rows
    check(
        clearance,
        clearance <= _DEGENERACY_EPS,
        "relative control-point hull clears the collision model by {:.3e} m",
    )
    sphere_normals = witnesses / dists[:, None]
    supports = np.einsum("mld,md->ml", sphere_diffs, sphere_normals)
    support_gap = np.min(supports - dists[:, None], axis=1)
    check(
        support_gap,
        support_gap < -1e-9,
        "closest-point direction fails to support the hull",
    )
    normals = sphere_normals * np.array([1.0, 1.0, 1.0 / downwash])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    reach = radius_rows * np.linalg.norm(normals * np.array([1.0, 1.0, downwash]), axis=1)
    projections = np.einsum("mld,md->ml", diffs, normals)
    margins = 0.5 * (reach[:, None] + projections)
    slack = np.min(0.5 * (projections - reach[:, None]), axis=1)
    check(slack, slack <= 0.0, "non-positive separation slack {:.3e}")

    return normals, margins


def build_pair_separations(
    init_a: np.ndarray,
    init_b: np.ndarray,
    radius_sum: float,
    downwash: float,
    safety_buffer: float = 0.0,
):
    """Both agents' rows_for triples (K = 1) of the one-pair table of their
    shifted plans, two (M, n+1, 3) arrays of one shape (see separate_pairs);
    degeneracy errors name them agents 0 and 1."""
    table = separate_pairs(
        np.stack([init_a, init_b]),
        np.array([0]),
        np.array([1]),
        np.array([radius_sum]),
        downwash,
        safety_buffer,
    )
    return table.rows_for(0), table.rows_for(1)

