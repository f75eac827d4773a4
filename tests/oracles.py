"""Independent reference implementations used only to check production code.

Each oracle deliberately takes a different computational route than the
module it tests (recursion instead of closed forms, exhaustive scans instead
of incremental updates, generic iterative optimization instead of direct
solves).
"""

from __future__ import annotations

import heapq
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from swarmplan.errors import LogFormatError, QpInfeasibleError
from swarmplan.qp import jerk_gram_matrix
from swarmplan.scenarios import Scenario
from swarmplan.verify import (
    _MAX_REPORTED,
    _TICKS_PER_SECOND,
    CLEARANCE_TOL,
    CONTINUITY_TOL,
    LIMIT_TOL,
    LOG_CONSISTENCY_TOL,
    PAIR_DISTANCE_TOL,
    VerificationReport,
)


def de_casteljau(control_points, tau: float) -> np.ndarray:
    """Evaluate a Bezier curve by repeated linear interpolation."""
    pts = np.array(control_points, dtype=float)
    while len(pts) > 1:
        pts = (1.0 - tau) * pts[:-1] + tau * pts[1:]
    return pts[0]


def gauss_legendre_integral(fn, a: float, b: float, order: int = 64) -> float:
    """Integrate fn over [a, b] with Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(weights * np.array([fn(t) for t in x])))


def min_norm_point_pgd(point_sets, max_iterations: int = 200000) -> np.ndarray:
    """Distance from the origin to the convex hull of each point set.

    `point_sets` has shape (hulls, k, 3). Accelerated projected gradient
    descent over convex-combination weights, run on every hull at once.
    Each hull runs until its own Frank-Wolfe duality gap certifies its
    squared distance to 1e-13 of its scale, then stops, so every returned
    value carries its own accuracy guarantee instead of trusting a fixed
    iteration count.
    """
    pts = np.asarray(point_sets, dtype=float)
    hulls, k = pts.shape[:2]
    gram = pts @ pts.transpose(0, 2, 1)
    lipschitz = np.maximum(np.linalg.norm(gram, 2, axis=(1, 2)), 1e-300)[:, None]
    diag = np.diagonal(gram, axis1=1, axis2=2)
    gap_target = 1e-13 * np.maximum(1.0, np.max(diag, axis=1))

    weights = np.zeros((hulls, k))
    weights[np.arange(hulls), np.argmin(diag, axis=1)] = 1.0
    # The hulls still running, and their state, packed in that order.
    running = np.arange(hulls)
    lam = weights.copy()
    momentum = lam.copy()
    t_prev = np.ones(hulls)
    for it in range(max_iterations):
        grad = (gram @ momentum[:, :, None])[:, :, 0]
        new = project_to_simplex(momentum - grad / lipschitz)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = new + ((t_prev - 1.0) / t_new)[:, None] * (new - lam)
        # Restart the momentum when it points uphill.
        uphill = np.vecdot((gram @ new[:, :, None])[:, :, 0], new - lam) > 0
        momentum[uphill] = new[uphill]
        t_new[uphill] = 1.0
        lam, t_prev = new, t_new
        if it % 32 == 0:
            grad = (gram @ lam[:, :, None])[:, :, 0]
            gap = 2.0 * (np.vecdot(lam, grad) - np.min(grad, axis=1))
            done = gap <= gap_target
            weights[running[done]] = lam[done]
            keep = ~done
            running, lam, momentum, t_prev = running[keep], lam[keep], momentum[keep], t_prev[keep]
            gram, lipschitz, gap_target = gram[keep], lipschitz[keep], gap_target[keep]
            if not running.size:
                break
    else:
        raise AssertionError("min-norm oracle failed to certify convergence")
    return np.linalg.norm((weights[:, None, :] @ pts)[:, 0], axis=1)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex
    (sort-based)."""
    u = -np.sort(-v, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    rho = np.sum(u - css / idx > 0, axis=-1) - 1
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(v - theta, 0.0)


# Subset index tables for the hull query, cached per point count. The
# minimum-norm point of a hull in R^3 lies on a face spanned by at most four
# affinely independent vertices, so enumerating subsets of size 1..4 is
# exhaustive.
_SUBSETS_CACHE: dict[int, list[np.ndarray]] = {}


def _subset_tables(count: int) -> list[np.ndarray]:
    tables = _SUBSETS_CACHE.get(count)
    if tables is None:
        tables = [
            np.array(list(combinations(range(count), size)), dtype=int)
            for size in range(1, min(count, 4) + 1)
        ]
        _SUBSETS_CACHE[count] = tables
    return tables


def closest_by_enumeration(point_sets) -> tuple[np.ndarray, np.ndarray]:
    """Batched closest point of several convex hulls to the origin, by
    enumerating every vertex subset (the staged query's referee).

    `point_sets` has shape (batch, k, 3); every hull must have the same
    vertex count. Projects the origin onto the affine hull of every vertex
    subset of size 1..4 in one batched solve per size, keeps candidates
    whose barycentric coordinates are non-negative (the projection then lies
    inside the hull), and takes the smallest per hull. Ties resolve to the
    smallest subset in (size, lexicographic index) order, so results are
    deterministic and degenerate hulls (repeated, collinear, coplanar
    points) need no special casing. Returns (witnesses (batch, 3),
    distances (batch,)); distance 0 means the origin lies inside that hull.
    """
    pts = np.asarray(point_sets, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 3 or pts.shape[1] == 0 or pts.shape[0] == 0:
        raise ValueError("point sets must have shape (batch, k, 3) with k >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    batch = pts.shape[0]
    rows = np.arange(batch)

    best_dist2 = np.full(batch, np.inf)
    best_witness = np.zeros((batch, 3))

    for subset in _subset_tables(pts.shape[1]):
        size = subset.shape[1]
        group = pts[:, subset, :]  # (batch, nsub, size, 3)
        if size == 1:
            cand = group[:, :, 0, :]
            feasible = np.ones(cand.shape[:2], dtype=bool)
        else:
            base = group[:, :, :1, :]
            span = group[:, :, 1:, :] - base  # (batch, nsub, size-1, 3)
            gram = span @ span.transpose(0, 1, 3, 2)
            rhs = -(span @ base.transpose(0, 1, 3, 2))[..., 0]
            det = np.linalg.det(gram)
            # Affinely dependent subsets (normalized determinant ~ 0) are
            # skipped; their faces are covered by smaller subsets.
            span_scale2 = np.max(np.sum(span * span, axis=3), axis=2)
            ok = np.abs(det) > 1e-12 * span_scale2 ** (size - 1)
            alpha = np.zeros_like(rhs)
            if np.any(ok):
                alpha[ok] = np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0]
            cand = base[:, :, 0, :] + np.einsum("bnk,bnkd->bnd", alpha, span)
            lam0 = 1.0 - np.sum(alpha, axis=2)
            feasible = ok & (lam0 >= -1e-12) & np.all(alpha >= -1e-12, axis=2)
        dist2 = np.where(feasible, np.sum(cand * cand, axis=2), np.inf)
        idx = np.argmin(dist2, axis=1)
        # argmin takes the first (lexicographically smallest) subset among
        # ties and only a strict improvement replaces the current best, so
        # witnesses are deterministic for a fixed input order.
        row_d2 = dist2[rows, idx]
        improve = row_d2 < best_dist2
        best_dist2[improve] = row_d2[improve]
        best_witness[improve] = cand[rows, idx][improve]

    return best_witness, np.sqrt(best_dist2)


def dijkstra_grid(free: np.ndarray, start_idx, goal_idx):
    """Plain Dijkstra over the 6-connected voxel graph; returns hop count or None."""
    shape = free.shape
    start_idx = tuple(start_idx)
    goal_idx = tuple(goal_idx)
    if not free[start_idx] or not free[goal_idx]:
        return None
    dist = {start_idx: 0}
    heap = [(0, start_idx)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur == goal_idx:
            return d
        if d > dist.get(cur, np.inf):
            continue
        for axis in range(3):
            for step in (-1, 1):
                nxt = list(cur)
                nxt[axis] += step
                if not 0 <= nxt[axis] < shape[axis]:
                    continue
                nxt = tuple(nxt)
                if not free[nxt]:
                    continue
                nd = d + 1
                if nd < dist.get(nxt, np.inf):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return None


def support(radius_sum, downwash, direction) -> float:
    """Largest dot product of the collision model (radius sum R, downwash
    factor dw) with direction.

    Closed form R * ||E^-1 n|| with E^-1 = diag(1, 1, dw); separate_pairs
    computes the same quantity inline as each plane's reach.
    """
    n = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(np.array([1.0, 1.0, downwash]) * n)
    if norm == 0.0:
        raise ValueError("support direction must be non-zero")
    return radius_sum * norm


# -- occupancy-grid referees ---------------------------------------------------
# Straightforward implementations of the grid queries, which the production
# code must reproduce bit for bit: the summed-area table by chained cumsums,
# the blocked mask by points_free over every cell centre, the distance
# field by full-grid frontier sweeps, box growth by one vectorized count per
# layer and sight lines one np.linspace at a time.


def prefix_by_cumsum(occupied) -> np.ndarray:
    """Summed-area table with a zero first plane on every axis."""
    occupied = np.asarray(occupied, dtype=bool)
    prefix = np.zeros(tuple(d + 1 for d in occupied.shape), dtype=np.int64)
    prefix[1:, 1:, 1:] = np.cumsum(np.cumsum(np.cumsum(occupied, axis=0), axis=1), axis=2)
    return prefix


def blocked_by_points(grid, inflation: float) -> np.ndarray:
    """Cells whose inflated centre fails grid.points_free."""
    centers = [
        grid.bounds_min[a] + (np.arange(grid.dims[a]) + 0.5) * grid.resolution
        for a in range(3)
    ]
    pts = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, 3)
    return ~grid.points_free(pts, inflation).reshape(grid.dims)


def distance_field_by_sweeps(grid, goal_idx, inflation: float) -> np.ndarray:
    """6-connected hop counts to goal_idx (-1 where unreachable), one
    whole-grid shifted-OR sweep per hop."""
    free = ~blocked_by_points(grid, inflation)
    goal_idx = tuple(goal_idx)
    dist = np.full(grid.dims, -1, dtype=np.int32)
    if not free[goal_idx]:
        return dist
    frontier = np.zeros(grid.dims, dtype=bool)
    frontier[goal_idx] = True
    dist[goal_idx] = 0
    unseen = free & (dist < 0)
    hops = 0
    while frontier.any():
        hops += 1
        grown = np.zeros_like(frontier)
        grown[1:, :, :] |= frontier[:-1, :, :]
        grown[:-1, :, :] |= frontier[1:, :, :]
        grown[:, 1:, :] |= frontier[:, :-1, :]
        grown[:, :-1, :] |= frontier[:, 1:, :]
        grown[:, :, 1:] |= frontier[:, :, :-1]
        grown[:, :, :-1] |= frontier[:, :, 1:]
        grown &= unseen
        dist[grown] = hops
        unseen &= ~grown
        frontier = grown
    return dist


def grow_box_by_layers(grid, seed, inflation: float, toward=None):
    """Round-robin box growth, one occupied-count query per layer; returns
    the (min_corner, max_corner) tuples of the eroded box."""
    seed = np.asarray(seed, dtype=float).reshape(3)
    lo_idx, hi_idx = grid._overlap_range(seed - inflation, seed + inflation)
    lo_idx = np.maximum(lo_idx, 0)
    hi_idx = np.minimum(hi_idx, np.array(grid.dims) - 1)
    order = list(range(6))
    if toward is not None:
        toward = np.asarray(toward, dtype=float).reshape(3)
        scores = [(1.0 if d % 2 == 0 else -1.0) * toward[d // 2] for d in range(6)]
        order.sort(key=lambda d: (-scores[d], d))
    blocked = [False] * 6
    while not all(blocked):
        for d in order:
            if blocked[d]:
                continue
            axis = d // 2
            layer_lo = lo_idx.copy()
            layer_hi = hi_idx.copy()
            new = hi_idx[axis] + 1 if d % 2 == 0 else lo_idx[axis] - 1
            if not 0 <= new < grid.dims[axis]:
                blocked[d] = True
                continue
            layer_lo[axis] = layer_hi[axis] = new
            if int(grid._count_occupied(layer_lo, layer_hi)) > 0:
                blocked[d] = True
                continue
            if d % 2 == 0:
                hi_idx[axis] = new
            else:
                lo_idx[axis] = new
    region_lo = grid.bounds_min + lo_idx * grid.resolution
    region_hi = grid.bounds_min + (hi_idx + 1) * grid.resolution
    return tuple(region_lo + inflation), tuple(region_hi - inflation)


def sight_line_by_linspace(grid, p, q, inflation, agent_obstacles=(), downwash=1.0) -> bool:
    """Segment pq sampled every resolution/2 by np.linspace, each sample
    tested with grid.points_free and against every agent obstacle."""
    p = np.asarray(p, dtype=float).reshape(3)
    q = np.asarray(q, dtype=float).reshape(3)
    dist = float(np.linalg.norm(q - p))
    count = max(2, int(np.ceil(dist / (grid.resolution / 2))) + 1) if dist > 0 else 1
    samples = np.linspace(p, q, count)
    if not np.all(grid.points_free(samples, inflation)):
        return False
    scale = np.array([1.0, 1.0, 1.0 / downwash])
    for pos, radius in agent_obstacles:
        delta = (samples - np.asarray(pos, dtype=float)) * scale
        if np.any(np.linalg.norm(delta, axis=1) <= inflation + radius):
            return False
    return True


def sight_samples(grid, p, targets) -> tuple[np.ndarray, np.ndarray]:
    """Every sample of every segment from p to a target, stacked as the
    grid builds them, and each segment's first row."""
    p = np.asarray(p, dtype=float).reshape(3)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    counts = grid._sample_counts(targets - p)
    starts = np.cumsum(counts) - counts
    line = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(counts.sum()) - starts[line]
    return grid._line_samples(p, targets, counts, line, k), starts


def sight_lines_by_samples(
    grid, p, targets, inflation: float, agent_obstacles=(), downwash: float = 1.0
) -> np.ndarray:
    """Sight lines from p to each target decided from their samples alone:
    every sample of every line is built at once, as np.linspace builds
    them, and tested with grid.points_free and against every agent obstacle.
    With several targets every 8th sample is tested first, then the rest of
    the lines that passed; a line is clear iff all its samples pass."""
    samples, starts = sight_samples(grid, p, targets)
    counts = np.diff(starts, append=len(samples))

    def clear(rows):
        points = samples[rows]
        ok = grid.points_free(points, inflation)
        x, y, z = points.T
        for pos, radius in agent_obstacles:
            pos = np.asarray(pos, dtype=float)
            gx = x - pos[0]
            gy = y - pos[1]
            gz = (z - pos[2]) * (1.0 / downwash)
            ok &= ~(np.sqrt(gx * gx + gy * gy + gz * gz) <= inflation + radius)
        return ok

    stride = 8 if len(starts) > 1 else 1
    ok = np.ones(len(samples), dtype=bool)
    ok[::stride] = clear(slice(None, None, stride))
    rest = np.repeat(np.logical_and.reduceat(ok, starts), counts)
    rest[::stride] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        ok[rest] = clear(rest)
    return np.logical_and.reduceat(ok, starts)


def box_free_by_counts(grid, box, inflation: float) -> bool:
    """Inflated box inside the bounds and overlapping no occupied cell, by
    one vectorized summed-area count."""
    lo = box[0] - inflation
    hi = box[1] + inflation
    if np.any(lo < grid.bounds_min - 1e-9) or np.any(hi > grid.bounds_max + 1e-9):
        return False
    return int(grid._count_occupied(*grid._overlap_range(lo, hi))) == 0


def farthest_visible_by_scan(grid, p, candidates, inflation, agent_obstacles, downwash):
    """The last candidate with a clear sight line from p, scanning from
    the far end one sight line at a time; p itself when none is visible."""
    for q in reversed(list(candidates)):
        if sight_line_by_linspace(grid, p, q, inflation, agent_obstacles, downwash):
            return np.asarray(q, dtype=float).copy()
    return np.asarray(p, dtype=float).copy()


def block_discs_by_loop(grid, blocked, agent_obstacles, inflation: float, downwash=1.0):
    """Mark, in an unpadded mask, the cells whose centre lies within
    inflation + radius of each agent obstacle in the downwash-scaled metric,
    one disc at a time over its own clipped cell range."""
    for pos, radius in agent_obstacles:
        pos = np.asarray(pos, dtype=float)
        radius = inflation + radius
        reach = np.array([radius, radius, radius * downwash])
        lo_idx, hi_idx = grid._overlap_range(pos - reach, pos + reach)
        lo_idx = np.maximum(lo_idx, 0)
        hi_idx = np.minimum(hi_idx, np.array(grid.dims) - 1)
        if np.any(lo_idx > hi_idx):
            continue
        axes = [np.arange(lo_idx[a], hi_idx[a] + 1) for a in range(3)]
        centers = [
            grid.bounds_min[a] + (axes[a] + 0.5) * grid.resolution - pos[a] for a in range(3)
        ]
        d2 = (
            centers[0][:, None, None] ** 2
            + centers[1][None, :, None] ** 2
            + (centers[2][None, None, :] / downwash) ** 2
        )
        window = tuple(slice(lo_idx[a], hi_idx[a] + 1) for a in range(3))
        blocked[window] = blocked[window] | (d2 <= radius * radius)
    return blocked


# -- QP set-up referee ----------------------------------------------------------


def param_matrices_by_loops(params) -> dict[str, np.ndarray]:
    """qp.ParamMatrices' static data written entry by entry: one zero row
    per constraint with its coefficients set at hand-computed indices, and
    each limit or box row followed by its negation. Returns quadratic,
    eq_matrix, dyn_matrix, box_matrix and dyn_rhs."""
    n = params.degree
    m_count = params.segment_count
    dt = params.segment_time
    dim = 3 * m_count * (n + 1)
    pts_per_seg = n + 1

    def idx(m, l, axis):
        return ((m * pts_per_seg + l) * 3) + axis

    gram = jerk_gram_matrix(n, dt)
    p_mat = np.zeros((dim, dim))
    for m in range(m_count):
        base = m * pts_per_seg * 3
        block = 2.0 * params.jerk_weight * np.kron(gram, np.eye(3))
        p_mat[base : base + pts_per_seg * 3, base : base + pts_per_seg * 3] += block
    for m in range(m_count):
        w = params.goal_weights[m]
        for axis in range(3):
            p_mat[idx(m, n, axis), idx(m, n, axis)] += 2.0 * w

    # 9 initial-state rows, 9 per interior knot, 3n terminal.
    rows = []
    r = np.zeros((9, dim))
    for axis in range(3):
        r[axis, idx(0, 0, axis)] = 1.0
        r[3 + axis, idx(0, 1, axis)] = 1.0
        r[3 + axis, idx(0, 0, axis)] = -1.0
        r[6 + axis, idx(0, 2, axis)] = 1.0
        r[6 + axis, idx(0, 1, axis)] = -2.0
        r[6 + axis, idx(0, 0, axis)] = 1.0
    rows.append(r)
    for m in range(m_count - 1):
        r = np.zeros((9, dim))
        for axis in range(3):
            r[axis, idx(m, n, axis)] = 1.0
            r[axis, idx(m + 1, 0, axis)] = -1.0
            r[3 + axis, idx(m, n, axis)] = 1.0
            r[3 + axis, idx(m, n - 1, axis)] = -1.0
            r[3 + axis, idx(m + 1, 1, axis)] = -1.0
            r[3 + axis, idx(m + 1, 0, axis)] = 1.0
            r[6 + axis, idx(m, n, axis)] = 1.0
            r[6 + axis, idx(m, n - 1, axis)] = -2.0
            r[6 + axis, idx(m, n - 2, axis)] = 1.0
            r[6 + axis, idx(m + 1, 2, axis)] = -1.0
            r[6 + axis, idx(m + 1, 1, axis)] = 2.0
            r[6 + axis, idx(m + 1, 0, axis)] = -1.0
        rows.append(r)
    r = np.zeros((3 * n, dim))
    for l in range(1, n + 1):
        for axis in range(3):
            r[(l - 1) * 3 + axis, idx(m_count - 1, l, axis)] = 1.0
            r[(l - 1) * 3 + axis, idx(m_count - 1, 0, axis)] = -1.0
    rows.append(r)

    vel_rows, vel_rhs = [], []
    k1 = n / dt
    for m in range(m_count):
        for l in range(n):
            for axis in range(3):
                row = np.zeros(dim)
                row[idx(m, l + 1, axis)] = k1
                row[idx(m, l, axis)] = -k1
                vel_rows += [row, -row]
                vel_rhs += [params.max_velocity[axis]] * 2
    acc_rows, acc_rhs = [], []
    k2 = n * (n - 1) / dt / dt
    for m in range(m_count):
        for l in range(n - 1):
            for axis in range(3):
                row = np.zeros(dim)
                row[idx(m, l + 2, axis)] = k2
                row[idx(m, l + 1, axis)] = -2.0 * k2
                row[idx(m, l, axis)] = k2
                acc_rows += [row, -row]
                acc_rhs += [params.max_acceleration[axis]] * 2

    box_rows = []
    for m in range(m_count):
        for l in range(pts_per_seg):
            for axis in range(3):
                row = np.zeros(dim)
                row[idx(m, l, axis)] = 1.0
                box_rows += [row, -row]

    return {
        "quadratic": p_mat,
        "eq_matrix": np.vstack(rows),
        "dyn_matrix": np.vstack([np.array(vel_rows), np.array(acc_rows)]),
        "box_matrix": np.vstack(box_rows),
        "dyn_rhs": np.array(vel_rhs + acc_rhs),
    }


def dense_inequalities(problem):
    """The full inequality matrix of a QpProblem: its dense rows, then every
    separation row written out, with its coefficient on the three columns
    of its control point and zeros elsewhere."""
    coefficients = problem.separation_coefficients
    count = len(coefficients)
    separation = np.zeros((count, problem.dimension))
    for s in range(count):
        point = s % (problem.dimension // 3)
        separation[s, 3 * point : 3 * point + 3] = coefficients[s]
    return np.vstack([problem.ineq_matrix, separation])


def dense_residuals(problem, x):
    """Every inequality residual at x by one dense product: the referee of
    QpProblem.check's structured evaluation."""
    return dense_inequalities(problem) @ np.asarray(x, dtype=float) - problem.ineq_rhs


def dense_reduced_rows(problem, red, x_part, static_blocks=()):
    """Reduced, normalised inequalities (c_red, d_red) by dense products:
    each static block times the nullspace on its own, then every remaining
    row of the full matrix by one product with the nullspace, all rows
    divided by their norms. `static_blocks` are the blocks `red` was built
    from."""
    null = red.nullspace
    full = dense_inequalities(problem)
    n_static = sum(len(block) for block in static_blocks)
    c_red = np.vstack(
        [np.zeros((0, null.shape[1]))]
        + [block @ null for block in static_blocks]
        + [full[n_static:] @ null]
    )
    d_red = problem.ineq_rhs - full @ x_part
    row_norms = np.linalg.norm(full, axis=1)
    return c_red / row_norms[:, None], d_red / row_norms


def dense_separation_rows(problem, red, norms):
    """Separation rows in the reduction's Cholesky coordinates by one dense
    product: every full separation row divided by its norm, times the
    reduction's basis."""
    separation = dense_inequalities(problem)[len(red.static_norms):]
    return (separation / norms[:, None]) @ red.basis


# -- QP solver referee -----------------------------------------------------------
# The primal active-set iteration in the reduced coordinates y, with a full
# (k+|W|)-square KKT system solved with one refinement pass per iteration:
# the solver's Cholesky-coordinate iteration must reach the same points.


def refined_solve(a, b):
    """Direct solve with one iterative-refinement pass."""
    z = np.linalg.solve(a, b)
    z += np.linalg.solve(a, b - a @ z)
    return z


def active_set_kkt(h, f, c, d, y0, max_iterations):
    """Primal active-set iteration on min 0.5 y'Hy + f'y s.t. Cy <= d.

    Requires a feasible y0. Blocking constraints enter by lowest row index
    among minimal step ratios; constraints leave by most negative multiplier.
    Returns (y, working rows, multipliers, iterations); raises
    QpInfeasibleError on a singular linear system or an exhausted budget.
    """
    k = len(y0)
    mi = len(d)
    y = np.array(y0, dtype=float)
    working: list[int] = []
    in_working = np.zeros(mi, dtype=bool)
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        grad = h @ y + f
        nw = len(working)
        if nw:
            kkt = np.zeros((k + nw, k + nw))
            kkt[:k, :k] = h
            rows = c[working]
            kkt[:k, k:] = rows.T
            kkt[k:, :k] = rows
            # The lower block restores working rows to their boundaries, so
            # epsilon-level drift of the start cannot persist.
            rhs = np.concatenate([-grad, d[working] - rows @ y])
        else:
            kkt, rhs = h, -grad
        try:
            z = refined_solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise QpInfeasibleError(f"singular active-set system ({exc})", iterations) from exc
        p = z[:k]
        lam = z[k:]

        if float(np.max(np.abs(p))) <= 1e-11 * (1.0 + float(np.max(np.abs(y)))):
            if nw == 0:
                return y, working, lam, iterations
            drop = int(np.argmin(lam))
            if lam[drop] >= -1e-9:
                return y, working, lam, iterations
            in_working[working[drop]] = False
            working.pop(drop)
            continue

        step = 1.0
        blocking = -1
        if mi:
            cp = c @ p
            candidates = np.nonzero(~in_working & (cp > 1e-12))[0]
            if len(candidates):
                slack = np.maximum(d[candidates] - c[candidates] @ y, 0.0)
                ratios = slack / cp[candidates]
                best = float(np.min(ratios))
                if best < 1.0:
                    step = best
                    hit = candidates[ratios <= best + 1e-12 * (1.0 + best)]
                    blocking = int(np.min(hit))
        y = y + step * p
        if blocking >= 0:
            working.append(blocking)
            in_working[blocking] = True
    raise QpInfeasibleError("active-set iteration budget exhausted", iterations)


def solve_by_kkt(problem, red, static_blocks, warm_start, max_iterations=None):
    """The QP in y on the dense set-up: the reduced Hessian and gradient
    formed anew, the rows by `dense_reduced_rows`, and `active_set_kkt` from
    the warm start, with solve's default budget. Returns (x, iterations,
    stationarity), where stationarity is the largest entry of
    h y + f + c[W]' max(lam, 0)."""
    if max_iterations is None:
        max_iterations = 3 * len(problem.ineq_rhs) + 120
    null = red.nullspace
    x_part = red.pinv @ problem.eq_rhs
    h = null.T @ problem.quadratic @ null / red.sigma
    h = 0.5 * (h + h.T)
    f = null.T @ (problem.quadratic @ x_part + problem.linear) / red.sigma
    c, d = dense_reduced_rows(problem, red, x_part, static_blocks)
    y0 = null.T @ (np.asarray(warm_start, dtype=float) - x_part)
    y, working, lam, iterations = active_set_kkt(h, f, c, d, y0, max_iterations)
    stat = h @ y + f
    if working:
        stat = stat + c[working].T @ np.maximum(lam, 0.0)
    return x_part + null @ y, iterations, float(np.max(np.abs(stat)))


# -- goal-planning referee ------------------------------------------------------
# The priority rules one agent at a time, with a scalar np.linalg.norm per
# pair: the shared relation of goalplan.swarm_view_from_arrays must reproduce
# them bit for bit.


def higher_priority_ids(self_id, agents, params) -> set[int]:
    """Ids of the agents that agent self_id yields to, by one loop over
    `agents` (id -> helpers.AgentMotion)."""
    me = agents[self_id]
    my_dist = float(np.linalg.norm(me.position - me.goal))
    reach = params.goal_reach_dist
    self_reached = my_dist < reach
    recede_slack = 0.05 * params.horizon * max(params.max_velocity)
    out = set()
    for other_id, other in agents.items():
        if other_id == self_id:
            continue
        other_dist = float(np.linalg.norm(other.position - other.goal))
        other_reached = other_dist < reach
        closer = other_dist < my_dist or (other_dist == my_dist and other_id < self_id)
        under_way = other_dist > reach
        gap = float(np.linalg.norm(me.position - other.position))
        toward_me = float(
            (other.horizon_end - other.position) @ (me.position - other.position)
        ) / max(gap, 1e-9)
        not_receding = toward_me >= -recede_slack
        if (closer and under_way and not_receding) or (self_reached and not other_reached):
            out.add(other_id)
    return out


def nearest_priority(self_id, agents, priority) -> tuple[int, float]:
    """The agent of `priority` nearest to agent self_id (lowest id among
    equal gaps) and its gap."""
    me = agents[self_id]
    nearest = min(
        priority,
        key=lambda j: (float(np.linalg.norm(me.position - agents[j].position)), j),
    )
    return nearest, float(np.linalg.norm(me.position - agents[nearest].position))


# -- log-format referees --------------------------------------------------------
# The log lines formatted one value at a time through float(): sim's
# formatters must write the same bytes.


def csv_rows_by_float(times, states) -> list[str]:
    """CSV rows `t,px,...,az` from a (len(times), 9) array of states."""
    return [
        f"{t:.2f}," + ",".join(repr(float(v)) for v in row)
        for t, row in zip(times, states)
    ]


def step_line_by_float(step: int, now: float, plans) -> str:
    """One steps.jsonl line from the step's (N, M, n+1, 3) plans."""
    payload = {
        "k": step,
        "t0": now,
        "cpts": {
            str(i): [[[float(v) for v in pt] for pt in seg] for seg in plan]
            for i, plan in enumerate(plans)
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- per-agent referees of a step's batched array work ----------------------------
# One agent and one segment at a time, on contiguous copies of each segment's
# control points, as the plans were held when each was its own object: sim's
# and bernstein's batched forms must give the same bits.


def shift_by_segments(plans) -> np.ndarray:
    """bernstein.shift_for_initial one agent at a time: its segments 2..M,
    then a constant segment tiled from its final control point."""
    out = []
    for plan in plans:
        segments = [np.array(seg) for seg in plan]
        hold = np.tile(np.array(segments[-1][-1]), (len(segments[-1]), 1))
        out.append(np.stack(segments[1:] + [hold]))
    return np.array(out).reshape(np.shape(plans))


def sampled_block_by_agent(plans, basis, dt) -> np.ndarray:
    """sim._sampled_block one agent at a time: each flown segment and its
    derivatives sampled by one matrix product each."""
    b0, b1, b2 = basis
    block = np.empty((len(plans), len(b0), 10))
    for plan, out in zip(plans, block):
        seg = np.array(plan[0])
        n = len(seg) - 1
        d1 = n * np.diff(seg, axis=0) / dt
        d2 = (n - 1) * np.diff(d1, axis=0) / dt
        out[:, 1:4] = b0 @ seg
        out[:, 4:7] = b1 @ d1
        out[:, 7:10] = b2 @ d2
    return block


def success_by_steps(log_dir) -> tuple[bool, float | None, int]:
    """sim.run's success rule recomputed from steps.jsonl alone, with the
    same float expressions: the first step k after which every agent's
    dumped segment-0 end lies within goal_reach_dist of its goal, and still
    does one step later. Returns (success, flight_time, steps read), where
    flight_time is the end time (k + 1) * dt of step k and the steps read
    stop at the step that settles success."""
    log_dir = Path(log_dir)
    scenario = Scenario.from_json((log_dir / "scenario.json").read_text())
    params = scenario.params
    dt = params.segment_time
    goals = [np.array(spec.goal, dtype=float) for spec in scenario.agents]
    lines = (log_dir / "steps.jsonl").read_text().splitlines()
    candidate = None
    for count, line in enumerate(lines, start=1):
        record = json.loads(line)
        now = (record["k"] + 1) * dt
        ends = [np.array(record["cpts"][str(i)][0][-1]) for i in range(len(goals))]
        if all(
            float(np.linalg.norm(end - goal)) < params.goal_reach_dist
            for end, goal in zip(ends, goals)
        ):
            if candidate is None:
                candidate = now
            elif now >= candidate + dt:
                return True, candidate, count
        else:
            candidate = None
    return False, None, len(lines)


# -- log-verifier referee -------------------------------------------------------
# The offline verifier one step, agent, pair and sample at a time, reading the
# logs into per-step dicts and per-agent lists: swarmplan.verify's array
# passes must produce the same VerificationReport, every float and every
# violation string in the same order.


def _loop_derivative_points(points: np.ndarray, duration: float) -> np.ndarray:
    n = len(points) - 1
    return n * (points[1:] - points[:-1]) / duration


def _loop_plan_state(cpts: np.ndarray, dt: float, steps: int):
    """Position, velocity, acceleration of a dumped plan `steps` replanning
    periods after its start: segment `steps` at tau 0, or the end of the
    last segment when the plan is shorter."""
    m = min(steps, len(cpts) - 1)
    tau = min(float(steps - m), 1.0)
    seg = cpts[m]
    vel = _loop_derivative_points(seg, dt)
    acc = _loop_derivative_points(vel, dt)
    return (
        de_casteljau(seg, tau),
        de_casteljau(vel, tau),
        de_casteljau(acc, tau),
    )


def _loop_load_logs(log_dir: Path):
    scenario_path = log_dir / "scenario.json"
    steps_path = log_dir / "steps.jsonl"
    states_path = log_dir / "states.npy"
    if not scenario_path.is_file() or not steps_path.is_file() or not states_path.is_file():
        raise LogFormatError(f"{log_dir} is missing run artifacts")
    try:
        scenario = Scenario.from_json(scenario_path.read_text())
    except (ValueError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"bad scenario.json: {exc}") from exc
    if "bounds" not in scenario.map_data:
        raise LogFormatError("scenario.json has no world bounds")

    n_agents = len(scenario.agents)
    steps = []
    for lineno, line in enumerate(steps_path.read_text().splitlines()):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            cpts = {
                int(k): np.asarray(v, dtype=float) for k, v in payload["cpts"].items()
            }
            steps.append((int(payload["k"]), float(payload["t0"]), cpts))
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise LogFormatError(f"steps.jsonl line {lineno}: {exc}") from exc
    if [k for k, _, _ in steps] != list(range(len(steps))):
        raise LogFormatError("steps.jsonl is not a contiguous step sequence")
    m_count = scenario.params.segment_count
    degree = scenario.params.degree
    for k, t0, cpts in steps:
        if not math.isfinite(t0):
            raise LogFormatError(f"step {k} starts at {t0}")
        if t0 != k * scenario.params.segment_time:
            raise LogFormatError(f"step {k} starts at {t0}, off the replanning grid")
        if sorted(cpts) != list(range(n_agents)):
            raise LogFormatError(f"step {k} does not cover every agent")
        for arr in cpts.values():
            if arr.shape != (m_count, degree + 1, 3):
                raise LogFormatError(f"step {k} control points have shape {arr.shape}")
            if not all(math.isfinite(v) for v in arr.ravel().tolist()):
                raise LogFormatError(f"step {k} control points are not finite")

    try:
        with open(states_path, "rb") as f:
            states = np.load(f, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise LogFormatError(f"states.npy: {exc}") from exc
    if not isinstance(states, np.ndarray) or states.dtype != np.float64:
        raise LogFormatError("states.npy does not hold a float64 array")
    if states.ndim != 3 or len(states) != n_agents:
        raise LogFormatError(f"states.npy has shape {states.shape}, not a table per agent")
    tables = list(states)

    ticks = round(scenario.params.segment_time * _TICKS_PER_SECOND)
    expected_rows = len(steps) * ticks + (1 if steps else 0)
    for i, table in enumerate(tables):
        if table.shape != (expected_rows, 10):
            raise LogFormatError(
                f"agent {i} log has shape {table.shape}, expected ({expected_rows}, 10)"
            )
        for row, values in enumerate(table.tolist()):
            if not all(math.isfinite(v) for v in values):
                raise LogFormatError(f"agent {i} row {row} is not finite")
            if values[0] != row / _TICKS_PER_SECOND:
                raise LogFormatError(f"agent {i} log is not on the 10 ms grid")
    return scenario, steps, tables


def verify_by_loops(log_dir) -> VerificationReport:
    """The verifier as one loop per step, agent, pair and sample, with a
    scalar de Casteljau and np.linalg.norm per 3-vector."""
    log_dir = Path(log_dir)
    scenario, steps, tables = _loop_load_logs(log_dir)
    params = scenario.params
    n_agents = len(scenario.agents)
    radii = np.array([spec.radius for spec in scenario.agents])
    dt = params.segment_time
    ticks = round(dt * _TICKS_PER_SECOND)
    violations: list[str] = []

    def report(msg):
        if len(violations) < 10 * _MAX_REPORTED:
            violations.append(msg)

    positions = np.stack([t[:, 1:4] for t in tables])  # (agents, rows, 3)
    velocities = np.stack([t[:, 4:7] for t in tables])
    accelerations = np.stack([t[:, 7:10] for t in tables])
    rows = positions.shape[1]

    # Logged rows must reproduce the dumped plans (tamper/consistency check).
    for k, t0, cpts in steps:
        for i in range(n_agents):
            seg = cpts[i][0]
            for j in range(0, ticks, max(1, ticks // 5)):
                row = k * ticks + j
                t = row / _TICKS_PER_SECOND
                expected = de_casteljau(seg, (t - t0) / dt)
                err = float(np.linalg.norm(positions[i, row] - expected))
                if err > LOG_CONSISTENCY_TOL:
                    report(
                        f"agent {i} row t={t:.2f}: logged position deviates from "
                        f"the dumped plan by {err:.3e} m"
                    )

    # Acceleration-level continuity between consecutive plans.
    cont = {"position": 0.0, "velocity": 0.0, "acceleration": 0.0}
    for (k0, t0_a, cpts_a), (k1, t0_b, cpts_b) in zip(steps, steps[1:]):
        for i in range(n_agents):
            sa = _loop_plan_state(cpts_a[i], dt, k1 - k0)
            sb = _loop_plan_state(cpts_b[i], dt, 0)
            for name, va, vb in zip(cont, sa, sb):
                err = float(np.linalg.norm(va - vb))
                cont[name] = max(cont[name], err)
                if err > CONTINUITY_TOL:
                    report(
                        f"agent {i} step {k1}: {name} jumps by {err:.3e} "
                        f"at t={t0_b:.2f}"
                    )

    # Acceleration-level continuity at the internal joints of every plan.
    for k, _, cpts in steps:
        for i in range(n_agents):
            for m in range(1, len(cpts[i])):
                sa = _loop_plan_state(cpts[i][m - 1 : m], dt, 1)
                sb = _loop_plan_state(cpts[i][m : m + 1], dt, 0)
                for name, va, vb in zip(cont, sa, sb):
                    err = float(np.linalg.norm(va - vb))
                    if err > CONTINUITY_TOL:
                        report(
                            f"agent {i} step {k}: {name} jumps by {err:.3e} "
                            f"between segments {m - 1} and {m}"
                        )

    # Inter-agent separation in the downwash-scaled metric.
    scale = np.array([1.0, 1.0, 1.0 / params.downwash])
    min_pair = None
    min_margin = None
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            delta = (positions[i] - positions[j]) * scale
            dists = np.linalg.norm(delta, axis=1)
            worst = float(np.min(dists))
            needed = radii[i] + radii[j]
            margin = worst - needed
            min_pair = worst if min_pair is None else min(min_pair, worst)
            min_margin = margin if min_margin is None else min(min_margin, margin)
            if margin < -PAIR_DISTANCE_TOL:
                row = int(np.argmin(dists))
                report(
                    f"agents {i},{j} at t={row / _TICKS_PER_SECOND:.2f}: scaled "
                    f"distance {worst:.4f} under required {needed:.4f}"
                )

    # Static clearance against the original boxes and the world bounds.
    bmin = np.asarray(scenario.map_data["bounds"]["min"], dtype=float)
    bmax = np.asarray(scenario.map_data["bounds"]["max"], dtype=float)
    boxes = [
        (np.asarray(b["min"], dtype=float), np.asarray(b["max"], dtype=float))
        for b in scenario.map_data.get("boxes", [])
    ]
    min_clearance = None
    for i in range(n_agents):
        pts = positions[i]
        bound_gap = np.minimum(
            np.min(pts - bmin[None, :], axis=1), np.min(bmax[None, :] - pts, axis=1)
        )
        clearance = bound_gap.copy()
        for lo, hi in boxes:
            gap = np.linalg.norm(pts - np.clip(pts, lo, hi), axis=1)
            clearance = np.minimum(clearance, gap)
        worst_row = int(np.argmin(clearance))
        worst = float(clearance[worst_row])
        min_clearance = worst if min_clearance is None else min(min_clearance, worst)
        if worst < radii[i] - CLEARANCE_TOL:
            report(
                f"agent {i} at t={worst_row / _TICKS_PER_SECOND:.2f}: obstacle "
                f"clearance {worst:.4f} under radius {radii[i]:.4f}"
            )

    # Dynamic limits on the logged derivative columns.
    vmax = np.asarray(params.max_velocity)
    amax = np.asarray(params.max_acceleration)
    for i in range(n_agents):
        vex = float(np.max(np.abs(velocities[i]) - vmax[None, :]))
        aex = float(np.max(np.abs(accelerations[i]) - amax[None, :]))
        if vex > LIMIT_TOL:
            report(f"agent {i}: velocity exceeds its limit by {vex:.3e}")
        if aex > LIMIT_TOL:
            report(f"agent {i}: acceleration exceeds its limit by {aex:.3e}")

    flight = [
        float(np.sum(np.linalg.norm(np.diff(positions[i], axis=0), axis=1)))
        for i in range(n_agents)
    ]

    return VerificationReport(
        ok=not violations,
        violations=violations,
        samples=rows,
        min_inter_agent_distance=min_pair,
        min_pair_margin=min_margin,
        min_obstacle_clearance=min_clearance,
        max_continuity_error=cont,
        flight_distance_per_agent=flight,
    )
