"""Independent reference implementations used only to check production code.

Each oracle deliberately takes a different computational route than the
module it tests (recursion instead of closed forms, exhaustive scans instead
of incremental updates, generic iterative optimization instead of direct
solves).
"""

from __future__ import annotations

import heapq

import numpy as np


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


def min_norm_point_pgd(points, max_iterations: int = 200000) -> float:
    """Distance from the origin to the convex hull of points.

    Accelerated projected gradient descent over convex-combination weights.
    Runs until the Frank-Wolfe duality gap certifies the squared distance to
    1e-13 of the hull scale, so the returned value carries its own accuracy
    guarantee instead of trusting a fixed iteration count.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    gram = pts @ pts.T
    lipschitz = max(np.linalg.norm(gram, 2), 1e-300)
    scale2 = max(float(np.max(np.diag(gram))), 1e-300)
    gap_target = 1e-13 * max(1.0, scale2)

    lam = np.zeros(k)
    lam[int(np.argmin(np.diag(gram)))] = 1.0
    momentum = lam.copy()
    t_prev = 1.0
    for it in range(max_iterations):
        grad = gram @ momentum
        new = project_to_simplex(momentum - grad / lipschitz)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = new + ((t_prev - 1.0) / t_new) * (new - lam)
        # Restart the momentum when it points uphill.
        if np.dot(gram @ new, new - lam) > 0:
            momentum = new.copy()
            t_new = 1.0
        lam, t_prev = new, t_new
        if it % 32 == 0:
            grad = gram @ lam
            gap = 2.0 * (float(lam @ grad) - float(np.min(grad)))
            if gap <= gap_target:
                break
    else:
        raise AssertionError("min-norm oracle failed to certify convergence")
    return float(np.linalg.norm(lam @ pts))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


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


def support(model, direction) -> float:
    """Largest dot product of the collision model with direction.

    Closed form R * ||E^-1 n||; separate_pairs computes the same quantity
    inline as each plane's reach.
    """
    n = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(model.inverse_scale * n)
    if norm == 0.0:
        raise ValueError("support direction must be non-zero")
    return model.radius_sum * norm
