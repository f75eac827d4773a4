"""Collision model geometry and closest-point queries.

The inter-agent collision model is an origin-centered ellipsoid stretched
vertically to cover downwash: {x : ||E x|| <= R} with E = diag(1, 1, 1/dw),
R the sum of the two agents' radii and dw >= 1 the downwash factor. Scaling
space by E turns it into a sphere of radius R, so separating a point cloud
from the model reduces to finding the closest point of the cloud's convex
hull to the origin in the scaled frame.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def to_sphere_frame(points, downwash: float) -> np.ndarray:
    """Multiply each point by [1, 1, 1/downwash], the diagonal of E: in this
    frame the collision model is a sphere of radius R."""
    pts = np.asarray(points, dtype=float)
    return pts * np.array([1.0, 1.0, 1.0 / downwash])


# Subset index tables for the face enumeration, cached per point count:
# sizes 2..4, as the vertices themselves are the size-1 subsets. The
# minimum-norm point of a hull in R^3 lies on a face spanned by at most four
# affinely independent vertices, so these sizes are exhaustive.
_SUBSETS_CACHE: dict[int, list[np.ndarray]] = {}

# Share of the hull's largest squared vertex norm R^2 by which every other
# vertex must clear the plane through the nearest vertex, normal to it, for
# that vertex to be certified as the witness.
_VERTEX_TOL = 1e-9
# Share of R by which a hull must clear the origin to skip its 4-vertex
# faces.
_ORIGIN_TOL = 1e-3


def _subset_tables(count: int) -> list[np.ndarray]:
    tables = _SUBSETS_CACHE.get(count)
    if tables is None:
        tables = [
            np.array(list(combinations(range(count), size)), dtype=int)
            for size in range(2, min(count, 4) + 1)
        ]
        _SUBSETS_CACHE[count] = tables
    return tables


def closest_points_to_origin(point_sets) -> tuple[np.ndarray, np.ndarray]:
    """Batched closest point of several convex hulls to the origin.

    `point_sets` has shape (batch, k, 3); every hull must have the same
    vertex count. Returns (witnesses (batch, 3), distances (batch,));
    distance 0 means the origin lies inside that hull.

    The result is, bit for bit, that of a face enumeration: project the
    origin onto the affine hull of every vertex subset of size 1..4, keep
    the candidates whose barycentric weights are all >= -eps (eps = 1e-12)
    after skipping subsets whose normalised Gram determinant is ~0 (the det
    test), and take the smallest. Subsets run in (size, lexicographic
    index) order and only a strict improvement replaces the best so far, so
    ties resolve to the first nearest vertex, results are deterministic, and
    degenerate hulls (repeated, collinear, coplanar points) need no special
    casing. Two exact stages skip the subsets that cannot change it:

    1. Every hull takes its squared vertex norms, the first nearest vertex
       v, R^2 = max_j |p_j|^2 and the gaps g_j = p_j.v - v.v. It is
       certified when every vertex p_j != v has g_j > tau = 1e-9 R^2, and
       its result is (v, sqrt(v.v)), the bits of the size-1 subsets.
    2. The other hulls run the subsets of size 2 and 3, and those of size 4
       only if m = v.v + min_j g_j, the least p_j.v, is not above
       1e-3 R |v|.

    Why the skipped subsets cannot change the result. Such a subset need
    only be infeasible or have a squared norm above v.v, which bounds the
    best so far: it then neither improves on the best nor ties with a
    candidate that does. Take a subset S of size >= 2 that passes the det
    test and has weights lam_k >= -eps, so that c = sum_S lam_k p_k is its
    candidate; let eta <= 3 eps be the sum of its negative weights and
    D <= 2R its diameter, so eta D^2 <= 1.2e-11 R^2, under tau / 80. The
    solve is backward stable, so c.(p_k - p_l) for k, l in S is at most
    sigma = 1e-12 R D <= tau / 500 in size, input rounding included.
    (a) Certified, no vertex of S equals v. Every p_k in S has g_k > tau,
        so h = sum_{lam_k > 0} lam_k p_k / (1 + eta), a point of the hull,
        has h.v > v.v + tau and |h|^2 > v.v + 2 tau. As |c - h| <= eta D
        and c is orthogonal to h - c up to sigma,
        |c|^2 >= |h|^2 - eta^2 D^2 - 4 sigma > v.v + tau.
    (b) Certified, S holds v. With e_k = p_k - v for the other vertices of
        S and d = c - v = sum lam_k e_k, orthogonality gives
        d.e_k = -g_k + s_k with |s_k| <= 2 sigma, so
        0 <= |d|^2 = sum lam_k (s_k - g_k). As every g_k > tau, the
        positive weights sum to L <= eta (G + 2 sigma) / (tau - 2 sigma),
        with G the largest gap in S; at that vertex
        G - 2 sigma <= |d| D <= (L + eta) D^2, which forces G < tau / 50.
        So some weight is below -eps after all: S is infeasible.
    (c) Size 4, m > 1e-3 R |v|. The spans p_k - p_0 span space; the det
        test puts their smallest singular value above 3e-7 of their
        largest length, which is at least D / 2, and orthogonality then
        puts c within 2e-5 R of the origin. Every point within eta D of the
        hull, c among them, has x.v >= m - 2 eta R |v|, so it lies farther
        than 9e-4 R from the origin: S is infeasible.
    Vertices equal to v have g = 0 and a zero span, so they are exempt
    from the certificate; a hull of copies of v has no other candidate.

    Each hull's arithmetic does not depend on the batch it sits in.
    Negating the input negates every vertex and leaves the norms, gaps and
    tolerances bit-identical, so the same subsets run and the witnesses are
    negated.
    """
    pts = np.asarray(point_sets, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 3 or pts.shape[1] == 0 or pts.shape[0] == 0:
        raise ValueError("point sets must have shape (batch, k, 3) with k >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    rows = np.arange(pts.shape[0])

    norm2 = np.sum(pts * pts, axis=2)
    nearest = np.argmin(norm2, axis=1)
    best_witness = pts[rows, nearest]
    best_dist2 = norm2[rows, nearest]
    gaps = np.vecdot(pts, best_witness[:, None, :]) - best_dist2[:, None]
    radius2 = np.max(norm2, axis=1)
    clears = (gaps > _VERTEX_TOL * radius2[:, None]) | np.all(
        pts == best_witness[:, None, :], axis=2
    )
    uncertified = ~np.all(clears, axis=1)
    least = best_dist2 + np.min(gaps, axis=1)  # min_j p_j.v
    clear_of_origin = (least > 0) & (least * least > _ORIGIN_TOL**2 * radius2 * best_dist2)
    for subsets in _subset_tables(pts.shape[1]):
        runs = uncertified if subsets.shape[1] < 4 else uncertified & ~clear_of_origin
        todo = np.flatnonzero(runs)
        if todo.size:
            best_witness[todo], best_dist2[todo] = _improve_by_faces(
                pts[todo], subsets, best_witness[todo], best_dist2[todo]
            )
    return best_witness, np.sqrt(best_dist2)


def _improve_by_faces(pts, subsets, best_witness, best_dist2):
    """Replace each hull's best point by the nearest feasible candidate
    among the vertex subsets of one size, if that is strictly nearer.

    Projects the origin onto the affine hull of every subset in one batched
    solve; argmin takes the first (lexicographically smallest) subset among
    ties, so witnesses are deterministic for a fixed input order.
    """
    size = subsets.shape[1]
    group = pts[:, subsets, :]  # (batch, nsub, size, 3)
    base = group[:, :, :1, :]
    span = group[:, :, 1:, :] - base  # (batch, nsub, size-1, 3)
    gram = span @ span.transpose(0, 1, 3, 2)
    rhs = -(span @ base.transpose(0, 1, 3, 2))[..., 0]
    det = np.linalg.det(gram)
    # Affinely dependent subsets (normalized determinant ~ 0) are skipped;
    # their faces are covered by smaller subsets.
    span_scale2 = np.max(np.sum(span * span, axis=3), axis=2)
    ok = np.abs(det) > 1e-12 * span_scale2 ** (size - 1)
    alpha = np.zeros_like(rhs)
    if np.any(ok):
        alpha[ok] = np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0]
    cand = base[:, :, 0, :] + np.einsum("bnk,bnkd->bnd", alpha, span)
    lam0 = 1.0 - np.sum(alpha, axis=2)
    feasible = ok & (lam0 >= -1e-12) & np.all(alpha >= -1e-12, axis=2)
    dist2 = np.where(feasible, np.sum(cand * cand, axis=2), np.inf)
    rows = np.arange(pts.shape[0])
    idx = np.argmin(dist2, axis=1)
    row_d2 = dist2[rows, idx]
    improve = row_d2 < best_dist2
    best_dist2[improve] = row_d2[improve]
    best_witness[improve] = cand[rows, idx][improve]
    return best_witness, best_dist2
