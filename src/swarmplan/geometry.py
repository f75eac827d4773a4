"""Collision model geometry and closest-point queries.

The inter-agent collision model is an origin-centered ellipsoid stretched
vertically to cover downwash: {x : ||E x|| <= R} with E = diag(1, 1, 1/dw).
Scaling space by E turns it into a sphere of radius R, so separating a point
cloud from the model reduces to finding the closest point of the cloud's
convex hull to the origin in the scaled frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class EllipsoidModel:
    """Origin-centered inter-agent collision volume.

    radius_sum is the sum of the two agents' radii; downwash >= 1 stretches
    the volume along z. The set is symmetric, so swapping the agent pair
    negates nothing but the sign convention of the separating normal.
    """

    radius_sum: float
    downwash: float = 1.0

    def __post_init__(self):
        if self.radius_sum <= 0:
            raise ValueError("radius_sum must be positive")
        if self.downwash < 1.0:
            raise ValueError("downwash must be >= 1")

    @property
    def scale(self) -> np.ndarray:
        """Diagonal of E: maps model space to sphere space."""
        return np.array([1.0, 1.0, 1.0 / self.downwash])

    @property
    def inverse_scale(self) -> np.ndarray:
        """Diagonal of E^-1: maps sphere space back to model space."""
        return np.array([1.0, 1.0, self.downwash])


def to_sphere_frame(points, model: EllipsoidModel) -> np.ndarray:
    """Apply E to each point; the model becomes a sphere of radius radius_sum."""
    pts = np.asarray(points, dtype=float)
    return pts * model.scale


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


def closest_points_to_origin(point_sets) -> tuple[np.ndarray, np.ndarray]:
    """Batched closest point of several convex hulls to the origin.

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

