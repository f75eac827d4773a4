"""Shared test fixtures builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import BernsteinSegment, PiecewiseTrajectory
from swarmplan.geometry import closest_points_to_origin


def random_trajectory(rng, segments=5, degree=5, dt=0.2, start=0.0, scale=1.0):
    """Random C2-smooth piecewise trajectory (mirrors what the QP emits)."""
    segs = []
    prev = None
    for _ in range(segments):
        pts = np.empty((degree + 1, 3))
        if prev is None:
            pts[0] = rng.normal(size=3) * scale
            pts[1] = pts[0] + rng.normal(size=3) * 0.1 * scale
            pts[2] = pts[1] + rng.normal(size=3) * 0.1 * scale
        else:
            # Match position, velocity, and acceleration at the knot.
            pts[0] = prev[-1]
            pts[1] = pts[0] + (prev[-1] - prev[-2])
            pts[2] = 2 * pts[1] - pts[0] + (prev[-1] - 2 * prev[-2] + prev[-3])
        for l in range(3, degree + 1):
            pts[l] = pts[l - 1] + rng.normal(size=3) * 0.1 * scale
        segs.append(BernsteinSegment(pts, dt))
        prev = pts
    return PiecewiseTrajectory(segs, start)


def closest_point_to_origin(points):
    """Single-hull view of closest_points_to_origin: (witness, distance)."""
    witness, dist = closest_points_to_origin(np.asarray(points, dtype=float)[None])
    return witness[0], float(dist[0])


@dataclass(frozen=True)
class SegmentSeparation:
    """Separating half-spaces for one segment of one agent against one neighbor.

    The constrained agent's control point l must satisfy
    (c_l - anchors[l]) . normal - margins[l] >= 0, where anchors are the
    neighbor's shifted control points. One normal serves all l of a segment.
    """

    normal: np.ndarray
    anchors: np.ndarray
    margins: np.ndarray


def pair_segments(pair) -> tuple[SegmentSeparation, ...]:
    """Row m of a PairSeparation as segment m's SegmentSeparation."""
    return tuple(
        SegmentSeparation(normal, anchors, margins)
        for normal, anchors, margins in zip(pair.normals, pair.anchors, pair.margins)
    )


def separation_residuals(seg, control_points):
    """Slack (c_l - anchors[l]) . normal - margins[l] of each control point
    against one SegmentSeparation; positive means strictly satisfied."""
    return (np.asarray(control_points, dtype=float) - seg.anchors) @ seg.normal - seg.margins
