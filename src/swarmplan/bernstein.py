"""Bernstein-basis segments and piecewise trajectories.

A segment of degree n over duration dt is p(tau) = sum_l c_l * B_{l,n}(tau)
with tau in [0, 1] and B_{l,n}(tau) = C(n,l) tau^l (1-tau)^(n-l). The curve
stays inside the convex hull of its control points and interpolates the first
and last one, which is what lets pointwise constraints on control points bind
the whole curve.
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class BernsteinSegment:
    """One polynomial segment: (n+1) control points in R^3 and a duration."""

    __slots__ = ("control_points", "duration")

    def __init__(self, control_points, duration: float):
        pts = _freeze(control_points)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"control points must have shape (n+1, 3), got {pts.shape}")
        if not 1 <= pts.shape[0] <= MAX_DEGREE + 1:
            raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        duration = float(duration)
        if not duration > 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.control_points = pts
        self.duration = duration

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1

    def __repr__(self):
        return f"BernsteinSegment(degree={self.degree}, duration={self.duration})"


def constant_segment(point, duration: float, degree: int) -> BernsteinSegment:
    """Segment that stays at one point for its whole duration."""
    pt = np.asarray(point, dtype=float).reshape(3)
    return BernsteinSegment(np.tile(pt, (degree + 1, 1)), duration)


def derivative(seg: BernsteinSegment) -> BernsteinSegment:
    """Derivative curve of a segment, one degree lower.

    Control points are n * (c_{l+1} - c_l) / dt; the derivative of a Bernstein
    curve is again a Bernstein curve, so velocity and acceleration limits can
    be imposed on derivative control points via the convex hull property.
    """
    n = seg.degree
    if n < 1:
        raise ValueError("cannot differentiate a degree-0 segment")
    pts = n * np.diff(seg.control_points, axis=0) / seg.duration
    return BernsteinSegment(pts, seg.duration)


class PiecewiseTrajectory:
    """M equal-duration segments glued in time, starting at start_time."""

    __slots__ = ("segments", "start_time")

    #: Allowed position jump between adjacent segments at the shared knot.
    CONTINUITY_TOL = 1e-6

    def __init__(self, segments, start_time: float):
        segments = tuple(segments)
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        deg = segments[0].degree
        dur = segments[0].duration
        for seg in segments[1:]:
            if seg.degree != deg:
                raise ValueError("all segments must share one degree")
            if abs(seg.duration - dur) > 1e-12:
                raise ValueError("all segments must share one duration")
        for a, b in zip(segments, segments[1:]):
            gap = np.linalg.norm(a.control_points[-1] - b.control_points[0])
            if gap > self.CONTINUITY_TOL:
                raise ValueError(f"adjacent segments discontinuous by {gap:.3e} m")
        self.segments = segments
        self.start_time = float(start_time)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def degree(self) -> int:
        return self.segments[0].degree

    @property
    def segment_time(self) -> float:
        return self.segments[0].duration

    def control_point_stack(self) -> np.ndarray:
        """All control points as one (M*(n+1), 3) array in segment order."""
        return np.vstack([s.control_points for s in self.segments])

    def __repr__(self):
        return (
            f"PiecewiseTrajectory(M={self.segment_count}, degree={self.degree}, "
            f"start={self.start_time}, dt={self.segment_time})"
        )


def shift_for_initial(
    prev: PiecewiseTrajectory | None,
    current_position,
    *,
    segment_count: int | None = None,
    degree: int | None = None,
    segment_time: float | None = None,
    start_time: float = 0.0,
) -> PiecewiseTrajectory:
    """Shifted previous plan used as this step's guaranteed-feasible candidate.

    First step (prev is None): every segment holds current_position; the
    shape parameters must be supplied. Later steps: drop the already-flown
    first segment, keep segments 2..M, and append a constant segment at the
    previous final control point, advancing start_time by one segment.
    """
    if prev is None:
        if segment_count is None or degree is None or segment_time is None:
            raise ValueError("first step requires segment_count, degree, segment_time")
        pos = np.asarray(current_position, dtype=float).reshape(3)
        segs = [constant_segment(pos, segment_time, degree) for _ in range(segment_count)]
        return PiecewiseTrajectory(segs, start_time)
    hold = constant_segment(
        prev.segments[-1].control_points[-1], prev.segment_time, prev.degree
    )
    return PiecewiseTrajectory(
        prev.segments[1:] + (hold,), prev.start_time + prev.segment_time
    )
