"""Shared test fixtures builders."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import BernsteinSegment, PiecewiseTrajectory, derivative
from swarmplan.geometry import closest_points_to_origin
from swarmplan.goalplan import SwarmView, swarm_view_from_arrays


def run_in_workers(fn, jobs) -> list:
    """[fn(*job) for job in jobs], in job order, from a spawn-context process
    pool with at most one worker per usable CPU. Workers start with
    OPENBLAS_NUM_THREADS=1, so their numpy loads with one BLAS thread."""
    workers = max(1, min(len(jobs), len(os.sched_getaffinity(0))))
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def timed_run(kind, agents, seed, timeout, out_dir):
    """sim.run of one generated scenario: (RunMetrics, its wall time in s)."""
    from swarmplan.scenarios import generate_scenario
    from swarmplan.sim import run

    start = time.perf_counter()
    metrics = run(generate_scenario(kind, agents, seed=seed, timeout=timeout), out_dir)
    return metrics, time.perf_counter() - start


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


def state_at(traj, t):
    """Position, velocity and acceleration of a piecewise trajectory at time
    t, on the segment PiecewiseTrajectory.eval picks (the later one at an
    interior knot)."""
    m = traj.segment_index(t)
    tau = traj._local_tau(t, m)
    seg = traj.segments[m]
    vel = derivative(seg)
    return seg.eval(tau), vel.eval(tau), derivative(vel).eval(tau)


def box_contains(box, point, tol=0.0):
    """True iff point lies in the closed AxisBox grown by tol on every side."""
    p = np.asarray(point, dtype=float)
    return bool(np.all(p >= box.lo - tol) and np.all(p <= box.hi + tol))


def static_blocked(grid, inflation):
    """The grid's cached blocked mask without its padding: cells whose
    center, inflated, overlaps an obstacle or leaves the bounds."""
    return grid._padded_blocked(inflation)[1:-1, 1:-1, 1:-1]


def goal_distance_field(grid, goal_idx, inflation):
    """The grid's cached hop-count field to goal_idx without its padding
    (-1 where unreachable)."""
    return grid._padded_field(goal_idx, inflation)[1:-1, 1:-1, 1:-1]


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


def neighbour_rows(separations, segment_count=5, degree=5):
    """`assemble`'s neighbour arrays (normals, anchors, margins) from a list
    of PairSeparation, one row per neighbour; empty arrays for no list."""
    m, pts = segment_count, degree + 1
    return (
        np.array([pair.normals for pair in separations]).reshape(-1, m, 3),
        np.array([pair.anchors for pair in separations]).reshape(-1, m, pts, 3),
        np.array([pair.margins for pair in separations]).reshape(-1, m, pts),
    )


def separation_residuals(seg, control_points):
    """Slack (c_l - anchors[l]) . normal - margins[l] of each control point
    against one SegmentSeparation; positive means strictly satisfied."""
    return (np.asarray(control_points, dtype=float) - seg.anchors) @ seg.normal - seg.margins


@dataclass(frozen=True)
class AgentMotion:
    """What goal planning needs to know about one agent at a step: one row
    of a SwarmView."""

    position: np.ndarray
    horizon_end: np.ndarray
    goal: np.ndarray
    radius: float

    def __post_init__(self):
        for name in ("position", "horizon_end", "goal"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def swarm_view(agents: dict[int, AgentMotion], params) -> SwarmView:
    """The shared view of `agents` (id -> AgentMotion), through
    `swarm_view_from_arrays`."""
    ids = sorted(agents)
    motions = [agents[i] for i in ids]
    return swarm_view_from_arrays(
        ids,
        np.array([m.position for m in motions]),
        np.array([m.horizon_end for m in motions]),
        np.array([m.goal for m in motions]),
        np.array([m.radius for m in motions], dtype=float),
        params,
    )


def view_motions(view: SwarmView) -> dict[int, AgentMotion]:
    """Every agent's row of a SwarmView as an AgentMotion, by id."""
    return {
        agent: AgentMotion(position, horizon_end, goal, float(radius))
        for agent, position, horizon_end, goal, radius in zip(
            view.ids, view.positions, view.horizon_ends, view.goals, view.radii
        )
    }
