"""Shared test fixtures builders."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import basis_row, derivative
from swarmplan.geometry import closest_points_to_origin
from swarmplan.goalplan import SwarmView, swarm_view_from_arrays
from swarmplan.qp import QpProblem, reduce_equalities, solve


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


def random_trajectory(rng, segments=5, degree=5, scale=1.0):
    """Random C2-smooth plan, (segments, degree+1, 3) control points
    (mirrors what the QP emits)."""
    plan = np.empty((segments, degree + 1, 3))
    prev = None
    for pts in plan:
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
        prev = pts
    return plan


def hold_plan(position, segments=5, degree=5):
    """A plan that holds still at `position`, (segments, degree+1, 3), as
    sim.run starts every agent."""
    return np.tile(np.asarray(position, dtype=float), (segments, degree + 1, 1))


def segment_point(points, tau):
    """Position of one segment's (n+1, 3) control points at local
    parameter tau in [0, 1]."""
    return basis_row(len(points) - 1, tau) @ points


def end_time(points, start, dt):
    """Time at which a plan starting at `start`, with segments of duration
    dt, ends its horizon."""
    return start + len(points) * dt


def segment_index(points, start, dt, t):
    """Index of the segment of a plan evaluated at time t.

    At an interior knot the later segment wins (evaluation is
    right-continuous); at the horizon end the last segment is used.
    """
    end = end_time(points, start, dt)
    slack = 1e-9 * max(1.0, abs(start), abs(end))
    if t < start - slack or t > end + slack:
        raise ValueError(f"t={t} outside horizon [{start}, {end}]")
    m = int(np.floor((t - start) / dt))
    return min(max(m, 0), len(points) - 1)


def local_tau(start, dt, t, m):
    """Local parameter of time t on segment m, clamped to [0, 1]."""
    tau = (t - start - m * dt) / dt
    return min(max(tau, 0.0), 1.0)


def position_at(points, start, dt, t):
    """Position at absolute time t of a plan (M, n+1, 3) that starts at
    `start` with segments of duration dt, on the segment segment_index
    picks."""
    m = segment_index(points, start, dt, t)
    return segment_point(points[m], local_tau(start, dt, t, m))


def state_at(points, start, dt, t):
    """Position, velocity and acceleration at time t of a plan (M, n+1, 3)
    that starts at `start` with segments of duration dt, on the segment
    segment_index picks (the later one at an interior knot)."""
    m = segment_index(points, start, dt, t)
    tau = local_tau(start, dt, t, m)
    vel = derivative(points[m], dt)
    acc = derivative(vel, dt)
    return segment_point(points[m], tau), segment_point(vel, tau), segment_point(acc, tau)


def simple_problem(quadratic, linear, constant=0.0, eq=None, ineq=None) -> QpProblem:
    """A QpProblem from dense rows, whose reduction is built from its own
    quadratic, equalities and inequality rows by reduce_equalities."""
    dim = len(linear)
    eq_m, eq_b = eq if eq else (np.zeros((0, dim)), np.zeros(0))
    in_m, in_b = ineq if ineq else (np.zeros((0, dim)), np.zeros(0))
    quadratic, eq_m, in_m = (np.asarray(m, float) for m in (quadratic, eq_m, in_m))
    return QpProblem(
        quadratic=quadratic,
        linear=np.asarray(linear, float),
        constant=constant,
        eq_matrix=eq_m,
        eq_rhs=np.asarray(eq_b, float),
        ineq_matrix=in_m,
        ineq_rhs=np.asarray(in_b, float),
        reduction=reduce_equalities(quadratic, eq_m, (in_m,)),
    )


def solve_from_origin(problem, max_iterations=None):
    """qp.solve of a hand-built problem at tolerance 1e-6, started at the
    origin: the problems built here are feasible there, or are meant to be
    refused."""
    return solve(problem, 1e-6, np.zeros(problem.dimension), max_iterations)


def box_contains(box, point, tol=0.0):
    """True iff point lies in the closed AxisBox grown by tol on every side."""
    p = np.asarray(point, dtype=float)
    lo, hi = np.array(box.min_corner), np.array(box.max_corner)
    return bool(np.all(p >= lo - tol) and np.all(p <= hi + tol))


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
    """The shared view of `agents` (row -> AgentMotion, rows 0..N-1),
    through `swarm_view_from_arrays`."""
    assert sorted(agents) == list(range(len(agents))), "agents must be rows 0..N-1"
    motions = [agents[i] for i in range(len(agents))]
    return swarm_view_from_arrays(
        np.array([m.position for m in motions]),
        np.array([m.horizon_end for m in motions]),
        np.array([m.goal for m in motions]),
        np.array([m.radius for m in motions], dtype=float),
        params,
    )


def view_motions(view: SwarmView) -> dict[int, AgentMotion]:
    """Every agent's row of a SwarmView as an AgentMotion, by row."""
    return {
        agent: AgentMotion(position, horizon_end, goal, float(radius))
        for agent, (position, horizon_end, goal, radius) in enumerate(
            zip(view.positions, view.horizon_ends, view.goals, view.radii)
        )
    }
