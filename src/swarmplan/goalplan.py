"""Decentralized priority-based current-goal selection.

Agents never negotiate: each one decides locally which neighbors outrank it
and either backs away from the nearest of them, or plans a discrete path to
its final goal treating them as obstacles and chases the farthest waypoint it
can see. Priority comes from goal distance (closer wins), with goal-reached
agents demoted to the bottom and receding agents ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swarmplan.errors import GoalUnreachableError
from swarmplan.params import PlanningParams
from swarmplan.world import OccupancyGrid

_STACKED_EPS = 1e-6  # horizontal coincidence threshold for the repulsion ray


@dataclass(frozen=True)
class SwarmView:
    """Shared per-step view of the swarm for goal planning, built once per
    step by `swarm_view_from_arrays` and read by every agent's
    `plan_current_goal`.

    Agent a is row a of the read-only arrays `positions`, `horizon_ends`,
    `goals` and `radii`. `gaps[a, b]` is the distance between agents a and
    b, and `outranks[a, b]` says agent b has priority over agent a.
    """

    params: PlanningParams
    positions: np.ndarray
    horizon_ends: np.ndarray
    goals: np.ndarray
    radii: np.ndarray
    gaps: np.ndarray
    outranks: np.ndarray


def swarm_view_from_arrays(
    positions, horizon_ends, goals, radii, params: PlanningParams
) -> SwarmView:
    """Gaps and the priority relation between every pair of agents.

    Row a of the (N, 3) arrays `positions`, `horizon_ends` and `goals` and
    of `radii` belongs to agent a. The view keeps the arrays, made
    read-only; a non-finite entry in any of the three raises ValueError.

    Agent b outranks agent a when b is strictly closer to its goal (ties go
    to the lower row), has not reached it, and is not clearly receding from
    a over its planning horizon. Once a is goal-reached itself it yields to
    every agent still under way, so parked agents never block traffic.

    "Clearly receding" means b's horizon displacement projected onto the
    line toward a falls below a small fraction of what it could fly in one
    horizon. Blocked agents do not hold still: they slide tangentially
    along their separating planes, so the projection hovers around zero
    with either sign; a strict greater-than-zero test would let two blocked
    agents facing off in a doorway both stop yielding and freeze forever.

    Every distance is np.sqrt of np.vecdot, the BLAS dot that
    np.linalg.norm takes for one 3-vector, so ties decide as they would
    pair by pair.
    """
    for name, arr in (("position", positions), ("horizon_end", horizon_ends), ("goal", goals)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    for arr in (positions, horizon_ends, goals, radii):
        arr.setflags(write=False)

    to_goal = positions - goals
    goal_dist = np.sqrt(np.vecdot(to_goal, to_goal))
    toward = positions[:, None, :] - positions[None, :, :]  # [a, b]: from b to a
    gaps = np.sqrt(np.vecdot(toward, toward))
    toward_me = np.vecdot(horizon_ends - positions, toward) / np.maximum(gaps, 1e-9)

    reach = params.goal_reach_dist
    recede_slack = 0.05 * params.horizon * max(params.max_velocity)
    order = np.arange(len(positions))
    closer = (goal_dist[None, :] < goal_dist[:, None]) | (
        (goal_dist[None, :] == goal_dist[:, None]) & (order[None, :] < order[:, None])
    )
    reached = goal_dist < reach
    under_way = goal_dist > reach
    outranks = (closer & under_way[None, :] & (toward_me >= -recede_slack)) | (
        reached[:, None] & ~reached[None, :]
    )
    return SwarmView(params, positions, horizon_ends, goals, radii, gaps, outranks)


def plan_current_goal(view: SwarmView, me: int, grid: OccupancyGrid) -> np.ndarray:
    """Pick this step's tracking target for agent `me`, a row of the view.

    If the nearest higher-priority agent is too close, the target pushes
    straight away from it. Otherwise plan a grid path to the final goal with
    higher-priority agents as obstacles (retrying without them if blocked)
    and return the farthest waypoint along it with a clear line of sight; when
    nothing is visible, hold position. The returned point only shapes the
    objective; it never generates constraints.
    """
    params = view.params
    position, goal = view.positions[me], view.goals[me]
    radius = float(view.radii[me])
    outranking = np.flatnonzero(view.outranks[me])

    if outranking.size:
        # argmin keeps the first of equal gaps, which is the lowest row.
        nearest = outranking[np.argmin(view.gaps[me, outranking])]
        q_position = view.positions[nearest]
        gap = float(view.gaps[me, nearest])
        if gap < params.repulsion_trigger_dist:
            away = position - q_position
            if math.hypot(away[0], away[1]) < _STACKED_EPS:
                # Vertically stacked: push horizontally, fixed +x tie-break,
                # rather than amplifying the downwash hazard.
                direction = np.array([1.0, 0.0, 0.0])
            else:
                direction = away / gap
            return q_position + params.repulsion_dist * direction

    obstacles = [(view.positions[j], float(view.radii[j])) for j in outranking]
    # Goal planning only shapes the objective (the QP corridors carry
    # safety), so its clearance rules are biased by a quarter cell in each
    # direction: paths keep extra clearance and visibility needs a little
    # less. Without the bias, a waypoint whose cell center sits exactly on
    # the conservative clearance threshold is approached asymptotically from
    # the blind side and the agent parks at the edge forever.
    pad = grid.resolution / 4
    seeing = max(0.0, radius - pad)
    routing = radius + pad
    if grid.line_of_sight_free(position, goal, seeing, obstacles, downwash=params.downwash):
        # Straight shot: the search would end at the goal anyway.
        return goal.copy()

    path = grid.astar(
        position,
        goal,
        routing,
        obstacles,
        budget=params.astar_budget,
        downwash=params.downwash,
    )
    if path is None and obstacles:
        path = grid.astar(position, goal, routing, (), budget=params.astar_budget)
    if path is None:
        raise GoalUnreachableError(f"agent {me}: no grid path to goal {goal.tolist()}")
    # The goal itself was just found blocked from here, so only the path's
    # waypoints remain; one batched query tests every sight line.
    visible = np.flatnonzero(
        grid.sight_lines_free(position, path, seeing, obstacles, downwash=params.downwash)
    )
    if visible.size:
        return path[visible[-1]].copy()
    return position.copy()
