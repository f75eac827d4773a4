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
class AgentMotion:
    """What goal planning needs to know about one agent at this step."""

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


@dataclass(frozen=True)
class SwarmView:
    """Shared per-step view of the swarm for goal planning, built once per
    step by `swarm_view` and read by every agent's `plan_current_goal`.

    `ids` lists the agents in ascending order; `rows` maps an id back to
    its index in `ids`, `motions` and both arrays. `gaps[a, b]` is the
    distance between agents ids[a] and ids[b], and `outranks[a, b]` says
    agent ids[b] has priority over agent ids[a].
    """

    params: PlanningParams
    ids: tuple[int, ...]
    rows: dict[int, int]
    motions: tuple[AgentMotion, ...]
    gaps: np.ndarray
    outranks: np.ndarray


def swarm_view(agents: dict[int, AgentMotion], params: PlanningParams) -> SwarmView:
    """Gaps and the priority relation between every pair of agents.

    Agent b outranks agent a when b is strictly closer to its goal (ties go
    to the lower id), has not reached it, and is not clearly receding from
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
    ids = tuple(sorted(agents))
    motions = tuple(agents[i] for i in ids)
    position = np.array([m.position for m in motions])
    goal = np.array([m.goal for m in motions])
    horizon_end = np.array([m.horizon_end for m in motions])

    to_goal = position - goal
    goal_dist = np.sqrt(np.vecdot(to_goal, to_goal))
    toward = position[:, None, :] - position[None, :, :]  # [a, b]: from b to a
    gaps = np.sqrt(np.vecdot(toward, toward))
    toward_me = np.vecdot(horizon_end - position, toward) / np.maximum(gaps, 1e-9)

    reach = params.goal_reach_dist
    recede_slack = 0.05 * params.horizon * max(params.max_velocity)
    order = np.arange(len(ids))
    closer = (goal_dist[None, :] < goal_dist[:, None]) | (
        (goal_dist[None, :] == goal_dist[:, None]) & (order[None, :] < order[:, None])
    )
    reached = goal_dist < reach
    under_way = goal_dist > reach
    outranks = (closer & under_way[None, :] & (toward_me >= -recede_slack)) | (
        reached[:, None] & ~reached[None, :]
    )
    rows = {i: row for row, i in enumerate(ids)}
    return SwarmView(params, ids, rows, motions, gaps, outranks)


def plan_current_goal(view: SwarmView, self_id: int, grid: OccupancyGrid) -> np.ndarray:
    """Pick this step's tracking target for agent `self_id`.

    If the nearest higher-priority agent is too close, the target pushes
    straight away from it. Otherwise plan a grid path to the final goal with
    higher-priority agents as obstacles (retrying without them if blocked)
    and return the farthest waypoint along it with a clear line of sight; when
    nothing is visible, hold position. The returned point only shapes the
    objective; it never generates constraints.
    """
    params = view.params
    row = view.rows[self_id]
    me = view.motions[row]
    outranking = np.flatnonzero(view.outranks[row])

    if outranking.size:
        # argmin keeps the first of equal gaps, which is the lowest id.
        nearest = outranking[np.argmin(view.gaps[row, outranking])]
        q = view.motions[nearest]
        gap = float(view.gaps[row, nearest])
        if gap < params.repulsion_trigger_dist:
            away = me.position - q.position
            if math.hypot(away[0], away[1]) < _STACKED_EPS:
                # Vertically stacked: push horizontally, fixed +x tie-break,
                # rather than amplifying the downwash hazard.
                direction = np.array([1.0, 0.0, 0.0])
            else:
                direction = away / gap
            return q.position + params.repulsion_dist * direction

    obstacles = [(view.motions[j].position, view.motions[j].radius) for j in outranking]
    # Goal planning only shapes the objective (the QP corridors carry
    # safety), so its clearance rules are biased by a quarter cell in each
    # direction: paths keep extra clearance and visibility needs a little
    # less. Without the bias, a waypoint whose cell center sits exactly on
    # the conservative clearance threshold is approached asymptotically from
    # the blind side and the agent parks at the edge forever.
    pad = grid.resolution / 4
    seeing = max(0.0, me.radius - pad)
    routing = me.radius + pad
    if grid.line_of_sight_free(
        me.position, me.goal, seeing, obstacles, downwash=params.downwash
    ):
        # Straight shot: the search would end at the goal anyway.
        return me.goal.copy()

    path = grid.astar(
        me.position,
        me.goal,
        routing,
        obstacles,
        budget=params.astar_budget,
        downwash=params.downwash,
    )
    if path is None and obstacles:
        path = grid.astar(me.position, me.goal, routing, (), budget=params.astar_budget)
    if path is None:
        raise GoalUnreachableError(
            f"agent {self_id}: no grid path to goal {me.goal.tolist()}"
        )
    # The goal itself was just found blocked from here, so only the path's
    # waypoints remain; one batched query tests every sight line.
    visible = np.flatnonzero(
        grid.sight_lines_free(
            me.position, path.waypoints, seeing, obstacles, downwash=params.downwash
        )
    )
    if visible.size:
        return path.waypoints[visible[-1]].copy()
    return me.position.copy()
