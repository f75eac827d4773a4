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

    @property
    def goal_distance(self) -> float:
        return float(np.linalg.norm(self.position - self.goal))


@dataclass(frozen=True)
class GoalContext:
    """Shared per-step view used by one agent's goal planning."""

    self_id: int
    agents: dict[int, AgentMotion]
    params: PlanningParams

    def __post_init__(self):
        if self.self_id not in self.agents:
            raise ValueError(f"agent {self.self_id} missing from context")


def higher_priority_ids(ctx: GoalContext) -> set[int]:
    """Neighbors this agent must yield to.

    A neighbor outranks us when it is strictly closer to its goal (ties go to
    the lower id), has not reached it, and is not clearly receding from us
    over its planning horizon. Once we are goal-reached ourselves we yield
    to every agent still under way, so parked agents never block traffic.

    "Clearly receding" means its horizon displacement projected onto the
    line toward us falls below a small fraction of what it could fly in one
    horizon. Blocked agents do not hold still: they slide tangentially
    along their separating planes, so the projection hovers around zero
    with either sign; a strict greater-than-zero test would let two blocked
    agents facing off in a doorway both stop yielding and freeze forever.
    """
    me = ctx.agents[ctx.self_id]
    my_dist = me.goal_distance
    reach = ctx.params.goal_reach_dist
    self_reached = my_dist < reach
    recede_slack = 0.05 * ctx.params.horizon * max(ctx.params.max_velocity)
    out = set()
    for other_id, other in ctx.agents.items():
        if other_id == ctx.self_id:
            continue
        other_dist = other.goal_distance
        other_reached = other_dist < reach
        closer = other_dist < my_dist or (other_dist == my_dist and other_id < ctx.self_id)
        under_way = other_dist > reach
        gap = float(np.linalg.norm(me.position - other.position))
        toward_me = float(
            (other.horizon_end - other.position) @ (me.position - other.position)
        ) / max(gap, 1e-9)
        not_receding = toward_me >= -recede_slack
        if (closer and under_way and not_receding) or (self_reached and not other_reached):
            out.add(other_id)
    return out


def plan_current_goal(ctx: GoalContext, grid: OccupancyGrid) -> np.ndarray:
    """Pick this step's tracking target.

    If the nearest higher-priority agent is too close, the target pushes
    straight away from it. Otherwise plan a grid path to the final goal with
    higher-priority agents as obstacles (retrying without them if blocked)
    and return the farthest waypoint along it with a clear line of sight; when
    nothing is visible, hold position. The returned point only shapes the
    objective; it never generates constraints.
    """
    me = ctx.agents[ctx.self_id]
    params = ctx.params
    priority = higher_priority_ids(ctx)

    if priority:
        nearest = min(
            priority,
            key=lambda j: (float(np.linalg.norm(me.position - ctx.agents[j].position)), j),
        )
        q = ctx.agents[nearest]
        gap = float(np.linalg.norm(me.position - q.position))
        if gap < params.repulsion_trigger_dist:
            away = me.position - q.position
            if math.hypot(away[0], away[1]) < _STACKED_EPS:
                # Vertically stacked: push horizontally, fixed +x tie-break,
                # rather than amplifying the downwash hazard.
                direction = np.array([1.0, 0.0, 0.0])
            else:
                direction = away / gap
            return q.position + params.repulsion_dist * direction

    obstacles = [
        (ctx.agents[j].position, ctx.agents[j].radius) for j in sorted(priority)
    ]
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
            f"agent {ctx.self_id}: no grid path to goal {me.goal.tolist()}"
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
