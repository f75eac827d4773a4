"""One agent's synchronized replanning step.

Every agent runs the same recipe on the same shared snapshot: shift the
previous plans by one segment, rebuild the safe-box corridor, build pairwise
separating half-spaces against every other agent, pick a goal, and solve the
QP warm-started at the shifted plan. The shifted plan provably satisfies
every constraint, so if the solver ever fails numerically the agent just
flies the shifted plan; safety never depends on the solver succeeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import PiecewiseTrajectory, shift_for_initial
from swarmplan.corridor import (
    PairSeparation,
    SafeBoxCorridor,
    advance_corridor,
    build_pair_separations,
    separate_pairs,
)
from swarmplan.errors import PlannerError, QpInfeasibleError, StepAbortError
from swarmplan.geometry import EllipsoidModel
from swarmplan.goalplan import SwarmView, plan_current_goal, swarm_view_from_arrays
from swarmplan.params import PlanningParams
from swarmplan.qp import assemble, solve, trajectory_from_values
from swarmplan.world import OccupancyGrid

#: Largest constraint violation tolerated on the shifted plan before a step
#: aborts; anything beyond this means an assumption was broken upstream.
CANDIDATE_TOL = 1e-9

_SYNC_TOL = 1e-9


@dataclass(frozen=True)
class AgentSnapshot:
    """One agent's communicated state: everything others need to plan."""

    agent_id: int
    radius: float
    position: np.ndarray
    goal: np.ndarray
    previous_trajectory: PiecewiseTrajectory | None

    def __post_init__(self):
        for name in ("position", "goal"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass
class PlannerState:
    """Mutable per-agent carry-over between steps (owned by one caller)."""

    agent_id: int
    radius: float
    params: PlanningParams
    previous_trajectory: PiecewiseTrajectory | None = None
    previous_corridor: SafeBoxCorridor | None = None


@dataclass
class StepDiagnostics:
    goal: np.ndarray
    candidate_violation: float
    solve_iterations: int = 0
    objective: float = float("nan")
    used_fallback: bool = False
    fallback_reason: str | None = None


@dataclass
class PlanStepResult:
    trajectory: PiecewiseTrajectory
    corridor: SafeBoxCorridor
    diagnostics: StepDiagnostics


def initial_trajectories(
    snapshots: list[AgentSnapshot], params: PlanningParams, now: float = 0.0
) -> dict[int, PiecewiseTrajectory]:
    """Shift every agent's previous plan to this step (identically on every
    caller, so decentralized planners agree bit-for-bit)."""
    out = {}
    for snap in snapshots:
        out[snap.agent_id] = shift_for_initial(
            snap.previous_trajectory,
            snap.position,
            segment_count=params.segment_count,
            degree=params.degree,
            segment_time=params.segment_time,
            start_time=now,
        )
    return out


def shared_pair_separations(
    inits: dict[int, PiecewiseTrajectory],
    radii: dict[int, float],
    params: PlanningParams,
) -> dict[tuple[int, int], tuple[PairSeparation, PairSeparation]]:
    """Separating half-spaces for every unordered pair, computed once.

    Keyed (low_id, high_id); values are (constraints for low, for high).
    All pairs go through one batched separate_pairs call; each pair's result
    is bit-identical to build_pair_separations on that pair alone.
    """
    ids = sorted(inits)
    low, high = np.triu_indices(len(ids), k=1)
    radius = np.array([radii[i] for i in ids], dtype=float)
    pairs = separate_pairs(
        [inits[i] for i in ids],
        low,
        high,
        radius[low] + radius[high],
        params.downwash,
        params.safety_buffer,
        ids,
    )
    return {(ids[a], ids[b]): pair for a, b, pair in zip(low, high, pairs)}


def goal_view(
    snapshots: list[AgentSnapshot],
    inits: dict[int, PiecewiseTrajectory],
    params: PlanningParams,
) -> SwarmView:
    """Every agent's motion over its shifted plan, and the priority relation
    between them: the goal-planning view all agents of a step share. The
    arrays are built straight from the snapshots and shifted plans."""
    by_id = {snap.agent_id: snap for snap in snapshots}
    ids = sorted(by_id)
    return swarm_view_from_arrays(
        ids,
        np.array([inits[i].segments[0].control_points[0] for i in ids]),
        np.array([inits[i].segments[-1].control_points[-1] for i in ids]),
        np.array([by_id[i].goal for i in ids]),
        np.array([by_id[i].radius for i in ids], dtype=float),
        params,
    )


def plan_step(
    state: PlannerState,
    snapshots: list[AgentSnapshot],
    grid: OccupancyGrid,
    pair_separations=None,
    inits: dict[int, PiecewiseTrajectory] | None = None,
    view: SwarmView | None = None,
) -> PlanStepResult:
    """Produce this agent's next trajectory from the synchronized snapshot.

    `pair_separations`, `inits` and `view` let a simulator driving many
    agents do the swarm-wide work once per step: the shifted plans, the
    per-pair separating half-spaces and the goal-planning view with its
    priority relation (`goal_view`). Each defaults to local recomputation
    through the same functions, which is bit-identical. Raises
    StepAbortError when a sub-step detects broken assumptions (colliding
    start, occupied seed, unreachable goal); solver failures are absorbed
    by falling back to the shifted previous plan.
    """
    params = state.params
    me = state.agent_id
    by_id = {snap.agent_id: snap for snap in snapshots}
    if me not in by_id:
        raise ValueError(f"snapshot list is missing agent {me}")
    if state.previous_trajectory is not None:
        now = state.previous_trajectory.start_time + params.segment_time
    else:
        now = 0.0

    try:
        if inits is None:
            inits = initial_trajectories(snapshots, params, now)
        my_init = inits[me]
        if abs(my_init.start_time - now) > _SYNC_TOL:
            raise PlannerError("snapshots are not synchronized to this step")

        mine = []
        for other in sorted(by_id):
            if other == me:
                continue
            low, high = min(me, other), max(me, other)
            if pair_separations is not None and (low, high) in pair_separations:
                pair = pair_separations[(low, high)]
            else:
                model = EllipsoidModel(
                    state.radius + by_id[other].radius, params.downwash
                )
                pair = build_pair_separations(
                    inits[low], inits[high], model, params.safety_buffer, (low, high)
                )
            mine.append(pair[0] if me == low else pair[1])

        if view is None:
            view = goal_view(snapshots, inits, params)
        goal = plan_current_goal(view, me, grid)

        terminal = my_init.segments[-1].control_points[-1]
        corridor = advance_corridor(
            state.previous_corridor, my_init, grid, state.radius,
            toward=goal - terminal,
        )
    except PlannerError as exc:
        raise StepAbortError(f"agent {me}: {exc}", agent_id=me) from exc

    problem, candidate = assemble(my_init, goal, corridor, mine, params)
    report = problem.check(candidate)
    diagnostics = StepDiagnostics(goal=goal, candidate_violation=report.max_violation())
    if diagnostics.candidate_violation > CANDIDATE_TOL:
        raise StepAbortError(
            f"agent {me}: shifted plan violates its own constraints by "
            f"{diagnostics.candidate_violation:.3e}; planning assumptions broken",
            agent_id=me,
        )

    try:
        solution = solve(
            problem,
            tol=params.qp_tolerance,
            warm_start=candidate,
            max_iterations=params.qp_max_iterations,
        )
    except QpInfeasibleError as exc:
        diagnostics.used_fallback = True
        diagnostics.fallback_reason = str(exc)
        diagnostics.solve_iterations = exc.iterations
        return PlanStepResult(my_init, corridor, diagnostics)

    diagnostics.solve_iterations = solution.iterations
    diagnostics.objective = solution.objective
    if solution.objective > problem.objective(candidate) + params.qp_tolerance:
        diagnostics.used_fallback = True
        diagnostics.fallback_reason = "solver regressed below the feasible candidate"
        return PlanStepResult(my_init, corridor, diagnostics)

    trajectory = trajectory_from_values(solution.values, params, now)
    return PlanStepResult(trajectory, corridor, diagnostics)

