"""One agent's synchronized replanning step.

The swarm-wide work of a step is done once from what the swarm holds: the
agents' previous plans (or their start positions at step 0), goals and
radii. Shift the previous plans by one segment, build the pairwise
separating half-spaces of every pair, and build the goal-planning view.
Every agent then runs the same recipe on those inputs: gather its own pair
rows, pick a goal, rebuild its safe-box corridor, and solve the QP
warm-started at the shifted plan. The shifted plan provably satisfies every
constraint, so if the solver ever fails numerically the agent just flies
the shifted plan; safety never depends on the solver succeeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import PiecewiseTrajectory, shift_for_initial
# build_pair_separations is not called here: it is imported because
# perfbench/tracing.py patches it under this module's name.
from swarmplan.corridor import (
    PairTable,
    SafeBoxCorridor,
    advance_corridor,
    build_pair_separations,
    separate_pairs,
)
from swarmplan.errors import PlannerError, QpInfeasibleError, StepAbortError
from swarmplan.goalplan import SwarmView, plan_current_goal, swarm_view_from_arrays
from swarmplan.params import PlanningParams
from swarmplan.qp import assemble, solve, trajectory_from_values
from swarmplan.world import OccupancyGrid

#: Largest constraint violation tolerated on the shifted plan before a step
#: aborts; anything beyond this means an assumption was broken upstream.
CANDIDATE_TOL = 1e-9

_SYNC_TOL = 1e-9


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
    previous: list[PiecewiseTrajectory | None],
    starts: list,
    params: PlanningParams,
    now: float,
) -> dict[int, PiecewiseTrajectory]:
    """Every agent's previous plan shifted to this step, by agent id
    (identically on every caller, so decentralized planners agree
    bit-for-bit). Both lists are indexed by agent id; an agent's start is
    read only where it has no previous plan, which is step 0."""
    return {
        i: shift_for_initial(
            prev,
            starts[i] if prev is None else None,
            segment_count=params.segment_count,
            degree=params.degree,
            segment_time=params.segment_time,
            start_time=now,
        )
        for i, prev in enumerate(previous)
    }


def shared_pair_separations(
    inits: dict[int, PiecewiseTrajectory],
    radii,
    params: PlanningParams,
) -> PairTable:
    """Separating half-spaces for every unordered pair, through one batched
    separate_pairs call.

    Radii are indexed by agent id. The table's trajectories are the agents
    in ascending id order, and its pairs run (low, high) in row-major
    upper-triangle order. Each pair's result does not depend on the batch
    it is built in.
    """
    ids = sorted(inits)
    low, high = np.triu_indices(len(ids), k=1)
    radius = np.array([radii[i] for i in ids], dtype=float)
    return separate_pairs(
        [inits[i] for i in ids],
        low,
        high,
        radius[low] + radius[high],
        params.downwash,
        params.safety_buffer,
        ids,
    )


def goal_view(
    inits: dict[int, PiecewiseTrajectory],
    goals,
    radii,
    params: PlanningParams,
) -> SwarmView:
    """Every agent's motion over its shifted plan, and the priority relation
    between them: the goal-planning view all agents of a step share. Goals
    and radii are indexed by agent id."""
    ids = sorted(inits)
    return swarm_view_from_arrays(
        ids,
        np.array([inits[i].segments[0].control_points[0] for i in ids]),
        np.array([inits[i].segments[-1].control_points[-1] for i in ids]),
        np.array([goals[i] for i in ids]),
        np.array([radii[i] for i in ids], dtype=float),
        params,
    )


def plan_step(
    state: PlannerState,
    grid: OccupancyGrid,
    inits: dict[int, PiecewiseTrajectory],
    pairs: PairTable,
    view: SwarmView,
) -> PlanStepResult:
    """Produce this agent's next trajectory from the step's shared inputs.

    Every agent of a step reads the same three inputs, built once for the
    whole swarm: the shifted plans (`initial_trajectories`), the
    table of per-pair separating half-spaces (`shared_pair_separations`),
    from which the agent gathers its own rows, and the goal-planning view
    with its priority relation (`goal_view`). Raises ValueError when the
    inputs lack this agent, and StepAbortError when they are not shifted to
    this step or a sub-step detects broken assumptions (occupied seed,
    unreachable goal); solver failures are absorbed by falling back to the
    shifted previous plan.
    """
    params = state.params
    me = state.agent_id
    if me not in inits:
        raise ValueError(f"shared inputs are missing agent {me}")
    if state.previous_trajectory is not None:
        now = state.previous_trajectory.start_time + params.segment_time
    else:
        now = 0.0

    try:
        my_init = inits[me]
        if abs(my_init.start_time - now) > _SYNC_TOL:
            raise PlannerError("shared inputs are not synchronized to this step")
        normals, anchors, margins = pairs.rows_for(me)
        goal = plan_current_goal(view, me, grid)

        terminal = my_init.segments[-1].control_points[-1]
        corridor = advance_corridor(
            state.previous_corridor, my_init, grid, state.radius,
            toward=goal - terminal,
        )
    except PlannerError as exc:
        raise StepAbortError(f"agent {me}: {exc}", agent_id=me) from exc

    problem, candidate = assemble(
        my_init, goal, corridor, normals, anchors, margins, params
    )
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

