"""One agent's synchronized replanning step.

The swarm-wide work of a step is done once from what the swarm holds: the
plans the agents last flew, one (N, M, n+1, 3) array of control points
(row i is agent i's; before step 0 each holds still at its start), their
goals and radii. Shift the plans by one segment, build the pairwise
separating half-spaces of every pair, and build the goal-planning view.
Every agent then runs the same recipe on those inputs: gather its own pair
rows, pick a goal, rebuild its safe-box corridor from its slice of the
shifted plans, and solve the QP warm-started at its shifted plan. The
shifted plan provably satisfies every constraint, so if the solver ever
fails numerically the agent just flies the shifted plan; safety never
depends on the solver succeeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import shift_for_initial
# build_pair_separations is not called here: it is imported because
# perfbench/tracing.py patches it under this module's name.
from swarmplan.corridor import (
    PairTable,
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
    """Mutable per-agent carry-over between steps (owned by one caller):
    the step the agent plans next and the corridor it last flew in."""

    agent_id: int
    params: PlanningParams
    step: int = 0
    previous_corridor: np.ndarray | None = None


@dataclass(frozen=True)
class ShiftedPlans:
    """Every agent's plan shifted to the step that starts at `start_time`:
    `points` (N, M, n+1, 3), read-only, row i agent i's."""

    start_time: float
    points: np.ndarray


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
    trajectory: np.ndarray
    corridor: np.ndarray
    diagnostics: StepDiagnostics


def initial_trajectories(plans: np.ndarray, now: float) -> ShiftedPlans:
    """The plans the agents last flew, (N, M, n+1, 3), shifted to the step
    that starts at `now`: identical on every caller, so decentralized
    planners agree bit for bit."""
    return ShiftedPlans(now, shift_for_initial(plans))


def shared_pair_separations(
    inits: ShiftedPlans,
    radii,
    params: PlanningParams,
) -> PairTable:
    """Separating half-spaces for every unordered pair, through one
    separate_pairs call on the shifted plans.

    Radii are indexed by agent, and the table's pairs run (low, high) in
    row-major upper-triangle order. Each pair's result does not depend on
    the batch it is built in.
    """
    low, high = np.triu_indices(len(inits.points), k=1)
    radius = np.array(radii, dtype=float)
    return separate_pairs(
        inits.points,
        low,
        high,
        radius[low] + radius[high],
        params.downwash,
        params.safety_buffer,
    )


def goal_view(
    inits: ShiftedPlans,
    goals,
    radii,
    params: PlanningParams,
) -> SwarmView:
    """Every agent's motion over its shifted plan, from its first and last
    control points, and the priority relation between them: the
    goal-planning view all agents of a step share. Goals and radii are
    indexed by agent."""
    return swarm_view_from_arrays(
        inits.points[:, 0, 0],
        inits.points[:, -1, -1],
        np.array(goals, dtype=float),
        np.array(radii, dtype=float),
        params,
    )


def plan_step(
    state: PlannerState,
    grid: OccupancyGrid,
    inits: ShiftedPlans,
    pairs: PairTable,
    view: SwarmView,
) -> PlanStepResult:
    """Produce this agent's next trajectory from the step's shared inputs.

    Every agent of a step reads the same three inputs, built once for the
    whole swarm: the shifted plans (`initial_trajectories`), the
    table of per-pair separating half-spaces (`shared_pair_separations`),
    from which the agent gathers its own rows, and the goal-planning view
    with its priority relation and radii (`goal_view`). The corridor is
    grown for the view's radius, the one the pair table was built with.
    An agent is its row in every input. Raises ValueError when an input
    lacks this agent's row, and StepAbortError when the inputs are not
    shifted to the agent's step or a sub-step detects broken assumptions
    (occupied seed, unreachable goal); solver failures are absorbed by
    falling back to the shifted previous plan.
    """
    params = state.params
    me = state.agent_id
    if not all(0 <= me < len(rows) for rows in (inits.points, pairs.points, view.positions)):
        raise ValueError(f"shared inputs are missing agent {me}")

    try:
        if abs(inits.start_time - state.step * params.segment_time) > _SYNC_TOL:
            raise PlannerError("shared inputs are not synchronized to this step")
        my_init = inits.points[me]
        normals, anchors, margins = pairs.rows_for(me)
        goal = plan_current_goal(view, me, grid)
        corridor = advance_corridor(
            state.previous_corridor, my_init, grid, float(view.radii[me]),
            toward=goal - my_init[-1, -1],
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

    trajectory = trajectory_from_values(solution.values, params)
    return PlanStepResult(trajectory, corridor, diagnostics)

