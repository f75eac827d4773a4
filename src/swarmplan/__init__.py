"""Decentralized multi-quadrotor trajectory planning.

Each agent repeatedly solves a small convex QP over piecewise Bernstein
control points. Safety comes from two families of linear constraints built
from the previous step's trajectories: axis-aligned safe boxes against the
static world, and pairwise separating half-spaces against other agents.
The shifted previous trajectory is always a feasible point of the QP, so
replanning never fails. A synchronized simulator and an independent offline
verifier live alongside the planner.
"""

from swarmplan.errors import (
    GoalUnreachableError,
    InfeasibleSeedError,
    LogFormatError,
    PlannerError,
    QpInfeasibleError,
    SafetyDegeneracyError,
    ScenarioGenerationError,
    StepAbortError,
)
from swarmplan.params import PlanningParams

__all__ = [
    "GoalUnreachableError",
    "InfeasibleSeedError",
    "LogFormatError",
    "PlannerError",
    "PlanningParams",
    "QpInfeasibleError",
    "SafetyDegeneracyError",
    "ScenarioGenerationError",
    "StepAbortError",
]

__version__ = "0.1.0"
