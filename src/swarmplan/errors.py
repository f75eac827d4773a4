"""Exception types shared across the planner stack."""


class PlannerError(Exception):
    """Base class for all planning-stack errors."""


class InfeasibleSeedError(PlannerError):
    """A safe-box seed point is not obstacle-free under the required inflation.

    Raised when the collision-free premise of corridor construction is
    violated, e.g. an agent starts inside an inflated obstacle.
    """


class SafetyDegeneracyError(PlannerError):
    """Relative control points touch or penetrate the inter-agent collision model.

    Signals a violated feasibility premise: a separating half-space cannot be
    certified, so the step must abort rather than emit an unsafe constraint.
    """


class GoalUnreachableError(PlannerError):
    """Grid search cannot connect an agent to its goal even ignoring other agents."""


class QpInfeasibleError(PlannerError):
    """The QP solver returned no point within tolerance.

    Causes: an infeasible start, inconsistent equalities, a singular linear
    system, an exhausted iteration budget, or a result outside tolerance.

    Under the planner's construction this indicates a numerical failure, not a
    genuinely infeasible problem; callers fall back to the shifted previous
    trajectory, which is feasible by construction.
    """

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


class StepAbortError(PlannerError):
    """A replanning step aborted because a sub-module detected violated assumptions."""

    def __init__(self, message, agent_id=None):
        super().__init__(message)
        self.agent_id = agent_id


class ScenarioGenerationError(PlannerError):
    """Random scenario generation could not satisfy clearance invariants."""


class LogFormatError(PlannerError):
    """Run logs are malformed or truncated and cannot be verified."""
