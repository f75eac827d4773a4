import math

import numpy as np
import pytest

from swarmplan.params import PlanningParams

NAN = math.nan
INF = math.inf


@pytest.mark.parametrize(
    "changes",
    [
        {"degree": 5.5},
        {"degree": 0},
        {"degree": 11},
        {"degree": True},
        {"segment_count": 0},
        {"segment_count": 2.0},
        {"astar_budget": 0},
        {"astar_budget": 1e4},
        {"qp_max_iterations": -1},
        {"qp_max_iterations": 10.5},
        {"segment_time": 0.0},
        {"segment_time": NAN},
        {"segment_time": INF},
        {"agent_radius": -0.15},
        {"agent_radius": NAN},
        {"downwash": 0.5},
        {"downwash": NAN},
        {"downwash": INF},
        {"max_velocity": (0.0, 0.0, 0.0)},
        {"max_velocity": (1.0, 1.0, -1.0)},
        {"max_velocity": (1.0, NAN, 1.0)},
        {"max_acceleration": (2.0, 0.0, 2.0)},
        {"max_acceleration": (INF, 2.0, 2.0)},
        {"goal_reach_dist": 0.0},
        {"goal_reach_dist": NAN},
        {"repulsion_dist": -0.5},
        {"qp_tolerance": 0.0},
        {"qp_tolerance": NAN},
        {"safety_buffer": -1e-6},
        {"safety_buffer": 0.0},
        {"safety_buffer": NAN},
        {"jerk_weight": -0.01},
        {"jerk_weight": NAN},
        {"goal_weights": (1.0, 1.0, -1.0, 1.0, 1.0)},
        {"goal_weights": (1.0, 1.0, NAN, 1.0, 1.0)},
        {"goal_weights": (1.0, 1.0)},
        {"repulsion_trigger_dist": -0.4},
        {"repulsion_trigger_dist": INF},
        # The equalities pin every control point when
        # segment_count * (degree - 2) <= degree.
        {"degree": 1, "segment_count": 5},
        {"degree": 2, "segment_count": 5},
        {"degree": 3, "segment_count": 3},
        {"degree": 5, "segment_count": 1, "goal_weights": (1.0,)},
    ],
    ids=lambda changes: "-".join(f"{k}={v}" for k, v in changes.items()),
)
def test_rejects_what_the_planner_cannot_run(changes):
    with pytest.raises(ValueError):
        PlanningParams(**changes)


def test_accepts_the_boundary_values():
    params = PlanningParams(
        degree=np.int64(10),
        qp_max_iterations=0,
        downwash=1.0,
        jerk_weight=0.0,
        goal_weights=(0.0,) * 5,
        repulsion_trigger_dist=0.0,
    )
    assert params.degree == 10 and params.qp_max_iterations == 0
    for degree, count in ((3, 4), (5, 2)):
        params = PlanningParams(degree=degree, segment_count=count)
        assert (params.degree, params.segment_count) == (degree, count)
    assert PlanningParams.from_dict(PlanningParams().to_dict()) == PlanningParams()
