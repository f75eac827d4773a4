import sys
from pathlib import Path

import pytest

# Make the oracle helpers importable regardless of how pytest is invoked.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def recorded_runs(tmp_path_factory):
    """Short runs with their goal-planning views and assembled QPs.

    Returns {name: (log_dir, views, problems)}: the run's log directory
    (read-only: tests that tamper with logs copy it first), every
    `sim.goal_view` result and every `(problem, candidate, params)` that
    `plan_step` assembled, for the stock 32-agent circle (31 separations
    per QP), indoor-8 seed 2 (7), and two- and one-agent circles (1 and 0).
    """
    from swarmplan import planner, sim
    from swarmplan.scenarios import generate_scenario

    runs = {
        "circle-32": generate_scenario("circle", 32, seed=1, timeout=1.2),
        "indoor-8": generate_scenario("indoor", 8, seed=2, timeout=3.0),
        "circle-2": generate_scenario("circle", 2, seed=1, timeout=1.0),
        "circle-1": generate_scenario("circle", 1, seed=1, timeout=0.6),
    }
    real_view, real_assemble = sim.goal_view, planner.assemble
    out = {}
    for name, scenario in runs.items():
        views, problems = [], []

        def goal_view(*args):
            views.append(real_view(*args))
            return views[-1]

        def assemble(*args):
            problem, candidate = real_assemble(*args)
            problems.append((problem, candidate, args[-1]))
            return problem, candidate

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "goal_view", goal_view)
            patch.setattr(planner, "assemble", assemble)
            log_dir = tmp_path_factory.mktemp(name)
            metrics = sim.run(scenario, log_dir)
        assert metrics.error is None
        out[name] = (log_dir, views, problems)
    return out


@pytest.fixture(scope="session")
def recorded_steps(recorded_runs):
    """{name: (views, problems)} of `recorded_runs`."""
    return {name: (views, problems) for name, (_, views, problems) in recorded_runs.items()}
