import numpy as np
import pytest

from swarmplan import qp
from swarmplan.bernstein import shift_for_initial
from swarmplan.errors import SafetyDegeneracyError, StepAbortError
from swarmplan.params import PlanningParams
from swarmplan.planner import (
    PlannerState,
    goal_view,
    initial_trajectories,
    plan_step,
    shared_pair_separations,
)
from swarmplan.world import OccupancyGrid

from helpers import end_time, position_at, state_at

PARAMS = PlanningParams()


def empty_grid(extent=(3.0, 3.0, 2.0)):
    return OccupancyGrid(0.1, (0, 0, 0), extent)


class MiniSwarm:
    """Drive a few agents through synchronized steps (no logging)."""

    def __init__(self, starts, goals, grid, params=PARAMS):
        self.grid = grid
        self.params = params
        self.starts = [np.asarray(s, dtype=float) for s in starts]
        self.goals = [np.asarray(g, dtype=float) for g in goals]
        self.radii = [params.agent_radius] * len(starts)
        self.states = [
            PlannerState(agent_id=i, radius=params.agent_radius, params=params)
            for i in range(len(starts))
        ]
        self.positions = list(self.starts)
        self.time = 0.0
        self.diagnostics = []

    def shared_inputs(self):
        """The step's shifted plans, pair table and goal view, as sim.run
        builds them once for all agents."""
        previous = [state.previous_trajectory for state in self.states]
        inits = initial_trajectories(previous, self.starts, self.params, self.time)
        pairs = shared_pair_separations(inits, self.radii, self.params)
        return inits, pairs, goal_view(inits, self.goals, self.radii, self.params)

    def step(self):
        """One synchronized step."""
        shared = self.shared_inputs()
        results = [plan_step(state, self.grid, *shared) for state in self.states]
        self.time += self.params.segment_time
        for state, result in zip(self.states, results):
            state.previous_trajectory = result.trajectory
            state.previous_corridor = result.corridor
            # Perfect tracking, as in sim.run: the flown segment's end.
            self.positions[state.agent_id] = result.trajectory.segments[0].control_points[-1]
            self.diagnostics.append(result.diagnostics)
        return results

    def run(self, steps):
        for _ in range(steps):
            self.step()

    def goal_distances(self):
        return [
            float(np.linalg.norm(p - g)) for p, g in zip(self.positions, self.goals)
        ]


class TestSingleAgent:
    def test_reaches_goal(self):
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.0, 1.5, 1.0)], empty_grid())
        swarm.run(40)
        assert swarm.goal_distances()[0] < 1e-3
        assert not any(d.used_fallback for d in swarm.diagnostics)

    def test_continuity_across_replans(self):
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], empty_grid())
        prev = None
        for _ in range(10):
            swarm.step()
            traj = swarm.states[0].previous_trajectory
            if prev is not None:
                t = traj.start_time
                for a, b in zip(state_at(prev, t), state_at(traj, t)):
                    assert np.linalg.norm(a - b) < 1e-6
            prev = traj

    def test_candidate_always_feasible(self):
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], empty_grid())
        swarm.run(25)
        assert all(d.candidate_violation <= 1e-9 for d in swarm.diagnostics)


class TestTwoAgents:
    def test_head_on_swap_keeps_separation(self):
        grid = empty_grid()
        swarm = MiniSwarm(
            [(0.6, 1.5, 1.0), (2.4, 1.5, 1.0)],
            [(2.4, 1.5, 1.0), (0.6, 1.5, 1.0)],
            grid,
        )
        scale = np.array([1.0, 1.0, 1.0 / PARAMS.downwash])
        min_dist = np.inf
        for _ in range(60):
            swarm.step()
            # The safety claim covers the whole planned horizon, not just
            # the flown segment.
            ta = swarm.states[0].previous_trajectory
            tb = swarm.states[1].previous_trajectory
            for t in np.linspace(ta.start_time, end_time(ta), 101):
                delta = (position_at(ta, float(t)) - position_at(tb, float(t))) * scale
                min_dist = min(min_dist, float(np.linalg.norm(delta)))
            if max(swarm.goal_distances()) < PARAMS.goal_reach_dist:
                break
        assert min_dist >= 2 * PARAMS.agent_radius - 1e-6
        assert max(swarm.goal_distances()) < PARAMS.goal_reach_dist
        assert not any(d.used_fallback for d in swarm.diagnostics)
        assert all(d.candidate_violation <= 1e-9 for d in swarm.diagnostics)

    def test_colliding_start_aborts(self):
        grid = empty_grid()
        swarm = MiniSwarm(
            [(1.5, 1.5, 1.0), (1.55, 1.5, 1.0)],
            [(2.5, 1.5, 1.0), (0.5, 1.5, 1.0)],
            grid,
        )
        # The degeneracy surfaces while the step's shared pair table is
        # built, before any agent plans.
        with pytest.raises(SafetyDegeneracyError, match=r"^agents 0 and 1, segment 0: "):
            swarm.step()


class TestDegeneracyNaming:
    # Agents 5 and 9 hover with touching hulls (0.3 m apart on x, radius sum
    # 0.3); agent 2 is clear of both.
    POSITIONS = {2: (0.5, 0.5, 1.0), 5: (1.5, 1.5, 1.0), 9: (1.8, 1.5, 1.0)}

    def test_shared_builder_names_the_pair(self):
        inits = {
            i: shift_for_initial(
                None,
                position,
                segment_count=PARAMS.segment_count,
                degree=PARAMS.degree,
                segment_time=PARAMS.segment_time,
            )
            for i, position in self.POSITIONS.items()
        }
        radii = {i: PARAMS.agent_radius for i in inits}
        with pytest.raises(SafetyDegeneracyError, match=r"^agents 5 and 9, segment 0: "):
            shared_pair_separations(inits, radii, PARAMS)
        for clean in ([2, 5], [2, 9]):
            shared_pair_separations({i: inits[i] for i in clean}, radii, PARAMS)


class TestInputChecks:
    def test_inputs_one_step_off_abort(self):
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], empty_grid())
        stale = swarm.shared_inputs()
        swarm.step()
        ahead = swarm.shared_inputs()
        # Inputs a step behind the state, and a state a step behind its
        # inputs, are both refused.
        with pytest.raises(StepAbortError, match=r"^agent 0: .*not synchronized"):
            plan_step(swarm.states[0], swarm.grid, *stale)
        with pytest.raises(StepAbortError, match=r"^agent 0: .*not synchronized"):
            plan_step(PlannerState(0, PARAMS.agent_radius, PARAMS), swarm.grid, *ahead)

    def test_agent_missing_from_inputs_raises(self):
        swarm = MiniSwarm(
            [(0.5, 0.5, 1.0), (2.5, 0.5, 1.0)], [(2.5, 2.5, 1.5), (0.5, 2.5, 1.5)], empty_grid()
        )
        shared = swarm.shared_inputs()
        with pytest.raises(ValueError, match=r"missing agent 7$"):
            plan_step(PlannerState(7, PARAMS.agent_radius, PARAMS), swarm.grid, *shared)


class TestFallback:
    def test_zero_iteration_budget_returns_shifted_plan(self):
        params = PlanningParams(qp_max_iterations=0)
        grid = empty_grid()
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], grid, params)
        inits, pairs, view = swarm.shared_inputs()
        result = plan_step(swarm.states[0], grid, inits, pairs, view)
        assert result.diagnostics.used_fallback
        assert result.trajectory is inits[0]
        assert np.array_equal(
            result.trajectory.control_point_stack(), inits[0].control_point_stack()
        )

    def test_singular_active_set_system_returns_shifted_plan(self, monkeypatch):
        real = qp._append_row

        def dependent(q, r_inv, row, iterations):
            return real(q, r_inv, np.zeros_like(row), iterations)

        monkeypatch.setattr(qp, "_append_row", dependent)
        grid = empty_grid()
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], grid)
        inits, pairs, view = swarm.shared_inputs()
        result = plan_step(swarm.states[0], grid, inits, pairs, view)
        assert result.diagnostics.used_fallback
        assert "singular active-set system" in result.diagnostics.fallback_reason
        assert result.trajectory is inits[0]

    def test_fallback_is_flyable_over_steps(self):
        params = PlanningParams(qp_max_iterations=0)
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], empty_grid(), params)
        swarm.run(5)
        # Never progresses (always flies the hold trajectory) but never
        # aborts either: the shifted plan stays feasible step after step.
        assert all(d.used_fallback for d in swarm.diagnostics)
        assert swarm.goal_distances()[0] > 1.0


class TestStaticSafety:
    def test_obstacle_map_trajectories_stay_clear(self):
        grid = OccupancyGrid.from_dict(
            {
                "resolution": 0.1,
                "bounds": {"min": [0, 0, 0], "max": [3, 3, 2]},
                "boxes": [{"min": [1.35, 0.0, 0.0], "max": [1.65, 1.9, 2.0]}],
            }
        )
        swarm = MiniSwarm([(0.5, 1.0, 1.0)], [(2.5, 1.0, 1.0)], grid)
        lo = np.array([1.35, 0.0, 0.0])
        hi = np.array([1.65, 1.9, 2.0])
        bmin, bmax = np.zeros(3), np.array([3.0, 3.0, 2.0])
        for _ in range(45):
            swarm.step()
            # Every planned horizon keeps the whole inflated sphere clear of
            # the true obstacle box and inside the world bounds.
            traj = swarm.states[0].previous_trajectory
            for t in np.linspace(traj.start_time, end_time(traj), 120):
                p = position_at(traj, float(t))
                gap = np.linalg.norm(p - np.clip(p, lo, hi))
                assert gap >= PARAMS.agent_radius - 1e-9
                assert np.all(p >= bmin + PARAMS.agent_radius - 1e-9)
                assert np.all(p <= bmax - PARAMS.agent_radius + 1e-9)
        assert swarm.goal_distances()[0] < PARAMS.goal_reach_dist
