import numpy as np
import pytest

from swarmplan import qp
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

from helpers import end_time, hold_plan, position_at, state_at

PARAMS = PlanningParams()


def empty_grid(extent=(3.0, 3.0, 2.0)):
    return OccupancyGrid(0.1, (0, 0, 0), extent)


class MiniSwarm:
    """Drive a few agents through synchronized steps (no logging)."""

    def __init__(self, starts, goals, grid, params=PARAMS, radii=None):
        self.grid = grid
        self.params = params
        self.goals = [np.asarray(g, dtype=float) for g in goals]
        self.radii = radii or [params.agent_radius] * len(starts)
        self.states = [PlannerState(agent_id=i, params=params) for i in range(len(starts))]
        # The plans last flown, as sim.run holds them: at first, every agent
        # holds still at its start.
        self.plans = np.stack(
            [hold_plan(s, params.segment_count, params.degree) for s in starts]
        )
        self.time = 0.0
        self.diagnostics = []

    def shared_inputs(self):
        """The step's shifted plans, pair table and goal view, as sim.run
        builds them once for all agents."""
        inits = initial_trajectories(self.plans, self.time)
        pairs = shared_pair_separations(inits, self.radii, self.params)
        return inits, pairs, goal_view(inits, self.goals, self.radii, self.params)

    def step(self):
        """One synchronized step."""
        shared = self.shared_inputs()
        results = [plan_step(state, self.grid, *shared) for state in self.states]
        self.time += self.params.segment_time
        for state, result in zip(self.states, results):
            state.previous_corridor = result.corridor
            state.step += 1
            self.diagnostics.append(result.diagnostics)
        self.plans = np.stack([result.trajectory for result in results])
        return results

    @property
    def plan_start(self):
        """Start time of the plans last flown."""
        return self.time - self.params.segment_time

    @property
    def positions(self):
        """Perfect tracking, as in sim.run: each flown segment's end."""
        return self.plans[:, 0, -1]

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
            traj, t = swarm.plans[0], swarm.plan_start
            if prev is not None:
                for a, b in zip(state_at(prev, t - 0.2, 0.2, t), state_at(traj, t, 0.2, t)):
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
            (ta, tb), start = swarm.plans, swarm.plan_start
            for t in np.linspace(start, end_time(ta, start, 0.2), 101):
                t = float(t)
                delta = (position_at(ta, start, 0.2, t) - position_at(tb, start, 0.2, t)) * scale
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
    # Agents 1 and 2 hover with touching hulls (0.3 m apart on x, radius sum
    # 0.3); agent 0 is clear of both.
    POSITIONS = [(0.5, 0.5, 1.0), (1.5, 1.5, 1.0), (1.8, 1.5, 1.0)]

    def test_shared_builder_names_the_pair(self):
        swarm = MiniSwarm(self.POSITIONS, self.POSITIONS, empty_grid())
        with pytest.raises(SafetyDegeneracyError, match=r"^agents 1 and 2, segment 0: "):
            swarm.shared_inputs()
        for clean in ([0, 1], [0, 2]):
            positions = [self.POSITIONS[i] for i in clean]
            MiniSwarm(positions, positions, empty_grid()).shared_inputs()


class TestRadius:
    def test_corridor_grows_for_the_view_radius(self):
        # Two agents of radii 0.15 and 0.25: agent 1's fresh box is grown
        # for 0.25, the radius the pair table and the goal view were built
        # with.
        grid = empty_grid()
        swarm = MiniSwarm(
            [(0.5, 0.5, 1.0), (2.5, 0.5, 1.0)],
            [(2.5, 2.5, 1.5), (0.5, 2.5, 1.5)],
            grid,
            radii=[0.15, 0.25],
        )
        inits, pairs, view = swarm.shared_inputs()
        result = plan_step(swarm.states[1], grid, inits, pairs, view)
        terminal = inits.points[1, -1, -1]
        fresh = grid.grow_free_box(terminal, 0.25, toward=result.diagnostics.goal - terminal)
        assert result.corridor.boxes[-1] == fresh
        assert fresh != grid.grow_free_box(terminal, 0.15, toward=result.diagnostics.goal - terminal)


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
            plan_step(PlannerState(0, PARAMS), swarm.grid, *ahead)

    def test_agent_missing_from_inputs_raises(self):
        swarm = MiniSwarm(
            [(0.5, 0.5, 1.0), (2.5, 0.5, 1.0)], [(2.5, 2.5, 1.5), (0.5, 2.5, 1.5)], empty_grid()
        )
        shared = swarm.shared_inputs()
        with pytest.raises(ValueError, match=r"missing agent 7$"):
            plan_step(PlannerState(7, PARAMS), swarm.grid, *shared)

    def test_every_input_must_hold_the_agents_row(self):
        # An agent is its row: a pair table or a view one agent short, or a
        # negative agent, is refused rather than read as no neighbours or as
        # a row counted from the end.
        starts = [(0.5, 0.5, 1.0), (2.5, 0.5, 1.0), (1.5, 2.5, 1.0)]
        goals = [(2.5, 2.5, 1.5), (0.5, 2.5, 1.5), (1.5, 0.5, 1.5)]
        inits, pairs, view = MiniSwarm(starts, goals, empty_grid()).shared_inputs()
        _, short_pairs, short_view = MiniSwarm(starts[:2], goals[:2], empty_grid()).shared_inputs()
        for inputs in ((inits, short_pairs, view), (inits, pairs, short_view)):
            with pytest.raises(ValueError, match=r"missing agent 2$"):
                plan_step(PlannerState(2, PARAMS), empty_grid(), *inputs)
        with pytest.raises(ValueError, match=r"missing agent -1$"):
            plan_step(PlannerState(-1, PARAMS), empty_grid(), inits, pairs, view)


class TestFallback:
    def test_zero_iteration_budget_returns_shifted_plan(self):
        params = PlanningParams(qp_max_iterations=0)
        grid = empty_grid()
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], grid, params)
        inits, pairs, view = swarm.shared_inputs()
        result = plan_step(swarm.states[0], grid, inits, pairs, view)
        assert result.diagnostics.used_fallback
        assert np.array_equal(result.trajectory, inits.points[0])
        assert not result.trajectory.flags.writeable

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
        assert np.array_equal(result.trajectory, inits.points[0])

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
            traj, start = swarm.plans[0], swarm.plan_start
            for t in np.linspace(start, end_time(traj, start, 0.2), 120):
                p = position_at(traj, start, 0.2, float(t))
                gap = np.linalg.norm(p - np.clip(p, lo, hi))
                assert gap >= PARAMS.agent_radius - 1e-9
                assert np.all(p >= bmin + PARAMS.agent_radius - 1e-9)
                assert np.all(p <= bmax - PARAMS.agent_radius + 1e-9)
        assert swarm.goal_distances()[0] < PARAMS.goal_reach_dist
