import numpy as np
import pytest

from swarmplan import qp
from swarmplan.errors import SafetyDegeneracyError, StepAbortError
from swarmplan.params import PlanningParams
from swarmplan.planner import (
    AgentSnapshot,
    PlannerState,
    initial_trajectories,
    plan_step,
    shared_pair_separations,
)
from swarmplan.world import OccupancyGrid

from helpers import state_at

PARAMS = PlanningParams()


def empty_grid(extent=(3.0, 3.0, 2.0)):
    return OccupancyGrid(0.1, (0, 0, 0), extent)


class MiniSwarm:
    """Drive a few agents through synchronized steps (no logging)."""

    def __init__(self, starts, goals, grid, params=PARAMS):
        self.grid = grid
        self.params = params
        self.goals = [np.asarray(g, dtype=float) for g in goals]
        self.states = [
            PlannerState(agent_id=i, radius=params.agent_radius, params=params)
            for i in range(len(starts))
        ]
        self.positions = [np.asarray(s, dtype=float) for s in starts]
        self.time = 0.0
        self.diagnostics = []

    def snapshots(self):
        return [
            AgentSnapshot(
                agent_id=i,
                radius=self.states[i].radius,
                position=self.positions[i],
                goal=self.goals[i],
                previous_trajectory=self.states[i].previous_trajectory,
            )
            for i in range(len(self.states))
        ]

    def step(self, share_pairs=True):
        snaps = self.snapshots()
        inits = initial_trajectories(snaps, self.params, self.time)
        pairs = None
        if share_pairs:
            radii = {s.agent_id: s.radius for s in snaps}
            pairs = shared_pair_separations(inits, radii, self.params)
        results = []
        for state in self.states:
            results.append(
                plan_step(state, snaps, self.grid, pair_separations=pairs, inits=inits)
            )
        self.time += self.params.segment_time
        for state, result in zip(self.states, results):
            state.previous_trajectory = result.trajectory
            state.previous_corridor = result.corridor
            self.positions[state.agent_id] = result.trajectory.eval(self.time)
            self.diagnostics.append(result.diagnostics)
        return results

    def run(self, steps, share_pairs=True):
        for _ in range(steps):
            self.step(share_pairs)

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
            for t in np.linspace(ta.start_time, ta.end_time, 101):
                delta = (ta.eval(float(t)) - tb.eval(float(t))) * scale
                min_dist = min(min_dist, float(np.linalg.norm(delta)))
            if max(swarm.goal_distances()) < PARAMS.goal_reach_dist:
                break
        assert min_dist >= 2 * PARAMS.agent_radius - 1e-6
        assert max(swarm.goal_distances()) < PARAMS.goal_reach_dist
        assert not any(d.used_fallback for d in swarm.diagnostics)
        assert all(d.candidate_violation <= 1e-9 for d in swarm.diagnostics)

    def test_shared_and_per_agent_pairs_identical(self):
        def run(share):
            swarm = MiniSwarm(
                [(0.6, 1.4, 1.0), (2.4, 1.6, 1.0)],
                [(2.4, 1.6, 1.0), (0.6, 1.4, 1.0)],
                empty_grid(),
            )
            swarm.run(8, share_pairs=share)
            return [s.previous_trajectory.control_point_stack() for s in swarm.states]

        a = run(True)
        b = run(False)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_colliding_start_aborts(self):
        grid = empty_grid()
        swarm = MiniSwarm(
            [(1.5, 1.5, 1.0), (1.55, 1.5, 1.0)],
            [(2.5, 1.5, 1.0), (0.5, 1.5, 1.0)],
            grid,
        )
        # Without shared pair precomputation the degeneracy surfaces inside
        # plan_step, which wraps it as a step abort.
        with pytest.raises(StepAbortError):
            swarm.step(share_pairs=False)


class TestDegeneracyNaming:
    # Agents 5 and 9 hover with touching hulls (0.3 m apart on x, radius sum
    # 0.3); agent 2 is clear of both.
    POSITIONS = {2: (0.5, 0.5, 1.0), 5: (1.5, 1.5, 1.0), 9: (1.8, 1.5, 1.0)}

    def snapshots(self, ids):
        return [
            AgentSnapshot(i, PARAMS.agent_radius, self.POSITIONS[i], (1.5, 2.5, 1.0), None)
            for i in ids
        ]

    def test_shared_builder_names_the_pair(self):
        snaps = self.snapshots([2, 5, 9])
        inits = initial_trajectories(snaps, PARAMS)
        radii = {s.agent_id: s.radius for s in snaps}
        with pytest.raises(SafetyDegeneracyError, match=r"^agents 5 and 9, segment 0: "):
            shared_pair_separations(inits, radii, PARAMS)
        for clean in ([2, 5], [2, 9]):
            shared_pair_separations({i: inits[i] for i in clean}, radii, PARAMS)

    def test_local_path_names_the_pair_and_clean_agent_plans(self):
        snaps = self.snapshots([2, 5, 9])
        grid = empty_grid()
        with pytest.raises(StepAbortError, match=r"^agent 9: agents 5 and 9, segment 0: "):
            plan_step(PlannerState(9, PARAMS.agent_radius, PARAMS), snaps, grid)
        result = plan_step(PlannerState(2, PARAMS.agent_radius, PARAMS), snaps, grid)
        assert result.diagnostics.candidate_violation <= 1e-9


class TestFallback:
    def test_zero_iteration_budget_returns_shifted_plan(self):
        params = PlanningParams(qp_max_iterations=0)
        grid = empty_grid()
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], grid, params)
        snaps = swarm.snapshots()
        inits = initial_trajectories(snaps, params, 0.0)
        result = plan_step(swarm.states[0], snaps, grid, inits=inits)
        assert result.diagnostics.used_fallback
        assert result.trajectory is inits[0]
        assert np.array_equal(
            result.trajectory.control_point_stack(), inits[0].control_point_stack()
        )

    def test_singular_active_set_system_returns_shifted_plan(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(qp, "_refined_solve", singular)
        grid = empty_grid()
        swarm = MiniSwarm([(0.5, 0.5, 1.0)], [(2.5, 2.5, 1.5)], grid)
        snaps = swarm.snapshots()
        inits = initial_trajectories(snaps, PARAMS, 0.0)
        result = plan_step(swarm.states[0], snaps, grid, inits=inits)
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
            for t in np.linspace(traj.start_time, traj.end_time, 120):
                p = traj.eval(float(t))
                gap = np.linalg.norm(p - np.clip(p, lo, hi))
                assert gap >= PARAMS.agent_radius - 1e-9
                assert np.all(p >= bmin + PARAMS.agent_radius - 1e-9)
                assert np.all(p <= bmax - PARAMS.agent_radius + 1e-9)
        assert swarm.goal_distances()[0] < PARAMS.goal_reach_dist
