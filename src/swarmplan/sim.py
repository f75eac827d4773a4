"""Synchronized replanning simulator with perfect tracking.

Every segment period, all agents plan from one shared snapshot and then fly
their new trajectory exactly. The run writes three artifacts into the output
directory: the scenario itself, 100 Hz state logs per agent (CSV), and the
per-step control-point dump the offline verifier uses for exact checks. All
safety-relevant metrics are recomputed by the verifier from those logs, never
taken from the planner's internals.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from swarmplan.errors import PlannerError
from swarmplan.planner import (
    AgentSnapshot,
    PlannerState,
    initial_trajectories,
    plan_step,
    shared_pair_separations,
)
from swarmplan.scenarios import Scenario
from swarmplan import verify as verify_mod

_CSV_HEADER = "t,px,py,pz,vx,vy,vz,ax,ay,az"
#: Log sampling interval in hundredths of a second (100 Hz).
_TICKS_PER_SECOND = 100
#: Steps an agent must sit nearly still to count as deadlocked at timeout.
_STALL_STEPS = 10
_STALL_DIST = 0.05


@dataclass
class RunMetrics:
    """Outcome of one run; distance fields come from the offline verifier."""

    success: bool
    deadlock: bool
    flight_time: float | None
    sim_time: float
    steps: int
    fallback_count: int
    max_candidate_violation: float
    mean_plan_ms: float
    max_plan_ms: float
    pair_ms_per_step: float
    error: str | None = None
    verified: bool = False
    safety_ok: bool = False
    violations: list[str] = field(default_factory=list)
    flight_distance_per_agent: list[float] = field(default_factory=list)
    min_inter_agent_distance: float | None = None
    min_obstacle_clearance: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def run(scenario: Scenario, out_dir, threads: int = 1, timeout=None) -> RunMetrics:
    """Simulate a scenario to completion and verify its logs.

    Agents plan one after another, each purely from the shared snapshot, so
    a fixed scenario gives the same logs every time; only the timing
    metrics vary between invocations. `threads` must be 1: planning holds
    the GIL, so planner threads made runs no faster.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = scenario.grid()
    scenario.validate(grid)
    params = scenario.params
    dt = params.segment_time
    ticks = round(dt * _TICKS_PER_SECOND)
    if abs(ticks - dt * _TICKS_PER_SECOND) > 1e-9 or ticks < 1:
        raise ValueError("segment_time must be a multiple of the 10 ms log period")
    limit = scenario.timeout if timeout is None else float(timeout)
    basis = _segment_basis(params.degree, [j / ticks for j in range(ticks)])

    n_agents = len(scenario.agents)
    states = [
        PlannerState(agent_id=i, radius=spec.radius, params=params)
        for i, spec in enumerate(scenario.agents)
    ]
    positions = [np.array(spec.start, dtype=float) for spec in scenario.agents]
    goals = [np.array(spec.goal, dtype=float) for spec in scenario.agents]
    radii = {i: spec.radius for i, spec in enumerate(scenario.agents)}

    csv_rows: list[list[str]] = [[_CSV_HEADER] for _ in range(n_agents)]
    step_lines: list[str] = []
    history: list[list[np.ndarray]] = [[p.copy()] for p in positions]

    plan_times: list[float] = []
    pair_times: list[float] = []
    fallback_count = 0
    max_candidate_violation = 0.0
    error: str | None = None
    success = False
    flight_time: float | None = None
    reach_candidate: float | None = None
    step = 0

    try:
        while True:
            now = step * dt
            if now >= limit:
                break
            snapshots = [
                AgentSnapshot(
                    agent_id=i,
                    radius=states[i].radius,
                    position=positions[i],
                    goal=goals[i],
                    previous_trajectory=states[i].previous_trajectory,
                )
                for i in range(n_agents)
            ]
            shared_start = time.perf_counter()
            inits = initial_trajectories(snapshots, params, now)
            pair_start = time.perf_counter()
            pairs = shared_pair_separations(inits, radii, params)
            pair_end = time.perf_counter()
            pair_times.append((pair_end - pair_start) * 1e3)
            shared_ms = (pair_end - shared_start) * 1e3 / n_agents

            # Every agent plans before any state is updated, so a step that
            # aborts part-way leaves all agents on the plan they last flew.
            results = []
            for state in states:
                begin = time.perf_counter()
                result = plan_step(state, snapshots, grid, pairs, inits)
                results.append((result, (time.perf_counter() - begin) * 1e3))
            for state, (result, elapsed_ms) in zip(states, results):
                plan_times.append(elapsed_ms + shared_ms)
                diag = result.diagnostics
                fallback_count += diag.used_fallback
                max_candidate_violation = max(
                    max_candidate_violation, diag.candidate_violation
                )
                state.previous_trajectory = result.trajectory
                state.previous_corridor = result.corridor

            step_lines.append(_step_line(step, now, states))
            base_tick = step * ticks
            times = [
                (base_tick + j) / _TICKS_PER_SECOND for j in range(ticks)
            ]
            for i in range(n_agents):
                csv_rows[i].extend(
                    _sample_rows(states[i].previous_trajectory, times, basis)
                )

            step += 1
            now = step * dt
            for i in range(n_agents):
                positions[i] = states[i].previous_trajectory.eval(now)
                history[i].append(positions[i].copy())

            if all(
                float(np.linalg.norm(positions[i] - goals[i])) < params.goal_reach_dist
                for i in range(n_agents)
            ):
                if reach_candidate is None:
                    reach_candidate = now
                elif now >= reach_candidate + dt:
                    success = True
                    flight_time = reach_candidate
                    break
            else:
                reach_candidate = None
    except PlannerError as exc:
        error = str(exc)

    sim_time = step * dt
    if step > 0:
        # The last row is the end state of the last flown segment.
        final_t = step * ticks / _TICKS_PER_SECOND
        end_basis = _segment_basis(params.degree, [1.0])
        for i in range(n_agents):
            csv_rows[i].extend(
                _sample_rows(states[i].previous_trajectory, [final_t], end_basis)
            )

    deadlock = False
    if not success and error is None and step > _STALL_STEPS:
        stalled = []
        for i in range(n_agents):
            if float(np.linalg.norm(positions[i] - goals[i])) < params.goal_reach_dist:
                continue
            moved = float(
                np.linalg.norm(history[i][-1] - history[i][-1 - _STALL_STEPS])
            )
            stalled.append(moved < _STALL_DIST)
        deadlock = bool(stalled) and all(stalled)

    (out / "scenario.json").write_text(scenario.to_json())
    traj_dir = out / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for i in range(n_agents):
        (traj_dir / f"agent_{i:03d}.csv").write_text("\n".join(csv_rows[i]) + "\n")
    (out / "steps.jsonl").write_text("\n".join(step_lines) + ("\n" if step_lines else ""))

    metrics = RunMetrics(
        success=success,
        deadlock=deadlock,
        flight_time=flight_time,
        sim_time=sim_time,
        steps=step,
        fallback_count=fallback_count,
        max_candidate_violation=max_candidate_violation,
        mean_plan_ms=float(np.mean(plan_times)) if plan_times else 0.0,
        max_plan_ms=float(np.max(plan_times)) if plan_times else 0.0,
        pair_ms_per_step=float(np.mean(pair_times)) if pair_times else 0.0,
        error=error,
    )
    if step > 0:
        report = verify_mod.verify(out)
        metrics.verified = True
        metrics.safety_ok = report.ok
        metrics.violations = report.violations
        metrics.flight_distance_per_agent = report.flight_distance_per_agent
        metrics.min_inter_agent_distance = report.min_inter_agent_distance
        metrics.min_obstacle_clearance = report.min_obstacle_clearance
    (out / "metrics.json").write_text(
        json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    return metrics


def _segment_basis(degree: int, taus):
    """Basis matrices sampling one segment (and its derivatives) at the
    local parameters taus; only the first segment of each plan is ever
    flown."""
    from swarmplan.bernstein import basis_row

    return tuple(
        np.array([basis_row(deg, tau) for tau in taus])
        for deg in (degree, degree - 1, degree - 2)
    )


def _sample_rows(traj, times, basis) -> list[str]:
    from swarmplan.bernstein import derivative

    seg = traj.segments[0]
    d1 = derivative(seg)
    d2 = derivative(d1)
    b0, b1, b2 = basis
    states = np.hstack(
        [b0 @ seg.control_points, b1 @ d1.control_points, b2 @ d2.control_points]
    )
    return [
        f"{t:.2f}," + ",".join(repr(float(v)) for v in row)
        for t, row in zip(times, states)
    ]


def _step_line(step: int, now: float, states) -> str:
    payload = {
        "k": step,
        "t0": now,
        "cpts": {
            str(state.agent_id): [
                [[float(v) for v in pt] for pt in seg.control_points]
                for seg in state.previous_trajectory.segments
            ]
            for state in states
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
