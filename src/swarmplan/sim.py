"""Synchronized replanning simulator with perfect tracking.

Every segment period, all agents plan from the same shifted previous plans
and then fly the first segment of their new plan exactly, ending the step at
that segment's last control point. The plans the agents last flew are one
(N, M, n+1, 3) array of control points, which the step shifts, separates,
views, samples and logs whole. The run writes three artifacts into the
output directory: the scenario itself, the 100 Hz states of every agent as
one binary array (`states.npy`), written once after the last step, and the
per-step control-point dump the offline verifier uses for exact checks
(`steps.jsonl`), written line by line as each step completes. The grid, with
its cached goal distance fields, is released before the verifier reads the
logs back. All safety-relevant metrics are recomputed by the verifier from
those logs, never taken from the planner's internals. `export_csv` writes
the states as per-agent CSV text.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from swarmplan.bernstein import basis_row, derivative
from swarmplan.errors import PlannerError
from swarmplan.planner import (
    PlannerState,
    goal_view,
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
    min_pair_margin: float | None = None
    min_obstacle_clearance: float | None = None
    max_continuity_error: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def run(scenario: Scenario, out_dir, threads: int = 1, timeout=None) -> RunMetrics:
    """Simulate a scenario to completion and verify its logs.

    Agents plan one after another, each purely from the step's shared
    inputs, so a fixed scenario gives the same logs every time; only the
    timing metrics vary between invocations. `threads` must be 1: planning holds
    the GIL, so planner threads made runs no faster.

    A step's line reaches `steps.jsonl` once every agent has planned it, so
    a run a `PlannerError` stops still logs exactly its completed steps and
    is verified. Any other exception propagates and leaves the completed
    steps in `steps.jsonl` and no `states.npy`, which `verify` rejects as a
    malformed log. A scenario that fails its checks creates no directory.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    grid = scenario.grid()
    scenario.validate(grid)
    params = scenario.params
    dt = params.segment_time
    ticks = round(dt * _TICKS_PER_SECOND)
    if abs(ticks - dt * _TICKS_PER_SECOND) > 1e-9 or ticks < 1:
        raise ValueError("segment_time must be a multiple of the 10 ms log period")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    limit = scenario.timeout if timeout is None else float(timeout)
    basis = _segment_basis(params.degree, [j / ticks for j in range(ticks)])

    states = [PlannerState(agent_id=i, params=params) for i in range(len(scenario.agents))]
    starts = np.array([spec.start for spec in scenario.agents], dtype=float)
    goals = [np.array(spec.goal, dtype=float) for spec in scenario.agents]
    radii = [spec.radius for spec in scenario.agents]
    # The plans the agents last flew, (agents, M, n+1, 3): before step 0,
    # every agent holds still at its start.
    plans = np.tile(starts[:, None, None], (1, params.segment_count, params.degree + 1, 1))

    # One (agents, ticks, 10) block of 100 Hz states per flown step.
    blocks: list[np.ndarray] = []
    # Every agent's end position over the last _STALL_STEPS + 1 steps.
    recent_ends: deque[list[np.ndarray]] = deque(maxlen=_STALL_STEPS + 1)

    plan_times: list[float] = []
    pair_times: list[float] = []
    fallback_count = 0
    max_candidate_violation = 0.0
    error: str | None = None
    success = False
    flight_time: float | None = None
    reach_candidate: float | None = None
    step = 0

    # Each step's line is written once the whole step has succeeded.
    with open(out / "steps.jsonl", "w") as log:
        try:
            while True:
                now = step * dt
                if now >= limit:
                    break
                shared_start = time.perf_counter()
                inits = initial_trajectories(plans, now)
                pair_start = time.perf_counter()
                pairs = shared_pair_separations(inits, radii, params)
                pair_end = time.perf_counter()
                view = goal_view(inits, goals, radii, params)
                pair_times.append((pair_end - pair_start) * 1e3)
                shared_ms = (time.perf_counter() - shared_start) * 1e3 / len(states)

                # Every agent plans before any state is updated, so a step that
                # aborts part-way leaves all agents on the plan they last flew.
                results = []
                for state in states:
                    begin = time.perf_counter()
                    result = plan_step(state, grid, inits, pairs, view)
                    results.append((result, (time.perf_counter() - begin) * 1e3))
                for state, (result, elapsed_ms) in zip(states, results):
                    plan_times.append(elapsed_ms + shared_ms)
                    diag = result.diagnostics
                    fallback_count += diag.used_fallback
                    max_candidate_violation = max(
                        max_candidate_violation, diag.candidate_violation
                    )
                    state.previous_corridor = result.corridor
                    state.step += 1
                plans = np.stack([result.trajectory for result, _ in results])

                log.write(_step_line(step, now, plans) + "\n")
                blocks.append(_sampled_block(plans, basis, dt))

                step += 1
                now = step * dt
                # Perfect tracking leaves each agent at its flown segment's end.
                ends = plans[:, 0, -1]
                recent_ends.append(ends)

                if all(
                    float(np.linalg.norm(end - goal)) < params.goal_reach_dist
                    for end, goal in zip(ends, goals)
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

    # Free the grid, and with it every cached goal field and blocked mask,
    # before verify runs.
    del grid
    sim_time = step * dt
    if blocks:
        # The last row is the end state of the last flown segment.
        blocks.append(_sampled_block(plans, _segment_basis(params.degree, [1.0]), dt))
    table = np.concatenate([np.empty((len(states), 0, 10)), *blocks], axis=1)
    table[:, :, 0] = np.arange(table.shape[1]) / _TICKS_PER_SECOND

    deadlock = False
    if not success and error is None and step > _STALL_STEPS:
        stalled = [
            float(np.linalg.norm(end - before)) < _STALL_DIST
            for end, before, goal in zip(recent_ends[-1], recent_ends[0], goals)
            if float(np.linalg.norm(end - goal)) >= params.goal_reach_dist
        ]
        deadlock = bool(stalled) and all(stalled)

    (out / "scenario.json").write_text(scenario.to_json())
    np.save(out / "states.npy", table, allow_pickle=False)
    # The logs are on disk now; free them before verify reads them back.
    del table, blocks

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
        metrics.min_pair_margin = report.min_pair_margin
        metrics.min_obstacle_clearance = report.min_obstacle_clearance
        metrics.max_continuity_error = report.max_continuity_error
    (out / "metrics.json").write_text(
        json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    return metrics


def _segment_basis(degree: int, taus):
    """Basis matrices sampling one segment (and its derivatives) at the
    local parameters taus; only the first segment of each plan is ever
    flown."""
    return tuple(
        np.array([basis_row(deg, tau) for tau in taus])
        for deg in (degree, degree - 1, degree - 2)
    )


def _sampled_block(plans, basis, dt: float) -> np.ndarray:
    """An (agents, rows, 10) block of every agent's flown segment, segment 0
    of its plan, sampled at the basis's parameters: position, velocity and
    acceleration in columns 1-9, one row per parameter. Column 0 is left
    unset. Each stacked product gives every agent the bits of its own
    matrix product; the tests hold it to a per-agent referee."""
    b0, b1, b2 = basis
    flown = plans[:, 0]
    d1 = derivative(flown, dt)
    block = np.empty((len(plans), len(b0), 10))
    block[:, :, 1:4] = b0 @ flown
    block[:, :, 4:7] = b1 @ d1
    block[:, :, 7:10] = b2 @ derivative(d1, dt)
    return block


def export_csv(log_dir) -> Path:
    """Write a run's states as text: trajectories/agent_NNN.csv per agent,
    header `t,px,py,pz,vx,vy,vz,ax,ay,az` and one row per 10 ms, each value
    the shortest text that reads back as the logged double. Returns the
    trajectories directory."""
    log_dir = Path(log_dir)
    table = verify_mod.load_states(log_dir / "states.npy")
    traj_dir = log_dir / "trajectories"
    traj_dir.mkdir(exist_ok=True)
    for i, agent in enumerate(table):
        rows = _csv_rows(agent[:, 0].tolist(), agent[:, 1:])
        text = "\n".join([_CSV_HEADER, *rows]) + "\n"
        (traj_dir / f"agent_{i:03d}.csv").write_text(text)
    return traj_dir


def _csv_rows(times, states) -> list[str]:
    """One CSV row per time from a (len(times), 9) array of states. tolist()
    yields Python floats, whose repr is the shortest round trip."""
    return [
        f"{t:.2f}," + ",".join(map(repr, row))
        for t, row in zip(times, states.tolist())
    ]


def _step_line(step: int, now: float, plans) -> str:
    payload = {
        "k": step,
        "t0": now,
        "cpts": {str(i): points for i, points in enumerate(plans.tolist())},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
