"""Offline log verifier: an independent oracle for run safety claims.

Reads only the artifacts a run writes (scenario, the 100 Hz states of every
agent as one binary array, per-step control-point dumps) and re-derives every
safety quantity with its own evaluation code: de Casteljau evaluation instead
of basis expansion, direct point-to-box distances against the original
obstacle boxes instead of voxel queries, and its own pairwise distance math.
It shares no constraint machinery with the planner, so agreement is evidence
rather than tautology.

The logs are loaded once into arrays (control points as steps × agents ×
segments × points × 3, parsed from text into one preallocated array, and the
states as agents × rows × 10, read with np.load), and each check is one array
pass over steps × agents × samples, reporting violations in (step, agent,
sample) order. One 3-vector's length is np.sqrt of np.vecdot, the BLAS dot
np.linalg.norm takes for it, so every figure equals the sample-by-sample
loop's bit for bit. Non-finite control points or states are malformed logs:
NaN compares false against every tolerance and would pass each check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swarmplan.errors import LogFormatError
from swarmplan.scenarios import Scenario

#: Mirrors the simulator's log rate; a run not sampled at 100 Hz is malformed.
_TICKS_PER_SECOND = 100
#: Steps per log-consistency pass; it bounds the verifier's temporary memory.
_STEP_CHUNK = 32

PAIR_DISTANCE_TOL = 1e-4
CLEARANCE_TOL = 1e-4
CONTINUITY_TOL = 1e-6
LIMIT_TOL = 1e-6
LOG_CONSISTENCY_TOL = 1e-6
_MAX_REPORTED = 25


@dataclass
class VerificationReport:
    ok: bool
    violations: list[str]
    samples: int
    min_inter_agent_distance: float | None
    min_pair_margin: float | None
    min_obstacle_clearance: float | None
    max_continuity_error: dict[str, float]
    flight_distance_per_agent: list[float] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"samples checked: {self.samples}",
            f"min inter-agent scaled distance: {self.min_inter_agent_distance}",
            f"min obstacle clearance: {self.min_obstacle_clearance}",
            f"max continuity error: {self.max_continuity_error}",
            f"flight distance per agent: "
            + ", ".join(f"{d:.3f}" for d in self.flight_distance_per_agent),
        ]
        if self.ok:
            lines.append("verdict: OK")
        else:
            lines.append(f"verdict: {len(self.violations)} violation(s)")
            lines.extend(f"  {v}" for v in self.violations[:_MAX_REPORTED])
        return "\n".join(lines)


def _de_casteljau(points: np.ndarray, tau) -> np.ndarray:
    """Bezier curves with control points along axis -2 at parameters tau
    (a float, or an array that broadcasts against points[..., :1, :])."""
    while points.shape[-2] > 1:
        points = (1.0 - tau) * points[..., :-1, :] + tau * points[..., 1:, :]
    return points[..., 0, :]


def _derivative_points(points: np.ndarray, duration: float) -> np.ndarray:
    n = points.shape[-2] - 1
    return n * (points[..., 1:, :] - points[..., :-1, :]) / duration


def load_states(path: Path) -> np.ndarray:
    """A run's states.npy as a float64 (agents, rows, 10) array of finite
    values (columns t, px, py, pz, vx, vy, vz, ax, ay, az); anything else is
    a LogFormatError."""
    try:
        with open(path, "rb") as f:
            states = np.load(f, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise LogFormatError(f"cannot read {path.name}: {exc}") from exc
    if not isinstance(states, np.ndarray):
        raise LogFormatError(f"{path.name} does not hold a single array")
    if states.dtype != np.float64 or states.ndim != 3 or states.shape[2] != 10:
        raise LogFormatError(
            f"{path.name} holds {states.dtype} {states.shape}, "
            "expected float64 (agents, rows, 10)"
        )
    if not np.isfinite(states).all():
        raise LogFormatError(f"{path.name} holds non-finite values")
    return states


def _load_logs(log_dir: Path):
    """The scenario, its world bounds (2, 3) and boxes (B, 2, 3) as min/max
    corners, the steps' start times t0 (S,), their control points
    (S, N, M, degree + 1, 3) and the agents' states (N, R, 10)."""
    scenario_path = log_dir / "scenario.json"
    steps_path = log_dir / "steps.jsonl"
    states_path = log_dir / "states.npy"
    if not states_path.is_file() and (log_dir / "trajectories").is_dir():
        raise LogFormatError(
            f"{log_dir} holds per-agent CSV logs (trajectories/agent_NNN.csv) "
            "from an older version, and no states.npy"
        )
    if not scenario_path.is_file() or not steps_path.is_file() or not states_path.is_file():
        raise LogFormatError(f"{log_dir} is missing run artifacts")
    try:
        scenario = Scenario.from_json(scenario_path.read_text())
        world = scenario.map_data["bounds"]
        bounds = np.array([world["min"], world["max"]], dtype=float).reshape(2, 3)
        boxes = [[b["min"], b["max"]] for b in scenario.map_data.get("boxes", [])]
        boxes = np.array(boxes, dtype=float).reshape(len(boxes), 2, 3)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"bad scenario.json: {exc}") from exc

    params = scenario.params
    n_agents = len(scenario.agents)
    shape = (n_agents, params.segment_count, params.degree + 1, 3)
    lines = steps_path.read_text().splitlines()
    n_steps = sum(1 for line in lines if line.strip())
    if not n_steps:
        raise LogFormatError("steps.jsonl holds no steps")
    t0 = np.empty(n_steps)
    cpts = np.empty((n_steps, *shape))
    k = 0
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            step, t0[k] = int(payload["k"]), float(payload["t0"])
            agents = {int(i): v for i, v in payload["cpts"].items()}
            if step != k:
                raise LogFormatError("steps.jsonl is not a contiguous step sequence")
            if sorted(agents) != list(range(n_agents)):
                raise LogFormatError(f"step {k} does not cover every agent")
            block = np.array([agents[i] for i in range(n_agents)], dtype=float)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise LogFormatError(f"steps.jsonl line {lineno}: {exc}") from exc
        if block.shape != shape or not np.isfinite(t0[k]):
            raise LogFormatError(f"step {k}: control points {block.shape}, t0 {t0[k]}")
        if not np.isfinite(block).all():
            raise LogFormatError(f"step {k}: non-finite control points")
        cpts[k] = block
        k += 1
    del lines

    tables = load_states(states_path)
    rows = n_steps * round(params.segment_time * _TICKS_PER_SECOND) + 1
    if tables.shape[:2] != (n_agents, rows):
        raise LogFormatError(
            f"states.npy holds {tables.shape[0]} agents x {tables.shape[1]} rows, "
            f"expected {n_agents} x {rows}"
        )
    off_grid = tables[:, :, 0] != np.arange(rows) / _TICKS_PER_SECOND
    if off_grid.any():
        i, row = np.argwhere(off_grid)[0]
        raise LogFormatError(f"agent {i} row {row} is not on the 10 ms grid")
    return scenario, bounds, boxes, t0, cpts, tables


def verify(log_dir) -> VerificationReport:
    """Re-check every safety claim of a finished run from its logs alone."""
    scenario, bounds, boxes, t0, cpts, tables = _load_logs(Path(log_dir))
    params = scenario.params
    n_agents = len(scenario.agents)
    radii = np.array([spec.radius for spec in scenario.agents])
    dt = params.segment_time
    ticks = round(dt * _TICKS_PER_SECOND)
    positions = tables[:, :, 1:4]  # (agents, rows, 3)
    rows = positions.shape[1]
    violations: list[str] = []

    def report(msg):
        if len(violations) < 10 * _MAX_REPORTED:
            violations.append(msg)

    # Logged rows must reproduce the dumped plans (tamper/consistency check).
    offsets = np.arange(0, ticks, max(1, ticks // 5))
    for first in range(0, len(t0), _STEP_CHUNK):
        steps = np.arange(first, min(first + _STEP_CHUNK, len(t0)))
        sampled = steps[:, None] * ticks + offsets  # (steps, samples)
        tau = (sampled / _TICKS_PER_SECOND - t0[steps, None]) / dt
        expected = _de_casteljau(
            cpts[steps, :, 0, None], tau[:, None, :, None, None]
        )  # (steps, agents, samples, 3)
        gap = positions[:, sampled].transpose(1, 0, 2, 3) - expected
        err = np.sqrt(np.vecdot(gap, gap))
        for s, i, j in np.argwhere(err > LOG_CONSISTENCY_TOL)[: 10 * _MAX_REPORTED]:
            report(
                f"agent {i} row t={sampled[s, j] / _TICKS_PER_SECOND:.2f}: logged "
                f"position deviates from the dumped plan by {err[s, i, j]:.3e} m"
            )

    # Acceleration-level continuity between consecutive plans: the earlier
    # plan at the later plan's start time against the later plan at tau 0.
    elapsed = t0[1:] - t0[:-1]
    segment = np.minimum(np.maximum(np.floor(elapsed / dt), 0.0), params.segment_count - 1)
    tau = np.minimum(np.maximum((elapsed - segment * dt) / dt, 0.0), 1.0)
    before = cpts[np.arange(len(elapsed)), :, segment.astype(int)]
    after = cpts[1:, :, 0]
    names = ("position", "velocity", "acceleration")
    jumps = []
    for _ in names:
        gap = _de_casteljau(before, tau[:, None, None, None]) - _de_casteljau(after, 0.0)
        jumps.append(np.sqrt(np.vecdot(gap, gap)))
        before, after = _derivative_points(before, dt), _derivative_points(after, dt)
    jumps = np.stack(jumps, axis=-1)  # (step pairs, agents, 3)
    cont = {
        name: float(np.fmax.reduce(jumps[..., q], axis=None, initial=0.0))
        for q, name in enumerate(names)
    }
    for p, i, q in np.argwhere(jumps > CONTINUITY_TOL)[: 10 * _MAX_REPORTED]:
        report(
            f"agent {i} step {p + 1}: {names[q]} jumps by {jumps[p, i, q]:.3e} "
            f"at t={t0[p + 1]:.2f}"
        )

    # Inter-agent separation in the downwash-scaled metric.
    scale = np.array([1.0, 1.0, 1.0 / params.downwash])
    min_pair = min_margin = None
    for i in range(n_agents):
        dists = np.linalg.norm((positions[i] - positions[i + 1 :]) * scale, axis=-1)
        for j, worst in enumerate(np.min(dists, axis=1).tolist(), start=i + 1):
            needed = radii[i] + radii[j]
            margin = worst - needed
            min_pair = worst if min_pair is None else min(min_pair, worst)
            min_margin = margin if min_margin is None else min(min_margin, margin)
            if margin < -PAIR_DISTANCE_TOL:
                row = int(np.argmin(dists[j - i - 1]))
                report(
                    f"agents {i},{j} at t={row / _TICKS_PER_SECOND:.2f}: scaled "
                    f"distance {worst:.4f} under required {needed:.4f}"
                )

    # Static clearance against the original boxes and the world bounds.
    clearance = np.minimum(
        np.min(positions - bounds[0], axis=2), np.min(bounds[1] - positions, axis=2)
    )
    for lo, hi in boxes:
        gap = np.linalg.norm(positions - np.clip(positions, lo, hi), axis=2)
        clearance = np.minimum(clearance, gap)
    min_clearance = None
    for i, worst_row in enumerate(np.argmin(clearance, axis=1).tolist()):
        worst = float(clearance[i, worst_row])
        min_clearance = worst if min_clearance is None else min(min_clearance, worst)
        if worst < radii[i] - CLEARANCE_TOL:
            report(
                f"agent {i} at t={worst_row / _TICKS_PER_SECOND:.2f}: obstacle "
                f"clearance {worst:.4f} under radius {radii[i]:.4f}"
            )

    # Dynamic limits on the logged derivative columns.
    vmax = np.asarray(params.max_velocity)
    amax = np.asarray(params.max_acceleration)
    vex = np.max(np.abs(tables[:, :, 4:7]) - vmax, axis=(1, 2))
    aex = np.max(np.abs(tables[:, :, 7:10]) - amax, axis=(1, 2))
    for i in range(n_agents):
        for name, excess in (("velocity", vex[i]), ("acceleration", aex[i])):
            if excess > LIMIT_TOL:
                report(f"agent {i}: {name} exceeds its limit by {excess:.3e}")

    legs = np.linalg.norm(np.diff(positions, axis=1), axis=2)
    flight = [float(np.sum(agent_legs)) for agent_legs in legs]

    return VerificationReport(
        ok=not violations,
        violations=violations,
        samples=rows,
        min_inter_agent_distance=min_pair,
        min_pair_margin=min_margin,
        min_obstacle_clearance=min_clearance,
        max_continuity_error=cont,
        flight_distance_per_agent=flight,
    )
