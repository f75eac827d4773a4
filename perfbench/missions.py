"""One simulated mission, driven through `swarmplan.sim.run`, and its gate."""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from swarmplan import sim

from tracing import END, NAME, RUN, START, STEP, STEP_START, Tracer, patched


@dataclass
class Mission:
    """Outcome and timings of one `sim.run` call."""

    label: str
    scenario_seed: int
    agents: int
    steps: int
    success: bool
    sim_s: float  # flight time, or the timeout when the mission failed
    wall_s: float  # sim.run wall time, including logging and verification
    setup_s: float  # sim.run entry to its first step
    verify_ms: float
    plan_ms: list[tuple[int, float]]  # (step, plan_step wall ms)
    first_in_process: bool
    digest: str
    log_bytes: int
    verdict: tuple
    problems: list[str] = field(default_factory=list)
    fallbacks: int = 0

    @property
    def agent_steps(self) -> int:
        return self.agents * self.steps

    @property
    def failed_ops(self) -> int:
        """Agent-steps that fell back, or all of them if the mission failed
        the gate."""
        return self.agent_steps if self.problems else self.fallbacks

    def line(self) -> str:
        return (
            f"mission {self.label} scenario_seed={self.scenario_seed} "
            f"agents={self.agents} steps={self.steps} success={self.success} "
            f"sim_s={self.sim_s:.1f} wall_s={self.wall_s:.3f} "
            f"setup_s={self.setup_s:.4f} verify_ms={self.verify_ms:.1f} "
            f"fallbacks={self.fallbacks} first_in_process={self.first_in_process} "
            f"gate={'ok' if not self.problems else '; '.join(self.problems)} "
            f"steps_sha256={self.digest}"
        )


class _SetupDone(Exception):
    pass


def log_bytes(log_dir: Path) -> int:
    """Bytes of the files the verifier reads."""
    files = [log_dir / "scenario.json", log_dir / "steps.jsonl"]
    files += sorted((log_dir / "trajectories").glob("*.csv"))
    return sum(f.stat().st_size for f in files)


def probe_setup(scenario, out_dir: Path) -> float:
    """Seconds from `sim.run` entry to its first step, stopping the run there."""
    reached = []

    def stop(*args, **kwargs):
        reached.append(perf_counter())
        raise _SetupDone

    with patched([(sim, "initial_trajectories", stop)]):
        start = perf_counter()
        try:
            sim.run(scenario, out_dir, threads=1)
        except _SetupDone:
            return reached[0] - start
    raise RuntimeError("sim.run finished without taking a step")


def run_mission(
    scenario, out_dir: Path, tracer: Tracer, run_id: int, label: str,
    first_in_process: bool,
) -> Mission:
    """Run one mission with `tracer` installed and apply the correctness gate:
    no abort, logs verified, and no verifier violations."""
    tracer.begin_run(run_id)
    first = len(tracer.spans)
    with tracer.installed():
        start = perf_counter()
        metrics = sim.run(scenario, out_dir, threads=1)
        wall = perf_counter() - start
    spans = [rec for rec in tracer.spans[first:] if rec[RUN] == run_id]
    root = next(rec for rec in spans if rec[NAME] == "sim.run")
    steps = [rec for rec in spans if rec[NAME] == STEP_START]
    setup = (steps[0][START] - root[START]) / 1e9 if steps else wall
    verify_ms = [
        (rec[END] - rec[START]) / 1e6 for rec in spans if rec[NAME] == "verify.verify"
    ]
    plan_ms = [
        (rec[STEP], (rec[END] - rec[START]) / 1e6)
        for rec in spans
        if rec[NAME] == "planner.plan_step"
    ]

    problems = []
    if metrics.error is not None:
        problems.append(f"aborted: {metrics.error}")
    if not metrics.verified:
        problems.append("logs not verified")
    elif not metrics.safety_ok:
        problems.append(f"verifier rejected: {metrics.violations[:3]}")
    digest = hashlib.sha256((out_dir / "steps.jsonl").read_bytes()).hexdigest()
    return Mission(
        label=label,
        scenario_seed=scenario.seed,
        agents=len(scenario.agents),
        steps=metrics.steps,
        success=metrics.success,
        sim_s=metrics.flight_time if metrics.success else scenario.timeout,
        wall_s=wall,
        setup_s=setup,
        verify_ms=sum(verify_ms),
        plan_ms=plan_ms,
        first_in_process=first_in_process,
        digest=digest,
        log_bytes=log_bytes(out_dir),
        verdict=(
            metrics.safety_ok,
            tuple(metrics.violations),
            metrics.min_inter_agent_distance,
            metrics.min_obstacle_clearance,
        ),
        problems=problems,
        fallbacks=metrics.fallback_count,
    )


def discard(path: Path):
    shutil.rmtree(path, ignore_errors=True)
