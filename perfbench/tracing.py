"""Span recording from outside the program.

The benchmark never edits swarmplan. It swaps module-level names that
`sim`, `planner` and `corridor` call, and public `OccupancyGrid` methods,
for wrappers that record one span per call, and puts the originals back
afterwards. A span holds its name, run id, step id, parent span, start and
end (perf_counter_ns) and an optional note with a count taken from the
call's result. Spans stay in memory until the run ends.

Two target sets exist. TIMERS is what the end-to-end run installs: one
timer around `sim.run`, each `plan_step` call and each `verify` call, plus
the step boundary. LAYERS adds every layer boundary for the traced run.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from time import perf_counter_ns

from swarmplan import corridor, planner, sim
from swarmplan import verify as verify_mod
from swarmplan.scenarios import Scenario
from swarmplan.world import OccupancyGrid

# Span record fields.
NAME, RUN, STEP, PARENT, START, END, NOTE = range(7)

STEP_START = "planner.initial_trajectories"


@contextmanager
def patched(replacements):
    """Set `owner.name = new` for each (owner, name, new); always restore.

    Descriptors are restored as the exact objects found in the owner's
    __dict__, so a classmethod stays a classmethod.
    """
    saved = []
    try:
        for owner, name, new in replacements:
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def _fallback(result, exc):
    return None if result is None else bool(result.diagnostics.used_fallback)


def _rows(result, exc):
    return None if result is None else len(result[0].ineq_rhs)


def _iterations(result, exc):
    if result is not None:
        return result.iterations
    return getattr(exc, "iterations", None)


def _found(result, exc):
    return result is not None


def _clear(result, exc):
    return bool(result)


# (owner, attribute, span name, note). Module functions are patched in the
# namespace of the module that calls them.
TIMERS = (
    (sim, "run", "sim.run", None),
    (sim, "initial_trajectories", STEP_START, None),
    (sim, "plan_step", "planner.plan_step", _fallback),
    (verify_mod, "verify", "verify.verify", None),
)

LAYERS = TIMERS + (
    (sim, "shared_pair_separations", "planner.shared_pair_separations", None),
    (planner, "shift_for_initial", "bernstein.shift_for_initial", None),
    (planner, "build_pair_separations", "corridor.build_pair_separations", None),
    (planner, "advance_corridor", "corridor.advance_corridor", None),
    (planner, "plan_current_goal", "goalplan.plan_current_goal", None),
    (planner, "assemble", "qp.assemble", _rows),
    (planner, "solve", "qp.solve", _iterations),
    (planner, "trajectory_from_values", "qp.trajectory_from_values", None),
    (corridor, "closest_points_to_origin", "geometry.closest_points_to_origin", None),
    (corridor, "to_sphere_frame", "geometry.to_sphere_frame", None),
    (Scenario, "validate", "scenarios.validate", None),
    (OccupancyGrid, "from_dict", "world.from_dict", None),
    (OccupancyGrid, "voxel_index", "world.voxel_index", None),
    (OccupancyGrid, "voxel_center", "world.voxel_center", None),
    (OccupancyGrid, "box_is_free", "world.box_is_free", None),
    (OccupancyGrid, "points_free", "world.points_free", None),
    (OccupancyGrid, "point_is_free", "world.point_is_free", None),
    (OccupancyGrid, "grow_free_box", "world.grow_free_box", None),
    (OccupancyGrid, "astar", "world.astar", _found),
    (OccupancyGrid, "line_of_sight_free", "world.line_of_sight_free", _clear),
)


class Tracer:
    """In-memory span recorder for one benchmark process (single thread)."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []
        self.run = -1
        self.step = -1
        self._stack: list[int] = []

    def begin_run(self, run_id: int):
        self.run = run_id
        self.step = -1

    def installed(self):
        """Context manager that swaps every target for its recording wrapper."""
        replacements = []
        for owner, attr, name, note in self.targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                new = classmethod(self._wrap(original.__func__, name, note))
            else:
                new = self._wrap(original, name, note)
            replacements.append((owner, attr, new))
        return patched(replacements)

    def _wrap(self, fn, name, note):
        spans = self.spans
        stack = self._stack
        starts_step = name == STEP_START

        def wrapper(*args, **kwargs):
            if starts_step:
                self.step += 1
            rec = [name, self.run, self.step, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
                if note is not None:
                    rec[NOTE] = note(result, exc)

        return wrapper

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        keys = ("name", "run", "step", "parent", "start_ns", "end_ns", "note")
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list[int]:
    """Per-span duration minus the durations of its direct children (ns)."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
