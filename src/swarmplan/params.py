"""Planning parameters and their stock defaults.

The defaults model a small quadrotor (Crazyflie-class): radius 0.15 m,
downwash factor 2, velocity limit 1 m/s and acceleration limit 2 m/s^2 per
axis, five quintic segments of 0.2 s each, jerk-weighted smoothness, and the
goal-planning distances used by the priority rules.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

_POSITIVE = (
    "segment_time",
    "agent_radius",
    "max_velocity",
    "max_acceleration",
    "goal_reach_dist",
    "repulsion_dist",
    "qp_tolerance",
    "safety_buffer",
)
_NON_NEGATIVE = ("jerk_weight", "goal_weights", "repulsion_trigger_dist")


def _check_int(name, value, least):
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def _check_floats(name, value, rule, words):
    """Raise unless every entry of `value` is finite and passes `rule`."""
    values = np.asarray(value, dtype=float)
    if not (np.all(np.isfinite(values)) and np.all(rule(values))):
        raise ValueError(f"{name} must be finite and {words}, got {value!r}")


def _triple(value) -> tuple[float, float, float]:
    arr = np.asarray(value, dtype=float).reshape(3)
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class PlanningParams:
    """Immutable bundle of every tunable the planner and simulator share.

    Attributes:
        degree: polynomial degree of each trajectory segment (max 10).
        segment_count: number of segments in the planning horizon.
        segment_time: duration of one segment in seconds; also the
            replanning period (the feasibility guarantee requires equality).
        agent_radius: default collision radius in meters.
        downwash: vertical stretch factor of the inter-agent collision
            ellipsoid; 1 means a sphere.
        max_velocity / max_acceleration: per-axis symmetric bounds.
        goal_weights: per-segment weights on the distance of segment
            endpoints to the current goal (length segment_count).
        jerk_weight: weight on the integrated squared jerk.
        goal_reach_dist: distance at which an agent counts as goal-reached.
        repulsion_trigger_dist: if the nearest higher-priority agent is
            closer than this, the goal is replaced by a repulsion target.
        repulsion_dist: distance of the repulsion target from that agent.
        safety_buffer: extra margin added to every separating half-space.
            The exact QP solver parks agents exactly on constraint
            boundaries, so a strictly positive buffer is what keeps the
            next step's relative hull clear of the collision model; the
            1e-6 default is physically negligible but restores the strict
            separation the feasibility argument needs.
        qp_tolerance: feasibility/stationarity tolerance of the QP solver.
        qp_max_iterations: active-set iteration budget; None (automatic)
            lets qp.solve set 3 x inequality rows + 120 for each problem.
        astar_budget: node-expansion cap of the grid search before it gives
            up and the caller falls back to the agent-free retry.

    Construction raises ValueError for any value the planner cannot run:
    degree, segment_count and astar_budget are ints of at least 1 (degree
    at most 10), segment_count * (degree - 2) exceeds degree, else the
    equalities pin every control point, and qp_max_iterations is None or
    an int of at least 0;
    every float is finite; segment_time, agent_radius, each axis of
    max_velocity and max_acceleration, goal_reach_dist, repulsion_dist,
    qp_tolerance and safety_buffer are positive; jerk_weight, goal_weights
    and repulsion_trigger_dist are at least 0; downwash is at least 1.
    The segment_count * (degree - 2) check bounds the nullspace, not progress:
    (degree 5, segment_count 2) passes, but leaves one free control point per
    axis, and its agents barely move (0.14 m in 200 steps on circle-2).
    """

    degree: int = 5
    segment_count: int = 5
    segment_time: float = 0.2
    agent_radius: float = 0.15
    downwash: float = 2.0
    max_velocity: tuple[float, float, float] = (1.0, 1.0, 1.0)
    max_acceleration: tuple[float, float, float] = (2.0, 2.0, 2.0)
    goal_weights: tuple[float, ...] | None = None
    jerk_weight: float = 0.01
    goal_reach_dist: float = 0.1
    repulsion_trigger_dist: float = 0.4
    repulsion_dist: float = 0.5
    safety_buffer: float = 1e-6
    qp_tolerance: float = 1e-6
    qp_max_iterations: int | None = None
    astar_budget: int = 20000

    def __post_init__(self):
        for name in ("degree", "segment_count", "astar_budget"):
            _check_int(name, getattr(self, name), 1)
        if self.degree > 10:
            raise ValueError(f"degree must be in [1, 10], got {self.degree}")
        if self.segment_count * (self.degree - 2) <= self.degree:
            raise ValueError(
                f"degree {self.degree} with segment_count {self.segment_count} leaves "
                "no free control point: segment_count * (degree - 2) must exceed degree"
            )
        if self.qp_max_iterations is not None:
            _check_int("qp_max_iterations", self.qp_max_iterations, 0)
        if self.goal_weights is None:
            object.__setattr__(self, "goal_weights", (1.0,) * self.segment_count)
        if len(self.goal_weights) != self.segment_count:
            raise ValueError("goal_weights must have one entry per segment")
        object.__setattr__(self, "max_velocity", _triple(self.max_velocity))
        object.__setattr__(self, "max_acceleration", _triple(self.max_acceleration))
        object.__setattr__(self, "goal_weights", tuple(float(w) for w in self.goal_weights))
        for name in _POSITIVE:
            _check_floats(name, getattr(self, name), lambda v: v > 0, "positive")
        for name in _NON_NEGATIVE:
            _check_floats(name, getattr(self, name), lambda v: v >= 0, "non-negative")
        _check_floats("downwash", self.downwash, lambda v: v >= 1, "at least 1")

    @property
    def horizon(self) -> float:
        return self.segment_count * self.segment_time

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlanningParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("max_velocity", "max_acceleration", "goal_weights"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)
