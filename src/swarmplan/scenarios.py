"""Scenario model, JSON round-trip, and seeded scenario generators.

A scenario is fully self-contained: the map, the agents' missions, every
planning parameter, the random seed it was built from, and the timeout. All
generators are deterministic functions of (kind, count, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from swarmplan.errors import ScenarioGenerationError
from swarmplan.params import PlanningParams
from swarmplan.world import OccupancyGrid

_BOUNDS = {
    "empty": ((0.0, 0.0, 0.0), (3.0, 3.0, 2.0)),
    "circle": ((-5.0, -5.0, 0.0), (5.0, 5.0, 2.0)),
    "forest": ((-5.0, -5.0, 0.0), (5.0, 5.0, 2.0)),
    "indoor": ((0.0, 0.0, 0.0), (10.0, 15.0, 2.5)),
}

#: Voxel edge of every generated map, in meters.
_GRID_RESOLUTION = 0.1

_CIRCLE_RADIUS = 4.0
_CIRCLE_HEIGHT = 1.0
_FOREST_OBSTACLES = 10

# Interior walls of the indoor map, with one door per wall on alternating
# sides so missions between rooms force S-shaped detours.
_INDOOR_WALLS = [
    ((0.0, 4.9, 0.0), (7.0, 5.1, 2.5)),
    ((3.0, 9.9, 0.0), (10.0, 10.1, 2.5)),
]

# Predetermined mission points of the indoor map (all rooms, z = 1.2).
_INDOOR_POINTS = [
    (x, y, 1.2)
    for y in (2.5, 7.5, 12.5)
    for x in (1.2, 3.8, 6.2, 8.8)
]


@dataclass(frozen=True)
class AgentSpec:
    start: tuple[float, float, float]
    goal: tuple[float, float, float]
    radius: float


@dataclass
class Scenario:
    kind: str
    map_data: dict
    agents: list[AgentSpec]
    params: PlanningParams
    seed: int
    timeout: float

    def grid(self) -> OccupancyGrid:
        return OccupancyGrid.from_dict(self.map_data)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "map": self.map_data,
            "agents": [
                {"start": list(a.start), "goal": list(a.goal), "radius": a.radius}
                for a in self.agents
            ],
            "params": self.params.to_dict(),
            "seed": self.seed,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            agents = [
                AgentSpec(tuple(a["start"]), tuple(a["goal"]), float(a["radius"]))
                for a in data["agents"]
            ]
            return cls(
                kind=str(data.get("kind", "custom")),
                map_data=data["map"],
                agents=agents,
                params=PlanningParams.from_dict(data["params"]),
                seed=int(data.get("seed", 0)),
                timeout=float(data.get("timeout", 60.0)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def validate(self, grid: OccupancyGrid | None = None):
        """Enforce the start/goal invariants the planner's guarantees rest on."""
        if not self.agents:
            raise ValueError("scenario has no agents")
        if not 0.0 < self.timeout < np.inf:
            raise ValueError(f"timeout must be finite and positive, got {self.timeout}")
        grid = grid if grid is not None else self.grid()
        for i, spec in enumerate(self.agents):
            if not 0 < spec.radius < np.inf:
                raise ValueError(f"agent {i} radius {spec.radius} is not positive and finite")
            if not grid.point_is_free(spec.start, spec.radius):
                raise ValueError(f"agent {i} start is not free under inflation")
            if not grid.point_is_free(spec.goal, spec.radius):
                raise ValueError(f"agent {i} goal is not free under inflation")
        # Pairs (j, i), j < i, in order of i, then j: the starts, then the goals.
        i, j = np.tril_indices(len(self.agents), k=-1)
        radii = np.array([spec.radius for spec in self.agents])
        scale = np.array([1.0, 1.0, 1.0 / self.params.downwash])
        for name in ("start", "goal"):
            points = np.array([getattr(spec, name) for spec in self.agents], dtype=float)
            diffs = (points[i] - points[j]) * scale
            close = np.sqrt(np.vecdot(diffs, diffs)) <= radii[i] + radii[j]
            if close.any():
                p = np.argmax(close)
                raise ValueError(f"agents {j[p]} and {i[p]} {name} within collision distance")


def generate_scenario(
    kind: str,
    count: int,
    seed: int,
    params: PlanningParams | None = None,
    timeout: float = 60.0,
) -> Scenario:
    """Deterministic scenario of the requested kind for `count` agents."""
    if count < 1:
        raise ScenarioGenerationError("need at least one agent")
    if kind not in _BOUNDS:
        raise ScenarioGenerationError(f"unknown scenario kind {kind!r}")
    params = params if params is not None else PlanningParams()
    rng = np.random.default_rng(seed)
    builders = {
        "empty": _build_empty,
        "circle": _build_circle,
        "forest": _build_forest,
        "indoor": _build_indoor,
    }
    scenario = builders[kind](count, rng, params, seed, timeout)
    scenario.validate()
    return scenario


def _map_dict(kind: str, boxes=()) -> dict:
    lo, hi = _BOUNDS[kind]
    return {
        "resolution": _GRID_RESOLUTION,
        "bounds": {"min": list(lo), "max": list(hi)},
        "boxes": [{"min": list(b[0]), "max": list(b[1])} for b in boxes],
    }


def _scaled_gap(a, b, downwash):
    scale = np.array([1.0, 1.0, 1.0 / downwash])
    return float(np.linalg.norm((np.asarray(a) - np.asarray(b)) * scale))


def _sample_positions(rng, grid, count, radius, downwash, clearance, attempts=4000):
    """Rejection-sample `count` mutually clear, inflated-free positions.

    Positions also keep their own voxel center free under the padded goal-
    routing inflation so grid searches can start and end at them.
    """
    lo = grid.bounds_min + radius + 0.05
    hi = grid.bounds_max - radius - 0.05
    pad = grid.resolution / 4
    out = []
    for _ in range(attempts):
        pos = rng.uniform(lo, hi)
        if not grid.point_is_free(pos, radius):
            continue
        center = grid.voxel_center(grid.voxel_index(pos))
        if not grid.point_is_free(center, radius + pad):
            continue
        if all(_scaled_gap(pos, q, downwash) > clearance for q in out):
            out.append(pos)
            if len(out) == count:
                return out
    raise ScenarioGenerationError(
        f"could not place {count} positions with clearance {clearance}"
    )


def _build_empty(count, rng, params, seed, timeout):
    map_data = _map_dict("empty")
    grid = OccupancyGrid.from_dict(map_data)
    r = params.agent_radius
    starts = _sample_positions(
        rng, grid, count, r, params.downwash, clearance=2 * r + 0.1
    )
    goals = _sample_positions(
        rng,
        grid,
        count,
        r,
        params.downwash,
        clearance=2 * r + 2 * params.goal_reach_dist + 0.1,
    )
    agents = [
        AgentSpec(tuple(map(float, s)), tuple(map(float, g)), r)
        for s, g in zip(starts, goals)
    ]
    return Scenario("empty", map_data, agents, params, seed, timeout)


def _circle_missions(count, params):
    r = params.agent_radius
    agents = []
    for k in range(count):
        angle = 2.0 * np.pi * k / count
        start = (
            float(_CIRCLE_RADIUS * np.cos(angle)),
            float(_CIRCLE_RADIUS * np.sin(angle)),
            _CIRCLE_HEIGHT,
        )
        goal = (-start[0], -start[1], _CIRCLE_HEIGHT)
        agents.append(AgentSpec(start, goal, r))
    return agents


def _build_circle(count, rng, params, seed, timeout):
    spacing = 2.0 * _CIRCLE_RADIUS * np.sin(np.pi / max(count, 2))
    if count > 1 and spacing <= 2 * params.agent_radius + 0.1:
        raise ScenarioGenerationError(f"{count} agents do not fit on the circle")
    agents = _circle_missions(count, params)
    return Scenario("circle", _map_dict("circle"), agents, params, seed, timeout)


def _build_forest(count, rng, params, seed, timeout):
    agents = _circle_missions(count, params)
    r = params.agent_radius
    keep_clear = [np.array(a.start) for a in agents] + [np.array(a.goal) for a in agents]
    for _ in range(200):
        boxes = []
        local = np.random.default_rng(int(rng.integers(2**63)))
        tries = 0
        while len(boxes) < _FOREST_OBSTACLES and tries < 2000:
            tries += 1
            side = local.uniform(0.2, 0.35)
            angle = local.uniform(0.0, 2.0 * np.pi)
            rad = np.sqrt(local.uniform(0.0, 1.0)) * 3.0
            cx, cy = rad * np.cos(angle), rad * np.sin(angle)
            lo = (cx - side / 2, cy - side / 2, 0.0)
            hi = (cx + side / 2, cy + side / 2, 2.0)
            # Pillars keep a flyable gap between each other and stay away
            # from every mission endpoint.
            if any(
                _box_gap(lo, hi, b_lo, b_hi) < 2 * r + 0.35 for b_lo, b_hi in boxes
            ):
                continue
            if any(_point_box_distance(p, lo, hi) < r + 0.35 for p in keep_clear):
                continue
            boxes.append((lo, hi))
        if len(boxes) < _FOREST_OBSTACLES:
            continue
        map_data = _map_dict("forest", boxes)
        grid = OccupancyGrid.from_dict(map_data)
        if _missions_reachable(grid, agents, params):
            return Scenario("forest", map_data, agents, params, seed, timeout)
    raise ScenarioGenerationError("could not build a connected forest map")


def _build_indoor(count, rng, params, seed, timeout):
    if count > len(_INDOOR_POINTS):
        raise ScenarioGenerationError(
            f"indoor supports at most {len(_INDOOR_POINTS)} agents"
        )
    map_data = _map_dict("indoor", _INDOOR_WALLS)
    grid = OccupancyGrid.from_dict(map_data)
    points = [np.array(p) for p in _INDOOR_POINTS]
    r = params.agent_radius
    for _ in range(500):
        start_ids = rng.permutation(len(points))[:count]
        goal_ids = rng.permutation(len(points))[:count]
        if any(s == g for s, g in zip(start_ids, goal_ids)):
            continue
        agents = [
            AgentSpec(
                tuple(float(v) for v in points[s]),
                tuple(float(v) for v in points[g]),
                r,
            )
            for s, g in zip(start_ids, goal_ids)
        ]
        if _missions_reachable(grid, agents, params):
            return Scenario("indoor", map_data, agents, params, seed, timeout)
    raise ScenarioGenerationError("could not assign distinct indoor missions")


def _missions_reachable(grid, agents, params) -> bool:
    pad = grid.resolution / 4
    for spec in agents:
        if not grid.point_is_free(spec.start, spec.radius):
            return False
        if not grid.point_is_free(spec.goal, spec.radius):
            return False
        path = grid.astar(spec.start, spec.goal, spec.radius + pad, ())
        if path is None:
            return False
    return True


def _box_gap(lo_a, hi_a, lo_b, hi_b) -> float:
    gaps = []
    for axis in range(2):  # columns span full height; xy gaps decide
        gaps.append(max(lo_b[axis] - hi_a[axis], lo_a[axis] - hi_b[axis], 0.0))
    return float(np.linalg.norm(gaps))


def _point_box_distance(point, lo, hi) -> float:
    p = np.asarray(point, dtype=float)
    clamped = np.clip(p, np.asarray(lo), np.asarray(hi))
    return float(np.linalg.norm(p - clamped))
