"""Seeded inputs of the benchmark workloads.

The run seed is the only input: mission i of a run uses scenario seed
`seed + MISSION_STRIDE * i`, so mission 0 is exactly what the generator
returns for the run seed, and runs with seeds below the stride never share
a scenario.
"""

from __future__ import annotations

import math

import numpy as np

from swarmplan.scenarios import AgentSpec, Scenario, generate_scenario

MISSION_STRIDE = 10_000
CIRCLE_AGENTS = 32
INDOOR_AGENTS = 8


def mission_seed(seed: int, index: int) -> int:
    return seed + MISSION_STRIDE * index


def indoor(seed: int) -> Scenario:
    """Three-room map with doors on alternating sides, 8 agents."""
    return generate_scenario("indoor", INDOOR_AGENTS, seed)


def circle_angle(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi / CIRCLE_AGENTS))


def circle(seed: int) -> Scenario:
    """Stock 32-agent antipodal circle, rotated about z by `circle_angle(seed)`.

    The stock circle generator ignores its seed; rotating by less than one
    agent spacing makes the seed change the input while keeping the
    swarm's geometry, so every seed poses the same crossing problem.
    """
    base = generate_scenario("circle", CIRCLE_AGENTS, seed)
    angle = circle_angle(seed)
    c, s = math.cos(angle), math.sin(angle)

    def turn(p):
        x, y, z = p
        return (c * x - s * y, s * x + c * y, z)

    agents = [AgentSpec(turn(a.start), turn(a.goal), a.radius) for a in base.agents]
    scenario = Scenario(
        base.kind, base.map_data, agents, base.params, base.seed, base.timeout
    )
    scenario.validate()
    return scenario


#: Scenario builder of each workload.
SIM_WORKLOADS = {"indoor-8": indoor, "circle-32": circle}

#: Wall seconds of one mission, scenario generation included, on a 2-core
#: AMD EPYC host. A run makes round(--seconds / this) missions, so the work
#: done for a seed does not depend on how fast the code under test is.
NOMINAL_MISSION_S = {"indoor-8": 7.5, "circle-32": 25.0}
