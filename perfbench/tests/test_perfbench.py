"""Tests of the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import math

import pytest

from swarmplan import sim
from swarmplan.world import OccupancyGrid

from stats import TooFewSamples, min_samples, percentile
from tracing import LAYERS, NAME, PARENT, Tracer, patched
from workloads import CIRCLE_AGENTS, circle, circle_angle, indoor


def test_percentile_needs_ten_samples_above():
    assert percentile(range(1000), 99) == 989
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    assert percentile(range(200), 95) == 189
    with pytest.raises(TooFewSamples):
        percentile(range(199), 95)
    assert (min_samples(99), min_samples(95), min_samples(50)) == (1000, 200, 20)


def test_circle_rotation_is_deterministic_and_valid():
    a, b, other = circle(3), circle(3), circle(4)
    assert a.agents == b.agents
    assert a.agents != other.agents
    for seed in (1, 2, 3, 4):
        assert 0.0 <= circle_angle(seed) < 2 * math.pi / CIRCLE_AGENTS
    a.validate()
    for spec in a.agents:
        assert math.hypot(spec.start[0], spec.start[1]) == pytest.approx(4.0)
        assert spec.goal[0] == pytest.approx(-spec.start[0])
        assert spec.goal[1] == pytest.approx(-spec.start[1])
    first = math.atan2(a.agents[0].start[1], a.agents[0].start[0])
    assert first == pytest.approx(circle_angle(3))


def test_wrappers_restore_originals():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in LAYERS]
    tracer = Tracer(LAYERS)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(
                owner.__dict__[attr] is not orig
                for (owner, attr, _, _), orig in zip(LAYERS, originals)
            )
            raise RuntimeError("leave the block early")
    assert all(
        owner.__dict__[attr] is orig
        for (owner, attr, _, _), orig in zip(LAYERS, originals)
    )
    assert isinstance(OccupancyGrid.__dict__["from_dict"], classmethod)

    with patched([(sim, "run", None)]):
        assert sim.run is None
    assert sim.__dict__["run"] is originals[0]


def test_spans_nest_under_their_caller():
    tracer = Tracer(LAYERS)
    scenario = indoor(1)
    with tracer.installed():
        grid = OccupancyGrid.from_dict(scenario.map_data)
        assert grid.point_is_free(scenario.agents[0].start, 0.15)
    names = [rec[NAME] for rec in tracer.spans]
    assert names == ["world.from_dict", "world.point_is_free", "world.points_free"]
    assert [rec[PARENT] for rec in tracer.spans] == [-1, -1, 1]
