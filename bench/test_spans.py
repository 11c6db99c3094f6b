"""The span recorder: self time, pool-thread parenting and restoring the
wrapped names.  Run with `PYTHONPATH=src python -m pytest bench`."""

import math

import pytest

import sixjvol as sv
from sixjvol import growth, sixj

from spans import Tracer, union_length


def test_union_length_merges_and_clips():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) \
        == pytest.approx(4.0)
    assert union_length([(-1.0, 1.0), (0.5, 4.0)], 0.0, 3.0) \
        == pytest.approx(3.0)
    assert union_length([], 0.0, 1.0) == 0.0


def test_scan_spans_parent_pool_threads_and_uninstall():
    alpha = sv.AlphaSixTuple.from_theta(
        sv.AngleSixTuple((math.pi / 6,) * 6), (-1,) * 6)
    plan = sv.GrowthPlan(alpha, tuple(range(101, 122, 2)))
    with Tracer() as tracer:
        samples = growth.growth_series(plan)
    s = tracer.summary()
    assert tracer.missing == []
    assert s["calls:sixj.sixj_log"] == len(samples) == 11
    assert s["calls:growth.growth_series"] == 1
    # every level's spans ran in pool threads, parented to the scan span
    scan_id = next(r[0] for r in tracer.records
                   if r[2] == "growth.growth_series")
    pooled = [r for r in tracer.records if r[2] == "growth.colors_for_r"]
    assert len(pooled) == 11 and all(r[1] == scan_id for r in pooled)
    assert s["child_s:growth.growth_series"] > 0.0
    assert 0.0 <= s["self_s:growth.growth_series"] \
        <= s["wall_s:growth.growth_series"]
    assert s["sixj.zterms"] > 0
    assert growth.sixj_log is sixj.sixj_log
    assert growth.growth_series is sv.growth_series
