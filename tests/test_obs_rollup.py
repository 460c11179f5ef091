"""Cross-rank metric rollups: exact summaries, flat cardinality."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import (
    exact_percentile,
    rollup_metric,
    rollup_registry,
    rollup_snapshot,
)


class TestExactPercentile:
    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(values, 0.0) == 1.0
        assert exact_percentile(values, 1.0) == 4.0
        assert exact_percentile(values, 0.5) == pytest.approx(2.5)
        # numpy linear method: pos = 0.99 * 3 = 2.97
        assert exact_percentile(values, 0.99) == pytest.approx(3.97)

    def test_order_independent(self):
        assert exact_percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)

    def test_edges(self):
        assert exact_percentile([], 0.5) == 0.0
        assert exact_percentile([7.0], 0.99) == 7.0


def make_registry(nranks=8):
    reg = MetricsRegistry()
    c = reg.counter("rma.ops")
    for r in range(nranks):
        c.inc(r + 1, rank=r, op="put")
        c.inc(2 * (r + 1), rank=r, op="get")
    g = reg.gauge("mem.used")
    for r in range(nranks):
        g.set(100.0 * r, rank=r)
    h = reg.histogram("lat", bounds=(1, 10, 100))
    for r in range(nranks):
        for _ in range(r + 1):
            h.observe(5.0, rank=r)
    reg.counter("cluster.total").inc(42)  # no rank label
    return reg


class TestRollupMetric:
    def test_counter_groups_exact(self):
        reg = make_registry(8)
        groups = rollup_metric(reg.counter("rma.ops"))
        assert len(groups) == 2  # one group per op, not per rank
        by_op = {g["labels"]["op"]: g for g in groups}
        put = by_op["put"]
        # Exact stats over per-rank values 1..8.
        assert put["ranks"] == 8
        assert put["min"] == 1.0 and put["max"] == 8.0
        assert put["mean"] == pytest.approx(4.5)
        assert put["sum"] == pytest.approx(36.0)
        assert put["p99"] == pytest.approx(exact_percentile([float(i) for i in range(1, 9)], 0.99))
        assert by_op["get"]["sum"] == pytest.approx(72.0)

    def test_histogram_groups(self):
        reg = make_registry(4)
        (group,) = rollup_metric(reg.histogram("lat"))
        assert group["ranks"] == 4
        # Per-rank observation counts 1..4.
        assert group["count"]["min"] == 1.0 and group["count"]["max"] == 4.0
        assert group["mean"]["mean"] == pytest.approx(5.0)

    def test_unranked_series_excluded(self):
        reg = make_registry(2)
        assert rollup_metric(reg.counter("cluster.total")) == []


class TestRollupRegistry:
    def test_families_and_flat_cardinality(self):
        reg = make_registry(16)
        doc = rollup_registry(reg)
        assert set(doc) == {"rma.ops", "mem.used", "lat", "cluster.total"}
        assert doc["rma.ops"]["kind"] == "counter"
        # Cardinality is label-combinations, not ranks.
        assert len(doc["rma.ops"]["groups"]) == 2
        assert len(doc["mem.used"]["groups"]) == 1

    def test_empty_family_contributes_explicit_entry(self):
        # "No data" must be visible: a registered family with zero
        # rank-labeled series appears with empty groups, so downstream
        # SLO math can tell "never measured" from "measured 100% good".
        reg = make_registry(2)
        doc = rollup_registry(reg)
        assert doc["cluster.total"] == {"kind": "counter", "groups": []}
        # The legacy shape is still available on request.
        legacy = rollup_registry(reg, include_empty=False)
        assert "cluster.total" not in legacy

    def test_size_flat_in_rank_count(self):
        import json

        small = len(json.dumps(rollup_registry(make_registry(4))))
        big = len(json.dumps(rollup_registry(make_registry(64))))
        # 16x the ranks must not produce anywhere near 16x the bytes.
        assert big < 2 * small


class TestRollupSnapshot:
    def test_shape_and_health(self):
        reg = make_registry(4)
        doc = rollup_snapshot(reg)
        assert set(doc) >= {"counters", "gauges", "histograms", "health", "rollup_label"}
        fam = doc["counters"]["rma.ops"]
        assert fam["series"] == []  # all series were rank-labeled
        assert len(fam["rollup"]) == 2
        # Unranked series pass through verbatim.
        total = doc["counters"]["cluster.total"]
        assert total["series"][0]["value"] == 42.0
        assert doc["health"]["total_series"] == reg.health()["total_series"]
        assert doc["histograms"]["lat"]["bounds"] == [1, 10, 100]

    def test_facade_entry_points(self):
        from repro.obs import Observability

        obs = Observability()
        obs.counter("x").inc(1, rank=0)
        obs.counter("x").inc(3, rank=1)
        roll = obs.rollup()
        assert roll["x"]["groups"][0]["sum"] == 4.0
        snap = obs.rollup_snapshot()
        assert snap["counters"]["x"]["rollup"][0]["ranks"] == 2
