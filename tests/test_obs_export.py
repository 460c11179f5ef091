"""Tests for span profiling, Chrome-trace export, and the dashboard."""

import json

import numpy as np

from repro.bench.profile import ProfileConfig, run_profiled_cannon, write_profile
from repro.cluster import World, run_spmd
from repro.core import DiompParams, DiompRuntime
from repro.hardware import platform_a
from repro.obs import Observability
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    render_dashboard,
    write_metrics_snapshot,
)


def make_obs(times):
    """An Observability whose clock pops pre-baked timestamps."""
    it = iter(times)
    obs = Observability()
    obs.bind_clock(lambda: next(it))
    return obs


class TestSpans:
    def test_nesting_depth_and_duration(self):
        obs = make_obs([0.0, 1.0, 2.0, 5.0])
        with obs.span("outer", rank=0):
            with obs.span("inner", rank=0):
                pass
        inner, outer = obs.spans
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert inner.duration == 1.0
        assert outer.duration == 5.0
        assert outer.category == "outer"

    def test_track_defaults(self):
        obs = make_obs([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with obs.span("a", rank=3):
            pass
        with obs.span("b"):
            pass
        with obs.span("c", track="custom"):
            pass
        assert [s.track for s in obs.spans] == ["rank3", "main", "custom"]

    def test_disabled_profiler_records_nothing(self):
        obs = Observability(enabled=False)
        with obs.span("x", rank=0):
            pass
        assert len(obs.spans) == 0

    def test_profiler_queries(self):
        obs = make_obs([0.0, 1.0, 1.0, 4.0])
        with obs.span("rma.put", rank=0):
            pass
        with obs.span("rma.put", rank=1):
            pass
        prof = obs.profiler
        assert prof.count("rma.put") == 2
        assert prof.total_time("rma.put") == 4.0
        assert len(prof.select(track="rank1")) == 1


class TestChromeTrace:
    def test_event_schema(self):
        obs = make_obs([0.0, 1e-6])
        with obs.span("rma.put", rank=0, target=1):
            pass
        doc = chrome_trace(obs.spans, metadata={"run": "test"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"run": "test"}
        events = doc["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        assert set(by_ph) == {"M", "X"}
        # track-name metadata for the one span track
        names = [e["args"]["name"] for e in by_ph["M"]]
        assert names == ["rank0"]
        (span_ev,) = by_ph["X"]
        assert span_ev["name"] == "rma.put"
        assert span_ev["ts"] == 0.0
        assert span_ev["dur"] == 1.0  # microseconds
        assert span_ev["args"] == {"rank": "0", "target": "1"}
        # everything must be JSON-serializable
        json.dumps(doc)

    def test_rank_tracks_sorted_numerically(self):
        obs = make_obs([float(i) for i in range(22)])
        for r in (10, 2, 0, 1):
            with obs.span("x", rank=r):
                pass
        events = chrome_trace_events(obs.spans)
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert names == ["rank0", "rank1", "rank2", "rank10"]

    def test_empty_inputs(self):
        assert chrome_trace_events([]) == []
        doc = chrome_trace(None)
        assert doc["traceEvents"] == []

    def test_real_run_names_every_track_once(self):
        """A run_spmd world's trace: one ``thread_name`` record per span
        track, every slice and flow event on a named track, and only
        metadata, slice and flow phases."""
        w = World(platform_a(with_quirk=False), num_nodes=2, ranks_per_node=2)
        DiompRuntime(w, DiompParams(segment_size=1 << 20))

        def prog(ctx):
            d = ctx.diomp
            buf = d.alloc(256)
            buf.typed(np.float64)[:] = float(ctx.rank)
            d.barrier()
            d.put((ctx.rank + 1) % ctx.nranks, buf, buf.memref())
            d.fence()
            d.barrier()

        run_spmd(w, prog)
        events = w.obs.chrome_trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"thread_name"}
        names = [e["args"]["name"] for e in meta]
        assert sorted(names) == sorted({s.track for s in w.obs.spans})
        named_tids = {e["tid"] for e in meta}
        assert len(named_tids) == len(meta)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "s", "f"} <= phases <= {"M", "X", "s", "t", "f"}
        assert all(
            e["tid"] in named_tids for e in events if e["ph"] in "Xstf"
        )


class TestProfileRun:
    def test_profiled_cannon_outputs(self, tmp_path):
        out = tmp_path / "prof.json"
        write_profile(str(out), ProfileConfig(n=64))
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"rank0", "rank1", "rank2", "rank3"} <= tracks
        metrics = json.loads((tmp_path / "prof.metrics.json").read_text())
        assert metrics["nranks"] == 4
        families = metrics["metrics"]
        # the acceptance trio: per-path traffic, cache events, pool gauge
        assert "rma.bytes" in families["counters"]
        assert "rma.pointer_cache" in families["counters"]
        assert "streams.active" in families["gauges"]
        paths = {
            s["labels"]["path"]
            for s in families["counters"]["rma.bytes"]["series"]
        }
        assert {"conduit", "ipc"} <= paths

    def test_dashboard_renders(self):
        res = run_profiled_cannon(ProfileConfig(n=64))
        text = render_dashboard(res.world.obs.registry, title="test run")
        assert "RMA traffic by path" in text
        for path in ("conduit", "ipc", "p2p", "local"):
            assert path in text
        assert "Pointer cache" in text
        assert "Stream pools" in text
        assert "Metric catalog" in text

    def test_write_metrics_snapshot(self, tmp_path):
        obs = Observability()
        obs.counter("c").inc(rank=0)
        path = tmp_path / "m.json"
        doc = write_metrics_snapshot(str(path), obs.registry, extra={"k": 1})
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert loaded["k"] == 1
        assert loaded["metrics"]["counters"]["c"]["series"][0]["value"] == 1


class TestStreamingWriters:
    """S1: file exports stream events instead of buffering the doc."""

    def _populated(self):
        obs = make_obs([0.0, 1e-6, 2e-6, 3e-6])
        with obs.span("a", rank=0):
            pass
        with obs.span("b", rank=1):
            pass
        return obs

    def test_streamed_trace_equals_buffered_doc(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        obs = self._populated()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), obs.spans, metadata={"run": "x"})
        streamed = json.loads(path.read_text())
        buffered = chrome_trace(obs.spans, metadata={"run": "x"})
        assert streamed == buffered
        assert n == len(buffered["traceEvents"])
        assert streamed["otherData"] == {"run": "x"}

    def test_empty_trace_is_valid_json(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        path = tmp_path / "empty.json"
        assert write_chrome_trace(str(path)) == 0
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_iter_events_matches_list(self):
        from repro.obs.export import iter_chrome_trace_events

        obs = self._populated()
        assert list(iter_chrome_trace_events(obs.spans)) == (
            chrome_trace_events(obs.spans)
        )


class TestHealthTable:
    """S3: dropped series and per-metric series counts are visible."""

    def test_health_in_dashboard(self):
        obs = Observability()
        obs.counter("a").inc(rank=0)
        obs.counter("a").inc(rank=1)
        text = render_dashboard(obs.registry)
        assert "Telemetry health" in text
        assert "a" in text

    def test_dropped_writes_called_out(self):
        import warnings

        from repro.obs.export import health_table
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry(max_series_per_metric=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(5):
                reg.counter("a").inc(rank=r)
        text = health_table(reg).render()
        assert "dropped 3 write(s)" in text
        assert "yes" in text  # the overflowed column
