"""Bounded-memory span collection: budgets, sampling, spill."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sampling import (
    SPAN_COST_BYTES,
    SpanBudget,
    SpanStore,
    read_spill,
)
from repro.obs.spans import SpanProfiler, SpanRecord
from repro.util.errors import ConfigurationError


def span(i, track="rank0", name="op"):
    return SpanRecord(
        name=name,
        track=track,
        start=i * 1e-6,
        end=i * 1e-6 + 5e-7,
        depth=0,
        args={"i": i},
        span_id=i + 1,
    )


def budget(max_spans, **kw):
    return SpanBudget(max_bytes=max_spans * SPAN_COST_BYTES, **kw)


class TestBudgetValidation:
    def test_too_small_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="span budget"):
            SpanBudget(max_bytes=SPAN_COST_BYTES - 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="per_track"):
            SpanBudget(per_track_reservoir=0)
        with pytest.raises(ConfigurationError, match="per_track"):
            SpanBudget(per_track_head=-1)

    def test_max_spans_from_bytes(self):
        assert budget(10).max_spans == 10
        assert SpanBudget().max_spans == 64 * 1024 * 1024 // SPAN_COST_BYTES


class TestLosslessMode:
    def test_under_budget_keeps_everything_in_order(self):
        store = SpanStore(budget(100))
        recs = [span(i, track=f"rank{i % 4}") for i in range(50)]
        for r in recs:
            store.append(r)
        assert not store.sampling
        assert list(store) == recs  # exact append order, nothing lost
        assert len(store) == 50
        assert store.dropped == 0
        assert store.memory_bytes == 50 * SPAN_COST_BYTES

    def test_truthiness_and_clear(self):
        store = SpanStore(budget(10))
        assert not store
        store.append(span(0))
        assert store
        store.clear()
        assert not store and store.recorded == 0


class TestSamplingMode:
    def test_budget_is_a_hard_cap(self):
        store = SpanStore(budget(64, per_track_head=4, per_track_reservoir=8))
        for i in range(1000):
            store.append(span(i, track=f"rank{i % 8}"))
        assert store.sampling
        assert len(store) <= 64
        assert store.memory_bytes <= 64 * SPAN_COST_BYTES
        assert store.recorded == 1000
        assert store.dropped == 1000 - len(store)

    def test_heads_are_pinned(self):
        store = SpanStore(budget(64, per_track_head=4, per_track_reservoir=8))
        for i in range(1000):
            store.append(span(i, track=f"rank{i % 8}"))
        kept = list(store)
        # The first 4 spans of every track survive sampling.
        for rank in range(8):
            track_kept = [r for r in kept if r.track == f"rank{rank}"]
            firsts = [r for r in track_kept if r.args["i"] < 4 * 8]
            assert len(firsts) == 4

    def test_iteration_sorted_by_start(self):
        store = SpanStore(budget(32, per_track_head=2, per_track_reservoir=4))
        for i in range(500):
            store.append(span(i, track=f"rank{i % 8}"))
        starts = [r.start for r in store]
        assert starts == sorted(starts)

    def test_deterministic_given_seed(self):
        def fill(seed):
            store = SpanStore(budget(32, per_track_head=2, per_track_reservoir=4, seed=seed))
            for i in range(500):
                store.append(span(i, track=f"rank{i % 4}"))
            return [(r.track, r.args["i"]) for r in store]

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)

    def test_many_tracks_tiny_budget_holds_cap(self):
        # More tracks x head than the cap: the head-trim fallback must
        # still enforce the hard budget.
        store = SpanStore(budget(10, per_track_head=4, per_track_reservoir=4))
        for i in range(400):
            store.append(span(i, track=f"rank{i % 40}"))
        assert len(store) <= 10

    def test_stats_consistency(self):
        store = SpanStore(budget(16, per_track_head=2, per_track_reservoir=4))
        for i in range(200):
            store.append(span(i, track=f"rank{i % 4}"))
        s = store.stats()
        assert s.recorded == 200
        assert s.recorded == s.kept + s.dropped
        assert s.kept == len(store)
        assert s.memory_bytes == s.kept * SPAN_COST_BYTES
        assert s.sampling
        assert s.to_dict()["kept"] == s.kept


class TestSetBudget:
    def test_shrinking_budget_readmits(self):
        store = SpanStore(budget(100))
        for i in range(80):
            store.append(span(i, track=f"rank{i % 4}"))
        store.set_budget(budget(20, per_track_head=2, per_track_reservoir=3))
        assert len(store) <= 20
        assert store.recorded == 80  # counters describe the whole run


class TestSpill:
    def test_every_span_spilled_and_readable(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        store = SpanStore(budget(8, per_track_head=1, per_track_reservoir=2, spill_path=path))
        recs = [span(i, track=f"rank{i % 4}") for i in range(50)]
        for r in recs:
            store.append(r)
        store.close()
        assert len(store) <= 8  # RAM bounded...
        assert store.spilled == 50
        back = read_spill(path)  # ...full fidelity on disk
        assert len(back) == 50
        assert back[7].name == recs[7].name
        assert back[7].start == recs[7].start
        assert back[7].track == recs[7].track

    def test_spill_lines_are_json(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        store = SpanStore(budget(8, spill_path=path))
        store.append(span(0))
        store.flush()
        with open(path) as fh:
            doc = json.loads(fh.read().strip())
        store.close()
        assert doc["name"] == "op" and doc["span_id"] == 1


class TestProfilerIntegration:
    def test_profiler_uses_budgeted_store(self):
        prof = SpanProfiler(clock=lambda: 0.0)
        assert isinstance(prof.records, SpanStore)
        with prof.span("x", rank=0):
            pass
        assert prof.count("x") == 1

    def test_set_budget_via_profiler(self):
        prof = SpanProfiler(clock=lambda: 0.0)
        for i in range(100):
            with prof.span("x", rank=i % 4):
                pass
        prof.set_budget(budget(16, per_track_head=2, per_track_reservoir=2))
        assert len(prof.records) <= 16

    def test_record_roundtrip_dict(self):
        rec = span(3)
        back = SpanRecord.from_dict(rec.to_dict())
        assert back.name == rec.name
        assert back.start == rec.start
        assert back.span_id == rec.span_id
        assert back.links == rec.links


class ScanStore(SpanStore):
    """The store with the original linear-scan victim selection: the
    largest non-empty reservoir other than ``exempt``, first in track
    creation order on ties."""

    def _victim(self, exempt):
        victim = None
        for sample in self._tracks.values():
            if sample is exempt or not sample.reservoir:
                continue
            if victim is None or len(sample.reservoir) > len(victim.reservoir):
                victim = sample
        return victim


budgets = st.builds(
    lambda max_spans, head, res, seed: budget(
        max_spans, per_track_head=head, per_track_reservoir=res, seed=seed
    ),
    max_spans=st.integers(1, 24),
    head=st.integers(0, 4),
    res=st.integers(1, 6),
    seed=st.integers(0, 3),
)

# A few hot tracks (listed twice for weight) plus a long tail of rare
# ones: skewed load, and new tracks keep appearing after saturation.
tracks = st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(0, 30))

# Bursts of spans (listed twice for weight), so most streams saturate
# their budget and evict.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("spans"), st.lists(tracks, min_size=1, max_size=60)),
        st.tuples(st.just("spans"), st.lists(tracks, min_size=1, max_size=60)),
        st.tuples(st.just("budget"), budgets),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


class TestEvictionIndex:
    """The length index must evict exactly what the linear scan did."""

    @given(initial=budgets, stream=ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, initial, stream):
        fast, ref = SpanStore(initial), ScanStore(initial)
        ids = itertools.count()
        for op, arg in stream:
            if op == "spans":
                for track in arg:
                    rec = span(next(ids), track=f"rank{track}")
                    fast.append(rec)
                    ref.append(rec)
            elif op == "budget":
                fast.set_budget(arg)
                ref.set_budget(arg)
            else:
                fast.clear()
                ref.clear()
            assert [r.span_id for r in fast] == [r.span_id for r in ref]
            assert fast.stats() == ref.stats()

    def test_ties_go_to_the_earliest_track(self):
        # Saturate with equal reservoirs, then open a new track: the
        # victim is the first-created track, as the scan picks it.
        store = SpanStore(budget(6, per_track_head=0, per_track_reservoir=2))
        for i in range(6):
            store.append(span(i, track=f"rank{i % 3}"))
        store.append(span(6, track="rank0"))  # enters sampling
        store.append(span(7, track="new"))
        sizes = {t: len(s.reservoir) for t, s in store._tracks.items()}
        assert sizes == {"rank0": 1, "rank1": 2, "rank2": 2, "new": 1}
