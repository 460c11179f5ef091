"""Exporters: Chrome trace-event JSON, metrics snapshots, and the text
dashboard.

The Chrome trace output follows the Trace Event Format and loads
directly in ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev):
spans become complete (``"ph": "X"``) events on one timeline per
track, causal span links become flow (``"ph": "s"/"t"/"f"``) arrows,
and one ``thread_name`` metadata event names each timeline.  All
timestamps are virtual time in microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import SpanRecord

#: path kinds always reported in the RMA dashboard, even when unused
RMA_PATH_KINDS = ("conduit", "ipc", "p2p", "local")


def _track_order(track: str) -> tuple:
    """Sort ranks numerically, then everything else alphabetically."""
    if track.startswith("rank") and track[4:].isdigit():
        return (0, int(track[4:]), track)
    return (1, 0, track)


def flow_events(
    spans: Optional[Sequence[SpanRecord]] = None,
    tids: Optional[Dict[str, int]] = None,
    pid: int = 0,
) -> List[Dict[str, Any]]:
    """Perfetto flow events (``"ph": "s"/"t"/"f"``) from span links.

    Each causal edge — a receiver span whose ``links`` name a sender
    span — becomes a flow arrow from the sender's end to the point the
    message lands inside the receiver.  Edges that chain through
    *interior* spans (exactly one incoming and one outgoing link) merge
    into a single multi-hop flow with ``"t"`` step events, so e.g.
    put → delivery → downstream-wait renders as one arrowed path.
    """
    spans = spans or ()
    if tids is None:
        tids = {
            track: tid
            for tid, track in enumerate(
                sorted({s.track for s in spans}, key=_track_order)
            )
        }
    by_id = {s.span_id: s for s in spans if s.span_id}
    incoming: Dict[int, List[int]] = {}
    outgoing: Dict[int, List[int]] = {}
    for s in spans:
        for link in s.links:
            if link == s.span_id or link not in by_id:
                continue
            incoming.setdefault(s.span_id, []).append(link)
            outgoing.setdefault(link, []).append(s.span_id)
    for targets in outgoing.values():
        targets.sort()

    def interior(n: int) -> bool:
        return len(incoming.get(n, ())) == 1 and len(outgoing.get(n, ())) == 1

    def land_ts(prev: SpanRecord, node: SpanRecord) -> float:
        # Arrive inside the receiving slice, never before departure.
        return min(max(prev.end, node.start), node.end) * 1e6

    def flow(ph: str, fid: int, name: str, rec: SpanRecord, ts: float) -> Dict[str, Any]:
        ev = {
            "ph": ph,
            "id": fid,
            "name": name,
            "cat": "flow",
            "pid": pid,
            "tid": tids[rec.track],
            "ts": ts,
        }
        if ph == "f":
            ev["bp"] = "e"  # bind to the enclosing receiver slice
        return ev

    events: List[Dict[str, Any]] = []
    emitted = set()
    next_id = 1
    for head in sorted(outgoing):
        if interior(head):
            continue  # reached mid-chain from its upstream head
        for first in outgoing[head]:
            if (head, first) in emitted:
                continue
            emitted.add((head, first))
            chain = [by_id[head], by_id[first]]
            node = first
            while interior(node) and (node, outgoing[node][0]) not in emitted:
                nxt = outgoing[node][0]
                emitted.add((node, nxt))
                chain.append(by_id[nxt])
                node = nxt
            fid, next_id = next_id, next_id + 1
            name = chain[0].name
            events.append(flow("s", fid, name, chain[0], chain[0].end * 1e6))
            for prev, mid in zip(chain, chain[1:-1]):
                events.append(flow("t", fid, name, mid, land_ts(prev, mid)))
            events.append(
                flow("f", fid, name, chain[-1], land_ts(chain[-2], chain[-1]))
            )
    return events


def iter_chrome_trace_events(
    spans: Optional[Sequence[SpanRecord]] = None,
    pid: int = 0,
) -> Iterator[Dict[str, Any]]:
    """Yield ``traceEvents`` one at a time (streaming-writer friendly).

    Only the flow-arrow pass needs the whole span set at once; slice
    events are produced incrementally, so a streaming writer never
    materializes the full event list.
    """
    tids: Dict[str, int] = {}
    tracks = sorted({s.track for s in spans or ()}, key=_track_order)
    for tid, track in enumerate(tracks):
        tids[track] = tid
        yield {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": track},
        }
    for span in spans or ():
        yield {
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": tids[span.track],
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "args": {k: str(v) for k, v in span.args.items()},
        }
    yield from flow_events(spans, tids, pid)


def chrome_trace_events(
    spans: Optional[Sequence[SpanRecord]] = None,
    pid: int = 0,
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for the given spans."""
    return list(iter_chrome_trace_events(spans, pid))


def chrome_trace(
    spans: Optional[Sequence[SpanRecord]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A complete JSON-object-format Chrome trace document."""
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = {k: str(v) for k, v in metadata.items()}
    return doc


def write_chrome_trace(
    path: str,
    spans: Optional[Sequence[SpanRecord]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> int:
    """Stream the trace document to ``path``; returns the event count.

    Events are written one at a time as they are produced — the full
    ``traceEvents`` list is never materialized, so exporting a
    thousand-rank trace costs O(1) extra memory over the kept spans.
    The output is the same JSON-object-format document
    :func:`chrome_trace` builds.
    """
    count = 0
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        for ev in iter_chrome_trace_events(spans):
            if count:
                fh.write(",\n")
            fh.write(json.dumps(ev))
            count += 1
        fh.write('], "displayTimeUnit": "ms"')
        if metadata:
            fh.write(', "otherData": ')
            fh.write(json.dumps({k: str(v) for k, v in metadata.items()}))
        fh.write("}")
    return count


def write_metrics_snapshot(path: str, registry: MetricsRegistry, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write ``registry.snapshot()`` (plus ``extra`` keys) as JSON."""
    doc = dict(extra or {})
    doc["metrics"] = registry.snapshot()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# ---------------------------------------------------------------------------
# Text dashboard
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _ranks_of(metric) -> List[str]:
    ranks = set()
    for key in metric.label_keys():
        for k, v in key:
            if k == "rank":
                ranks.add(v)
    return sorted(ranks, key=lambda r: (not r.isdigit(), int(r) if r.isdigit() else 0, r))


def dashboard_tables(registry: MetricsRegistry):
    """The dashboard as a list of :class:`repro.bench.report.Table`.

    Opinionated views first (RMA paths, pointer cache, stream pools),
    then a generic catalog of everything else in the registry.
    """
    # Imported lazily: repro.bench pulls in the world/apps stack, which
    # itself imports repro.obs at world construction.
    from repro.bench.report import Table

    tables = []

    if "rma.ops" in registry or "rma.bytes" in registry:
        t = Table("RMA traffic by path", ["path", "ops", "bytes"])
        for path in RMA_PATH_KINDS:
            t.add_row(
                path,
                _fmt(registry.value("rma.ops", path=path)),
                _fmt(registry.value("rma.bytes", path=path)),
            )
        tables.append(t)

        ops = registry.counter("rma.ops")
        ranks = _ranks_of(ops)
        if ranks:
            t = Table("RMA ops by rank", ["rank", "puts", "gets", "pointer fetches"])
            for rank in ranks:
                t.add_row(
                    rank,
                    _fmt(ops.value(op="put", rank=rank)),
                    _fmt(ops.value(op="get", rank=rank)),
                    _fmt(registry.value("rma.pointer_cache", event="miss", rank=rank)),
                )
            t.add_row(
                "all",
                _fmt(ops.value(op="put")),
                _fmt(ops.value(op="get")),
                _fmt(registry.value("rma.pointer_cache", event="miss")),
            )
            tables.append(t)

    if "rma.agg.batches" in registry:
        batches = registry.value("rma.agg.batches")
        batched = registry.value("rma.agg.batched_ops")
        t = Table(
            "RMA aggregation",
            ["op", "batches", "coalesced ops", "bytes", "ops/batch"],
        )
        for op in ("put", "get"):
            n = registry.value("rma.agg.batches", op=op)
            k = registry.value("rma.agg.batched_ops", op=op)
            t.add_row(
                op,
                _fmt(n),
                _fmt(k),
                _fmt(registry.value("rma.agg.bytes", op=op)),
                f"{k / n:.1f}" if n else "n/a",
            )
        t.add_row(
            "all",
            _fmt(batches),
            _fmt(batched),
            _fmt(registry.value("rma.agg.bytes")),
            f"{batched / batches:.1f}" if batches else "n/a",
        )
        tables.append(t)

    if "rma.pointer_cache" in registry:
        hits = registry.value("rma.pointer_cache", event="hit")
        misses = registry.value("rma.pointer_cache", event="miss")
        prefetched = registry.value("rma.pointer_cache", event="prefetch")
        total = hits + misses
        t = Table("Pointer cache", ["hits", "misses", "prefetched", "hit rate"])
        t.add_row(
            _fmt(hits),
            _fmt(misses),
            _fmt(prefetched),
            f"{hits / total:.1%}" if total else "n/a",
        )
        tables.append(t)

    if "streams.active" in registry:
        gauge = registry.gauge("streams.active")
        t = Table("Stream pools", ["device", "active", "high water"])
        for key in gauge.label_keys():
            labels = dict(key)
            dev = labels.get("device", "?")
            t.add_row(
                dev,
                _fmt(gauge.value(**labels)),
                _fmt(gauge.high_water(**labels)),
            )
        t.add_row("all", _fmt(gauge.value()), _fmt(gauge.high_water()))
        tables.append(t)

    hist_rows = []
    for metric in registry:
        if not isinstance(metric, Histogram):
            continue
        for entry in metric.snapshot():
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            hist_rows.append((metric.name, labels, entry))
    if hist_rows:
        t = Table(
            "Histogram quantiles",
            ["histogram", "labels", "n", "mean", "p50", "p95", "p99"],
        )
        for name, labels, entry in hist_rows:
            t.add_row(
                name,
                labels,
                entry["count"],
                f"{entry['mean']:.2f}",
                _fmt(entry["p50"]),
                _fmt(entry["p95"]),
                _fmt(entry["p99"]),
            )
        tables.append(t)

    catalog = Table("Metric catalog", ["metric", "kind", "labels", "value"])
    for metric in registry:
        for entry in metric.snapshot():
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            if isinstance(metric, Histogram):
                value = (
                    f"n={entry['count']} mean={entry['mean']:.2f} "
                    f"max={_fmt(entry['max'])}"
                )
            elif metric.kind == "gauge":
                value = f"{_fmt(entry['value'])} (hw {_fmt(entry['high_water'])})"
            else:
                value = _fmt(entry["value"])
            catalog.add_row(metric.name, metric.kind, labels, value)
    tables.append(catalog)
    tables.append(health_table(registry))
    return tables


def health_table(registry: MetricsRegistry):
    """Registry self-check: per-family series counts and the guard.

    Shows each family's series count against the cardinality cap and
    the total number of writes the guard dropped, so an operator can
    see at a glance when per-rank views became incomplete.
    """
    from repro.bench.report import Table

    health = registry.health()
    t = Table("Telemetry health", ["metric", "kind", "series", "overflowed"])
    for name, fam in sorted(health["families"].items()):
        t.add_row(name, fam["kind"], fam["series"], "yes" if fam["overflowed"] else "")
    t.add_row(
        "total",
        "",
        health["total_series"],
        f"dropped {health['dropped_series']} write(s)"
        if health["dropped_series"]
        else "",
    )
    return t


def windows_table(snapshot: Dict[str, Any]):
    """Summarize a :meth:`~repro.obs.timeseries.TimeSeries.snapshot`
    doc: one row per (family, group) series with its latest window's
    count and p99 — the at-a-glance "what is happening *now*" view the
    end-of-run metric catalog cannot give.
    """
    from repro.bench.report import Table

    spec = snapshot.get("spec", {})
    width = spec.get("width", 0.0)
    t = Table(
        f"Windowed time series ({width * 1e6:.0f} us windows)",
        ["family", "labels", "total n", "windows", "last n", "last p99"],
    )
    for name, groups in sorted(snapshot.get("families", {}).items()):
        for group in groups:
            wins = group.get("windows", ())
            last = wins[-1] if wins else None
            labels = ",".join(f"{k}={v}" for k, v in sorted(group["labels"].items()))
            t.add_row(
                name,
                labels,
                _fmt(group.get("count", 0)),
                len(wins),
                _fmt(last["count"]) if last else "-",
                f"{last['p99']:.3g}" if last and last["count"] else "-",
            )
    dropped = snapshot.get("dropped", 0)
    if dropped:
        t.add_row("(dropped)", "over max_series cap", _fmt(dropped), "", "", "")
    return t


def render_dashboard(
    registry: MetricsRegistry,
    title: str = "Observability dashboard",
    spans: Optional[Sequence[SpanRecord]] = None,
    anomalies: Optional[Any] = None,
    windows: Optional[Dict[str, Any]] = None,
    slo: Optional[Any] = None,
    chargeback: Optional[Any] = None,
) -> str:
    """The full dashboard as one printable string.

    When ``spans`` is given, the cross-rank critical-path breakdown and
    per-track wait-state tables are appended (see
    :mod:`repro.obs.critical_path`).  ``anomalies`` may be an
    :class:`~repro.obs.anomaly.AnomalyReport` (rendered as a findings
    section) or ``True`` to run the default detection rules over the
    given spans and registry here.  ``windows`` (a
    ``TimeSeries.snapshot()`` doc), ``slo`` (a pre-rendered section
    string or anything with ``.render()``), and ``chargeback`` (a
    :class:`~repro.obs.accounting.ChargebackReport`) append the
    service-level sections.
    """
    parts = [title, "#" * len(title)]
    parts.extend(t.render() for t in dashboard_tables(registry))
    if windows:
        parts.append(windows_table(windows).render())
    if slo is not None:
        parts.append(slo if isinstance(slo, str) else slo.render())
    if chargeback is not None:
        parts.append(chargeback.render())
    if spans:
        from repro.obs.critical_path import critical_path

        parts.append(critical_path(spans).render())
    if anomalies is True:
        from repro.obs.anomaly import detect

        anomalies = detect(spans=spans or (), registry=registry)
    if anomalies is not None and anomalies is not False:
        parts.append(anomalies.render())
    return "\n\n".join(parts)
