"""``python -m repro.obs`` — offline telemetry reports.

``report`` runs the :mod:`repro.obs.anomaly` rules over telemetry
*files* — an exported Chrome trace (plus, optionally, a metrics
snapshot and a span spill) — so straggler detection works after the
fact, in CI, or on a trace somebody mailed you::

    python -m repro.obs report TRACE.json --metrics METRICS.json
    python -m repro.obs report --spill SPANS.jsonl --json report.json
    python -m repro.obs report --demo --ranks 16 --straggler 5

``--demo`` runs a built-in put-ring workload (optionally with a
fault-stalled rank) and reports on it directly — the quickest way to
see the detector fire.

``slo`` replays a cluster-service run exported by
:meth:`~repro.cluster.service.ServiceResult.export` through the SLO
burn-rate machinery and prints the error-budget report, the incident
timeline, and the per-tenant chargeback table::

    python -m repro.obs slo RUN.json
    python -m repro.obs slo RUN.json --json timeline.json --strict

The replay recomputes alerts from the job records alone and
cross-checks them against the timeline recorded live, so a stale or
edited export is flagged instead of trusted.

Exit codes (both subcommands): **0** — clean; **1** — ``--strict`` and
findings at warning severity or above exist (``report``) / alerts
fired or the replay disagrees with the export (``slo``); **2** — usage
error (no input given, or the export lacks the needed sections).
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import SpanRecord

#: virtual stall injected on the demo straggler (seconds)
DEMO_STALL = 300e-6


def load_trace(path: str) -> Tuple[List[SpanRecord], Dict[str, Any]]:
    """Reconstruct spans from an exported Chrome trace document.

    Complete (``"ph": "X"``) events become :class:`SpanRecord` objects;
    ``thread_name`` metadata recovers the track names.  Flow events
    and any other phase are ignored (links are not needed by the
    detection rules).
    Returns ``(spans, otherData)``.
    """
    with open(path) as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    tracks: Dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tracks[ev.get("tid", 0)] = ev.get("args", {}).get("name", "")
    spans: List[SpanRecord] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        start = ev.get("ts", 0.0) / 1e6
        spans.append(
            SpanRecord(
                name=ev.get("name", ""),
                track=tracks.get(ev.get("tid", 0), f"tid{ev.get('tid', 0)}"),
                start=start,
                end=start + ev.get("dur", 0.0) / 1e6,
                depth=0,
                args=dict(ev.get("args", {})),
                span_id=len(spans) + 1,
            )
        )
    other = doc.get("otherData", {}) if isinstance(doc, dict) else {}
    return spans, other


def load_metrics(path: str) -> Dict[str, Any]:
    """Load a metrics snapshot JSON (bare or ``{"metrics": ...}``)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("metrics", doc) if isinstance(doc, dict) else {}


def straggler_workload(ctx, iters: int = 4, payload: int = 1024):
    """Put-ring demo program: each rank puts to its right neighbor,
    fences, and barriers, ``iters`` times.

    Per-rank conduit traffic is what makes rank-targeted fault
    injection *visible*: a stalled rank arrives late at every barrier,
    which is exactly the signature
    :class:`~repro.obs.anomaly.BarrierSkewRule` detects.
    """
    import numpy as np

    from repro.cluster import MemRef

    g = ctx.diomp.alloc(payload)
    g.typed(np.uint8)[:] = 0
    ctx.diomp.barrier()
    right = (ctx.rank + 1) % ctx.world.nranks
    src = np.full(payload, (ctx.rank + 1) % 256, dtype=np.uint8)
    for _ in range(iters):
        ctx.diomp.put(right, g, MemRef.host(ctx.node, src))
        ctx.diomp.fence()
        ctx.diomp.barrier()
    return ctx.rank


def run_demo(
    ranks: int = 8,
    straggler: Optional[int] = None,
    iters: int = 4,
    span_budget: Optional[Any] = None,
):
    """Run the demo workload; returns the :class:`SpmdResult` (with
    rollups and the anomaly report attached)."""
    from repro.cluster import World, run_spmd
    from repro.cluster.spmd import SpmdConfig, TelemetryConfig
    from repro.core import DiompRuntime
    from repro.faults import FaultPlan, FaultSpec
    from repro.hardware import platform_a

    ranks_per_node = 4  # platform_a GPUs per node
    num_nodes = max(1, (ranks + ranks_per_node - 1) // ranks_per_node)
    world = World(
        platform_a(),
        num_nodes=num_nodes,
        ranks_per_node=min(ranks, ranks_per_node),
    )
    DiompRuntime(world)
    faults = None
    if straggler is not None:
        # site="*" catches the straggler's transfers wherever they
        # route (conduit issue or the fabric path for intra-node RMA).
        faults = FaultPlan(
            [
                FaultSpec(
                    site="*",
                    rank=straggler,
                    kind="stall",
                    latency=DEMO_STALL,
                )
            ]
        )
    config = SpmdConfig(
        faults=faults,
        telemetry=TelemetryConfig(
            span_budget=span_budget, rollups=True, anomalies=True
        ),
    )
    return run_spmd(world, straggler_workload, iters, config=config)


def replay_service_export(doc: Dict[str, Any]):
    """Re-run the SLO burn-rate evaluation from an exported service run.

    Rebuilds the SLOs and the windowed time series from the export's
    own declarations, replays each job record's metric writes at their
    recorded sim times (queue-wait sample at launch, outcome count at
    finish, rejection count at submit), and evaluates the burn rules
    after every event — the same write-then-evaluate sequence the live
    service performed.  Returns the finished
    :class:`~repro.obs.slo.SloTracker`.
    """
    from repro.obs.slo import SloTracker, slo_from_dict
    from repro.obs.timeseries import TimeSeries, WindowSpec

    slos = [slo_from_dict(s) for s in doc.get("slos", ())]
    windows = doc.get("windows") or {}
    spec_doc = windows.get("spec") or {}
    spec = WindowSpec(
        width=spec_doc.get("width", 100e-6),
        slide=spec_doc.get("slide"),
        history=spec_doc.get("history", 64),
        max_samples=spec_doc.get("max_samples", 256),
    )
    group_by = tuple(windows.get("group_by") or ("kind", "outcome", "tenant"))
    clock = [0.0]
    series = TimeSeries(
        clock=lambda: clock[0],
        spec=spec,
        group_by=group_by,
        metrics=("service.",),
    )
    tracker = SloTracker(slos, series)
    events = []
    for seq, rec in enumerate(doc.get("records", ())):
        labels = {"tenant": rec["tenant"], "kind": rec["kind"]}
        if rec["outcome"] == "rejected":
            events.append(
                (
                    rec["finished"],
                    seq,
                    "service.jobs",
                    1.0,
                    {**labels, "outcome": "rejected"},
                )
            )
        else:
            events.append(
                (
                    rec["started"],
                    seq,
                    "service.queue_wait_seconds",
                    rec["queue_wait"],
                    labels,
                )
            )
            events.append(
                (
                    rec["finished"],
                    seq,
                    "service.jobs",
                    1.0,
                    {**labels, "outcome": rec["outcome"]},
                )
            )
    events.sort(key=lambda e: (e[0], e[1]))
    for when, _seq, name, value, labels in events:
        clock[0] = when
        series.observe(name, value, labels, when=when)
        tracker.evaluate(when)
    tracker.finish(doc.get("elapsed", clock[0]))
    return tracker


def _timeline_key(entries) -> List[tuple]:
    """Comparable view of a timeline: (time, kind, slo) triples of the
    fire/resolve events (anomaly entries and burn magnitudes excluded —
    same-timestamp write ordering may legitimately differ offline)."""
    return [
        (round(e["time"], 12), e["kind"], e["slo"])
        for e in entries
        if e.get("kind") in ("fire", "resolve")
    ]


def run_slo_replay(
    path: str, json_out: Optional[str] = None, strict: bool = False
) -> int:
    """The ``slo`` subcommand body (returns the process exit code)."""
    from repro.obs.accounting import report_from_dict
    from repro.obs.slo import incident_timeline

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read export {path!r}: {exc}")
        return 2
    if not doc.get("slos"):
        print(f"error: {path!r} has no SLO declarations (run exported "
              "with ServiceConfig(slos=())?)")
        return 2
    tracker = replay_service_export(doc)
    elapsed = doc.get("elapsed", 0.0)
    print(
        f"replayed {len(doc.get('records', ()))} job record(s), "
        f"elapsed {elapsed * 1e6:.1f} us, "
        f"{len(tracker.alerts)} alert(s)"
    )
    print()
    print(tracker.render(elapsed))
    chargeback = doc.get("chargeback")
    if chargeback:
        print()
        print(report_from_dict(chargeback).render())
    recorded = _timeline_key(doc.get("timeline", ()))
    replayed = _timeline_key(tracker.timeline)
    matches = recorded == replayed
    print()
    if matches:
        print(f"replay matches the recorded timeline ({len(replayed)} event(s))")
    else:
        print(
            f"WARNING: replay disagrees with the recorded timeline "
            f"(recorded {len(recorded)} event(s), replayed {len(replayed)})"
        )
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(
                {
                    "elapsed": elapsed,
                    "alerts": [a.to_dict() for a in tracker.alerts],
                    "timeline": incident_timeline(tracker.timeline, end=elapsed),
                    "slo_report": [s.to_dict() for s in tracker.report(elapsed)],
                    "matches_export": matches,
                },
                fh,
                indent=1,
            )
        print(f"wrote {json_out}")
    if strict and (tracker.alerts or not matches):
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Offline telemetry reports (anomaly/straggler detection).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="detect anomalies in exported telemetry")
    rep.add_argument(
        "trace",
        nargs="?",
        help="Chrome trace JSON exported by write_chrome_trace()",
    )
    rep.add_argument(
        "--metrics", help="metrics snapshot JSON (write_metrics_snapshot output)"
    )
    rep.add_argument(
        "--spill",
        help="span spill JSONL (SpanBudget.spill_path) — full-fidelity "
        "alternative to the sampled trace",
    )
    rep.add_argument("--json", dest="json_out", help="also write the report as JSON")
    rep.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when findings at warning severity or above exist",
    )
    rep.add_argument(
        "--demo",
        action="store_true",
        help="run the built-in put-ring demo instead of reading files",
    )
    rep.add_argument("--ranks", type=int, default=8, help="demo: world size")
    rep.add_argument(
        "--straggler",
        type=int,
        default=None,
        help="demo: stall this rank so the detector fires",
    )
    rep.add_argument("--iters", type=int, default=4, help="demo: put-ring rounds")
    slo = sub.add_parser(
        "slo",
        help="replay an exported service run's SLO alerts and chargeback",
    )
    slo.add_argument("export", help="JSON written by ServiceResult.export()")
    slo.add_argument(
        "--json", dest="json_out", help="also write the replayed timeline as JSON"
    )
    slo.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when alerts fired or the replay disagrees with the export",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "slo":
        return run_slo_replay(args.export, json_out=args.json_out, strict=args.strict)
    from repro.obs.anomaly import detect

    if args.demo:
        result = run_demo(
            ranks=args.ranks, straggler=args.straggler, iters=args.iters
        )
        report = result.anomalies
        print(
            f"demo: {args.ranks} rank(s), {args.iters} round(s), "
            f"elapsed {result.elapsed * 1e6:.1f} us"
            + (
                f", rank {args.straggler} stalled {DEMO_STALL * 1e6:.0f} us/op"
                if args.straggler is not None
                else ""
            )
        )
    else:
        spans: List[SpanRecord] = []
        if args.spill:
            from repro.obs.sampling import read_spill

            spans = read_spill(args.spill)
        elif args.trace:
            spans, _ = load_trace(args.trace)
        else:
            print("error: give a trace file, --spill, or --demo")
            return 2
        snapshot = load_metrics(args.metrics) if args.metrics else None
        report = detect(spans=spans, snapshot=snapshot)
        print(f"analyzed {len(spans)} span(s)")

    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.json_out}")
    if args.strict and not report.ok:
        return 1
    return 0


__all__ = [
    "DEMO_STALL",
    "load_trace",
    "load_metrics",
    "straggler_workload",
    "run_demo",
    "replay_service_export",
    "run_slo_replay",
    "main",
]
