"""Measure one unit of a workload: timings, byte counters, layer spans.

``run.py`` calls :func:`run_unit` in a freshly forked child per unit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import threading
import traceback
from time import perf_counter
from typing import Any, Dict, Optional

from tracer import SPAN_NAMES, ByteCounters, Tracer
from workloads import Unit, peak_rss_mb


#: spans reported by self time alone, under these names
SELF_ONLY = {
    "cluster.world_build": "cluster.world_build_s",
    "core.runtime_init": "core.runtime_init_s",
    "plan.optimize": "plan.optimize_s",
    "plan.verify": "plan.verify_s",
    "plan.lower": "plan.lower_s",
}


def _switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw + usage.ru_nivcsw


def layer_metrics(unit: Unit, tracer: Tracer, total_wall: float, switches: int,
                  bytes_delta: Dict[str, int]) -> Dict[str, float]:
    """The per-layer figures of one traced unit (``trace.overhead`` is
    added by ``run.py``, which sees the untraced units too)."""
    engine = unit.engine
    events = engine["events"]
    totals = tracer.totals
    # Scheduler-side task wall that no task thread spent running: the
    # Event handoff and thread wake-up.
    handoff_s = engine["task_wall_seconds"] - tracer.task_run_s
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.task_s": engine["task_wall_seconds"],
        "sim.callback_s": engine["callback_wall_seconds"],
        "sim.scheduler_s": engine["scheduler_wall_seconds"],
        "sim.handoff_s": handoff_s,
        "sim.handoff_us_per_resume": 1e6 * handoff_s / max(engine["task_events"], 1),
        "sim.ctx_switches_per_event": switches / max(events, 1),
        "sim.threads_started": tracer.threads_started,
        "cluster.service_jobs_completed": unit.jobs_completed,
        "core.host_segment_bytes": bytes_delta["host_segment_bytes"],
        "device.real_bytes": bytes_delta["device_real_bytes"],
        "network.transfer.bytes": tracer.network_bytes,
        "obs.metric_writes": tracer.metric_writes,
        "obs.spans_recorded": unit.spans_recorded,
        "obs.spans_kept": unit.spans_kept,
        "trace.unattributed_s": total_wall - tracer.self_seconds(),
    }
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        if name in SELF_ONLY:
            out[SELF_ONLY[name]] = self_s
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
    return out


def run_unit(workload, traced: bool, out: str) -> Dict[str, Any]:
    """Run one unit; a unit that raises or leaks threads fails its steps."""
    baseline_threads = threading.active_count()
    counters = ByteCounters()
    counters.install()
    switches = _switches()
    tracer: Optional[Tracer] = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        unit = workload.run_unit()
    except Exception:  # noqa: BLE001 - the run reports it as failed steps
        unit = Unit()
        unit.check(False, traceback.format_exc(), steps=workload.steps_per_unit)
    finally:
        total_wall = perf_counter() - t0
        if tracer is not None:
            tracer.restore()
        counters.restore()
    if threading.active_count() != baseline_threads:
        unit.errors.append(
            f"{threading.active_count()} threads alive after the unit, "
            f"{baseline_threads} before"
        )
        unit.failed = unit.attempted
    record = dataclasses.asdict(unit)
    record.update(traced=traced, bytes=counters.snapshot(), peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        record["layers"] = layer_metrics(
            unit, tracer, total_wall, _switches() - switches, record["bytes"]
        )
        if out:
            # Spans stay in memory while the unit runs; written only now.
            with open(f"{out}.trace.json", "w") as fh:
                json.dump({"traceEvents": tracer.chrome_events(pid=os.getpid())}, fh)
    return record
