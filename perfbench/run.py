"""Host-cost benchmark of the DiOMP simulator.

Measures the host wall time, CPU time and memory the simulator spends
on three workloads, checks every modelled result against
``references.json``, and prints every metric by name with its unit.
Run from the repository root::

    python3 perfbench/run.py --workload spmd-1024 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --record                  # re-record references.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  See README.md.

Every unit runs in a child forked from this process after the imports
and the seeded inputs are ready, so each unit starts from the same
heap.  The simulator's host segments are real numpy arenas: once an
earlier unit has freed large blocks, glibc serves the next ones from
the heap and touches them, so in one long-lived process resident memory
would depend on how many units ran before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import threading
import time
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("spmd-1024", "apps-data", "service-stream")
#: a unit above this resident size is killed and counted as failed
RSS_LIMIT_MB = 3072
#: a unit still running after this long is killed and counted as failed
UNIT_TIMEOUT_S = 120.0

UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "step_ms_p50": "ms", "step_ms_tail": "ms", "events_per_s": "1/s",
    "success_rate": "ratio",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_us_per_resume"):
        return "us"
    if name.endswith("_per_event"):
        return "1/event"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def in_child(fn, path: str) -> Tuple[Optional[Any], str]:
    """Run ``fn()`` in a forked child that writes its JSON result to
    ``path``; returns (result, error text).

    The child is polled so that a runaway resident size or run time
    kills it instead of the machine; either way it is waited for.
    """
    if threading.active_count() != 1:
        raise RuntimeError("forking needs a single-threaded parent")
    if os.path.exists(path):
        os.remove(path)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = fn()
            with open(path, "w") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:  # noqa: BLE001 - reported through the exit code
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = perf_counter() + UNIT_TIMEOUT_S
    problem = ""
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if _rss_mb(pid) > RSS_LIMIT_MB:
            problem = f"killed above {RSS_LIMIT_MB} MB resident"
        elif perf_counter() > deadline:
            problem = f"killed after {UNIT_TIMEOUT_S:.0f} s"
        if problem:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            return None, problem
        time.sleep(0.05)
    if os.waitstatus_to_exitcode(status) != 0:
        return None, f"unit exited with status {os.waitstatus_to_exitcode(status)}"
    with open(path) as fh:
        return json.load(fh), ""


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """Run units of ``name`` until ``seconds`` would pass; with ``trace``
    every other unit records layer spans."""
    from measure import run_unit
    from workloads import WORKLOADS as classes
    from workloads import load_references

    os.makedirs(OUT, exist_ok=True)
    workload = classes[name](seed, load_references())
    units: List[Dict[str, Any]] = []
    errors: List[str] = []
    lost_steps = 0
    start = perf_counter()
    last = 0.0
    # An untraced and a traced unit are the least a traced run needs.
    while len(units) < (2 if trace else 1) or perf_counter() - start + last <= seconds:
        traced = trace and len(units) % 2 == 1
        prefix = os.path.join(OUT, f"{name}-seed{seed}-unit{len(units)}")
        t0 = perf_counter()
        result, error = in_child(lambda: run_unit(workload, traced, prefix), prefix + ".json")
        last = perf_counter() - t0
        if result is None:
            # A unit that died counts as one failed step.
            errors.append(error)
            lost_steps += 1
            break
        units.append(result)
        errors.extend(result["errors"])
    return {"units": units, "errors": errors, "lost_steps": lost_steps}


def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 20 samples no percentile above the median qualifies, so the
    slowest sample is reported instead (labelled as such).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def _counts(run: Dict[str, Any]) -> Tuple[int, int]:
    attempted = sum(u["attempted"] for u in run["units"]) + run["lost_steps"]
    failed = sum(u["failed"] for u in run["units"]) + run["lost_steps"]
    return attempted, failed


def end_to_end(run: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics over the untraced units."""
    timed = [u for u in run["units"] if not u["traced"]]
    if not timed:
        return {}, {}
    steps = [s for u in timed for s in u["step_ms"]]
    setups = [s for u in timed for s in u["setup_s"]]
    # Units repeat one deterministic step structure, so the tail is taken
    # per unit (one simulated result) and its median reported.
    tails = [tail(u["step_ms"]) for u in timed]
    attempted, failed = _counts(run)
    metrics = {
        "wall_s": statistics.median(u["wall_s"] for u in timed),
        "cpu_s": statistics.median(u["cpu_s"] for u in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in timed),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": statistics.median(t[0] for t in tails),
        "events_per_s": statistics.median(u["engine"]["events"] / u["wall_s"] for u in timed),
        "success_rate": 1.0 - failed / max(attempted, 1),
    }
    notes = {
        "wall_s": f"median of {len(timed)} units",
        "setup_s": f"median of {len(setups)} set-ups",
        "step_ms_p50": f"median of {len(steps)} steps",
        "step_ms_tail": f"{tails[0][1]} steps per unit, median over units",
        "success_rate": f"fail_rate {failed / max(attempted, 1):.6g} ({failed}/{attempted})",
    }
    return metrics, notes


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """Median per-layer figures of the traced units, plus overhead."""
    traced = [u for u in run["units"] if u["traced"]]
    untraced = [u["wall_s"] for u in run["units"] if not u["traced"]]
    if not traced or not untraced:
        return {}
    layers = [u["layers"] for u in traced]
    metrics = {key: statistics.median(t[key] for t in layers) for key in layers[0]}
    metrics["trace.overhead"] = (
        statistics.median(u["wall_s"] for u in traced) / statistics.median(untraced)
    )
    return metrics


def layer_table(name: str, run: Dict[str, Any], metrics: Dict[str, float]) -> str:
    """Calls, self seconds, share of the traced unit wall and cost per
    simulated event for every span."""
    traced = [u for u in run["units"] if u["traced"]]
    wall = statistics.median(u["wall_s"] for u in traced)
    events = max(metrics["sim.events"], 1)
    rows = [f"layer table: {name}, median of {len(traced)} traced unit(s), "
            f"traced wall_s {wall:.4f} s, {events:.0f} events",
            f"{'span':<26}{'calls':>10}{'self_s':>12}{'share':>9}{'us/event':>11}"]
    spans = [(k[: -len(".self_s")], metrics[k[: -len("self_s")] + "calls"], v)
             for k, v in metrics.items() if k.endswith(".self_s")]
    spans += [(k[:-2], math.nan, v) for k, v in metrics.items()
              if k.endswith("_s") and k.startswith(("cluster.", "core.", "plan."))
              and not k.endswith(".self_s")]
    for span, calls, self_s in sorted(spans, key=lambda row: -row[2]):
        count = "-" if math.isnan(calls) else f"{calls:.0f}"
        rows.append(f"{span:<26}{count:>10}{self_s:>12.4f}{self_s / wall:>9.1%}"
                    f"{1e6 * self_s / events:>11.2f}")
    for key in ("sim.task_s", "sim.handoff_s", "sim.callback_s", "sim.scheduler_s",
                "trace.unattributed_s"):
        rows.append(f"{key:<26}{'':>10}{metrics[key]:>12.4f}{metrics[key] / wall:>9.1%}"
                    f"{1e6 * metrics[key] / events:>11.2f}")
    rows.append(f"trace.overhead {metrics['trace.overhead']:.3f} (traced / untraced wall_s)")
    return "\n".join(rows)


def report(name: str, seed: int, run: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the human-readable tables and return the result object."""
    attempted, failed = _counts(run)
    print(f"== {name} seed {seed}: {len(run['units'])} unit(s), "
          f"{attempted} step(s) attempted, {failed} failed")
    for error in run["errors"][:5]:
        print(f"  FAILED: {error}")
    if run["units"]:
        counted = run["units"][-1]["bytes"]
        print(f"  core.host_segment_bytes {counted['host_segment_bytes']} B, "
              f"device.real_bytes {counted['device_real_bytes']} B per unit")
    if trace:
        metrics = per_layer(run)
        if metrics:
            table = layer_table(name, run, metrics)
            print(table)
            with open(os.path.join(OUT, f"{name}-seed{seed}.layers.txt"), "w") as fh:
                fh.write(table + "\n")
        units = {key: _layer_unit(key) for key in metrics}
        notes: Dict[str, str] = {}
    else:
        metrics, notes = end_to_end(run)
        units = UNITS
    for key, value in metrics.items():
        print(f"  {key:<34}{value:>18.6g} {units[key]:<7} {notes.get(key, '')}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def record() -> int:
    """Re-record every workload's modelled outputs into references.json."""
    from workloads import SERVICE_STREAMS
    from workloads import WORKLOADS as classes

    os.makedirs(OUT, exist_ok=True)
    # One child per stream, like a measured unit.
    jobs = [("spmd-1024", None), ("apps-data", None)]
    jobs += [("service-stream", seed) for seed in range(SERVICE_STREAMS)]
    refs: Dict[str, Any] = {"service-stream": {}}
    for name, seed in jobs:
        workload = classes[name](seed or 0, None)
        result, error = in_child(workload.record, os.path.join(OUT, "record.json"))
        if result is None:
            print(f"recording {name} failed: {error}", file=sys.stderr)
            return 1
        if seed is None:
            refs[name] = result
        else:
            refs[name][str(seed)] = result
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", action="store_true", help=record.__doc__)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for the whole run.  The simulator lets one thread run at a
    # time, so this costs no parallelism, and every handoff becomes a
    # same-CPU switch: on a shared 2-vCPU box, cross-CPU wake-ups made
    # the same unit take twice as long in busy periods.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.record:
        return record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, run, bool(args.trace))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: the simulator's task
    # threads are then the only threads besides the main one, and the
    # process stays single-threaded between units so it can fork.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
