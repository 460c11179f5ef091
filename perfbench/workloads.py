"""The three benchmark workloads.

Each workload builds its inputs from the seed before the simulation
starts, runs *units* (one unit = one fresh simulated world, or one pass
over the application variants), times them from outside the program,
and checks every step's modelled outputs against ``references.json``
(recorded from the simulator with ``run.py --record``).

* ``spmd-1024`` -- analytic 1024-rank ring put + fence + 256 KiB
  allreduce.  Task handoff dominates; the data plane, plan IR and
  service are idle.  Its modelled figures do not depend on the seed.
* ``apps-data`` -- data-carrying Cannon and Minimod, hand-written and
  plan-lowered, on GASNet-EX (platform A), GPI-2 and MPI (platform C).
  Real bytes flow through host segments, device copies and kernels.
  The seed generates the matrices and fields of the plan-lowered runs.
* ``service-stream`` -- a Poisson stream of mixed gangs through
  :class:`ClusterService` near the knee of its load sweep.  The seed
  shuffles a fixed job mix and draws the arrival gaps.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.apps.cannon import CannonConfig, cannon_reference, run_cannon
from repro.apps.minimod import MinimodConfig, _field_bytes, minimod_reference, run_minimod
from repro.bench.appbench import app_platform
from repro.bench.scale import SCALE_BUDGET
from repro.cluster.jobs import JobRequest, default_size
from repro.cluster.service import ClusterService, ServiceConfig
from repro.cluster.spmd import SpmdConfig, TelemetryConfig, run_spmd
from repro.cluster.world import World
from repro.core.runtime import DiompParams, DiompRuntime
from repro.hardware.platforms import get_platform
from repro.mpi import MpiWorld
from repro.obs import Observability
from repro.plan import apps as plan_apps
from repro.plan import lower as plan_lower
from repro.plan import passes as plan_passes
from repro.plan import verify as plan_verify
from repro.util.units import KiB

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> Dict[str, Any]:
    with open(REFERENCES) as fh:
        return json.load(fh)


@dataclasses.dataclass
class Unit:
    """What one unit measured and whether its outputs were right."""

    #: host wall / CPU seconds of the measured phase
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: set-up samples (seconds): world build, runtime init, plan or service
    setup_s: List[float] = dataclasses.field(default_factory=list)
    #: host milliseconds per step
    step_ms: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: summed engine self-profiler figures of every world in the unit
    engine: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: world obs span retention (recorded / kept) and completed jobs
    spans_recorded: int = 0
    spans_kept: int = 0
    jobs_completed: int = 0

    def check(self, ok: bool, what: str, steps: int = 1) -> None:
        """Count ``steps`` steps; record ``what`` when their outputs mismatch."""
        self.attempted += steps
        if not ok:
            self.failed += steps
            self.errors.append(what)

    def add_world(self, world: World) -> None:
        stats = world.obs.engine.to_dict()
        for key in ("events", "task_events", "callback_events", "run_wall_seconds",
                    "task_wall_seconds", "callback_wall_seconds",
                    "scheduler_wall_seconds"):
            self.engine[key] = self.engine.get(key, 0) + stats[key]
        self.add_spans(world.obs)

    def add_spans(self, obs: Observability) -> None:
        stats = obs.span_stats()
        self.spans_recorded += stats.recorded
        self.spans_kept += stats.kept


class _Timer:
    """Wall and CPU seconds of one measured region, added to a unit."""

    def __init__(self, unit: Unit) -> None:
        self.unit = unit

    def __enter__(self) -> "_Timer":
        self.t0 = perf_counter()
        self.c0 = process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = perf_counter() - self.t0
        self.unit.wall_s += self.wall
        self.unit.cpu_s += process_time() - self.c0


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _elapsed(result) -> float:
    return max(r["elapsed"] for r in result.results)


# ---------------------------------------------------------------------------
# spmd-1024
# ---------------------------------------------------------------------------

#: platform A, 256 nodes x 4 GPUs
SPMD_NODES = 256
SPMD_BYTES = 256 * KiB
#: ring steps per unit; every step after the first is homogeneous
SPMD_STEPS = 3


def _ring_program(ctx, steps: int, stamps: List[float]) -> List[tuple]:
    diomp = ctx.diomp
    src = diomp.alloc(SPMD_BYTES)
    dst = diomp.alloc(SPMD_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    diomp.barrier()
    stamps[0] = perf_counter()
    out = []
    for step in range(steps):
        t0 = ctx.sim.now
        diomp.put(right, dst, src.memref())
        diomp.fence()
        t1 = ctx.sim.now
        # Every put was fenced before its origin arrived here, so the
        # allreduce may overwrite dst.
        diomp.allreduce(src, dst)
        out.append((t1 - t0, ctx.sim.now - t1))
        # The last rank to leave the step writes last: stamps[step + 1]
        # is the host time at which the whole world finished the step.
        stamps[step + 1] = perf_counter()
    diomp.barrier()
    return out


def spmd_step_outputs(results: Sequence[List[tuple]]) -> List[Dict[str, Any]]:
    """Per-step modelled outputs: slowest put+fence and allreduce over
    the ranks, plus a digest of every rank's pair."""
    steps = len(results[0])
    return [
        {
            "put_fence_s": max(r[step][0] for r in results),
            "allreduce_s": max(r[step][1] for r in results),
            "digest": _digest([r[step] for r in results]),
        }
        for step in range(steps)
    ]


class Spmd1024:
    name = "spmd-1024"
    steps_per_unit = SPMD_STEPS

    def __init__(self, seed: int, references: Optional[Dict[str, Any]]) -> None:
        self.seed = seed
        self.references = references

    def record(self) -> Dict[str, Any]:
        self.references = None
        self.run_unit()
        return {"steps": self.outputs}

    def run_unit(self) -> Unit:
        unit = Unit()
        t0 = perf_counter()
        world = World(
            get_platform("A"),
            num_nodes=SPMD_NODES,
            obs=Observability(max_series_per_metric=8192),
            analytic=True,
        )
        DiompRuntime(world, DiompParams(segment_size=4 * SPMD_BYTES + (1 << 20)))
        unit.setup_s.append(perf_counter() - t0)
        stamps = [0.0] * (SPMD_STEPS + 1)
        config = SpmdConfig(telemetry=TelemetryConfig(span_budget=SCALE_BUDGET))
        with _Timer(unit):
            res = run_spmd(world, _ring_program, SPMD_STEPS, stamps, config=config)
        unit.step_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        unit.add_world(world)
        outputs = self.outputs = spmd_step_outputs(res.results)
        expected = self.references["spmd-1024"]["steps"] if self.references else outputs
        for step, (got, want) in enumerate(zip(outputs, expected)):
            unit.check(got == want, f"step {step}: {got} != {want}")
        return unit


# ---------------------------------------------------------------------------
# apps-data
# ---------------------------------------------------------------------------

#: (platform, nodes, substrate): GPI-2 refuses platform A's Slingshot
APPS_SUBSTRATES = (("A", 2, "gasnet"), ("C", 4, "gpi2"), ("C", 4, "mpi"))
APPS_CANNON = CannonConfig(n=1024, execute=True)
APPS_MINIMOD = MinimodConfig(nx=128, ny=64, nz=64, steps=4, execute=True)
#: seeded Minimod initial field: this many point sources
APPS_SOURCES = 4


def _minimod_oracle(cfg: MinimodConfig, u0: np.ndarray) -> np.ndarray:
    """``minimod_reference`` from a given initial field (the library
    oracle always starts from its built-in point source)."""
    from repro.apps.minimod import _laplacian

    r = cfg.radius
    u, u_prev = u0, u0.copy()
    for _ in range(cfg.steps):
        padded = np.zeros((cfg.nx + 2 * r, cfg.ny, cfg.nz), dtype=cfg.dtype)
        padded[r:-r] = u
        u_next = 2.0 * u - u_prev + cfg.courant2 * _laplacian(padded, r)
        u_prev, u = u, u_next.astype(cfg.dtype)
    return u


def apps_inputs(seed: int):
    """Seeded Cannon matrices and Minimod initial field.

    Matrix entries are small integers, so ``A @ B`` is exact in
    float64 and the plan-lowered product must match it bit for bit.
    """
    rng = np.random.default_rng(seed)
    n = APPS_CANNON.n
    a = rng.integers(0, 7, size=(n, n)).astype(APPS_CANNON.dtype)
    b = rng.integers(0, 5, size=(n, n)).astype(APPS_CANNON.dtype)
    cfg = APPS_MINIMOD
    u0 = np.zeros((cfg.nx, cfg.ny, cfg.nz), dtype=cfg.dtype)
    for _ in range(APPS_SOURCES):
        x, y, z = (int(rng.integers(8, d - 8)) for d in u0.shape)
        u0[x, y, z] = rng.uniform(0.5, 1.5)
    return a, b, u0


def _seeded_cannon_init(a: np.ndarray, b: np.ndarray, cfg: CannonConfig):
    def init_fn(ctx, bufs):
        ns = cfg.stripe(ctx.nranks)
        rows = slice(ctx.rank * ns, (ctx.rank + 1) * ns)
        bufs.array("A", cfg.dtype)[:] = a[rows].reshape(-1)
        bufs.array("B", cfg.dtype, rot=0, step=0)[:] = b[rows].reshape(-1)

    return init_fn


def _seeded_minimod_init(u0: np.ndarray, cfg: MinimodConfig):
    def init_fn(ctx, bufs):
        lnx = cfg.local_nx(ctx.nranks)
        r = cfg.radius
        for rot in (0, 1):
            view = bufs.array("U", cfg.dtype, rot=rot, step=0).reshape(lnx + 2 * r, cfg.ny, cfg.nz)
            view[r : r + lnx] = u0[ctx.rank * lnx : (ctx.rank + 1) * lnx]

    return init_fn


class AppsData:
    name = "apps-data"
    steps_per_unit = 4 * len(APPS_SUBSTRATES)

    def __init__(self, seed: int, references: Optional[Dict[str, Any]]) -> None:
        self.seed = seed
        self.references = references
        a, b, u0 = apps_inputs(seed)
        self.inits = {
            "cannon": _seeded_cannon_init(a, b, APPS_CANNON),
            "minimod": _seeded_minimod_init(u0, APPS_MINIMOD),
        }
        # Oracles, computed once before anything is timed.
        self.oracles = {
            ("cannon", "hand"): cannon_reference(APPS_CANNON, 1),
            ("cannon", "plan"): a @ b,
            ("minimod", "hand"): minimod_reference(APPS_MINIMOD),
            ("minimod", "plan"): _minimod_oracle(APPS_MINIMOD, u0),
        }

    def _matches(self, app: str, form: str, results) -> bool:
        if app == "cannon":
            got = np.concatenate([r["C"] for r in results])
            return bool(np.array_equal(got, self.oracles[(app, form)]))
        got = np.concatenate([r["u"] for r in results])
        return bool(np.allclose(got, self.oracles[(app, form)], rtol=1e-5, atol=1e-7))

    def _prepare(self, platform: str, nodes: int, sub: str, app: str, form: str):
        """World, runtime and (plan form) lowered program for one run."""
        cfg = APPS_CANNON if app == "cannon" else APPS_MINIMOD
        world = World(app_platform(platform), num_nodes=nodes)
        p = world.nranks
        if form == "plan":
            plan = plan_apps.build_plan(app, cfg, p).replace(init_fn=self.inits[app])
            plan, _stats = plan_passes.optimize_plan(plan, world=world)
            issues = plan_verify.verify_plan(plan, p)
            if issues:
                raise RuntimeError(f"{app} plan failed verification: {issues}")
            program = plan_lower.lower_plan(plan, sub, p)
            # Sized like LoweredProgram.run sizes its own runtime.
            need = 3 * sum(b.nbytes * b.count for b in plan.buffers) + (1 << 20)
            prefetch = bool(plan.meta.get("pointer_prefetch", False))
        else:
            program = None
            if app == "cannon":
                need = 6 * cfg.stripe(p) * cfg.n * cfg.itemsize + (1 << 20)
            else:
                need = 6 * _field_bytes(cfg, cfg.local_nx(p)) + (1 << 20)
            prefetch = False
        if sub == "mpi":
            rt, mpi = None, MpiWorld(world)
        else:
            rt = DiompRuntime(
                world, DiompParams(conduit=sub, segment_size=need, pointer_prefetch=prefetch)
            )
            mpi = None
        return cfg, world, rt, mpi, program

    @staticmethod
    def _run(app, form, sub, cfg, world, rt, mpi, program):
        if form == "plan":
            return program.run(world, runtime=rt, mpi=mpi)
        impl = "mpi" if sub == "mpi" else ("diomp" if app == "cannon" else "diomp-overlap")
        run = run_cannon if app == "cannon" else run_minimod
        return run(world, cfg, impl=impl, runtime=rt, mpi=mpi)

    def variants(self):
        for platform, nodes, sub in APPS_SUBSTRATES:
            for app in ("cannon", "minimod"):
                for form in ("hand", "plan"):
                    yield platform, nodes, sub, app, form

    def run_unit(self) -> Unit:
        unit = Unit()
        setup = 0.0
        for platform, nodes, sub, app, form in self.variants():
            key = f"{sub}.{app}.{form}"
            t0 = perf_counter()
            cfg, world, rt, mpi, program = self._prepare(platform, nodes, sub, app, form)
            setup += perf_counter() - t0
            with _Timer(unit) as timer:
                res = self._run(app, form, sub, cfg, world, rt, mpi, program)
            unit.step_ms.append(1e3 * timer.wall)
            unit.add_world(world)
            elapsed = _elapsed(res)
            want = self.references["apps-data"][key] if self.references else elapsed
            numerics = self._matches(app, form, res.results)
            unit.check(
                elapsed == want and numerics,
                f"{key}: elapsed {elapsed!r} (want {want!r}), numerics ok={numerics}",
            )
            del res, world, rt, mpi, program
            # Worlds are cyclic garbage holding numpy arenas the collector
            # does not weigh; collect so the next run starts from the same heap.
            gc.collect()
        unit.setup_s.append(setup)
        return unit

    def record(self) -> Dict[str, float]:
        """Modelled elapsed of every variant."""
        out = {}
        for platform, nodes, sub, app, form in self.variants():
            cfg, world, rt, mpi, program = self._prepare(platform, nodes, sub, app, form)
            res = self._run(app, form, sub, cfg, world, rt, mpi, program)
            out[f"{sub}.{app}.{form}"] = _elapsed(res)
        return out


# ---------------------------------------------------------------------------
# service-stream
# ---------------------------------------------------------------------------

SERVICE_NODES = 4
SERVICE_RANKS_PER_NODE = 2
SERVICE_RATE = 4000.0
SERVICE_QUEUE_LIMIT = 8
#: jobs per stream: every (kind, gang width) pair equally often
SERVICE_MIX = tuple(
    (kind, nodes) for kind in ("cannon", "minimod", "allreduce") for nodes in (1, 2)
)
SERVICE_JOBS = 40 * len(SERVICE_MIX)
SERVICE_TENANTS = ("acme", "globex", "initech")
#: distinct job streams; a seed selects stream ``seed % SERVICE_STREAMS``
#: so every run compares exactly against a recorded reference
SERVICE_STREAMS = 64
#: world + service builds per unit: one takes ~2 ms, so one sample per
#: unit would leave setup_s at the mercy of a single context switch
SERVICE_SETUPS = 10


def job_stream(seed: int) -> tuple:
    """A shuffled fixed job mix with exponential arrival gaps."""
    rng = random.Random(seed % SERVICE_STREAMS)
    mix = list(SERVICE_MIX) * (SERVICE_JOBS // len(SERVICE_MIX))
    rng.shuffle(mix)
    now = 0.0
    jobs = []
    for job_id, (kind, nodes) in enumerate(mix):
        now += rng.expovariate(SERVICE_RATE)
        jobs.append(
            JobRequest(
                job_id=job_id,
                tenant=SERVICE_TENANTS[job_id % len(SERVICE_TENANTS)],
                kind=kind,
                arrival=now,
                nodes=nodes,
                ranks_per_node=SERVICE_RANKS_PER_NODE,
                size=default_size(kind, nodes * SERVICE_RANKS_PER_NODE),
                execute=False,
            )
        )
    return tuple(jobs)


def service_outputs(result) -> Dict[str, Any]:
    """The modelled figures a run must reproduce exactly."""
    return {
        "throughput": result.throughput,
        "p99_queue_wait": result.queue_wait_percentile(0.99),
        "completed": len(result.completed),
        "rejected": len(result.rejected),
        "failed": len(result.failed),
        "alerts": len(result.alerts),
        "digest": _digest([(r.job_id, r.outcome, r.started, r.finished) for r in result.records]),
    }


class ServiceStream:
    name = "service-stream"
    steps_per_unit = SERVICE_JOBS

    def __init__(self, seed: int, references: Optional[Dict[str, Any]]) -> None:
        self.seed = seed
        self.references = references
        self.jobs = job_stream(seed)

    @staticmethod
    def _build():
        world = World(
            get_platform("A"),
            num_nodes=SERVICE_NODES,
            ranks_per_node=SERVICE_RANKS_PER_NODE,
        )
        return world, ClusterService(world, ServiceConfig(queue_limit=SERVICE_QUEUE_LIMIT))

    def run_unit(self) -> Unit:
        unit = Unit()
        for _ in range(SERVICE_SETUPS):
            t0 = perf_counter()
            world, service = self._build()
            unit.setup_s.append(perf_counter() - t0)
        done: List[float] = []

        def on_write(metric, _value, labels) -> None:
            if metric.name == "service.jobs" and labels.get("outcome") != "rejected":
                done.append(perf_counter())

        world.obs.registry.add_write_hook(on_write)
        with _Timer(unit) as timer:
            result = service.run(self.jobs)
        world.obs.registry.remove_write_hook(on_write)
        stamps = [timer.t0] + done
        unit.step_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        unit.add_world(world)
        for obs in result.tenant_obs.values():
            unit.add_spans(obs)
        unit.jobs_completed = len(result.completed)
        stream = str(self.seed % SERVICE_STREAMS)
        got = service_outputs(result)
        want = self.references["service-stream"][stream] if self.references else got
        unit.check(got == want, f"stream {stream}: {got} != {want}", steps=len(self.jobs))
        return unit

    def record(self) -> Dict[str, Any]:
        """The modelled figures of this seed's stream."""
        _world, service = self._build()
        return service_outputs(service.run(self.jobs))


WORKLOADS = {w.name: w for w in (Spmd1024, AppsData, ServiceStream)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
