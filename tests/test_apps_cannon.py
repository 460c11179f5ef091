"""Tests for the Cannon ring-exchange matrix multiplication."""

import numpy as np
import pytest

from repro.apps import CannonConfig, cannon_reference, run_cannon
from repro.apps.cannon import _init_stripe
from repro.cluster import World
from repro.hardware import platform_a, platform_b
from repro.util.errors import ConfigurationError


def assemble_c(results, cfg, nranks):
    ordered = sorted(results, key=lambda r: r["rank"])
    return np.concatenate([r["C"] for r in ordered])


class TestCorrectness:
    @pytest.mark.parametrize("impl", ["diomp", "mpi"])
    def test_matches_reference_single_node(self, impl):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        cfg = CannonConfig(n=32, execute=True)
        res = run_cannon(w, cfg, impl=impl)
        np.testing.assert_allclose(
            assemble_c(res.results, cfg, 4), cannon_reference(cfg, 4)
        )

    @pytest.mark.parametrize("impl", ["diomp", "mpi"])
    def test_matches_reference_multi_node(self, impl):
        w = World(platform_a(with_quirk=False), num_nodes=2)
        cfg = CannonConfig(n=40, execute=True)
        res = run_cannon(w, cfg, impl=impl)
        np.testing.assert_allclose(
            assemble_c(res.results, cfg, 8), cannon_reference(cfg, 8)
        )

    def test_matches_reference_platform_b(self):
        w = World(platform_b(), num_nodes=1)  # 8 GCDs
        cfg = CannonConfig(n=24, execute=True)
        res = run_cannon(w, cfg, impl="diomp")
        np.testing.assert_allclose(
            assemble_c(res.results, cfg, 8), cannon_reference(cfg, 8)
        )

    def test_indivisible_size_rejected(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        with pytest.raises(ConfigurationError, match="divide"):
            run_cannon(w, CannonConfig(n=30, execute=True))

    def test_unknown_impl_rejected(self):
        w = World(platform_a(with_quirk=False), num_nodes=1)
        with pytest.raises(ConfigurationError, match="implementation"):
            run_cannon(w, CannonConfig(n=32), impl="nccl")


class TestInitStripe:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nranks", [1, 3, 8])
    def test_matches_float_modulo(self, dtype, nranks):
        """The integer-modulo stripes equal the defining float formula
        bit for bit, sign of zero included."""
        cfg = CannonConfig(n=48, dtype=dtype)
        ns = cfg.stripe(nranks)
        for rank in range(nranks):
            rows = np.arange(rank * ns, (rank + 1) * ns, dtype=dtype)[:, None]
            cols = np.arange(cfg.n, dtype=dtype)[None, :]
            for which, want in (("A", (rows - cols) % 7), ("B", (rows + cols) % 5)):
                got = _init_stripe(cfg, rank, nranks, which)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTiming:
    def _elapsed(self, impl, nodes, n=2048):
        w = World(platform_a(with_quirk=False), num_nodes=nodes)
        cfg = CannonConfig(n=n, execute=False)
        res = run_cannon(w, cfg, impl=impl)
        return max(r["elapsed"] for r in res.results)

    def test_virtual_mode_produces_time(self):
        assert self._elapsed("diomp", 1) > 0

    def test_diomp_not_slower_than_mpi(self):
        """Fig. 7's headline: DiOMP wins (MPI pays host staging
        intra-node and heavier per-message software)."""
        assert self._elapsed("diomp", 2) <= self._elapsed("mpi", 2)

    def test_strong_scaling_reduces_time(self):
        """More nodes -> less wall-clock at the paper's N=30240 (the
        compute-bound regime; small N is genuinely comm-bound)."""
        w1 = World(platform_a(with_quirk=False), num_nodes=1)
        w2 = World(platform_a(with_quirk=False), num_nodes=2)
        cfg = CannonConfig(n=30240, execute=False)
        t1 = max(r["elapsed"] for r in run_cannon(w1, cfg, impl="diomp").results)
        t2 = max(r["elapsed"] for r in run_cannon(w2, cfg, impl="diomp").results)
        assert t2 < t1
