"""Tests for the contended fabric transport model."""

import pytest

from repro.hardware import platform_a, platform_c
from repro.network import Fabric
from repro.sim import Simulator
from repro.util.errors import CommunicationError
from repro.util.units import KiB, MiB


def make_fabric(nodes=2, platform=None):
    sim = Simulator()
    spec = platform or platform_a(with_quirk=False)
    topo = spec.cluster(nodes)
    return sim, topo, Fabric(sim, topo)


class TestUnloadedTransfers:
    def test_single_transfer_time_matches_alpha_beta(self):
        sim, topo, fab = make_fabric()
        src, dst = topo.gpu(0, 0), topo.gpu(1, 0)
        expected = fab.unloaded_time(src, dst, 1 * MiB)
        records = []

        def prog():
            fut = fab.transfer(src, dst, 1 * MiB)
            records.append(fut.wait())

        sim.spawn(prog)
        sim.run()
        assert sim.now == pytest.approx(expected)
        rec = records[0]
        assert rec.nbytes == 1 * MiB
        assert rec.duration == pytest.approx(expected)

    def test_zero_byte_transfer_costs_latency_only(self):
        sim, topo, fab = make_fabric()
        src, dst = topo.gpu(0, 0), topo.gpu(1, 0)

        def prog():
            fab.transfer(src, dst, 0).wait()

        sim.spawn(prog)
        sim.run()
        path = topo.path(src, dst)
        assert sim.now == pytest.approx(path.latency)

    def test_on_complete_runs_before_future(self):
        sim, topo, fab = make_fabric()
        order = []

        def prog():
            fut = fab.transfer(
                topo.gpu(0, 0),
                topo.gpu(1, 0),
                4 * KiB,
                on_complete=lambda: order.append("copy"),
            )
            fut.wait()
            order.append("woke")

        sim.spawn(prog)
        sim.run()
        assert order == ["copy", "woke"]

    def test_extra_latency_added(self):
        sim, topo, fab = make_fabric()
        src, dst = topo.gpu(0, 0), topo.gpu(1, 0)
        base = fab.unloaded_time(src, dst, 4 * KiB)

        def prog():
            fab.transfer(src, dst, 4 * KiB, extra_latency=5e-6).wait()

        sim.spawn(prog)
        sim.run()
        assert sim.now == pytest.approx(base + 5e-6)

    def test_negative_size_rejected(self):
        sim, topo, fab = make_fabric()

        def prog():
            fab.transfer(topo.gpu(0, 0), topo.gpu(1, 0), -1)

        sim.spawn(prog)
        with pytest.raises(CommunicationError):
            sim.run()


class TestContention:
    def test_same_nic_serializes(self):
        """Two concurrent transfers through one NIC take ~2x wire time."""
        sim, topo, fab = make_fabric(platform=platform_c())
        src, dst = topo.gpu(0, 0), topo.gpu(1, 0)
        size = 16 * MiB
        single = fab.unloaded_time(src, dst, size)
        ends = []

        def sender():
            fut1 = fab.transfer(src, dst, size)
            fut2 = fab.transfer(src, dst, size)
            fut1.wait()
            fut2.wait()
            ends.append(sim.now)

        sim.spawn(sender)
        sim.run()
        wire = size / topo.path(src, dst).bandwidth
        assert ends[0] == pytest.approx(single + wire)

    def test_distinct_nics_run_in_parallel(self):
        """GPUs striped over different NICs do not contend (Platform A
        has one NIC per GPU)."""
        sim, topo, fab = make_fabric()
        size = 16 * MiB
        src_a, dst_a = topo.gpu(0, 0), topo.gpu(1, 0)
        src_b, dst_b = topo.gpu(0, 1), topo.gpu(1, 1)
        single = fab.unloaded_time(src_a, dst_a, size)

        def sender():
            f1 = fab.transfer(src_a, dst_a, size)
            f2 = fab.transfer(src_b, dst_b, size)
            f1.wait()
            f2.wait()

        sim.spawn(sender)
        sim.run()
        assert sim.now == pytest.approx(single)

    def test_nvlink_pairs_independent(self):
        sim, topo, fab = make_fabric(nodes=1)
        size = 32 * MiB
        single = fab.unloaded_time(topo.gpu(0, 0), topo.gpu(0, 1), size)

        def prog():
            f1 = fab.transfer(topo.gpu(0, 0), topo.gpu(0, 1), size)
            f2 = fab.transfer(topo.gpu(0, 2), topo.gpu(0, 3), size)
            f1.wait()
            f2.wait()

        sim.spawn(prog)
        sim.run()
        assert sim.now == pytest.approx(single)


class TestAccounting:
    def test_statistics(self):
        sim, topo, fab = make_fabric()

        def prog():
            fab.transfer(topo.gpu(0, 0), topo.gpu(1, 0), 100).wait()
            fab.transfer(topo.gpu(0, 1), topo.gpu(1, 1), 200).wait()

        sim.spawn(prog)
        sim.run()
        assert fab.total_transfers == 2
        assert fab.total_bytes == 300

    def test_transfer_record_and_totals(self):
        sim, topo, fab = make_fabric()
        records = []

        def prog():
            records.append(
                fab.transfer(topo.gpu(0, 0), topo.gpu(1, 0), 4 * KiB).wait()
            )

        sim.spawn(prog)
        sim.run()
        assert (fab.total_transfers, fab.total_bytes) == (1, 4 * KiB)
        (rec,) = records
        assert rec.nbytes == 4 * KiB
        assert rec.path.kind.value == "inter-node"

    def test_quirk_visible_in_achieved_bandwidth(self):
        from repro.hardware import platform_a as pa

        results = {}
        for quirk in (False, True):
            sim = Simulator()
            topo = pa(with_quirk=quirk).cluster(2)
            fab = Fabric(sim, topo)
            recs = []

            def prog():
                recs.append(
                    fab.transfer(
                        topo.gpu(0, 0), topo.gpu(1, 0), 64 * MiB, operation="put"
                    ).wait()
                )

            sim.spawn(prog)
            sim.run()
            results[quirk] = recs[0].achieved_bandwidth
        assert results[True] < 0.5 * results[False]
