"""Network and PFS cost model sanity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi import NetworkModel, PFSModel
from repro.mpi.platforms import COMET, MIRA, SCALE, scaled


@pytest.fixture
def net():
    return NetworkModel(latency=1e-6, bandwidth=1e9)


class TestNetworkModel:
    def test_single_proc_collectives_free(self, net):
        assert net.barrier_cost(1) == 0.0
        assert net.allreduce_cost(1, 100) == 0.0
        assert net.alltoallv_cost(1, 100) == 0.0
        assert net.bcast_cost(1, 8) == 0.0
        assert net.allgather_cost(1, 8) == 0.0

    def test_barrier_grows_logarithmically(self, net):
        assert net.barrier_cost(2) < net.barrier_cost(16)
        assert net.barrier_cost(16) == pytest.approx(4 * net.latency)

    def test_alltoallv_scales_with_payload(self, net):
        small = net.alltoallv_cost(8, 1024)
        large = net.alltoallv_cost(8, 1024 * 1024)
        assert large > small

    def test_alltoallv_more_procs_more_steps(self, net):
        # Same total payload per rank, more exchange steps.
        assert net.alltoallv_cost(16, 4096) > net.alltoallv_cost(2, 4096)

    def test_allgather_linear_in_procs(self, net):
        assert net.allgather_cost(8, 64) == pytest.approx(
            7 * (net.latency + 64 / net.bandwidth))


class TestPFSModel:
    def test_access_cost_latency_plus_transfer(self):
        pfs = PFSModel(latency=1e-3, bandwidth=1e8)
        assert pfs.access_cost(1e8) == pytest.approx(1e-3 + 1.0)

    def test_io_ratio_divides_bandwidth(self):
        base = PFSModel(latency=0.0, bandwidth=1e8)
        forwarded = PFSModel(latency=0.0, bandwidth=1e8, io_ratio=128)
        assert forwarded.access_cost(1e8) == pytest.approx(
            128 * base.access_cost(1e8))

    def test_pfs_much_slower_than_network_on_platforms(self):
        # The core premise of Fig. 1: spilling a page costs far more
        # than shuffling the same bytes.
        for platform in (COMET, MIRA):
            page = platform.default_page_size
            spill = platform.pfs.access_cost(page)
            shuffle = platform.network.alltoallv_cost(
                platform.procs_per_node, page)
            assert spill > 5 * shuffle


class TestPlatforms:
    def test_scaled_divides_by_1024(self):
        assert scaled("64M") == 64 * 1024
        assert SCALE == 1024

    def test_comet_shape(self):
        assert COMET.procs_per_node == 24
        assert COMET.node_memory == scaled("128G")
        assert COMET.default_page_size == scaled("64M")
        assert COMET.max_page_size == scaled("512M")

    def test_mira_shape(self):
        assert MIRA.procs_per_node == 16
        assert MIRA.node_memory == scaled("16G")
        assert MIRA.max_page_size == scaled("128M")

    def test_memory_per_proc(self):
        assert COMET.memory_per_proc == COMET.node_memory // 24
        # Mira/rank must hold at least 7 pages of the max page size
        # (the paper states 128M is usable there).
        assert MIRA.memory_per_proc >= 7 * MIRA.max_page_size

    def test_mira_io_forwarding_slower(self):
        nbytes = scaled("64M")
        assert MIRA.pfs.access_cost(nbytes) > COMET.pfs.access_cost(nbytes)


class TestTopologyAwareness:
    def test_default_is_flat(self, net):
        assert net.alltoallv_cost(8, 4096, 1) == net.alltoallv_cost(8, 4096, 8)

    def test_single_node_cheaper_with_speedup(self):
        fast = NetworkModel(latency=1e-6, bandwidth=1e9, intra_speedup=10)
        one_node = fast.alltoallv_cost(8, 1 << 20, 1)
        many_nodes = fast.alltoallv_cost(8, 1 << 20, 8)
        assert one_node < many_nodes
        # All traffic on-node: within ~10x of the all-remote cost.
        assert one_node < many_nodes / 2

    def test_blend_monotone_in_nodes(self):
        fast = NetworkModel(latency=1e-6, bandwidth=1e9, intra_speedup=8)
        costs = [fast.alltoallv_cost(16, 1 << 18, n) for n in (1, 2, 4, 16)]
        assert costs == sorted(costs)

    def test_barrier_latency_blended(self):
        fast = NetworkModel(latency=1e-5, bandwidth=1e9, intra_speedup=100)
        assert fast.barrier_cost(16, 1) < fast.barrier_cost(16, 16)

    def test_cluster_passes_single_node_topology(self):
        from repro.cluster import Cluster
        from repro.mpi.platforms import COMET

        # Default platforms are flat, so times are unchanged; the
        # plumbing is exercised end to end regardless.
        cluster = Cluster(COMET, nprocs=4, nodes=1)
        result = cluster.run(lambda env: env.comm.allsum(1))
        assert result.returns == [4] * 4


@given(st.integers(min_value=2, max_value=1024),
       st.integers(min_value=0, max_value=1 << 30))
def test_property_costs_nonnegative_and_monotone(p, nbytes):
    net = NetworkModel(latency=1e-6, bandwidth=1e9)
    assert net.alltoallv_cost(p, nbytes) >= 0
    assert net.alltoallv_cost(p, nbytes + 1024) >= net.alltoallv_cost(p, nbytes)
    assert net.allreduce_cost(p, 8) >= 0
