"""PageRank: convergence, agreement with networkx, and what a run costs."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.apps.pagerank import (
    PR_HINT_LAYOUT,
    pack_f64,
    pagerank_plan,
    pr_combine,
    unpack_f64,
)
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET
from repro.sched import PlanRunner, StageCache

CFG = MimirConfig(page_size=8192, comm_buffer_size=8192,
                  input_chunk_size=4096)


def run_pagerank(edges, nprocs=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("edges.bin", edges_to_bytes(edges))
    result = cluster.run(
        lambda env: pagerank_plan(env, "edges.bin", CFG, **kwargs))
    merged = {}
    for r in result.returns:
        for v, score in r.ranks.items():
            assert v not in merged
            merged[v] = score
    return merged, result.returns[0].iterations


def reference_pagerank(edges, damping=0.85):
    graph = nx.DiGraph()
    graph.add_edges_from(edges.tolist())
    return nx.pagerank(graph, alpha=damping, tol=1e-12, max_iter=200)


@pytest.fixture(scope="module")
def edges():
    return kronecker_edges(scale=6, edgefactor=8, seed=11)


class TestAgainstNetworkx:
    def test_scores_match(self, edges):
        ours, _ = run_pagerank(edges, iterations=100, tolerance=1e-12)
        theirs = reference_pagerank(edges)
        assert set(ours) == set(theirs)
        for v in ours:
            assert ours[v] == pytest.approx(theirs[v], rel=1e-3, abs=1e-6)

    def test_scores_sum_to_one(self, edges):
        ours, _ = run_pagerank(edges, iterations=50)
        assert sum(ours.values()) == pytest.approx(1.0, abs=1e-6)

    def test_serial_equals_parallel(self, edges):
        serial, _ = run_pagerank(edges, nprocs=1, iterations=30)
        parallel, _ = run_pagerank(edges, nprocs=6, iterations=30)
        assert set(serial) == set(parallel)
        for v in serial:
            assert serial[v] == pytest.approx(parallel[v], rel=1e-9)

    def test_hint_and_compress_preserve_scores(self, edges):
        plain, _ = run_pagerank(edges, iterations=30)
        opt, _ = run_pagerank(edges, iterations=30, hint=True, compress=True)
        for v in plain:
            assert plain[v] == pytest.approx(opt[v], rel=1e-9)


class TestStructure:
    def test_dangling_mass_redistributed(self):
        # 0 -> 1, 1 is dangling: without dangling handling mass leaks.
        edges = np.array([[0, 1]], dtype="<u8")
        ours, _ = run_pagerank(edges, nprocs=2, iterations=100,
                               tolerance=1e-14)
        assert sum(ours.values()) == pytest.approx(1.0, abs=1e-9)
        assert ours[1] > ours[0]  # 1 receives from 0 plus base

    def test_cycle_is_uniform(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]], dtype="<u8")
        ours, _ = run_pagerank(edges, nprocs=3, iterations=100,
                               tolerance=1e-14)
        for score in ours.values():
            assert score == pytest.approx(1 / 3, abs=1e-9)

    def test_converges_early_on_tolerance(self, edges):
        _, iters = run_pagerank(edges, iterations=500, tolerance=1e-10)
        assert iters < 500

    def test_empty_graph_raises(self):
        from repro.mpi import RankFailedError

        cluster = Cluster(COMET, nprocs=2, memory_limit=None)
        cluster.pfs.store("edges.bin", b"")
        with pytest.raises(RankFailedError):
            cluster.run(lambda env: pagerank_plan(env, "edges.bin", CFG))


class TestPinned:
    @pytest.mark.parametrize("opts, digest", [
        ({}, "a6470c84c49f483e6cebf70c093bfca7f14383af"),
        ({"hint": True, "compress": True},
         "a69cb61a1ed655cad07b09f742ad134bf5be75f8"),
    ])
    def test_scores_match_the_retired_direct_driver(self, edges, opts,
                                                   digest):
        """``float.hex`` digests of the scores the dict-driven direct
        driver PageRank used to have computed on this graph."""
        def bits(env):
            r = pagerank_plan(env, "edges.bin", CFG, iterations=30, **opts)
            return (r.iterations, [(v, s.hex()) for v, s in r.ranks.items()],
                    r.final_delta.hex())

        cluster = Cluster(COMET, nprocs=4, memory_limit=None)
        cluster.pfs.store("edges.bin", edges_to_bytes(edges))
        returns = cluster.run(bits).returns
        assert hashlib.sha1(repr(returns).encode()).hexdigest() == digest

    @pytest.mark.parametrize("iterations", [1, 4])
    def test_bare_runner_shuffles_the_edges_once(self, edges, iterations):
        """The adjacency is read only inside the loop, so a runner with
        no stage cache keeps it: one edge shuffle per run, and no more
        virtual time than a run with a cache."""
        def run(cached):
            cluster = Cluster(COMET, nprocs=4, memory_limit=None)
            cluster.pfs.store("edges.bin", edges_to_bytes(edges))
            runners = []

            def build(env, plan):
                runners.append(PlanRunner(
                    env, plan,
                    cache=StageCache(env.comm.rank) if cached else None))
                return runners[-1]

            result = cluster.run(lambda env: pagerank_plan(
                env, "edges.bin", CFG, iterations=iterations, tolerance=0.0,
                runner=lambda plan: build(env, plan)))
            return result.elapsed, runners[0].stage_counts

        bare, stages = run(cached=False)
        assert stages["edge-shuffle"] == stages["adjacency-sorted"] == 1
        assert stages["contrib"] == iterations
        assert bare <= run(cached=True)[0]


class TestHelpers:
    def test_f64_roundtrip(self):
        assert unpack_f64(pack_f64(0.123456789)) == pytest.approx(
            0.123456789, rel=1e-15)

    def test_combine_sums(self):
        assert unpack_f64(pr_combine(b"k", pack_f64(0.25),
                                     pack_f64(0.5))) == pytest.approx(0.75)

    def test_hint_layout(self):
        assert PR_HINT_LAYOUT.header_size == 0
