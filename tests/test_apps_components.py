"""Connected components: agreement with networkx, convergence."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.components import CC_HINT_LAYOUT, cc_combine, components_plan
from repro.cluster import Cluster
from repro.core import MimirConfig, pack_u64, unpack_u64
from repro.datasets import edges_to_bytes, kronecker_edges
from repro.mpi import COMET

CFG = MimirConfig(page_size=8192, comm_buffer_size=8192,
                  input_chunk_size=4096)


def run_components(edges, nprocs=4, **kwargs):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)
    cluster.pfs.store("edges.bin", edges_to_bytes(edges))
    result = cluster.run(
        lambda env: components_plan(env, "edges.bin", CFG, **kwargs))
    labels = {}
    for r in result.returns:
        for v, label in r.labels.items():
            assert v not in labels
            labels[v] = label
    return labels, max(r.iterations for r in result.returns)


def reference_components(edges):
    graph = nx.Graph(e for e in edges.tolist() if e[0] != e[1])
    return {min(comp): set(comp) for comp in nx.connected_components(graph)}


class TestCorrectness:
    def test_matches_networkx(self):
        edges = kronecker_edges(scale=6, edgefactor=2, seed=3)
        labels, _ = run_components(edges)
        reference = reference_components(edges)
        # Every component labelled by its minimum vertex id.
        for root, members in reference.items():
            for v in members:
                assert labels[v] == root

    def test_two_components(self):
        edges = np.array([[0, 1], [1, 2], [5, 6], [6, 7]], dtype="<u8")
        labels, _ = run_components(edges, nprocs=3)
        assert labels == {0: 0, 1: 0, 2: 0, 5: 5, 6: 5, 7: 5}

    def test_chain_converges(self):
        # Worst case for label propagation: a long path.
        n = 40
        edges = np.array([[i, i + 1] for i in range(n)], dtype="<u8")
        labels, iterations = run_components(edges, nprocs=4)
        assert all(label == 0 for label in labels.values())
        assert iterations <= n + 2

    def test_serial_equals_parallel(self):
        edges = kronecker_edges(scale=5, edgefactor=4, seed=9)
        serial, _ = run_components(edges, nprocs=1)
        parallel, _ = run_components(edges, nprocs=8)
        assert serial == parallel

    def test_optimizations_preserve_labels(self):
        edges = kronecker_edges(scale=6, edgefactor=4, seed=7)
        plain, _ = run_components(edges)
        opt, _ = run_components(edges, hint=True, compress=True)
        assert plain == opt

    def test_self_loops_ignored(self):
        edges = np.array([[3, 3], [3, 4]], dtype="<u8")
        labels, _ = run_components(edges, nprocs=2)
        assert labels == {3: 3, 4: 3}


class TestHelpers:
    def test_combine_keeps_minimum(self):
        small, big = pack_u64(3), pack_u64(500)
        assert unpack_u64(cc_combine(b"k", small, big)) == 3
        assert unpack_u64(cc_combine(b"k", big, small)) == 3

    def test_combine_compares_numerically_not_bytewise(self):
        # 256 < 511 numerically but b"\x00\x01.." vs b"\xff\x01.."
        # would compare the other way bytewise.
        a, b = pack_u64(256), pack_u64(511)
        assert unpack_u64(cc_combine(b"k", a, b)) == 256

    def test_hint_layout_fixed(self):
        assert CC_HINT_LAYOUT.key_len == 8
        assert CC_HINT_LAYOUT.val_len == 8
