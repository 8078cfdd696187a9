"""CSR packed adjacency: the graph structure the engine's
``Table.csr`` builds and its BFS primitives."""

from __future__ import annotations

from repro.store.csr import CSRGraph


class TestCSRGraph:
    def test_from_adjacency_preserves_order(self):
        graph = CSRGraph.from_adjacency({1: [2, 3], 2: [1], 4: []})
        assert list(graph.neighbors(1)) == [2, 3]
        assert list(graph.neighbors(2)) == [1]
        assert list(graph.neighbors(4)) == []
        assert list(graph.neighbors(99)) == []
        assert len(graph) == 3

    def test_from_edges_groups_by_source(self):
        graph = CSRGraph.from_edges([(1, 2), (2, 3), (1, 4)])
        assert list(graph.neighbors(1)) == [2, 4]
        assert list(graph.neighbors(2)) == [3]

    def test_gather_concatenates_with_duplicates(self):
        graph = CSRGraph.from_adjacency({1: [2, 3], 2: [3]})
        assert graph.gather([1, 2]) == [2, 3, 3]

    def test_frontier_bfs_levels(self):
        graph = CSRGraph.from_adjacency(
            {1: [2, 3], 2: [1, 4], 3: [1], 4: [2, 5], 5: [4]})
        levels = list(graph.frontier_bfs(1, 10))
        assert [(sorted(frontier), depth) for frontier, depth in levels] \
            == [([2, 3], 1), ([4], 2), ([5], 3)]
