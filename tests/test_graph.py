from collections import deque

import numpy as np
import pytest

from rendezsim import Topology, build_topology, has_rooted_spanning_tree
from rendezsim.graph import GraphError

from conftest import make_states, topology as topo_from_neighbors
from oracles import laplacian


def bfs_has_rooted_spanning_tree(topo: Topology, root: int) -> bool:
    """True iff information from ``root`` can reach every node.

    Edge (i, j) means i senses j, so information flows j -> i; we traverse
    edges reversed and require every node reachable from the root.
    """
    n = len(topo.adjacency)
    if not 1 <= root <= n:
        raise GraphError(f"root {root} outside 1..{n}")
    children: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for i, parents in topo.neighbors.items():
        for j in parents:
            children[j].append(i)
    seen = {root}
    queue = deque([root])
    while queue:
        j = queue.popleft()
        for i in children[j]:
            if i not in seen:
                seen.add(i)
                queue.append(i)
    return len(seen) == n


class TestBuildTopology:
    def test_edge_below_radius(self):
        states = make_states([(0.0, 0.0, 0.0), (1.9, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == (2,)
        assert topo.neighbors[2] == (1,)

    def test_no_edge_above_radius(self):
        states = make_states([(0.0, 0.0, 0.0), (2.1, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == ()
        assert topo.neighbors[2] == ()

    def test_tie_excluded(self):
        states = make_states([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == ()

    def test_edges_are_mutual(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.uniform(-3, 3, (6, 2))
            states = make_states([(x, y, 0.0) for x, y in pts])
            topo = build_topology(states, 2.5)
            for i, near in topo.neighbors.items():
                for j in near:
                    assert i in topo.neighbors[j]


class TestSpanningTree:
    def test_chain(self):
        # 2 senses 1, 3 senses 2: information flows 1 -> 2 -> 3
        topo = topo_from_neighbors(3, {2: (1,), 3: (2,)})
        assert has_rooted_spanning_tree(topo.adjacency, root=1)

    def test_disconnected_pairs(self):
        topo = topo_from_neighbors(4, {2: (1,), 1: (2,), 3: (4,), 4: (3,)})
        assert not has_rooted_spanning_tree(topo.adjacency, root=1)

    def test_complete_graph(self):
        nbrs = {i: tuple(j for j in range(1, 7) if j != i) for i in range(1, 7)}
        topo = topo_from_neighbors(6, nbrs)
        assert has_rooted_spanning_tree(topo.adjacency, root=1)

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            nbrs = {i: set() for i in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j and rng.random() < 0.3:
                        nbrs[i].add(j)
            topo = topo_from_neighbors(n, {i: tuple(sorted(v))
                                           for i, v in nbrs.items()})
            before = has_rooted_spanning_tree(topo.adjacency, root=1)
            i, j = rng.integers(1, n + 1, 2)
            while j == i:
                j = int(rng.integers(1, n + 1))
            nbrs[i].add(j)
            topo2 = topo_from_neighbors(n, {i: tuple(sorted(v))
                                            for i, v in nbrs.items()})
            after = has_rooted_spanning_tree(topo2.adjacency, root=1)
            assert after or not before  # adding never flips true -> false

    def test_matches_breadth_first_search(self):
        # the queue-based search over neighbor lists that the matrix
        # reachability replaced, on directed graphs from every root
        rng = np.random.default_rng(5)
        seen = {"asymmetric": 0, "spanning": 0, "disconnected": 0, "n=1": 0}
        for trial in range(200):
            n = 1 if trial % 20 == 0 else int(rng.integers(2, 10))
            adjacency = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            np.fill_diagonal(adjacency, False)
            topo = Topology(adjacency)
            seen["asymmetric"] += not np.array_equal(adjacency, adjacency.T)
            seen["n=1"] += n == 1
            for root in range(1, n + 1):
                expected = bfs_has_rooted_spanning_tree(topo, root)
                assert has_rooted_spanning_tree(adjacency, root) is expected
                seen["spanning" if expected else "disconnected"] += 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("root", [0, 4])
    def test_root_outside_graph_rejected(self, root):
        topo = topo_from_neighbors(3, {2: (1,), 3: (2,)})
        with pytest.raises(GraphError, match="outside 1..3"):
            has_rooted_spanning_tree(topo.adjacency, root)


class TestLaplacian:
    def test_two_robot_example(self):
        topo = topo_from_neighbors(2, {2: (1,)})
        mat = laplacian(topo, {(2, 1): 2.0}, [1.0, 1.0])
        assert np.allclose(mat, [[0.0, 0.0], [-2.0, 2.0]])

    def test_zero_weights_give_zero_matrix(self):
        nbrs = {i: tuple(j for j in range(1, 5) if j != i) for i in range(1, 5)}
        topo = topo_from_neighbors(4, nbrs)
        weights = {(i, j): 0.0 for i in range(1, 5) for j in nbrs[i]}
        mat = laplacian(topo, weights, [1.0] * 4)
        assert np.all(mat == 0.0)

    def test_missing_weight_rejected(self):
        topo = topo_from_neighbors(2, {2: (1,)})
        with pytest.raises(GraphError, match="missing weight"):
            laplacian(topo, {}, [1.0, 1.0])

    def test_structure_on_random_topologies(self):
        # assemble with an independent brute-force loop and compare
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            nbrs = {i: set() for i in range(1, n + 1)}
            for i in range(2, n + 1):
                nbrs[i].add(int(rng.integers(1, i)))  # ensures rooted tree
                for j in range(1, n + 1):
                    if j != i and rng.random() < 0.4:
                        nbrs[i].add(j)
            topo = topo_from_neighbors(n, {i: tuple(sorted(v))
                                           for i, v in nbrs.items()})
            gains = rng.uniform(0.5, 3.0, n).tolist()
            weights = {(i, j): float(rng.uniform(0.0, 5.0))
                       for i in range(2, n + 1) for j in nbrs[i]}
            mat = laplacian(topo, weights, gains)

            expected = np.zeros((n, n))
            for i in range(2, n + 1):
                for j in nbrs[i]:
                    expected[i - 1, i - 1] += gains[i - 1] * weights[(i, j)]
                    expected[i - 1, j - 1] = -gains[i - 1] * weights[(i, j)]
            assert np.allclose(mat, expected, atol=0.0)

            assert np.all(np.abs(mat.sum(axis=1)) < 1e-12)
            off = mat[~np.eye(n, dtype=bool)]
            assert np.all(off <= 0.0)
            assert np.all(mat[0] == 0.0)

