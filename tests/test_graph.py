import numpy as np
import pytest

from rendezsim import (Topology, build_topology, has_rooted_spanning_tree,
                       laplacian, tree_edge_stress)
from rendezsim.graph import GraphError

from conftest import make_states


def topo_from_neighbors(n, neighbors):
    return Topology(n=n, neighbors={i: tuple(neighbors.get(i, ()))
                                    for i in range(1, n + 1)},
                    distances={}, monitored_edges=())


class TestBuildTopology:
    def test_edge_below_radius(self):
        states = make_states([(0.0, 0.0, 0.0), (1.9, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == (2,)
        assert topo.neighbors[2] == (1,)
        assert topo.distances[(1, 2)] == pytest.approx(1.9)

    def test_no_edge_above_radius(self):
        states = make_states([(0.0, 0.0, 0.0), (2.1, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == ()
        assert topo.neighbors[2] == ()

    def test_tie_excluded(self):
        states = make_states([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        assert topo.neighbors[1] == ()

    def test_distances_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.uniform(-3, 3, (6, 2))
            states = make_states([(x, y, 0.0) for x, y in pts])
            topo = build_topology(states, 2.5)
            for (i, j), d in topo.distances.items():
                assert (j, i) in topo.distances
                assert topo.distances[(j, i)] == pytest.approx(d, abs=1e-15)


class TestSpanningTree:
    def test_chain(self):
        # 2 senses 1, 3 senses 2: information flows 1 -> 2 -> 3
        topo = topo_from_neighbors(3, {2: (1,), 3: (2,)})
        assert has_rooted_spanning_tree(topo, root=1)

    def test_disconnected_pairs(self):
        topo = topo_from_neighbors(4, {2: (1,), 1: (2,), 3: (4,), 4: (3,)})
        assert not has_rooted_spanning_tree(topo, root=1)

    def test_complete_graph(self):
        nbrs = {i: tuple(j for j in range(1, 7) if j != i) for i in range(1, 7)}
        topo = topo_from_neighbors(6, nbrs)
        assert has_rooted_spanning_tree(topo, root=1)

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
            before = has_rooted_spanning_tree(topo, root=1)
            i, j = rng.integers(1, n + 1, 2)
            while j == i:
                j = int(rng.integers(1, n + 1))
            nbrs[i].add(j)
            topo2 = topo_from_neighbors(n, {i: tuple(sorted(v))
                                            for i, v in nbrs.items()})
            after = has_rooted_spanning_tree(topo2, root=1)
            assert after or not before  # adding never flips true -> false


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


class TestTreeEdgeStress:
    def test_margin_arithmetic(self):
        states = make_states([(0.0, 0.0, 0.0), (1.5, 0.0, 0.0)])
        topo = build_topology(states, 2.0)
        margins = dict(tree_edge_stress(topo, 2.0, 0.4))
        assert margins[(1, 2)] == pytest.approx(0.5)

    def test_zero_margin_is_violation(self):
        topo = Topology(n=2, neighbors={1: (2,), 2: (1,)},
                        distances={(1, 2): 2.0, (2, 1): 2.0},
                        monitored_edges=((1, 2), (2, 1)))
        margins = dict(tree_edge_stress(topo, 2.0, 0.4))
        assert margins[(1, 2)] == 0.0

    def test_buffer_must_be_sane(self):
        topo = build_topology(make_states([(0, 0, 0), (1, 0, 0)]), 2.0)
        with pytest.raises(GraphError):
            tree_edge_stress(topo, 2.0, 2.5)
