"""Directed proximity graph: construction and the spanning-tree check."""

from dataclasses import dataclass

import numpy as np

from .model import RobotState, planar_norm


class GraphError(ValueError):
    """Raised for inconsistent topology inputs (e.g. a root outside 1..n)."""


@dataclass
class Topology:
    """Snapshot of the sensing graph of robots 1..n.

    ``adjacency[i - 1, j - 1]`` is True iff robot i senses robot j (j is a
    parent of i: information flows from j to i). ``neighbors[i]`` lists
    those j in order.
    """

    adjacency: np.ndarray  # (n, n) bool, False on the diagonal

    @property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        # not called by the pipeline: rendezbench/run.py reads it
        return {i: tuple(int(j) + 1 for j in np.flatnonzero(row))
                for i, row in enumerate(self.adjacency, start=1)}


def build_topology(states: list[RobotState], sensing_radius: float) -> Topology:
    """Build the sensing graph: edge (i, j) iff ||p_i - p_j|| < radius, strictly.

    ``states`` are robots 1..n in order. Edges come in mutual pairs because
    sensing is distance-based; the directed representation is kept so that
    hand-built asymmetric topologies can use the same algorithms.
    """
    pos = np.array([s.position for s in states]).reshape(len(states), 2)
    near = planar_norm(pos[:, None, :] - pos[None, :, :]) < sensing_radius
    np.fill_diagonal(near, False)
    return Topology(near)


def has_rooted_spanning_tree(adjacency: np.ndarray, root: int) -> bool:
    """True iff information from ``root`` can reach every node of the
    ``(n, n)`` boolean matrix ``adjacency``, a ``Topology``'s.

    Edge (i, j) means i senses j, so information flows j -> i: a robot is
    reached once it senses a reached robot. Each pass reaches every robot
    one hop further, so at most n passes decide. The reached set only
    grows, so a pass that reaches no more robots reaches no new one.
    """
    n = len(adjacency)
    if not 1 <= root <= n:
        raise GraphError(f"root {root} outside 1..{n}")
    reached = np.arange(1, n + 1) == root
    count = 1
    while True:
        reached |= adjacency @ reached
        grown = np.count_nonzero(reached)
        if grown == count:
            return bool(grown == n)
        count = grown
