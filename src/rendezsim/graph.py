"""Directed proximity graph: construction, spanning-tree check, Laplacian."""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import RobotState

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised for inconsistent topology inputs (e.g. missing edge weights)."""


@dataclass
class Topology:
    """Snapshot of the sensing graph.

    ``neighbors[i]`` lists the robots that robot i can sense (its parents:
    information flows from them to i). ``distances`` holds the distance for
    every directed edge at construction time. ``monitored_edges`` is the set
    of edges whose preservation the simulator watches; by default it is every
    edge present at construction, since the connectivity claim covers all of
    them.
    """

    n: int
    neighbors: dict[int, tuple[int, ...]]
    distances: dict[Edge, float]
    monitored_edges: tuple[Edge, ...] = field(default_factory=tuple)


def build_topology(states: list[RobotState], sensing_radius: float) -> Topology:
    """Build the sensing graph: edge (i, j) iff ||p_i - p_j|| < radius, strictly.

    Edges come in mutual pairs because sensing is distance-based; the directed
    representation is kept so that hand-built asymmetric topologies can use the
    same algorithms.
    """
    ids = [s.id for s in states]
    pos = np.array([s.position for s in states]).reshape(len(ids), 2)
    gap = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((gap * gap).sum(axis=2))
    near = dist < sensing_radius
    np.fill_diagonal(near, False)
    neighbors = {a: tuple(ids[j] for j in np.flatnonzero(row))
                 for a, row in zip(ids, near)}
    distances = {(ids[i], ids[j]): float(dist[i, j])
                 for i, j in zip(*np.nonzero(near))}
    edges = tuple(sorted(distances))
    return Topology(n=len(ids), neighbors=neighbors, distances=distances,
                    monitored_edges=edges)


def has_rooted_spanning_tree(topo: Topology, root: int) -> bool:
    """True iff information from ``root`` can reach every node.

    Edge (i, j) means i senses j, so information flows j -> i; we traverse
    edges reversed and require every node reachable from the root.
    """
    if not 1 <= root <= topo.n:
        raise GraphError(f"root {root} outside 1..{topo.n}")
    children: dict[int, list[int]] = {i: [] for i in range(1, topo.n + 1)}
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
    return len(seen) == topo.n


def laplacian(topo: Topology, weights: dict[Edge, float],
              linear_gains: list[float], informed: int = 1) -> np.ndarray:
    """Assemble the (n, n) weighted graph Laplacian of the follower dynamics.

    Row i (a follower) has diagonal sum(k_i * w_ij) over its neighbors and
    -k_i * w_ij off-diagonal; the informed robot's row is identically zero
    because its motion does not depend on the followers.
    """
    n = topo.n
    mat = np.zeros((n, n))
    for i in range(1, n + 1):
        if i == informed:
            continue
        k = linear_gains[i - 1]
        for j in topo.neighbors[i]:
            try:
                w = weights[(i, j)]
            except KeyError:
                raise GraphError(f"missing weight for edge ({i}, {j})") from None
            mat[i - 1, i - 1] += k * w
            mat[i - 1, j - 1] -= k * w
    return mat


def tree_edge_stress(topo: Topology, sensing_radius: float,
                     connectivity_buffer: float) -> list[tuple[Edge, float]]:
    """Margin to connectivity loss, R - d, for every monitored edge.

    A margin <= 0 means the edge has broken; margins below
    ``connectivity_buffer`` mean the edge sits inside the band where the
    connectivity term of the potential actively pulls it back.
    """
    if not 0.0 < connectivity_buffer < sensing_radius:
        raise GraphError("connectivity_buffer must be in (0, sensing_radius)")
    return [(edge, sensing_radius - topo.distances[edge])
            for edge in topo.monitored_edges]
