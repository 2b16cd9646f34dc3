"""Communication graph and k-connectivity checks (paper §2).

Two alive sensors are 1-hop neighbours iff their distance is at most the
communication radius ``rc`` (unit-disc graph).  The paper notes that when
``rc >= 2 rs``, full 1-coverage implies connectivity, and k-coverage implies
k-connectivity (the network survives any ``k - 1`` node failures) — tests
exercise this corollary on DECOR outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.neighbors import radius_pairs
from repro.geometry.points import as_points

# networkx is imported inside the functions that use it, so importing the
# package (and the CLI) does not pay for it
if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "communication_graph",
    "is_connected",
    "node_connectivity_at_least",
    "connected_components_count",
]


def communication_graph(positions: np.ndarray, rc: float) -> nx.Graph:
    """Unit-disc communication graph over node positions.

    Parameters
    ----------
    positions:
        ``(n, 2)`` alive-node positions; node ``i`` of the graph is row ``i``.
    rc:
        Communication radius; edges join pairs at distance ``<= rc``.
    """
    import networkx as nx

    pts = as_points(positions)
    if rc <= 0:
        raise ConfigurationError(f"communication radius must be positive, got {rc}")
    g = nx.Graph()
    g.add_nodes_from(range(len(pts)))
    g.add_edges_from(radius_pairs(pts, rc).tolist())
    return g


def is_connected(positions: np.ndarray, rc: float) -> bool:
    """Whether the communication graph is connected (vacuously true for <= 1 node)."""
    import networkx as nx

    pts = as_points(positions)
    if len(pts) <= 1:
        return True
    return nx.is_connected(communication_graph(pts, rc))


def connected_components_count(positions: np.ndarray, rc: float) -> int:
    """Number of connected components of the communication graph."""
    import networkx as nx

    return nx.number_connected_components(communication_graph(positions, rc))


def node_connectivity_at_least(positions: np.ndarray, rc: float, k: int) -> bool:
    """Whether the communication graph is (at least) ``k``-node-connected.

    Uses an early-exit: ``k``-connectivity requires minimum degree ``>= k``,
    which is cheap to check before the (expensive) max-flow based
    :func:`networkx.node_connectivity`.
    """
    import networkx as nx

    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    pts = as_points(positions)
    if len(pts) <= k:
        # graph on n <= k nodes cannot be k-connected unless complete & n = k+1
        return len(pts) >= 1 and k == 1 and is_connected(pts, rc) if len(pts) > 1 else len(pts) == 1
    g = communication_graph(pts, rc)
    if min(dict(g.degree()).values(), default=0) < k:
        return False
    return nx.node_connectivity(g) >= k
