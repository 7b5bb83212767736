"""Street-graph routing with dynamic blocking.

The map is a small undirected weighted graph. When the local planner
exhausts every partition, the edge currently being walked is marked
blocked (it keeps its weight but is never traversed again) and the route
is recomputed from the current node.

Searches are goal-directed: the first one toward a destination computes
every node's distance to it, and the graph keeps that map. Blocking an
edge can only lengthen paths, so the map stays a consistent A* heuristic
for every later search toward the same destination (ALT with the
destination as its own landmark).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import GraphError, UnreachableError
from .frameio import load_json
from .perception import _finite_real


@dataclass(frozen=True)
class Route:
    nodes: tuple[str, ...]
    total_cost: float


# The distance map is shrunk by this factor, so a search key rises by at
# least 1e-9 * w along each edge of weight w. That margin outweighs float
# rounding in cost + distance, so nodes pop in the order Dijkstra's
# (cost, path) keys give them, as long as every edge weighs more than about
# a millionth of the route costs around it.
_H_SCALE = 1.0 - 1e-9


def _key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


class NavGraph:
    """Undirected weighted graph; blocked edges stay present but untraversable."""

    def __init__(self):
        self.positions: dict[str, tuple[float, float]] = {}
        # unblocked edges only; block_edge moves an edge to _blocked
        self._adj: dict[str, dict[str, float]] = {}
        self._blocked: dict[tuple[str, str], float] = {}  # (u, v), u < v -> weight
        # (destination, distance to it from every node that reached it)
        self._dist_to: tuple[str, dict[str, float]] | None = None

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: str, pos: tuple[float, float]) -> None:
        if not isinstance(node_id, str):
            raise GraphError(f"node id {node_id!r} not a str")
        if node_id in self.positions:
            raise GraphError(f"duplicate node id '{node_id}'")
        try:
            x, y = pos
        except (TypeError, ValueError):
            raise GraphError(f"node '{node_id}': pos {pos!r} not an (x, y) pair") from None
        try:
            x = float(_finite_real(x, "pos", GraphError))
            y = float(_finite_real(y, "pos", GraphError))
        except GraphError as exc:
            raise GraphError(f"node '{node_id}': {exc}") from None
        self.positions[node_id] = (x, y)
        self._adj[node_id] = {}
        self._dist_to = None

    def add_edge(self, u: str, v: str, weight: float) -> None:
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphError(f"edge ({u!r},{v!r}): u and v must be node id strings")
        adj = self._adj
        if u not in adj or v not in adj:
            missing = u if u not in adj else v
            raise GraphError(f"edge ({u},{v}) references unknown node '{missing}'")
        if u == v:
            raise GraphError(f"self-loop on '{u}'")
        if v in adj[u] or (self._blocked and _key(u, v) in self._blocked):
            raise GraphError(f"duplicate edge ({u},{v})")
        try:
            w = float(_finite_real(weight, "weight", GraphError))
        except GraphError as exc:
            raise GraphError(f"edge ({u},{v}) {exc}") from None
        if w <= 0:
            raise GraphError(f"edge ({u},{v}) weight {weight} not positive")
        adj[u][v] = adj[v][u] = w
        self._dist_to = None

    # -- queries --------------------------------------------------------------

    @property
    def node_ids(self) -> list[str]:
        return list(self.positions)

    def edge_list(self) -> list[tuple[str, str, float, bool]]:
        """Every edge as (u, v, weight, blocked) with u < v; blocked ones last."""
        out = [
            (u, v, w, False)
            for u, nbrs in self._adj.items()
            for v, w in nbrs.items()
            if u < v
        ]
        out.extend((u, v, w, True) for (u, v), w in self._blocked.items())
        return out

    def has_edge(self, u: str, v: str) -> bool:
        return (u in self._adj and v in self._adj[u]) or _key(u, v) in self._blocked

    def weight(self, u: str, v: str) -> float:
        w = self._adj.get(u, {}).get(v, self._blocked.get(_key(u, v)))
        if w is None:
            raise GraphError(f"no edge ({u},{v})")
        return w

    def is_blocked(self, u: str, v: str) -> bool:
        return _key(u, v) in self._blocked

    # -- mutation (single logical writer) --------------------------------------

    def block_edge(self, u: str, v: str) -> None:
        """Mark an edge untraversable; blocking twice is a no-op.

        The distance map stays: blocking can only lengthen paths.
        """
        if self.is_blocked(u, v):
            return
        if not self.has_edge(u, v):
            raise GraphError(f"cannot block missing edge ({u},{v})")
        del self._adj[v][u]
        self._blocked[_key(u, v)] = self._adj[u].pop(v)

    def _distances_to(self, dst: str) -> dict[str, float]:
        """Distance to dst, times _H_SCALE, from every node that reaches it.

        Cached on the graph in one slot: a search toward another
        destination replaces the map.
        """
        if self._dist_to is not None and self._dist_to[0] == dst:
            return self._dist_to[1]
        adj = self._adj
        dist: dict[str, float] = {}
        heap: list[tuple[float, str]] = [(0.0, dst)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d * _H_SCALE
            for nxt, w in adj[node].items():
                if nxt not in dist:
                    heapq.heappush(heap, (d + w, nxt))
        self._dist_to = (dst, dist)
        return dist


def shortest_path(graph: NavGraph, src: str, dst: str) -> Route:
    """A* over unblocked edges toward the graph's distance map for dst.

    Heap keys are (cost + distance to go, cost, node path), so equal-cost
    routes resolve to the lexicographically smallest node sequence, as
    Dijkstra keyed on (cost, path) would; the heuristic is consistent, so
    the first time a node pops it carries that canonical path. The cost is
    summed forward along the path, never derived from the key's first term.
    """
    for node in (src, dst):
        if node not in graph.positions:
            raise GraphError(f"unknown node '{node}'")
    h = graph._distances_to(dst)
    if src not in h:
        raise UnreachableError(f"no unblocked path from '{src}' to '{dst}'")
    adj = graph._adj
    # every node in h's component at mapping time is in h, and blocks only
    # remove edges, so h[nxt] exists for every neighbour met here
    heap: list[tuple[float, float, tuple[str, ...]]] = [(h[src], 0.0, (src,))]
    settled: set[str] = set()
    while heap:
        _, cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        if node == dst:
            return Route(nodes=path, total_cost=cost)
        settled.add(node)
        for nxt, weight in adj[node].items():
            if nxt not in settled:
                g = cost + weight
                heapq.heappush(heap, (g + h[nxt], g, path + (nxt,)))
    raise UnreachableError(f"no unblocked path from '{src}' to '{dst}'")


# -- persistence ----------------------------------------------------------------


def load_graph(path) -> NavGraph:
    """Read a graph JSON file: nodes with planar positions, weighted edges."""
    return graph_from_dict(load_json(path, GraphError))


def graph_from_dict(obj: dict) -> NavGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph file must hold a JSON object")
    graph = NavGraph()
    nodes = obj.get("nodes")
    edges = obj.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise GraphError("graph object needs 'nodes' and 'edges' lists")
    for i, node in enumerate(nodes):
        try:
            node_id, pos = node["id"], node["pos"]
        except (TypeError, KeyError) as exc:
            raise GraphError(f"nodes[{i}]: missing id/pos") from exc
        graph.add_node(node_id, pos)
    for i, edge in enumerate(edges):
        try:
            u, v, w = edge["u"], edge["v"], edge["w"]
        except (TypeError, KeyError) as exc:
            raise GraphError(f"edges[{i}]: missing u/v/w") from exc
        graph.add_edge(u, v, w)
    return graph
