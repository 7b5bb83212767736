"""Street-graph routing with dynamic blocking.

The map is a small undirected weighted graph. When the local planner
exhausts every partition, the edge currently being walked is marked
blocked (it keeps its weight but is never traversed again) and the route
is recomputed from the current node.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from .errors import GraphError, UnreachableError


@dataclass(frozen=True)
class Route:
    nodes: tuple[str, ...]
    total_cost: float

    def edges(self):
        return list(zip(self.nodes, self.nodes[1:]))


class NavGraph:
    """Undirected weighted graph; blocked edges stay present but untraversable."""

    def __init__(self):
        self.positions: dict[str, tuple[float, float]] = {}
        self._adj: dict[str, dict[str, float]] = {}
        self._blocked: set[frozenset] = set()

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: str, pos: tuple[float, float]) -> None:
        if node_id in self.positions:
            raise GraphError(f"duplicate node id '{node_id}'")
        self.positions[node_id] = (float(pos[0]), float(pos[1]))
        self._adj[node_id] = {}

    def add_edge(self, u: str, v: str, weight: float) -> None:
        for node in (u, v):
            if node not in self.positions:
                raise GraphError(f"edge ({u},{v}) references unknown node '{node}'")
        if u == v:
            raise GraphError(f"self-loop on '{u}'")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u},{v})")
        if not 0 < weight < math.inf:  # NaN fails both comparisons
            raise GraphError(f"edge ({u},{v}) weight {weight} not positive finite")
        self._adj[u][v] = self._adj[v][u] = float(weight)

    # -- queries --------------------------------------------------------------

    @property
    def node_ids(self) -> list[str]:
        return list(self.positions)

    def edge_list(self) -> list[tuple[str, str, float, bool]]:
        out = []
        for u in self._adj:
            for v, w in self._adj[u].items():
                if u < v:
                    out.append((u, v, w, self.is_blocked(u, v)))
        return out

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: str, v: str) -> float:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge ({u},{v})")
        return self._adj[u][v]

    def is_blocked(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self._blocked

    def neighbors(self, u: str):
        for v, w in self._adj[u].items():
            if frozenset((u, v)) not in self._blocked:
                yield v, w

    # -- mutation (single logical writer) --------------------------------------

    def block_edge(self, u: str, v: str) -> None:
        """Mark an edge untraversable; blocking twice is a no-op."""
        if not self.has_edge(u, v):
            raise GraphError(f"cannot block missing edge ({u},{v})")
        self._blocked.add(frozenset((u, v)))


def shortest_path(graph: NavGraph, src: str, dst: str) -> Route:
    """Dijkstra over unblocked edges.

    Heap keys are (cost, node path), so equal-cost routes resolve to the
    lexicographically smallest node sequence; with strictly positive
    weights the first time a node pops it carries that canonical path.
    """
    for node in (src, dst):
        if node not in graph.positions:
            raise GraphError(f"unknown node '{node}'")
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    settled: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            route = Route(nodes=path, total_cost=cost)
            assert not any(graph.is_blocked(u, v) for u, v in route.edges())
            return route
        for nxt, weight in graph.neighbors(node):
            if nxt not in settled:
                heapq.heappush(heap, (cost + weight, path + (nxt,)))
    raise UnreachableError(f"no unblocked path from '{src}' to '{dst}'")


# -- persistence ----------------------------------------------------------------


def load_graph(path) -> NavGraph:
    """Read a graph JSON file: nodes with planar positions, weighted edges."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or a non-ASCII byte
            raise GraphError(f"{path}: malformed JSON: {exc}") from exc
    return graph_from_dict(obj)


# JSON yields exact ints and floats, so an exact type test also rules out bools
_JSON_NUMBERS = (int, float)


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
            node_id = node["id"]
            pos = node["pos"]
        except (TypeError, KeyError) as exc:
            raise GraphError(f"nodes[{i}]: missing id/pos") from exc
        if not isinstance(node_id, str):
            raise GraphError(f"nodes[{i}]: id must be a string")
        if not (
            isinstance(pos, list)
            and len(pos) == 2
            and type(pos[0]) in _JSON_NUMBERS
            and type(pos[1]) in _JSON_NUMBERS
        ):
            raise GraphError(f"node '{node_id}': pos must be [x, y] numbers")
        graph.add_node(node_id, (pos[0], pos[1]))
    for i, edge in enumerate(edges):
        try:
            u, v, w = edge["u"], edge["v"], edge["w"]
        except (TypeError, KeyError) as exc:
            raise GraphError(f"edges[{i}]: missing u/v/w") from exc
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphError(f"edges[{i}]: u and v must be node id strings")
        if type(w) not in _JSON_NUMBERS:
            raise GraphError(f"edges[{i}]: w must be a number, got {json.dumps(w)}")
        graph.add_edge(u, v, w)
    return graph

