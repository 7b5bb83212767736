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
import math
import sys
from dataclasses import dataclass

from .errors import GraphError, UnreachableError
from .frameio import load_json
from .perception import finite_real


@dataclass(frozen=True, slots=True)
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
    """The edge's key in NavGraph._blocked; both ends must be str."""
    if not (isinstance(u, str) and isinstance(v, str)):
        raise GraphError(f"edge ({u!r},{v!r}): u and v must be node id strings")
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
        self._add_nodes(({"id": node_id, "pos": pos},))

    def add_edge(self, u: str, v: str, weight: float) -> None:
        self._add_edges(({"u": u, "v": v, "w": weight},))

    # Every rule sits inline in these loops, so a plain entry (exact str ids,
    # Python floats or ints within float range, which convert without
    # overflow) costs no call. The first refused entry raises GraphError and
    # stores nothing more.

    def _add_nodes(self, entries) -> None:
        """Store each {"id", "pos"} entry in order, its pos as floats."""
        positions, adj = self.positions, self._adj
        plain, big = (float, int), sys.float_info.max
        for i, node in enumerate(entries):
            try:
                node_id, pos = node["id"], node["pos"]
            except (TypeError, KeyError) as exc:
                raise GraphError(f"nodes[{i}]: missing id/pos") from exc
            if not isinstance(node_id, str):
                raise GraphError(f"node id {node_id!r} not a str")
            if node_id in positions:
                raise GraphError(f"duplicate node id '{node_id}'")
            try:
                x, y = pos
            except (TypeError, ValueError):
                raise GraphError(f"node '{node_id}': pos {pos!r} not an (x, y) pair") from None
            if type(x) not in plain or not -big <= x <= big:
                x = finite_real(x, "pos", GraphError, f"node '{node_id}': ")
            if type(y) not in plain or not -big <= y <= big:
                y = finite_real(y, "pos", GraphError, f"node '{node_id}': ")
            positions[node_id] = (float(x), float(y))
            adj[node_id] = {}
        self._dist_to = None

    def _add_edges(self, entries) -> None:
        """Store each {"u", "v", "w"} entry in order, its weight as a float."""
        adj, blocked = self._adj, self._blocked
        plain, big = (float, int), sys.float_info.max
        for i, edge in enumerate(entries):
            try:
                u, v, w = edge["u"], edge["v"], edge["w"]
            except (TypeError, KeyError) as exc:
                raise GraphError(f"edges[{i}]: missing u/v/w") from exc
            if type(u) is not str or type(v) is not str:
                _key(u, v)  # refuses an end that is not a str
            nbrs = adj.get(u)
            if nbrs is None or v not in adj:
                missing = u if nbrs is None else v
                raise GraphError(f"edge ({u},{v}) references unknown node '{missing}'")
            if u == v:
                raise GraphError(f"self-loop on '{u}'")
            if v in nbrs or (blocked and _key(u, v) in blocked):
                raise GraphError(f"duplicate edge ({u},{v})")
            weight = w
            if type(w) not in plain or not -big <= w <= big:
                weight = finite_real(w, "weight", GraphError, f"edge ({u},{v}) ")
            if weight <= 0:
                raise GraphError(f"edge ({u},{v}) weight {w} not positive")
            nbrs[v] = adj[v][u] = float(weight)
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
        return _key(u, v) in self._blocked or v in self._adj.get(u, ())

    def weight(self, u: str, v: str) -> float:
        w = self._blocked.get(_key(u, v), self._adj.get(u, {}).get(v))
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
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: dict[str, float] = {}
        # best distance queued per node: a neighbour is pushed only when it
        # improves on that, so each node still pops first at the same float
        # minimum, and a settled node (best <= d <= d + w) is never pushed again
        best = dict.fromkeys(adj, math.inf)
        best[dst] = 0.0
        heap: list[tuple[float, str]] = [(0.0, dst)]
        while heap:
            d, node = heappop(heap)
            if node in dist:
                continue
            dist[node] = d * _H_SCALE
            for nxt, w in adj[node].items():
                nd = d + w
                if nd < best[nxt]:
                    best[nxt] = nd
                    heappush(heap, (nd, nxt))
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
        if not isinstance(node, str):  # an unhashable end would fail the lookup
            raise GraphError(f"node id {node!r} not a str")
        if node not in graph.positions:
            raise GraphError(f"unknown node '{node}'")
    h = graph._distances_to(dst)
    adj = graph._adj
    # every node in h's component at mapping time is in h, and blocks only
    # remove edges, so h[nxt] exists for every neighbour met here; a src
    # outside h has no path, so its search starts with nothing to pop
    heap = [(h[src], 0.0, (src,))] if src in h else []
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


def reroute(graph: NavGraph, route: Route) -> Route | None:
    """Block the edge being walked and route again; None when no path is left.

    A single exhausted frame does not rewrite the map: the pipeline calls
    this only after `reroute_patience` consecutive RerouteNeeded frames,
    and a fired replan's route rides on its frame's RerouteNeeded.
    Progress along the route is not tracked yet, so the walk is taken to
    be at the route's start: the blocked edge is the route's first (a
    one-node route blocks none), and the new route starts from the same
    node. When no path over unblocked edges remains, the pipeline drops
    its route and keeps guiding locally; later exhausted frames only
    signal, as with no graph.
    """
    if not route.nodes:
        raise GraphError("route has no nodes")
    current, destination = route.nodes[0], route.nodes[-1]
    if len(route.nodes) >= 2:
        graph.block_edge(current, route.nodes[1])
    try:
        # the module global, so a patched shortest_path sees every replan
        return shortest_path(graph, current, destination)
    except UnreachableError:
        return None


# -- persistence ----------------------------------------------------------------


def load_graph(path) -> NavGraph:
    """Read a graph JSON file: nodes with planar positions, weighted edges."""
    return load_json(path, graph_from_dict, GraphError, "graph")


def graph_from_dict(obj: dict) -> NavGraph:
    """Build a graph from parsed JSON, entry by entry in file order."""
    if not isinstance(obj, dict):
        raise GraphError("graph file must hold a JSON object")
    nodes = obj.get("nodes")
    edges = obj.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise GraphError("graph object needs 'nodes' and 'edges' lists")
    graph = NavGraph()
    graph._add_nodes(nodes)
    graph._add_edges(edges)
    return graph
