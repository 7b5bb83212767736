from itertools import permutations

import numpy as np
import pytest

from vipguide.errors import GraphError, UnreachableError
from vipguide.global_planner import (
    NavGraph,
    Route,
    graph_from_dict,
    load_graph,
    shortest_path,
)


def oracle_shortest(graph: NavGraph, src: str, dst: str):
    """Exhaustive simple-path enumeration. Only viable on tiny graphs."""
    nodes = [n for n in graph.node_ids if n not in (src, dst)]
    best = None
    if src == dst:
        return Route(nodes=(src,), total_cost=0.0)
    for r in range(len(nodes) + 1):
        for mid in permutations(nodes, r):
            path = (src,) + mid + (dst,)
            cost = 0.0
            ok = True
            for u, v in zip(path, path[1:]):
                if not graph.has_edge(u, v) or graph.is_blocked(u, v):
                    ok = False
                    break
                cost += graph.weight(u, v)
            if ok and (best is None or (cost, path) < (best.total_cost, best.nodes)):
                best = Route(nodes=path, total_cost=cost)
    return best


def triangle():
    g = NavGraph()
    for name, pos in [("A", (0, 0)), ("B", (1, 0)), ("C", (2, 0))]:
        g.add_node(name, pos)
    g.add_edge("A", "B", 1.0)
    g.add_edge("B", "C", 1.0)
    g.add_edge("A", "C", 3.0)
    return g


class TestNavGraph:
    def test_duplicate_node(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        with pytest.raises(GraphError, match="A"):
            g.add_node("A", (1, 1))

    def test_self_loop(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        with pytest.raises(GraphError):
            g.add_edge("A", "A", 1.0)

    def test_unknown_endpoint(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        with pytest.raises(GraphError, match="B"):
            g.add_edge("A", "B", 1.0)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_weight(self, w):
        g = NavGraph()
        g.add_node("A", (0, 0))
        g.add_node("B", (1, 0))
        with pytest.raises(GraphError):
            g.add_edge("A", "B", w)

    def test_duplicate_edge(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.add_edge("B", "A", 2.0)

    def test_undirected(self):
        g = triangle()
        assert g.has_edge("B", "A")
        assert g.weight("C", "A") == 3.0
        assert {v for v, _ in g.neighbors("B")} == {"A", "C"}

    def test_block_is_idempotent_and_symmetric(self):
        g = triangle()
        g.block_edge("A", "B")
        g.block_edge("B", "A")
        assert g.is_blocked("A", "B") and g.is_blocked("B", "A")
        assert "B" not in {v for v, _ in g.neighbors("A")}
        assert g.has_edge("A", "B")  # still present, just unusable

    def test_block_unknown_edge(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.block_edge("A", "Z")


class TestShortestPath:
    def test_triangle_prefers_two_hops(self):
        route = shortest_path(triangle(), "A", "C")
        assert route.nodes == ("A", "B", "C")
        assert route.total_cost == 2.0

    def test_src_equals_dst(self):
        route = shortest_path(triangle(), "B", "B")
        assert route.nodes == ("B",) and route.total_cost == 0.0

    def test_unknown_nodes(self):
        with pytest.raises(GraphError, match="Z"):
            shortest_path(triangle(), "A", "Z")
        with pytest.raises(GraphError, match="Q"):
            shortest_path(triangle(), "Q", "C")

    def test_campus_route(self, campus_graph_path):
        g = load_graph(campus_graph_path)
        assert len(g.node_ids) == 12
        assert len(g.edge_list()) == 17
        route = shortest_path(g, "A", "L")
        assert route.total_cost == 500.0
        assert route.nodes == ("A", "B", "C", "D", "H", "L")

    def test_campus_block_forces_detour(self, campus_graph_path):
        g = load_graph(campus_graph_path)
        g.block_edge("D", "H")
        route = shortest_path(g, "A", "L")
        assert route.total_cost == 500.0
        assert ("D", "H") not in route.edges() and ("H", "D") not in route.edges()
        assert route.nodes == ("A", "B", "C", "G", "H", "L")

    def test_block_bridge_unreachable(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        g.add_node("B", (1, 0))
        g.add_edge("A", "B", 1.0)
        g.block_edge("A", "B")
        with pytest.raises(UnreachableError):
            shortest_path(g, "A", "B")

    def test_disconnected_unreachable(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        g.add_node("B", (9, 9))
        with pytest.raises(UnreachableError, match="B"):
            shortest_path(g, "A", "B")

    def test_replan_after_midroute_block(self, campus_graph_path):
        g = load_graph(campus_graph_path)
        g.block_edge("C", "D")
        route = shortest_path(g, "C", "L")
        assert route.nodes == ("C", "G", "H", "L")
        assert route.total_cost == 300.0

    def test_route_edges_helper(self):
        route = Route(nodes=("A", "B", "C"), total_cost=2.0)
        assert route.edges() == [("A", "B"), ("B", "C")]


def random_graph(rng):
    n = int(rng.integers(2, 9))
    names = [chr(ord("A") + k) for k in range(n)]
    g = NavGraph()
    for k, name in enumerate(names):
        g.add_node(name, (float(k), 0.0))
    # random spanning tree first so connectivity is guaranteed
    shuffled = list(names)
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        g.add_edge(a, b, float(rng.integers(1, 20)))
    # sprinkle extra edges
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(names[i], names[j]) and rng.random() < 0.35:
                g.add_edge(names[i], names[j], float(rng.integers(1, 20)))
    return g, names


class TestAgainstEnumeration:
    def test_random_graphs(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            g, names = random_graph(rng)
            src, dst = rng.choice(names, size=2, replace=False)
            route = shortest_path(g, str(src), str(dst))
            expected = oracle_shortest(g, str(src), str(dst))
            assert route.total_cost == expected.total_cost
            assert route.nodes == expected.nodes

    def test_random_graphs_with_blocks(self):
        rng = np.random.default_rng(47)
        for _ in range(80):
            g, names = random_graph(rng)
            for u, v, _w, _b in g.edge_list():
                if rng.random() < 0.25:
                    g.block_edge(u, v)
            src, dst = rng.choice(names, size=2, replace=False)
            expected = oracle_shortest(g, str(src), str(dst))
            if expected is None:
                with pytest.raises(UnreachableError):
                    shortest_path(g, str(src), str(dst))
            else:
                route = shortest_path(g, str(src), str(dst))
                assert route.total_cost == expected.total_cost
                assert route.nodes == expected.nodes

    def test_blocking_never_reduces_cost(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            g, names = random_graph(rng)
            src, dst = (str(x) for x in rng.choice(names, size=2, replace=False))
            before = shortest_path(g, src, dst).total_cost
            edges = g.edge_list()
            u, v, _w, _b = edges[int(rng.integers(0, len(edges)))]
            g.block_edge(u, v)
            try:
                after = shortest_path(g, src, dst).total_cost
            except UnreachableError:
                continue
            assert after >= before

    def test_triangle_inequality_of_costs(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            g, names = random_graph(rng)
            if len(names) < 3:
                continue
            a, b, c = (str(x) for x in rng.choice(names, size=3, replace=False))
            ab = shortest_path(g, a, b).total_cost
            bc = shortest_path(g, b, c).total_cost
            ac = shortest_path(g, a, c).total_cost
            assert ac <= ab + bc + 1e-9


class TestSerialization:
    def test_missing_nodes_key(self):
        with pytest.raises(GraphError, match="nodes"):
            graph_from_dict({"edges": []})

    def test_bad_edge_entry(self):
        data = {
            "nodes": [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}],
            "edges": [{"from": "A", "to": "B"}],
        }
        with pytest.raises(GraphError, match="u/v/w"):
            graph_from_dict(data)

    def test_bad_position(self):
        data = {"nodes": [{"id": "A", "pos": [0]}], "edges": []}
        with pytest.raises(GraphError, match="pos"):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "node,edge,needle",
        [
            ({"pos": [1, "x"]}, {}, "pos must be"),
            ({"pos": [True, 0]}, {}, "pos must be"),
            ({}, {"u": ["A"]}, "u and v must be node id strings"),
            ({}, {"v": 2}, "u and v must be node id strings"),
            ({}, {"w": True}, "w must be a number, got true"),
            ({}, {"w": "1"}, "w must be a number"),
        ],
    )
    def test_mistyped_entries(self, node, edge, needle):
        data = {
            "nodes": [{"id": "A", "pos": [0, 0], **node}, {"id": "B", "pos": [1, 0]}],
            "edges": [{"u": "A", "v": "B", "w": 1.0, **edge}],
        }
        with pytest.raises(GraphError, match=needle):
            graph_from_dict(data)

    @pytest.mark.parametrize("raw", [b'{"nodes": [', b"\xff"])
    def test_load_malformed_file(self, tmp_path, raw):
        path = tmp_path / "graph.json"
        path.write_bytes(raw)
        with pytest.raises(GraphError, match="graph.json: malformed JSON"):
            load_graph(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.json")
