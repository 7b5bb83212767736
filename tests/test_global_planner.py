import heapq
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vipguide.errors import GraphError, UnreachableError
from vipguide.global_planner import (
    _H_SCALE,
    NavGraph,
    Route,
    graph_from_dict,
    load_graph,
    reroute,
    shortest_path,
)

from conftest import DEEP_NESTING, LONG_INT, oracle_shortest, random_connected_graph


def open_adjacency(graph: NavGraph) -> dict[str, dict[str, float]]:
    """node -> {neighbor: weight} over the graph's unblocked edges."""
    adj: dict[str, dict[str, float]] = {node: {} for node in graph.node_ids}
    for u, v, w, blocked in graph.edge_list():
        if not blocked:
            adj[u][v] = adj[v][u] = w
    return adj


def dijkstra_oracle(graph: NavGraph, src: str, dst: str) -> Route:
    """The route search before goal-directed search: Dijkstra keyed on
    (cost, node path), so ties resolve to the smallest node sequence."""
    for node in (src, dst):
        if node not in graph.positions:
            raise GraphError(f"unknown node '{node}'")
    adj = open_adjacency(graph)
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
    settled: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            assert not any(graph.is_blocked(u, v) for u, v in zip(path, path[1:]))
            return Route(nodes=path, total_cost=cost)
        for nxt, weight in adj[node].items():
            if nxt not in settled:
                heapq.heappush(heap, (cost + weight, path + (nxt,)))
    raise UnreachableError(f"no unblocked path from '{src}' to '{dst}'")


def plain_distances(graph: NavGraph, dst: str) -> dict[str, float]:
    """Plain Dijkstra from dst over unblocked edges, each reached node's
    distance times _H_SCALE: the distance map before it pushed only
    improvements."""
    adj = open_adjacency(graph)
    dist: dict[str, float] = {}
    heap: list[tuple[float, str]] = [(0.0, dst)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nxt, w in adj[node].items():
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return {node: d * _H_SCALE for node, d in dist.items()}


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
        assert set(open_adjacency(g)["B"]) == {"A", "C"}

    def test_block_is_idempotent_and_symmetric(self):
        g = triangle()
        g.block_edge("A", "B")
        g.block_edge("B", "A")
        assert g.is_blocked("A", "B") and g.is_blocked("B", "A")
        assert "B" not in open_adjacency(g)["A"]
        assert g.has_edge("A", "B")  # still present, just unusable

    def test_block_unknown_edge(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.block_edge("A", "Z")

    def test_blocked_edge_keeps_weight_and_listing(self):
        g = triangle()
        g.block_edge("C", "A")
        assert g.weight("A", "C") == g.weight("C", "A") == 3.0
        assert sorted(g.edge_list()) == [
            ("A", "B", 1.0, False), ("A", "C", 3.0, True), ("B", "C", 1.0, False),
        ]
        assert "A" not in open_adjacency(g)["C"]
        with pytest.raises(GraphError, match="duplicate edge"):
            g.add_edge("A", "C", 1.0)
        with pytest.raises(GraphError, match="no edge"):
            g.weight("A", "Z")

    # a bool or a str once went in as a coordinate, or raised a bare ValueError
    @pytest.mark.parametrize(
        "pos",
        [(10**400, 0), (0, float("inf")), (float("nan"), 0), (True, 0), ("x", 0), (0, "1")],
    )
    def test_position_must_be_a_finite_float(self, pos):
        g = NavGraph()
        with pytest.raises(GraphError, match="node 'A': pos"):
            g.add_node("A", pos)
        assert g.node_ids == []

    def test_weight_beyond_float_range(self):
        g = triangle()
        g.add_node("D", (3, 0))
        with pytest.raises(GraphError, match=r"edge \(C,D\) weight beyond float range"):
            g.add_edge("C", "D", 10**400)
        assert not g.has_edge("C", "D")

    # "2" was once taken as weight 2.0, and True as 1.0
    @pytest.mark.parametrize(
        "weight, needle",
        [
            ("2", "weight '2' not a real number"),
            (True, "weight True not a real number"),
            (None, "weight None not a real number"),
            (float("nan"), "weight nan not finite"),
            (float("inf"), "weight inf not finite"),
            (0, "weight 0 not positive"),
            (-1.5, "weight -1.5 not positive"),
        ],
    )
    def test_weight_must_be_a_positive_finite_real(self, weight, needle):
        g = triangle()
        g.add_node("D", (3, 0))
        with pytest.raises(GraphError, match=rf"^edge \(C,D\) {needle}$"):
            g.add_edge("C", "D", weight)
        assert not g.has_edge("C", "D")

    # each built, or raised a bare TypeError or IndexError, before add_node
    # and add_edge checked their own arguments
    @pytest.mark.parametrize(
        "node_id, pos, needle",
        [
            (5, (0, 0), r"^node id 5 not a str$"),
            ("A", (1,), r"^node 'A': pos \(1,\) not an \(x, y\) pair$"),
            ("B", 5, r"^node 'B': pos 5 not an \(x, y\) pair$"),
            ("C", (1, 2, 3), r"^node 'C': pos \(1, 2, 3\) not an \(x, y\) pair$"),
        ],
    )
    def test_node_id_and_pos_shape_checked(self, node_id, pos, needle):
        g = NavGraph()
        with pytest.raises(GraphError, match=needle):
            g.add_node(node_id, pos)
        assert g.node_ids == []

    def test_edge_ends_must_be_strings(self):
        g = triangle()
        needle = r"^edge \(\['A'\],'C'\): u and v must be node id strings$"
        with pytest.raises(GraphError, match=needle):
            g.add_edge(["A"], "C", 1)

    # each raised a bare TypeError, from comparing the ends or hashing a list
    @pytest.mark.parametrize(
        "method, u, v",
        [
            ("block_edge", 1, "A"),
            ("has_edge", "A", 1),
            ("weight", None, "A"),
            ("is_blocked", "A", 2),
            ("has_edge", ["A"], "B"),
        ],
    )
    def test_queries_refuse_a_non_str_end(self, method, u, v):
        with pytest.raises(GraphError) as info:
            getattr(triangle(), method)(u, v)
        assert str(info.value) == f"edge ({u!r},{v!r}): u and v must be node id strings"

    # an entry is checked whole before it is stored, and the distance map is
    # reset only after the entries are stored
    @pytest.mark.parametrize("cached", [False, True], ids=["no_map", "cached_map"])
    @pytest.mark.parametrize(
        "method, args",
        [
            ("add_node", ("A", (5, 5))),
            ("add_node", ("D", (0, math.nan))),
            ("add_edge", ("A", "D", 1.0)),
            ("add_edge", ("C", "C", 1.0)),
            ("add_edge", ("B", "A", 1.0)),
            ("add_edge", ("C", "B", 2.0)),
            ("add_edge", ("B", "C", 0)),
        ],
        ids=["duplicate_id", "nan_pos", "unknown_end", "self_loop", "duplicate_blocked",
             "duplicate_open", "zero_weight"],
    )
    def test_refused_entry_leaves_the_graph_as_it_was(self, method, args, cached):
        def built():
            g = triangle()
            g.block_edge("A", "B")
            return g

        g = built()
        if cached:
            shortest_path(g, "A", "C")
        dist_map, positions, edges = g._dist_to, list(g.positions.items()), g.edge_list()
        with pytest.raises(GraphError):
            getattr(g, method)(*args)
        assert g._dist_to is dist_map
        assert (list(g.positions.items()), g.edge_list()) == (positions, edges)
        assert shortest_path(g, "A", "C") == shortest_path(built(), "A", "C")

    def test_numpy_numbers_stored_as_floats(self):
        g = triangle()
        g.add_node("D", (np.int64(3), np.float32(0.5)))
        g.add_edge("C", "D", np.int64(2))
        assert g.positions["D"] == (3.0, 0.5) and g.weight("C", "D") == 2.0
        assert {type(v) for v in (*g.positions["D"], g.weight("C", "D"))} == {float}


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

    # a list end raised a bare TypeError from the lookup, and an int read
    # as an unknown node
    @pytest.mark.parametrize("end", [["A"], 1, None])
    @pytest.mark.parametrize("at_src", [True, False], ids=["src", "dst"])
    def test_non_str_end_refused(self, end, at_src):
        src, dst = (end, "C") if at_src else ("A", end)
        with pytest.raises(GraphError) as info:
            shortest_path(triangle(), src, dst)
        assert str(info.value) == f"node id {end!r} not a str"

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
        steps = list(zip(route.nodes, route.nodes[1:]))
        assert ("D", "H") not in steps and ("H", "D") not in steps
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

    def test_no_path_messages(self):
        # src cut off before the search: the distance map toward dst lacks it
        g = triangle()
        g.add_node("D", (5, 5))
        with pytest.raises(UnreachableError) as info:
            shortest_path(g, "D", "C")
        assert str(info.value) == "no unblocked path from 'D' to 'C'"
        # a search that runs out: the map toward C, built before the blocks,
        # still holds A, so the search starts and exhausts its heap
        g = triangle()
        shortest_path(g, "A", "C")
        g.block_edge("A", "C")
        g.block_edge("B", "C")
        assert "A" in g._distances_to("C")
        with pytest.raises(UnreachableError) as info:
            shortest_path(g, "A", "C")
        assert str(info.value) == "no unblocked path from 'A' to 'C'"

    def test_replan_after_midroute_block(self, campus_graph_path):
        g = load_graph(campus_graph_path)
        g.block_edge("C", "D")
        route = shortest_path(g, "C", "L")
        assert route.nodes == ("C", "G", "H", "L")
        assert route.total_cost == 300.0


class TestReroute:
    def test_blocks_the_first_edge_and_searches_from_the_start(self):
        g = triangle()
        route = reroute(g, shortest_path(g, "A", "C"))
        assert g.is_blocked("A", "B") and not g.is_blocked("B", "C")
        assert route == Route(nodes=("A", "C"), total_cost=3.0)
        # the next replan blocks the detour's first leg, and nothing is left
        assert reroute(g, route) is None
        assert g.is_blocked("A", "C")

    def test_no_path_left_returns_none(self):
        g = NavGraph()
        g.add_node("A", (0, 0))
        g.add_node("B", (1, 0))
        g.add_edge("A", "B", 1.0)
        assert reroute(g, shortest_path(g, "A", "B")) is None
        assert g.is_blocked("A", "B")

    def test_one_node_route_blocks_nothing(self):
        g = triangle()
        route = shortest_path(g, "B", "B")
        assert reroute(g, route) == Route(nodes=("B",), total_cost=0.0)
        assert not any(blocked for *_, blocked in g.edge_list())

    def test_route_with_no_nodes_refused(self):
        g = triangle()
        with pytest.raises(GraphError, match="^route has no nodes$"):
            reroute(g, Route((), 0.0))
        assert not any(blocked for *_, blocked in g.edge_list())


class TestAgainstEnumeration:
    def test_random_graphs(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            g, names = random_connected_graph(rng, 20, 0.35)
            src, dst = rng.choice(names, size=2, replace=False)
            route = shortest_path(g, str(src), str(dst))
            expected = oracle_shortest(g, str(src), str(dst))
            assert route.total_cost == expected.total_cost
            assert route.nodes == expected.nodes

    def test_random_graphs_with_blocks(self):
        rng = np.random.default_rng(47)
        for _ in range(80):
            g, names = random_connected_graph(rng, 20, 0.35)
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
            g, names = random_connected_graph(rng, 20, 0.35)
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
            g, names = random_connected_graph(rng, 20, 0.35)
            if len(names) < 3:
                continue
            a, b, c = (str(x) for x in rng.choice(names, size=3, replace=False))
            ab = shortest_path(g, a, b).total_cost
            bc = shortest_path(g, b, c).total_cost
            ac = shortest_path(g, a, c).total_cost
            assert ac <= ab + bc + 1e-9


GRID = 12
WEIGHTS = {
    "int_1_2": lambda rng: float(rng.randint(1, 2)),  # ties everywhere
    "int_60_140": lambda rng: float(rng.randint(60, 140)),
    "float_1_3": lambda rng: rng.uniform(1.0, 3.0),
    "one_decimal": lambda rng: rng.randint(1, 30) / 10,  # inexact sums
}


def grid_graph(rng, draw, size=GRID):
    g = NavGraph()
    for r in range(size):
        for c in range(size):
            g.add_node(f"{r}_{c}", (float(c), float(r)))
    for r in range(size):
        for c in range(size):
            if c + 1 < size:
                g.add_edge(f"{r}_{c}", f"{r}_{c + 1}", draw(rng))
            if r + 1 < size:
                g.add_edge(f"{r}_{c}", f"{r + 1}_{c}", draw(rng))
    return g


def assert_matches_oracle(g, src, dst):
    """Same route node for node and in cost as the oracle, or both unreachable."""
    try:
        want = dijkstra_oracle(g, src, dst)
    except UnreachableError:
        with pytest.raises(UnreachableError):
            shortest_path(g, src, dst)
        return None
    got = shortest_path(g, src, dst)
    assert got.nodes == want.nodes
    assert got.total_cost == want.total_cost
    return got


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
class TestAgainstDijkstra:
    """Goal-directed search must return exactly what Dijkstra on (cost, path) did."""

    def test_successive_blocks_on_the_route(self, kind):
        rng = random.Random(f"blocks-{kind}")
        for _ in range(100):
            g = grid_graph(rng, WEIGHTS[kind])
            src, dst = rng.sample(g.node_ids, 2)
            route = assert_matches_oracle(g, src, dst)
            for _ in range(3):
                i = rng.randrange(len(route.nodes) - 1)
                g.block_edge(route.nodes[i], route.nodes[i + 1])
                # replan from the block, as the pipeline does, or from the start
                src = rng.choice((src, route.nodes[i]))
                route = assert_matches_oracle(g, src, dst)
                if route is None or len(route.nodes) < 2:
                    break

    def test_blocks_before_the_first_search(self, kind):
        # route --block: the distance map is built on an already blocked graph
        rng = random.Random(f"preblocked-{kind}")
        for _ in range(40):
            g = grid_graph(rng, WEIGHTS[kind])
            for u, v, _w, _b in rng.sample(g.edge_list(), 30):
                g.block_edge(u, v)
            src, dst = rng.sample(g.node_ids, 2)
            assert_matches_oracle(g, src, dst)
            # another destination replaces the map; coming back rebuilds it
            other = rng.choice(g.node_ids)
            assert_matches_oracle(g, src, other)
            assert_matches_oracle(g, other, dst)

    def test_shortcut_added_after_a_search_is_found(self, kind):
        rng = random.Random(f"shortcut-{kind}")
        for _ in range(10):
            g = grid_graph(rng, WEIGHTS[kind])
            src, dst, below_src, below_dst = "0_0", f"0_{GRID - 1}", "1_0", f"1_{GRID - 1}"
            assert_matches_oracle(g, src, dst)
            # off the row-0 route, the old distances overestimate what it now costs
            g.add_edge(below_src, below_dst, 0.1)
            route = assert_matches_oracle(g, src, dst)
            assert route.nodes == (src, below_src, below_dst, dst)

    def test_distance_map_is_plain_dijkstra(self, kind):
        # equal floats, node for node, and no key for a node that cannot reach
        rng = random.Random(f"map-{kind}")
        for _ in range(10):
            g = grid_graph(rng, WEIGHTS[kind])
            dst = rng.choice(g.node_ids)
            assert g._distances_to(dst) == plain_distances(g, dst)
            for u, v, _w, _b in rng.sample(g.edge_list(), 40):
                g.block_edge(u, v)
            g.block_edge("0_0", "0_1")  # cut a corner off
            g.block_edge("0_0", "1_0")
            # a map toward another node replaces the cached one, so the map
            # toward dst is then built again on the blocked graph
            other = rng.choice([node for node in g.node_ids if node != dst])
            for target in (other, dst):
                assert g._distances_to(target) == plain_distances(g, target)

    def test_block_that_cuts_off_the_destination(self, kind):
        rng = random.Random(f"cut-{kind}")
        g = grid_graph(rng, WEIGHTS[kind])
        src, dst = f"{GRID - 1}_{GRID - 1}", "0_0"  # a corner: two edges
        assert_matches_oracle(g, src, dst)
        g.block_edge(dst, "0_1")
        assert_matches_oracle(g, src, dst)
        g.block_edge(dst, "1_0")
        with pytest.raises(UnreachableError, match="no unblocked path"):
            shortest_path(g, src, dst)
        with pytest.raises(UnreachableError):
            dijkstra_oracle(g, src, dst)


class TestSerialization:
    def test_missing_nodes_key(self):
        with pytest.raises(GraphError, match="nodes"):
            graph_from_dict({"edges": []})

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([], "graph file must hold a JSON object"),
            ({"nodes": [5], "edges": []}, "nodes[0]: missing id/pos"),
            ({"nodes": [{"id": "A"}], "edges": []}, "nodes[0]: missing id/pos"),
        ],
    )
    def test_malformed_graph_object(self, obj, message):
        with pytest.raises(GraphError) as info:
            graph_from_dict(obj)
        assert str(info.value) == message

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
            ({"pos": [1, "x"]}, {}, "node 'A': pos 'x' not a real number"),
            ({"pos": [True, 0]}, {}, "node 'A': pos True not a real number"),
            ({}, {"u": ["A"]}, r"edge \(\['A'\],'B'\): u and v must be node id strings"),
            ({}, {"v": 2}, r"edge \('A',2\): u and v must be node id strings"),
            ({}, {"w": True}, r"edge \(A,B\) weight True not a real number"),
            ({}, {"w": "1"}, r"edge \(A,B\) weight '1' not a real number"),
            ({"pos": [10**400, 0]}, {}, "node 'A': pos beyond float range"),
            ({}, {"w": 10**400}, r"edge \(A,B\) weight beyond float range"),
        ],
        ids=[
            "node0-edge0-pos must be",
            "node1-edge1-pos must be",
            "node2-edge2-u and v must be node id strings",
            "node3-edge3-u and v must be node id strings",
            "node4-edge4-w must be a number, got true",
            "node5-edge5-w must be a number",
            "node6-edge6-node 'A': pos beyond float range",
            r"node7-edge7-edge \(A,B\) weight beyond float range",
        ],
    )
    def test_mistyped_entries(self, node, edge, needle):
        data = {
            "nodes": [{"id": "A", "pos": [0, 0], **node}, {"id": "B", "pos": [1, 0]}],
            "edges": [{"u": "A", "v": "B", "w": 1.0, **edge}],
        }
        with pytest.raises(GraphError, match=needle):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"nodes": [', b"\xff",
            pytest.param(b'{"nodes": [%s]}' % LONG_INT.encode(), id="long_int"),
            pytest.param(DEEP_NESTING.encode(), id="deep_nesting"),
        ],
    )
    def test_load_malformed_file(self, tmp_path, raw):
        path = tmp_path / "graph.json"
        path.write_bytes(raw)
        with pytest.raises(GraphError, match="graph.json: malformed JSON"):
            load_graph(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.json")


# -- the build against an entry-by-entry oracle ------------------------------------


def real_or_refusal(value, name: str):
    """`value` as a Python float, or the message that refuses it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return f"{name} {value!r} not a real number"
    try:
        as_float = float(value)
    except OverflowError:
        return f"{name} beyond float range"
    if math.isnan(as_float) or math.isinf(as_float):
        return f"{name} {as_float!r} not finite"
    return as_float


def build_oracle(obj: dict):
    """(positions, adjacency) built entry by entry with every rule spelled
    out, or the GraphError message of the first bad entry."""
    positions: dict = {}
    adj: dict = {}
    for i, node in enumerate(obj["nodes"]):
        try:
            node_id, pos = node["id"], node["pos"]
        except (TypeError, KeyError):
            return f"nodes[{i}]: missing id/pos"
        if not isinstance(node_id, str):
            return f"node id {node_id!r} not a str"
        if node_id in positions:
            return f"duplicate node id '{node_id}'"
        try:
            x, y = pos
        except (TypeError, ValueError):
            return f"node '{node_id}': pos {pos!r} not an (x, y) pair"
        stored = tuple(real_or_refusal(c, "pos") for c in (x, y))
        for c in stored:
            if isinstance(c, str):
                return f"node '{node_id}': {c}"
        positions[node_id] = stored
        adj[node_id] = {}
    for i, edge in enumerate(obj["edges"]):
        try:
            u, v, w = edge["u"], edge["v"], edge["w"]
        except (TypeError, KeyError):
            return f"edges[{i}]: missing u/v/w"
        if not (isinstance(u, str) and isinstance(v, str)):
            return f"edge ({u!r},{v!r}): u and v must be node id strings"
        for end in (u, v):
            if end not in adj:
                return f"edge ({u},{v}) references unknown node '{end}'"
        if u == v:
            return f"self-loop on '{u}'"
        if v in adj[u]:
            return f"duplicate edge ({u},{v})"
        weight = real_or_refusal(w, "weight")
        if isinstance(weight, str):
            return f"edge ({u},{v}) {weight}"
        if weight <= 0:
            return f"edge ({u},{v}) weight {w} not positive"
        adj[u][v] = adj[v][u] = weight
    return positions, adj


# the largest int a float holds exactly: one past it leaves the plain path
BIG = int(sys.float_info.max)
NUMBERS = st.one_of(
    st.floats(),
    st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
        st.sampled_from([BIG, -BIG, BIG + 1, -BIG - 1, 2**1024]),
        st.floats().map(np.float64),
        st.integers(min_value=-1000, max_value=1000).map(np.int64),
        st.booleans(),
        st.sampled_from(["1", None]),
    ),
)
STR_IDS = st.sampled_from("ABCD")
IDS = st.one_of(STR_IDS, st.sampled_from([1, None, ["A"]]))
# plain numbers as JSON gives them: floats, and ints where the file wrote no point
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-1000, 1000))
PLAIN_WEIGHTS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.integers(1, 1000)
)


@st.composite
def graph_dicts(draw) -> dict:
    """A valid graph of plain entries (str ids, finite Python floats and
    ints, as JSON gives them), then at most one more node and one more
    edge of any kind, each at any place. The extra entries reuse the
    graph's ids half the time, so duplicate ids, repeated and reversed
    edges and self-loops are common."""
    nodes = draw(st.lists(
        st.fixed_dictionaries({"id": STR_IDS, "pos": st.lists(FINITE, min_size=2, max_size=2)}),
        min_size=2,
        max_size=4,
        unique_by=lambda node: node["id"],
    ))
    known = st.sampled_from([node["id"] for node in nodes])
    edges = draw(st.lists(
        st.fixed_dictionaries({"u": known, "v": known, "w": PLAIN_WEIGHTS}).filter(
            lambda edge: edge["u"] != edge["v"]
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda edge: frozenset((edge["u"], edge["v"])),
    ))
    pos = st.one_of(
        st.lists(FINITE, min_size=2, max_size=2),
        st.lists(NUMBERS, min_size=2, max_size=2),
        st.tuples(NUMBERS, NUMBERS),
        st.lists(NUMBERS, max_size=3),
        NUMBERS,
    )
    extra_node = st.fixed_dictionaries({"id": st.one_of(known, IDS), "pos": pos})
    end = st.one_of(known, IDS)
    extra_edge = st.fixed_dictionaries({"u": end, "v": end, "w": st.one_of(PLAIN_WEIGHTS, NUMBERS)})
    for entries, extra in ((nodes, extra_node), (edges, extra_edge)):
        if draw(st.booleans()):
            entries.insert(draw(st.integers(0, len(entries))), draw(extra))
    return {"nodes": nodes, "edges": edges}


def joined(pos=(0.0, 0.0), w=1.0) -> dict:
    """Nodes A at `pos` and B, joined by one edge of weight `w`."""
    return {
        "nodes": [{"id": "A", "pos": list(pos)}, {"id": "B", "pos": [1.0, 0.0]}],
        "edges": [{"u": "A", "v": "B", "w": w}],
    }


@settings(max_examples=500, deadline=None)
@given(graph_dicts())
# each number test of the build loops' plain path, at its edge, and a
# graph whose file writes every number as an integer literal
@example(joined(pos=(0, 100), w=100))
@example(joined(pos=(BIG, -BIG), w=BIG))
@example(joined(pos=(BIG + 1, 0)))
@example(joined(w=2**1024))
@example(joined(w=0))
@example(joined(pos=(0.0, math.inf)))
@example(joined(pos=(math.nan, 0.0)))
@example(joined(pos=(True, 0.0)))
@example(joined(pos=(0.0, np.int64(1))))
@example(joined(w=math.inf))
@example(joined(w=0.0))
@example(joined(w=True))
@example(joined(w=np.int64(2)))
def test_build_matches_entry_by_entry_oracle(obj):
    want = build_oracle(obj)
    # add_node and add_edge, one entry per call, so a rule that a one-entry
    # batch keeps and a file's whole list skips shows here without a new
    # oracle line
    checked = NavGraph()
    try:
        for node in obj["nodes"]:
            checked.add_node(node["id"], node["pos"])
        for edge in obj["edges"]:
            checked.add_edge(edge["u"], edge["v"], edge["w"])
    except GraphError as exc:
        checked = str(exc)
    if isinstance(want, str):
        with pytest.raises(GraphError) as refused:
            graph_from_dict(obj)
        assert str(refused.value) == want == checked
        return
    g = graph_from_dict(obj)
    positions, adj = want
    assert list(g.positions.items()) == list(positions.items()) == list(checked.positions.items())
    assert open_adjacency(g) == adj == open_adjacency(checked)
    assert {type(c) for pos in g.positions.values() for c in pos} <= {float}
    assert {type(w) for _u, _v, w, _b in g.edge_list()} <= {float}
