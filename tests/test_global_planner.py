import heapq
import random
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

    def test_replan_after_midroute_block(self, campus_graph_path):
        g = load_graph(campus_graph_path)
        g.block_edge("C", "D")
        route = shortest_path(g, "C", "L")
        assert route.nodes == ("C", "G", "H", "L")
        assert route.total_cost == 300.0


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

    @pytest.mark.parametrize("raw", [b'{"nodes": [', b"\xff"])
    def test_load_malformed_file(self, tmp_path, raw):
        path = tmp_path / "graph.json"
        path.write_bytes(raw)
        with pytest.raises(GraphError, match="graph.json: malformed JSON"):
            load_graph(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.json")
