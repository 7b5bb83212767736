"""Routing around a blocked footpath.

Builds a small campus map (a 4x3 grid of waypoints), walks the cheapest
route, then discovers mid-walk that the next leg is impassable: the
edge gets blocked, the route is recomputed from where we stand, and the
detour never re-enters the blocked leg.
"""
from vipguide import NavGraph, shortest_path

NAMES = "ABCDEFGHIJKL"  # 3 rows of 4, A top-left


def campus() -> NavGraph:
    g = NavGraph()
    for row in range(3):
        for col in range(4):
            g.add_node(NAMES[row * 4 + col], (col * 100.0, row * 100.0))
    for row in range(3):
        for col in range(4):
            if col < 3:
                g.add_edge(NAMES[row * 4 + col], NAMES[row * 4 + col + 1], 100.0)
            if row < 2:
                g.add_edge(NAMES[row * 4 + col], NAMES[(row + 1) * 4 + col], 100.0)
    return g


def main():
    g = campus()
    route = shortest_path(g, "A", "L")
    print(f"planned route: {' -> '.join(route.nodes)}  ({route.total_cost:.0f} m)")

    # walking A -> B -> C, and the C -> D leg turns out to be impassable
    here = "C"
    g.block_edge("C", "D")
    detour = shortest_path(g, here, "L")
    print(f"C-D blocked; replanned from {here}: "
          f"{' -> '.join(detour.nodes)}  ({detour.total_cost:.0f} m)")

    # a second closure on the detour itself
    g.block_edge("C", "G")
    second = shortest_path(g, here, "L")
    print(f"C-G blocked too; replanned: "
          f"{' -> '.join(second.nodes)}  ({second.total_cost:.0f} m)")


if __name__ == "__main__":
    main()
