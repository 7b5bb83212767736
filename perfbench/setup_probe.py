"""One set-up, timed in a fresh interpreter; prints its reference seconds.

Set-up is what `vipguide plan` does before its first frame: import the
library, fit the default calibration, build the config, load the graph and
route (city_reroute only), construct the pipeline and have the first frame
in hand. The reference loop (reference.py) is timed just before and just
after, and the set-up time is reported in its reference seconds. run.py
starts this script several times and reports the median.

    python3 perfbench/setup_probe.py KIND [GRAPH SRC DST]
"""
import os
import statistics
import sys
import time

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

from reference import PYTHON_REF_S, python_loop  # noqa: E402


def reference_samples(n: int = 25) -> list[float]:
    out = []
    for _ in range(n):
        t = time.perf_counter()
        python_loop()
        out.append(time.perf_counter() - t)
    return out


def set_up(argv) -> float:
    """Wall seconds from the first vipguide import to the first frame."""
    t0 = time.perf_counter()
    from vipguide import global_planner, scenario
    from vipguide.config import default_config
    from vipguide.pipeline import Pipeline

    from workloads import default_model

    kind = argv[0]
    model = default_model()
    config = default_config()
    graph = route = None
    if len(argv) == 4:
        graph = global_planner.load_graph(argv[1])
        route = global_planner.shortest_path(graph, argv[2], argv[3])
    Pipeline(config, model, graph=graph, route=route)
    next(scenario.generate(scenario.ScenarioSpec(kind=kind, seed=1)))
    return time.perf_counter() - t0


if __name__ == "__main__":
    before = reference_samples()
    elapsed = set_up(sys.argv[1:])
    local = statistics.median(before + reference_samples())
    print(repr(elapsed * PYTHON_REF_S / local))
