"""Per-layer spans for the traced run.

The traced run replaces a fixed list of vipguide functions with wrappers
that time each call. Each is replaced in the module (or class) namespace
where the library looks it up at call time (`pipeline` for the planner
layers, `scenario` for the dataset writer, `perception` for mask decoding),
and where the benchmark's own `plan` loop calls it. Spans nest: a
wrapper called while another is open adds its duration to the parent's
child time, so a layer's self time is its duration minus its children.

The untraced run never constructs a Tracer, so it runs the library as is.
"""
from __future__ import annotations

import time
from collections import defaultdict


def _targets():
    from vipguide import frameio, global_planner, perception, pipeline, scenario, tracking

    # (layer name, namespace, attribute, attribute is a generator function)
    return [
        ("scenario.generate", scenario, "generate", True),
        ("frameio.write", scenario, "write_dataset", False),
        ("frameio.read", frameio, "read_dataset", True),
        ("frameio.record_to_line", frameio, "record_to_line", False),
        ("perception.rle_decode", perception, "rle_decode", False),
        ("tracking.step", tracking.Tracker, "step", False),
        ("calibration.detection_distance", pipeline, "detection_distance", False),
        ("local_planner.partition_profiles", pipeline, "partition_profiles", False),
        ("local_planner.road_edge_check", pipeline, "road_edge_check", False),
        ("global_planner.shortest_path", global_planner, "shortest_path", False),
        ("global_planner.load", global_planner, "load_graph", False),
        ("pipeline.process_frame", pipeline.Pipeline, "process_frame", False),
    ]


class Tracer:
    """Installs the wrappers and keeps totals, call counts and per-call samples."""

    def __init__(self):
        self.total = defaultdict(float)   # seconds, inclusive
        self.self_total = defaultdict(float)  # seconds, minus child spans
        self.calls = defaultdict(int)
        self.samples = defaultdict(list)  # seconds per call
        self._stack: list[list[float]] = []
        self._saved = []

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self):
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        dur = time.perf_counter() - t0
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dur
        self.total[name] += dur
        self.self_total[name] += dur - child
        self.calls[name] += 1
        self.samples[name].append(dur)

    def _wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        return wrapped

    def _wrap_generator(self, name: str, fn):
        """Time each item a generator function yields, not the time between."""

        def wrapped(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(items)
                except StopIteration:
                    self._stack.pop()
                    return
                except BaseException:
                    self._exit(name, t0)
                    raise
                self._exit(name, t0)
                yield item

        return wrapped

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, is_generator in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            make = self._wrap_generator if is_generator else self._wrap
            setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> dict:
        return {
            name: (self.total[name], self.self_total[name], self.calls[name], len(self.samples[name]))
            for name in self.calls
        }

    def since(self, mark: dict) -> dict:
        """Per layer: seconds, self seconds, calls and per-call samples after `mark`."""
        out = {}
        for name, calls in self.calls.items():
            total, self_total, calls0, n0 = mark.get(name, (0.0, 0.0, 0, 0))
            if calls > calls0:
                out[name] = {
                    "s": self.total[name] - total,
                    "self_s": self.self_total[name] - self_total,
                    "calls": calls - calls0,
                    "samples": self.samples[name][n0:],
                }
        return out
