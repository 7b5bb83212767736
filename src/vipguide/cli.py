"""Command-line front end: plan, route, calibrate, simulate."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import calibration
from .annotate import annotate_frame, write_ppm
from .config import default_config, load_config
from .errors import VipGuideError
from .frameio import read_dataset, record_to_line
from .global_planner import load_graph, shortest_path
from .pipeline import Pipeline
from .scenario import SCENARIO_KINDS, ScenarioSpec, default_model, generate, write_scenario


def _timed(iterator):
    """Yield (item, elapsed_ms) where elapsed covers producing the item."""
    while True:
        t0 = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return
        yield item, (time.perf_counter() - t0) * 1000.0


def _add_stream_flags(parser, when: str = "") -> None:
    """--seed and --n-frames, None unless given; ScenarioSpec holds the defaults."""
    for flag, default in (("--seed", ScenarioSpec.seed), ("--n-frames", ScenarioSpec.n_frames)):
        parser.add_argument(flag, type=int, help=f"{when}(default {default})")


def _stream_spec(args) -> ScenarioSpec:
    """The --scenario stream; an unset flag takes ScenarioSpec's default."""
    flags = {"seed": args.seed, "n_frames": args.n_frames}
    return ScenarioSpec(args.scenario, **{k: v for k, v in flags.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vipguide",
        description="Guidance planning for a drone escorting a visually impaired pedestrian",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run the per-frame planner, write a decision trace")
    src = plan.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames", help="dataset directory (frames.jsonl + PGM sidecars)")
    src.add_argument("--scenario", choices=SCENARIO_KINDS, help="generate frames on the fly")
    _add_stream_flags(plan, "with --scenario ")
    plan.add_argument("--config", help="config JSON (defaults apply when omitted)")
    plan.add_argument("--model", help="calibration model JSON (defaults to the synthetic-depth fit)")
    plan.add_argument("--out", required=True, help="trace JSONL output path")
    plan.add_argument("--annotate", metavar="DIR", help="also write annotated PPM frames")
    plan.add_argument("--graph", help="nav graph JSON for reroute handling")
    plan.add_argument("--src", help="route start node (with --graph)")
    plan.add_argument("--dst", help="route destination node (with --graph)")

    route = sub.add_parser("route", help="shortest path on a nav graph")
    route.add_argument("--graph", required=True)
    route.add_argument("--src", required=True)
    route.add_argument("--dst", required=True)
    route.add_argument(
        "--block",
        action="append",
        default=[],
        metavar="U,V",
        help="block an edge before solving (repeatable)",
    )

    cal = sub.add_parser("calibrate", help="fit the depth-to-distance model")
    cal.add_argument("--samples", required=True, help="CSV with header rev,distance_m")
    cal.add_argument("--out", required=True, help="model JSON output path")

    sim = sub.add_parser("simulate", help="write a synthetic scenario dataset")
    sim.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    _add_stream_flags(sim)
    sim.add_argument("--out", required=True, help="output dataset directory")

    return parser


def run_plan(args) -> int:
    if args.graph and not (args.src and args.dst):
        print("plan: --graph requires --src and --dst", file=sys.stderr)
        return 2
    if not args.graph and (args.src or args.dst):
        print("plan: --src and --dst require --graph", file=sys.stderr)
        return 2
    if args.frames and (args.seed is not None or args.n_frames is not None):
        print("plan: --seed and --n-frames require --scenario", file=sys.stderr)
        return 2
    config = load_config(args.config) if args.config else default_config()
    model = calibration.load_model(args.model) if args.model else default_model()

    graph = route = None
    if args.graph:
        graph = load_graph(args.graph)
        route = shortest_path(graph, args.src, args.dst)

    if args.frames:
        frames = read_dataset(args.frames)
    else:
        frames = (frame for frame, _ in generate(_stream_spec(args)))

    pipeline = Pipeline(config, model, graph=graph, route=route)
    if args.annotate:
        os.makedirs(args.annotate, exist_ok=True)

    n = 0
    with open(args.out, "w", encoding="ascii") as out:
        for frame, decode_ms in _timed(iter(frames)):
            decision, record = pipeline.process_frame(frame, decode_ms=decode_ms)
            out.write(record_to_line(record))
            out.write("\n")
            n += 1
            if args.annotate:
                write_ppm(
                    os.path.join(args.annotate, f"frame_{frame.frame_id:05d}.ppm"),
                    annotate_frame(frame, decision),
                )

    summary = pipeline.stats.summary()
    print(f"planned {n} frames -> {args.out}")
    for stage, stats in summary.items():
        print(
            f"  {stage}: p50 {stats['p50']:.3f} ms, p90 {stats['p90']:.3f} ms "
            f"({stats['n']} frames)"
        )
    return 0


def run_route(args) -> int:
    graph = load_graph(args.graph)
    for spec in args.block:
        u, _, v = spec.partition(",")
        if not u or not v:
            print(f"route: bad --block '{spec}', expected U,V", file=sys.stderr)
            return 2
        graph.block_edge(u.strip(), v.strip())
    route = shortest_path(graph, args.src, args.dst)
    print(json.dumps({"nodes": list(route.nodes), "total_cost": route.total_cost}))
    return 0


def run_calibrate(args) -> int:
    samples = calibration.load_samples_csv(args.samples)
    model = calibration.fit(samples)
    calibration.save_model(args.out, model)
    print(
        f"fit {model.n_samples} samples: a={model.a:.6g} b={model.b:.6g} "
        f"c={model.c:.6g} rmse={model.rmse:.6g} m -> {args.out}"
    )
    return 0


def run_simulate(args) -> int:
    n = write_scenario(args.out, _stream_spec(args))
    print(f"wrote {n} frames to {args.out}")
    return 0


COMMANDS = {
    "plan": run_plan,
    "route": run_route,
    "calibrate": run_calibrate,
    "simulate": run_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (VipGuideError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
