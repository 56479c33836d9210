"""Command line front end.

Subcommands: simulate (one run, writes metrics.json, trace.ndjson,
battery.csv), plan (offline planner over a neighbor-reports file),
learn (in-simulator discovery phase, exports the planned tables),
loadtest (interval ladder x budget ladder, reports the saturation
knee), compare (flooding vs routing A/B across seeds), render (prints a
packed trace file as one JSON line per event).

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import write_battery_csv
from .planner import PlannerError, plan, plan_to_json, reports_from_dict
from .scenario import PROTOCOLS, Scenario, ScenarioError, _read_json, load_scenario
from .simulation import Simulation
from .trace import TraceFormatError, TraceWriter, ndjson_line, read_trace


def _default_seed() -> int | None:
    """Seed from LORAMESH_SEED, or None to keep the scenario's own seed."""
    env = os.environ.get("LORAMESH_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ScenarioError(f"LORAMESH_SEED is not an integer: {env!r}")


def _periodic(scenario: Scenario, **traffic_changes) -> Scenario:
    """``scenario`` with its traffic changed as given and made periodic: a
    budget or rate given asks for periodic traffic, so a scripted schedule
    in the file no longer applies."""
    return replace(scenario, traffic=replace(scenario.traffic, schedule={}, **traffic_changes))


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if getattr(args, "protocol", None):
        scenario = replace(scenario, protocol=args.protocol)
    traffic_changes = {}
    if getattr(args, "packets", None) is not None:
        traffic_changes["total_packets"] = args.packets
    if getattr(args, "mean_interval_ms", None) is not None:
        traffic_changes["mean_interval_s"] = args.mean_interval_ms / 1000.0
    if traffic_changes:
        scenario = _periodic(scenario, **traffic_changes)
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def _out_dir(args) -> str:
    path = args.out_dir or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out-dir {path}: {exc.strerror}") from exc
    return path


def _dump_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_once(scenario: Scenario, trace_path: str | None = None) -> tuple[dict, Simulation]:
    if trace_path is not None:
        with open(trace_path, "w", encoding="ascii") as fh:
            sim = Simulation(scenario, trace_writer=TraceWriter(fh))
            result = sim.run()
    else:
        sim = Simulation(scenario)
        result = sim.run()
    return result.metrics, sim


def cmd_simulate(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args)
    trace_path = None if args.no_trace else os.path.join(out, "trace.ndjson")
    metrics, sim = _run_once(scenario, trace_path)
    _dump_json(os.path.join(out, "metrics.json"), metrics)
    write_battery_csv(os.path.join(out, "battery.csv"), sim.builder)
    pdr = metrics["pdr"]
    lat = metrics["latency_ms"]
    pdr_text = "n/a" if pdr is None else f"{pdr:.4f}"
    lat_text = "n/a" if lat is None else f"{lat['mean']:.1f}"
    print(
        f"{scenario.name} protocol={scenario.protocol} seed={scenario.seed} "
        f"generated={metrics['generated']} delivered={metrics['delivered']} "
        f"pdr={pdr_text} latency_mean_ms={lat_text}"
    )
    print(f"wrote {out}/metrics.json")
    return 0


def cmd_plan(args) -> int:
    out = _out_dir(args)
    reports, gateways = reports_from_dict(_read_json(Path(args.reports), "reports file"))
    graph = plan(reports, gateways)
    for line in graph.warnings:
        print(f"warning: {line}", file=sys.stderr)
    path = os.path.join(out, "routing_tables.json")
    with open(path, "w") as fh:
        fh.write(plan_to_json(graph))
    print(f"wrote {path} ({len(graph.distance_value)} nodes)")
    return 0


def cmd_learn(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    # the learning phase's control traffic never reads the protocol
    scenario = replace(
        _periodic(scenario, total_packets=0),
        learning_phase=True,
        horizon_s=scenario.phases.dissemination_end_s,
    )
    out = _out_dir(args)
    _metrics, sim = _run_once(scenario)
    if sim.graph is None:
        print(f"error: discovery produced no usable plan: {sim.plan_error}", file=sys.stderr)
        return 3
    for line in sim.graph.warnings:
        print(f"warning: {line}", file=sys.stderr)
    installed = sum(sim.nodes[uid].route.installed for uid in sim.topology.repeaters)
    path = os.path.join(out, "routing_tables.json")
    with open(path, "w") as fh:
        fh.write(plan_to_json(sim.graph))
    print(
        f"wrote {path} ({installed}/{len(sim.topology.repeaters)} repeaters installed their row)"
    )
    return 0


def _parse_list(text: str, convert, flag: str) -> list:
    """A comma-separated command-line list, each part read by ``convert``."""
    try:
        return [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ScenarioError(f"{flag} is not a comma-separated list of numbers: {text!r}") from None


def cmd_loadtest(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    intervals = _parse_list(args.intervals, float, "--intervals")
    budgets = _parse_list(args.budgets, int, "--budgets")
    if not intervals or not budgets:
        raise ScenarioError("interval and budget ladders must be nonempty")
    if any(b >= a for a, b in zip(intervals, intervals[1:])):
        raise ScenarioError("--intervals must be strictly descending")
    if budgets[0] < 1 or any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ScenarioError("--budgets must be strictly ascending positive integers")
    if not math.isfinite(args.threshold):
        # every comparison with NaN is false, so no rung could saturate
        raise ScenarioError(f"--threshold must be a finite number, got {args.threshold}")
    out = _out_dir(args)
    # every rung is built, and so checked, before the first run
    ladder = [
        [_periodic(scenario, mean_interval_s=interval, total_packets=budget) for budget in budgets]
        for interval in intervals
    ]
    report = {"scenario": scenario.name, "protocol": scenario.protocol, "intervals": []}
    n_eds = len(scenario.topology.end_devices)
    knee = None
    for interval, rungs in zip(intervals, ladder):
        points = []
        for budget, run_scenario in zip(budgets, rungs):
            metrics, _sim = _run_once(run_scenario)
            lat = metrics["latency_ms"]
            points.append(
                {
                    "budget": budget,
                    "latency_mean_ms": None if lat is None else lat["mean"],
                    "pdr": metrics["pdr"],
                }
            )
        first = points[0]["latency_mean_ms"]
        last = points[-1]["latency_mean_ms"]
        growth = None
        if first and last is not None:
            growth = (last - first) / first
        saturated = growth is not None and growth > args.threshold
        report["intervals"].append(
            {
                "interval_s": interval,
                "points": points,
                "latency_growth": growth,
                "saturated": saturated,
            }
        )
        if saturated and knee is None:
            knee = interval
        shown = "n/a" if growth is None else f"{growth * 100.0:+.1f}%"
        print(f"interval={interval}s growth={shown} saturated={saturated}")
    report["knee_interval_s"] = knee
    report["knee_rate_pkt_per_s"] = None if knee is None else n_eds / knee
    _dump_json(os.path.join(out, "loadtest.json"), report)
    if knee is None:
        print("no saturation observed on this ladder")
    else:
        print(f"saturation knee at {knee}s mean interval ({n_eds / knee:.2f} pkt/s offered)")
    return 0


def _mean_std(values: list[float]) -> dict:
    return {
        "mean": statistics.fmean(values),
        "stddev": statistics.pstdev(values) if len(values) > 1 else 0.0,
    }


def cmd_compare(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    seeds = _parse_list(args.seeds, int, "--seeds")
    if not seeds:
        raise ScenarioError("at least one seed required")
    out = _out_dir(args)
    collected: dict[str, dict[str, list[float]]] = {}
    for protocol in ("flooding", "routing"):
        rows = {"pdr": [], "latency_mean_ms": [], "duty_max_pct": [], "energy_mah": []}
        for seed in seeds:
            run_scenario = replace(scenario, protocol=protocol, seed=seed)
            metrics, _sim = _run_once(run_scenario)
            rows["pdr"].append(metrics["pdr"] if metrics["pdr"] is not None else 0.0)
            lat = metrics["latency_ms"]
            rows["latency_mean_ms"].append(lat["mean"] if lat else 0.0)
            duties = [
                metrics["duty_cycle_pct"][str(uid)]
                for uid in sorted(scenario.topology.repeaters)
            ]
            rows["duty_max_pct"].append(max(duties) if duties else 0.0)
            rows["energy_mah"].append(metrics["repeater_energy_mah"])
        collected[protocol] = rows
    summary = {
        "scenario": scenario.name,
        "seeds": seeds,
        "flooding": {k: _mean_std(v) for k, v in collected["flooding"].items()},
        "routing": {k: _mean_std(v) for k, v in collected["routing"].items()},
    }
    ratios = {}
    for key in ("pdr", "latency_mean_ms", "duty_max_pct", "energy_mah"):
        base = summary["flooding"][key]["mean"]
        ratios[key] = summary["routing"][key]["mean"] / base if base else None
    summary["routing_over_flooding"] = ratios
    _dump_json(os.path.join(out, "compare.json"), summary)
    for protocol in ("flooding", "routing"):
        row = summary[protocol]
        print(
            f"{protocol:<9} pdr={row['pdr']['mean']:.4f}±{row['pdr']['stddev']:.4f} "
            f"latency={row['latency_mean_ms']['mean']:.1f}ms "
            f"duty_max={row['duty_max_pct']['mean']:.2f}% "
            f"energy={row['energy_mah']['mean']:.1f}mAh"
        )
    print(f"wrote {out}/compare.json")
    return 0


def cmd_render(args) -> int:
    try:
        sys.stdout.writelines(map(ndjson_line, read_trace(args.trace)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; point stdout at
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loramesh",
        description="Simulate subterranean LoRa mesh scenarios and plan routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="bundled name or path to a scenario JSON")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument("--protocol", choices=PROTOCOLS, default=None)
        p.add_argument("--packets", type=int, default=None, help="override the packet budget")
        p.add_argument(
            "--mean-interval-ms",
            type=float,
            default=None,
            help="override the mean generation interval",
        )

    p = sub.add_parser("simulate", help="run one scenario and write metrics")
    add_common(p)
    p.add_argument("--no-trace", action="store_true", help="skip writing trace.ndjson")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("plan", help="run the offline planner over a reports file")
    p.add_argument("--reports", required=True, help="neighbor reports JSON")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("learn", help="run the discovery phase and export the planned tables")
    add_common(p)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("loadtest", help="sweep interval and budget ladders for saturation")
    add_common(p)
    p.add_argument("--intervals", default="3.0,2.0,1.5,1.0,0.7,0.5", help="descending seconds")
    p.add_argument("--budgets", default="2000,5000,10000", help="ascending packet budgets")
    p.add_argument("--threshold", type=float, default=0.2, help="latency growth marking saturation")
    p.set_defaults(fn=cmd_loadtest)

    p = sub.add_parser("compare", help="flooding vs routing across seeds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seeds", default="1,2,3", help="comma separated seed list")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--packets", type=int, default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("render", help="print a trace file as one JSON line per event")
    p.add_argument("--trace", required=True, help="trace.ndjson written by simulate")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.fn(args)
    except (ScenarioError, PlannerError, TraceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
