"""Host-time benchmark for the loramesh simulator.

Runs one workload as a closed loop with one client: the next iteration
starts when the previous one ends, for ``--seconds`` seconds. The
package is called only through its public entry points
(``loramesh.cli.main``, ``Simulation(...).run()`` and
``metrics.recompute_from_trace``). Outputs are checked after the timed
loop, and every run's ``trace_sha256``, delivery ratio and median
latency are recorded beside the numbers. See bench/README.md.

    python3 bench/run.py --workload flood-trace --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each

BENCHMARK.json gates flood-trace and tunnel-learn; battery-drain and
compare-seeds run here too but are not gated (see bench/README.md).

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run. The exit code is 0 when the
outputs are correct, 1 when a check failed and 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import layers
import tunnel

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Names and units of every metric, read by measure(); this file only
# computes the values.
SPEC = ROOT / "BENCHMARK.json"

# Workload sizes. Identical iterations vary up to twofold on a shared
# 2-core host, so an iteration is kept to 1-4 s and a run takes the
# median of many. BATTERY_PACKETS still drains every repeater of
# two_ed_battery (the full budget only adds traffic after the last death).
FLOOD_PACKETS = 500
TUNNEL_MESH_NODES = 100
TUNNEL_PACKETS = 300
BATTERY_PACKETS = 10000
COMPARE_PACKETS = 300


def _flood_trace(seed: int, out: Path) -> list[list[str]]:
    return [
        ["simulate", "--scenario", "representative", "--protocol", "flooding",
         "--seed", str(seed), "--packets", str(FLOOD_PACKETS), "--out-dir", str(out / "cli")]
    ]


def _tunnel_learn(seed: int, out: Path) -> list[list[str]]:
    path = out / "tunnel.json"
    path.write_text(tunnel.dumps(tunnel.generate(TUNNEL_MESH_NODES, seed, TUNNEL_PACKETS)))
    return [
        ["simulate", "--scenario", str(path), "--no-trace",
         "--seed", str(seed), "--out-dir", str(out / "cli")]
    ]


def _battery_drain(seed: int, out: Path) -> list[list[str]]:
    return [
        ["simulate", "--scenario", "two_ed_battery", "--protocol", protocol, "--no-trace",
         "--seed", str(seed), "--packets", str(BATTERY_PACKETS), "--out-dir", str(out / protocol)]
        for protocol in ("routing", "routing_no_energy")
    ]


def _compare_seeds(seed: int, out: Path) -> list[list[str]]:
    seeds = ",".join(str(seed + k) for k in range(3))
    return [
        ["compare", "--scenario", "representative", "--seeds", seeds,
         "--packets", str(COMPARE_PACKETS), "--out-dir", str(out / "cli")]
    ]


# name -> (seed, output directory) -> argv of each CLI call in one
# iteration. Why each workload was chosen, and why only the first two
# are in BENCHMARK.json: README.md.
WORKLOADS: dict[str, Callable[[int, Path], list[list[str]]]] = {
    "flood-trace": _flood_trace,
    "tunnel-learn": _tunnel_learn,
    "battery-drain": _battery_drain,
    "compare-seeds": _compare_seeds,
}


def runs_of(argv: list[str]) -> int:
    """Simulation runs one CLI call makes: compare runs flooding and routing per seed."""
    if argv[0] == "compare":
        return 2 * len(argv[argv.index("--seeds") + 1].split(","))
    return 1


# ----------------------------------------------------------------------
# observing runs made by the CLI


class RunRecorder:
    """Stands in for ``loramesh.cli.Simulation`` and records each run.

    It builds the real simulation, then notes the instant of the first
    event dispatch (a one-shot hook on the event queue's ``pop``) and the
    run's metrics. Setup time of a run reaches from ``mark`` (the start of
    its CLI call, or the end of the previous run in that call) to the
    first dispatch. No reference to a simulation outlives its run.
    """

    def __init__(self, simulation_cls) -> None:
        self.simulation_cls = simulation_cls
        self.runs: list[dict] = []
        self.mark = 0.0

    def __call__(self, scenario, *args, **kwargs):
        sim = self.simulation_cls(scenario, *args, **kwargs)
        record = {"scenario": scenario, "setup_from": self.mark}
        self.runs.append(record)
        queue = sim.queue
        run = sim.run

        def first_pop():
            record["first_event"] = time.perf_counter()
            del queue.pop
            return queue.pop()

        def run_and_record():
            del sim.run
            result = run()
            self.mark = record["end"] = time.perf_counter()
            record["metrics"] = result.metrics
            if scenario.learning_phase:
                record["plan"] = sim.graph is not None
                record["installed"] = sum(
                    1 for uid in sim.topology.repeaters if sim.nodes[uid].route.installed
                )
            return result

        queue.pop = first_pop
        sim.run = run_and_record
        return sim


def run_label(scenario) -> str:
    return f"{scenario.name} {scenario.protocol} seed {scenario.seed}"


def run_summary(record: dict) -> dict:
    metrics = record["metrics"]
    latency = metrics["latency_ms"]
    out = {
        "run": run_label(record["scenario"]),
        "trace_sha256": metrics["trace_sha256"],
        "pdr": metrics["pdr"],
        "latency_median_ms": None if latency is None else latency["median"],
        "events": sum(metrics["counts"].values()),
    }
    if "installed" in record:
        out["repeaters_installed"] = record["installed"]
    return out


def run_iteration(cli, recorder: RunRecorder, calls: list[list[str]]) -> dict:
    """One closed-loop iteration: every CLI call of the workload in turn.

    ``runs`` holds one slot per run the calls should make, in order, and
    None where a run did not finish; ``failed`` maps the slot of each
    failed run to the reason.
    """
    runs: list[dict | None] = []
    failed: dict[int, str] = {}
    setup = 0.0
    sink = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        for argv in calls:
            recorder.runs = []
            recorder.mark = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed run is counted
                code = f"raised {exc!r}"
            ended = time.perf_counter()
            made = recorder.runs
            setup += sum(r.get("first_event", r.get("end", ended)) - r["setup_from"] for r in made)
            n = runs_of(argv)
            slots = [r if "metrics" in r else None for r in made[:n]]
            slots += [None] * (n - len(slots))
            unfinished = [i for i, r in enumerate(slots) if r is None]
            if code != 0:
                said = sink.getvalue().strip().splitlines()[-1:]
                why = f"`loramesh {' '.join(argv)}` ended with {code}: {said}"
                # charged to the runs it left unfinished, or to all of its runs
                for i in unfinished or range(n):
                    failed[len(runs) + i] = why
            for i in unfinished:
                failed.setdefault(len(runs) + i, "the run did not finish")
            runs += slots
    wall = time.perf_counter() - start
    for i, r in enumerate(runs):
        if r is not None and r.get("plan") is False:
            failed[i] = f"{run_label(r['scenario'])}: the learning phase left no plan"
    counts = Counter()
    for r in runs:
        if r is not None:
            counts.update(r["metrics"]["counts"])
    return {
        "wall_s": wall,
        "setup_s": setup,
        "events": sum(counts.values()),
        "counts": counts,
        "digests": [None if r is None else r["metrics"]["trace_sha256"] for r in runs],
        "runs": runs,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# untimed correctness checks


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _canonical(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


def check_trace_file(scenario, metrics: dict, path: Path, label: str) -> list[str]:
    """(a) file digest equals trace_sha256; (b) recompute equals live metrics."""
    from loramesh.metrics import recompute_from_trace

    failures = []
    if _sha256_file(path) != metrics["trace_sha256"]:
        failures.append(f"{label}: sha256 of {path.name} differs from trace_sha256")
    again = recompute_from_trace(scenario, metrics["seed"], str(path), metrics["end_time_s"])
    if _canonical(again) != _canonical(metrics):
        failures.append(f"{label}: recompute_from_trace differs from the live metrics")
    return failures


def _out_dir(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out-dir") + 1])


def _expected_files(argv: list[str]) -> list[str]:
    if argv[0] == "compare":
        return ["compare.json"]
    return ["metrics.json", "battery.csv"] + ([] if "--no-trace" in argv else ["trace.ndjson"])


def check_outputs(calls: list[list[str]], last: dict, out: Path) -> dict[int, list[str]]:
    """Checks on the files of the last iteration, plus a traced replay of each run.

    Returns the failures by the slot of the run they are charged to.
    """
    from loramesh.simulation import Simulation
    from loramesh.trace import TraceWriter

    failures: dict[int, list[str]] = {}
    first = 0
    for argv in calls:
        slots = range(first, first + runs_of(argv))
        first = slots.stop
        missing = [name for name in _expected_files(argv) if not (_out_dir(argv) / name).is_file()]
        for i in slots if missing else ():
            failures.setdefault(i, []).append(f"`loramesh {argv[0]}` wrote no {', '.join(missing)}")
        if missing or argv[0] != "simulate":
            continue
        (i,) = slots
        record = last["runs"][i]
        label = run_label(record["scenario"])
        written = json.loads((_out_dir(argv) / "metrics.json").read_text())
        if written != record["metrics"]:
            failures.setdefault(i, []).append(f"{label}: metrics.json differs from the run's metrics")
        if "trace.ndjson" in _expected_files(argv):
            trace_file = _out_dir(argv) / "trace.ndjson"
            failures.setdefault(i, []).extend(
                check_trace_file(record["scenario"], record["metrics"], trace_file, label)
            )
    replay_path = out / "replay.ndjson"
    for i, record in enumerate(last["runs"]):
        label = run_label(record["scenario"])
        with open(replay_path, "w", encoding="ascii") as fh:
            result = Simulation(record["scenario"], trace_writer=TraceWriter(fh)).run()
        found = failures.setdefault(i, [])
        if result.metrics["trace_sha256"] != record["metrics"]["trace_sha256"]:
            found.append(f"{label}: a repeat run with the same seed gave another digest")
        found += check_trace_file(record["scenario"], result.metrics, replay_path, label + " (replay)")
    replay_path.unlink()
    return {i: found for i, found in failures.items() if found}


# ----------------------------------------------------------------------
# run conditions


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=20, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def conditions() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


# ----------------------------------------------------------------------
# one workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _trace_bytes(calls: list[list[str]]) -> int:
    return sum(
        (_out_dir(a) / "trace.ndjson").stat().st_size
        for a in calls
        if "trace.ndjson" in _expected_files(a)
    )


def timed_loop(cli, recorder, calls, seconds: float, traced: bool = False) -> list[dict]:
    """Iterations until ``seconds`` have passed.

    Only the first and the latest iteration keep their runs, and only the
    first traced one keeps its spans, so memory does not grow with the
    number of iterations: a faster program must not read as a larger
    ``peak_rss_mb``.
    """
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        if len(iterations) > 1:
            iterations[-1]["runs"] = None
        if not traced:
            iterations.append(run_iteration(cli, recorder, calls))
            continue
        tracer = layers.Tracer()
        with tracer:
            it = run_iteration(cli, recorder, calls)
        it["layers"] = layers.layer_metrics(tracer, it["counts"], _trace_bytes(calls))
        it["tracer"] = None if iterations else tracer
        iterations.append(it)
    return iterations


def per_layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics: medians over the traced iterations that succeeded."""
    per_iteration = [it["layers"] for it in traced if not it["failed"]] or [
        it["layers"] for it in traced
    ]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    out["tracing_overhead"] = statistics.median(it["wall_s"] for it in traced) / untraced_wall
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import loramesh.cli as cli

    spec = json.loads(SPEC.read_text())
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[workload](seed, out)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "conditions": conditions(), "loadavg_before": _loadavg()}
    recorder = RunRecorder(cli.Simulation)
    cli.Simulation = recorder
    try:
        budget = seconds / 2 if trace else seconds
        plain = timed_loop(cli, recorder, calls, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = timed_loop(cli, recorder, calls, budget, traced=True) if trace else []
    finally:
        cli.Simulation = recorder.simulation_cls
    report["loadavg_after"] = _loadavg()

    # fail_ratio counts runs: a failure is charged to the run that failed
    failures = []
    failed_runs = 0
    reference = plain[0]["digests"]
    for it in plain + traced:
        for i, (digest, expected) in enumerate(zip(it["digests"], reference)):
            if expected is not None and digest != expected:
                it["failed"].setdefault(i, "the digest differs from the first iteration's (same seed)")
        failed_runs += len(it["failed"])
        failures += it["failed"].values()
    last = (plain + traced)[-1]
    if not last["failed"]:
        checks = check_outputs(calls, last, out)
        failed_runs += len(checks)
        failures += [line for found in checks.values() for line in found]
    runs_per_iteration = sum(runs_of(argv) for argv in calls)
    attempted = runs_per_iteration * (len(plain) + len(traced))

    walls = [it["wall_s"] for it in plain]
    rates = [it["events"] / it["wall_s"] for it in plain]
    setups = [it["setup_s"] for it in plain]
    runs = [run_summary(r) for r in plain[0]["runs"] if r is not None]
    report.update(
        iterations=len(plain),
        traced_iterations=len(traced),
        runs_per_iteration=runs_per_iteration,
        runs=runs,
        failures=failures,
        fail_ratio=failed_runs / attempted,
    )
    samples = {"wall_s": walls, "events_per_s": rates, "setup_s": setups,
               "peak_rss_mb": [peak_rss_mb]}
    stats = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        q1, med, q3 = _quartiles(values)
        stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                            "unit": m["unit"], "samples": values}
    report["end_to_end"] = stats

    if trace:
        traced[0]["tracer"].write_spans(str(out / "spans"))
        per_layer = report["per_layer"] = per_layer_metrics(traced, stats["wall_s"]["median"])
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()}

    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, metrics)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def print_report(report: dict, metrics: dict) -> None:
    cond = report["conditions"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"{report['iterations']} timed iterations (closed loop, 1 client)"
        + (f", {report['traced_iterations']} traced" if report["trace"] else "")
    )
    print(
        f"  python {cond['python']}  nproc {cond['nproc']}  commit {cond['commit']}"
        f"  dirty {cond['dirty']}"
    )
    print(f"  loadavg before {report['loadavg_before']}  after {report['loadavg_after']}")
    for run in report["runs"]:
        extra = f"  repeaters_installed {run['repeaters_installed']}" if "repeaters_installed" in run else ""
        print(
            f"  run {run['run']}: trace_sha256 {run['trace_sha256']}  pdr {run['pdr']}"
            f"  latency_median_ms {run['latency_median_ms']}  events {run['events']}{extra}"
        )
    for name, s in report["end_to_end"].items():
        print(f"  {name:<14} {s['median']:.6g} {s['unit']}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"  {'fail_ratio':<14} {report['fail_ratio']:.6g} ratio")
    if report["trace"]:
        for name, value in metrics.items():
            print(f"  {name:<30} {value['value']:.6g} {value['unit']}")
    for line in report["failures"]:
        print(f"  FAILED: {line}", file=sys.stderr)


# ----------------------------------------------------------------------
# entry point


def _add_source_tree() -> bool:
    if not (SRC / "loramesh" / "__init__.py").is_file():
        print(f"error: no loramesh package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_all(args) -> int:
    """Each workload in its own process, so none inherits another's peak memory."""
    code = 0
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode in (0, 1) and lines:
            rows.append((name, json.loads(lines[-1])))
    print("summary")
    for name, result in rows:
        parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        ratio = result["failed"] / result["attempted"]
        print(f"  {name:<14} " + "  ".join(parts) + f"  fail_ratio {ratio:.6g} ratio")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loramesh host-time benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separate traced run")
    args = parser.parse_args(argv)
    if not _add_source_tree():
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
