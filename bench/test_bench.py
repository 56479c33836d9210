"""Tests for the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
from collections import deque
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
for path in (str(SRC), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import tunnel  # noqa: E402
from loramesh import cli  # noqa: E402
from loramesh.scenario import load_scenario  # noqa: E402


@pytest.mark.parametrize("mesh_nodes,seed", [(4, 1), (19, 3), (50, 2), (100, 1), (100, 7)])
def test_tunnel_is_deterministic_and_loads(tmp_path, mesh_nodes, seed):
    text = tunnel.dumps(tunnel.generate(mesh_nodes, seed, 50))
    assert text == tunnel.dumps(tunnel.generate(mesh_nodes, seed, 50))
    other = tunnel.generate(mesh_nodes, seed + 1, 50)
    assert other["topology"] != tunnel.generate(mesh_nodes, seed, 50)["topology"]
    path = tmp_path / "tunnel.json"
    path.write_text(text)
    scenario = load_scenario(str(path))
    topo = scenario.topology
    assert len(topo.gateways) == 2
    assert len(topo.gateways | topo.repeaters) == mesh_nodes
    attach = sorted(topo.nodes[ed].attach for ed in topo.end_devices)
    assert attach == sorted(topo.repeaters)
    assert scenario.learning_phase and scenario.protocol == "routing"
    assert scenario.traffic.mean_interval_s == len(topo.end_devices) / tunnel.OFFERED_PKT_PER_S
    # every mesh node reaches a gateway over mesh links
    mesh = topo.gateways | topo.repeaters
    seen, todo = set(topo.gateways), deque(topo.gateways)
    while todo:
        for nbr in topo.links.neighbors(todo.popleft()):
            if nbr in mesh and nbr not in seen:
                seen.add(nbr)
                todo.append(nbr)
    assert seen == mesh


@pytest.mark.parametrize("mesh_nodes,packets", [(3, 10), (1000, 10), (10, 0)])
def test_tunnel_rejects_bad_sizes(mesh_nodes, packets):
    with pytest.raises(ValueError):
        tunnel.generate(mesh_nodes, 1, packets)


def test_self_seconds_subtracts_direct_children():
    # layer a: fn 0; layer b: fn 1. Span 0 (a, 0..10) holds span 1
    # (b, 1..4), which holds span 2 (a, 2..3); span 3 (b, 5..9) is a
    # second child of span 0.
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (0, 1, 2.0, 3.0), (1, 0, 5.0, 9.0)]
    out = layers.self_seconds(spans, [0, 1], ["a", "b"])
    assert out == {"a": (10.0 - 3.0 - 4.0) + 1.0, "b": (3.0 - 1.0) + 4.0}
    assert sum(out.values()) == 10.0


def _traced_simulate(tmp_path):
    argv = ["simulate", "--scenario", "representative", "--protocol", "flooding",
            "--seed", "3", "--packets", "20", "--out-dir", str(tmp_path)]
    with layers.Tracer() as tracer:
        assert cli.main(argv) == 0
    return tracer


def test_traced_run_restores_every_binding(tmp_path):
    before = layers.patch_targets()
    assert before, "nothing to patch"
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not fn for owner, name, fn in before)
        assert cli.main(["simulate", "--scenario", "representative", "--packets", "10",
                         "--out-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for owner, name, fn in before)
    assert layers.patch_targets() == before


def test_traced_run_binds_from_imports_where_callers_look(tmp_path):
    tracer = _traced_simulate(tmp_path)
    # simulation calls its own from-imported airtime on every transmission
    assert tracer.calls_of("model.airtime") > 1
    assert tracer.calls_of("engine.EventQueue.push") == tracer.calls_of("engine.EventQueue.pop")


def test_layer_metrics_on_a_small_flood(tmp_path):
    tracer = _traced_simulate(tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    size = (tmp_path / "trace.ndjson").stat().st_size
    out = layers.layer_metrics(tracer, metrics["counts"], size)
    assert out["trace.encodes_per_event"] == 2.0
    assert out["planner.calls"] == 0
    assert out["cli.sim_runs"] == 1
    assert out["trace.events"] == out["metrics.feed_calls"] == sum(metrics["counts"].values())
    # the replica ledger in the metrics builder bills every charge again
    assert out["energy.charges"] == 2 * out["energy.charges_in_metrics"]
    assert out["engine.heap_peak"] > 0
    assert all(out[f"{layer}.self_s"] >= 0.0 for layer in ("engine", "simulation", "trace"))
    # every per-layer metric BENCHMARK.json names is computed here or, for
    # tracing_overhead, by run.py
    names = {m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]}
    assert set(out) == names - {"tracing_overhead"}

    untraced = tmp_path / "untraced"
    assert cli.main(["simulate", "--scenario", "representative", "--protocol", "flooding",
                     "--seed", "3", "--packets", "20", "--out-dir", str(untraced)]) == 0
    plain = json.loads((untraced / "metrics.json").read_text())
    assert plain["trace_sha256"] == metrics["trace_sha256"]


def test_recorder_measures_setup_inside_the_iteration(tmp_path):
    recorder = run.RunRecorder(cli.Simulation)
    cli.Simulation = recorder
    try:
        argv = ["compare", "--scenario", "representative", "--seeds", "1,2",
                "--packets", "10", "--out-dir", str(tmp_path)]
        it = run.run_iteration(cli, recorder, [argv])
    finally:
        cli.Simulation = recorder.simulation_cls
    assert it["failed"] == {}
    assert len(it["runs"]) == run.runs_of(argv) == 4
    assert 0.0 < it["setup_s"] < it["wall_s"]
    assert it["events"] == sum(sum(r["metrics"]["counts"].values()) for r in it["runs"])
    assert all("first_event" in r for r in it["runs"])



class _FailingCli:
    """Stands in for loramesh.cli: every call exits 1 before any run starts."""

    @staticmethod
    def main(argv):
        print("error: no such scenario")
        return 1


def test_failed_call_is_charged_to_each_of_its_runs():
    recorder = run.RunRecorder(cli.Simulation)
    calls = [
        ["compare", "--scenario", "nowhere", "--seeds", "1,2", "--out-dir", "x"],
        ["simulate", "--scenario", "nowhere", "--out-dir", "y"],
    ]
    it = run.run_iteration(_FailingCli, recorder, calls)
    assert it["runs"] == [None] * 5
    assert sorted(it["failed"]) == [0, 1, 2, 3, 4]
    assert "ended with 1" in it["failed"][4]
