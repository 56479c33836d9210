"""Feature-level acceptance gate.

Twelve criteria, one test and one checklist line each. Every test
prints `[ACnn] label: PASS/FAIL` on the real stdout (capture bypassed)
so a full run reads as a checklist even when everything is green. The
heavyweight comparative runs are shared across criteria through
module-scoped fixtures.
"""

import json
import math
import random
import time
from dataclasses import replace

import pytest

from loramesh.channel import PathLossModel, received_power
from loramesh.cli import main as cli_main
from loramesh.learning import estimate_distance
from loramesh.model import RadioConfig, airtime
from loramesh.planner import plan, plan_from_topology
from loramesh.routing import (
    RouteState,
    apply_route_switch,
    case1_should_switch,
    case2_should_switch,
)
from loramesh.scenario import load_scenario
from loramesh.simulation import Simulation
from planner_oracles import (
    all_pairs_values,
    random_connected_graph,
    replay_downlink,
    reports_for,
)

SEEDS = (1, 2, 3, 4, 5)


def announce(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[AC{num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def comparative_runs():
    """Both protocols on the 19-node deployment, five seeds each."""
    base = load_scenario("representative")
    metrics = {}
    pair_wall = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        for protocol in ("flooding", "routing"):
            scenario = replace(base, protocol=protocol, seed=seed)
            metrics[(protocol, seed)] = Simulation(scenario).run().metrics
        pair_wall[seed] = time.perf_counter() - t0
    repeaters = sorted(base.topology.repeaters)
    return metrics, pair_wall, repeaters


@pytest.fixture(scope="module")
def ladder_reports(tmp_path_factory):
    """CLI load ladder for both protocols on the 19-node deployment."""
    reports = {}
    t0 = time.perf_counter()
    for protocol in ("flooding", "routing"):
        out = tmp_path_factory.mktemp(f"ladder_{protocol}")
        rc = cli_main(
            [
                "loadtest",
                "--scenario",
                "representative",
                "--protocol",
                protocol,
                "--seed",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        with open(out / "loadtest.json") as fh:
            reports[protocol] = json.load(fh)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ablation_runs():
    """Two-ED battery scenario with and without energy-aware switching."""
    base = load_scenario("two_ed_battery")
    repeaters = sorted(base.topology.repeaters)
    out = {}
    for seed in SEEDS:
        for protocol in ("routing", "routing_no_energy"):
            scenario = replace(base, protocol=protocol, seed=seed)
            sim = Simulation(scenario)
            sim.run()
            ledgers = {uid: sim.nodes[uid].ledger for uid in repeaters}
            deaths = [lg.death_time for lg in ledgers.values() if lg.death_time is not None]
            out[(protocol, seed)] = {
                "first_death": min(deaths) if deaths else None,
                "ledgers": ledgers,
            }
    return out, repeaters


# ---------------------------------------------------------------- criteria


def test_ac01_distance_estimate_round_trip(capsys):
    rng = random.Random(20260820)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        gamma = rng.uniform(1.8, 3.5)
        d = rng.uniform(1.0, 2000.0)
        model = PathLossModel(exponent=gamma)
        prx = received_power(14.0, model, d)
        estimate = estimate_distance(14.0, prx, model)
        worst = max(worst, abs(estimate - d) / d)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and wall < 1.0
    announce(capsys, 1, "distance estimate round trip", ok, f"worst rel err {worst:.2e}, {wall:.2f}s")
    assert worst <= 1e-9
    assert wall < 1.0


def test_ac02_planner_matches_shortest_path_oracle(capsys):
    rng = random.Random(20260821)
    t0 = time.perf_counter()
    failures = []
    for i in range(500):
        vertices, edges, gateways = random_connected_graph(rng, max_vertices=12)
        graph = plan(reports_for(edges, vertices), gateways)
        expected = all_pairs_values(vertices, edges, gateways)
        for uid in vertices:
            value, upstream, _downstream, _values = graph.rows[uid]
            if value != expected[uid]:
                failures.append(f"graph {i} value {uid}")
            neighbors = [b if a == uid else a for (a, b) in edges if uid in (a, b)]
            if uid in gateways:
                want = None
            else:
                want = min((expected[n], n) for n in neighbors)[1]
            if upstream != want:
                failures.append(f"graph {i} upstream {uid}")
    wall = time.perf_counter() - t0
    ok = not failures and wall < 30.0
    announce(capsys, 2, "planner vs shortest-path oracle", ok, f"500 graphs, {wall:.1f}s")
    assert not failures, failures[:5]
    assert wall < 30.0


# Shipped 19-node reference deployment: expected distance value and
# upstream next hop per node (None marks a gateway).
REFERENCE_TABLES = {
    0: (0.0, None),
    1: (40.0, 0),
    2: (85.0, 0),
    3: (124.0, 1),
    4: (170.0, 2),
    5: (218.0, 3),
    6: (199.0, 14),
    7: (175.0, 14),
    8: (166.0, 15),
    9: (176.0, 14),
    10: (194.0, 14),
    11: (193.0, 3),
    12: (242.0, 4),
    13: (289.0, 11),
    14: (123.0, 16),
    15: (82.0, 18),
    16: (59.0, 18),
    17: (28.0, 18),
    18: (0.0, None),
}

# the reference tables name 12 distinct downlink forwarders; two extra
# are allowed as reconstruction slack
FORWARDER_LIMIT = 14


def test_ac03_reference_deployment_tables(capsys):
    scenario = load_scenario("representative")
    heard = scenario.topology.links.hearing(scenario.radio.tx_power_dbm, scenario.seed)
    graph = plan_from_topology(scenario.topology, heard)
    failures = []
    for uid, (value, upstream) in REFERENCE_TABLES.items():
        got_value, got_upstream, _downstream, _values = graph.rows[uid]
        if value == 0.0:
            if got_value != 0.0:
                failures.append(f"gateway {uid} value {got_value}")
        elif abs(got_value - value) > 0.05 * value:
            failures.append(f"value {uid}: {got_value} vs {value}")
        if got_upstream != upstream:
            failures.append(f"upstream {uid}: {got_upstream} vs {upstream}")
    # every audible mesh link, as plan_from_topology reports it
    mesh = scenario.topology.gateways | scenario.topology.repeaters
    adjacency = {uid: [] for uid in mesh}
    for a, b, prx in heard:
        if prx is not None and a in mesh and b in mesh:
            adjacency[a].append((b, prx))
            adjacency[b].append((a, prx))
    if not all(members <= got for _gw, members, got, _tx in replay_downlink(graph, adjacency)):
        failures.append("downlink coverage")
    selected = set()
    for row in graph.rows.values():
        selected.update(row[2])
    if len(selected) > FORWARDER_LIMIT:
        failures.append(f"{len(selected)} forwarders")
    ok = not failures
    announce(
        capsys, 3, "reference deployment tables", ok,
        f"19 rows exact, {len(selected)} forwarders" if ok else "; ".join(failures),
    )
    assert not failures, failures


def test_ac04_airtime_formula(capsys):
    t_sym = 2.0**7 / 500_000.0
    hand_evaluated = 12.25 * t_sym + 43.0 * t_sym
    fixed = airtime(RadioConfig(), 20)
    failures = []
    if fixed != hand_evaluated:
        failures.append(f"fixed point {fixed!r} vs {hand_evaluated!r}")
    if fixed != pytest.approx(0.014144, abs=1e-12):
        failures.append("fixed point decimal")
    for sf in range(7, 13):
        for bw in (125_000, 250_000, 500_000):
            for payload in range(1, 65):
                cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw)
                sym = 2.0**sf / bw
                n_payload = 8 + max(
                    math.ceil((8 * payload - 4 * sf + 28 + 16) / (4.0 * sf)) * 5, 0
                )
                want = (8 + 4.25) * sym + n_payload * sym
                if airtime(cfg, payload) != want:
                    failures.append(f"SF{sf}/{bw}/{payload}B")
    ok = not failures
    announce(capsys, 4, "time-on-air formula", ok, "20B@SF7/500k = 14.144ms, 1152-point sweep")
    assert not failures, failures[:5]


def test_ac05_standby_recovery(capsys):
    base = load_scenario("standby_recovery")
    t0 = time.perf_counter()
    with_standby = Simulation(base).run().metrics
    again = Simulation(base).run().metrics
    without = Simulation(replace(base, standby_enabled=False)).run().metrics
    wall = time.perf_counter() - t0
    failures = []
    if with_standby["delivered"] != 2:
        failures.append(f"enabled delivered {with_standby['delivered']}")
    if without["delivered"] != 1:
        failures.append(f"disabled delivered {without['delivered']}")
    if with_standby["trace_sha256"] != again["trace_sha256"]:
        failures.append("not deterministic")
    if wall >= 1.0:
        failures.append(f"{wall:.2f}s")
    ok = not failures
    announce(
        capsys, 5, "standby repeater recovery", ok,
        f"collided packet recovered only when armed, {wall:.2f}s",
    )
    assert not failures, failures


def test_ac06_switch_condition_table(capsys):
    state = RouteState(uid=4)
    state.install(170.0, 2, {2: 85.0, 5: 218.0, 12: 242.0})
    first = apply_route_switch(state, 5)
    switched = state.upstream_current
    duplicate = apply_route_switch(state, 5)
    after_duplicate = state.upstream_current
    stranger = apply_route_switch(state, 99)
    after_stranger = state.upstream_current
    checks = [
        # takeover: decade announce and both holders >10 levels up
        case1_should_switch(55, 52, 40) is True,
        case1_should_switch(49, 100, 40) is False,
        case1_should_switch(90, 90, 43) is False,
        # bypass: decade announce and strictly more charge
        case2_should_switch(45, 30) is True,
        case2_should_switch(30, 30) is False,
        case2_should_switch(45, 35) is False,
        # applying an instruction repoints the route, once
        first is True and switched == 5 and state.upstream_original == 2,
        duplicate is False and after_duplicate == 5,
        stranger is False and after_stranger == 5,
    ]
    ok = all(checks)
    announce(capsys, 6, "energy-switch condition table", ok, "9/9 worked examples")
    assert checks == [True] * 9


def test_ac07_delivery_and_latency_comparison(comparative_runs, capsys):
    metrics, pair_wall, _repeaters = comparative_runs
    failures = []
    pdr_r = []
    pdr_f = []
    ratios = []
    for seed in SEEDS:
        routing = metrics[("routing", seed)]
        flooding = metrics[("flooding", seed)]
        for m in (routing, flooding):
            losses = m["losses"]
            if m["generated"] != m["delivered"] + losses["initial_ed"] + losses["intermediate"]:
                failures.append(f"loss rows seed {seed} {m['protocol']}")
            if m["generated"] != 10_000:
                failures.append(f"generated {m['generated']} seed {seed}")
        pdr_r.append(routing["pdr"])
        pdr_f.append(flooding["pdr"])
        if not routing["pdr"] > flooding["pdr"]:
            failures.append(f"ordering seed {seed}")
        ratio = routing["latency_ms"]["mean"] / flooding["latency_ms"]["mean"]
        ratios.append(ratio)
        if ratio > 0.70:
            failures.append(f"latency ratio {ratio:.3f} seed {seed}")
        if pair_wall[seed] >= 300.0:
            failures.append(f"wall {pair_wall[seed]:.0f}s seed {seed}")
    if min(pdr_r) < 0.93:
        failures.append(f"routing pdr {min(pdr_r):.4f}")
    if max(pdr_f) > 0.93:
        failures.append(f"flooding pdr {max(pdr_f):.4f}")
    ok = not failures
    announce(
        capsys, 7, "delivery and latency comparison", ok,
        f"pdr {min(pdr_r):.3f}+ vs {max(pdr_f):.3f}-, latency ratio <= {max(ratios):.3f}",
    )
    assert not failures, failures


def test_ac08_duty_cycle_separation(comparative_runs, capsys):
    metrics, _walls, repeaters = comparative_runs
    failures = []
    routing_max = 0.0
    flooding_min = 100.0
    for seed in SEEDS:
        duty_r = [
            metrics[("routing", seed)]["duty_cycle_pct"].get(str(uid), 0.0) for uid in repeaters
        ]
        duty_f = [
            metrics[("flooding", seed)]["duty_cycle_pct"].get(str(uid), 0.0) for uid in repeaters
        ]
        routing_max = max(routing_max, max(duty_r))
        flooding_min = min(flooding_min, min(duty_f))
        if not max(duty_r) < min(duty_f):
            failures.append(f"overlap seed {seed}")
        if max(duty_r) >= 5.0:
            failures.append(f"routing duty {max(duty_r):.2f}% seed {seed}")
        if min(duty_f) <= 7.0:
            failures.append(f"flooding duty {min(duty_f):.2f}% seed {seed}")
    ok = not failures
    announce(
        capsys, 8, "duty cycle separation", ok,
        f"routing <= {routing_max:.2f}%, flooding >= {flooding_min:.2f}%",
    )
    assert not failures, failures


def test_ac09_repeater_energy_ratio(comparative_runs, capsys):
    metrics, _walls, _repeaters = comparative_runs
    failures = []
    worst = 0.0
    for seed in SEEDS:
        ratio = (
            metrics[("routing", seed)]["repeater_energy_mah"]
            / metrics[("flooding", seed)]["repeater_energy_mah"]
        )
        worst = max(worst, ratio)
        if ratio > 0.40:
            failures.append(f"ratio {ratio:.3f} seed {seed}")
    ok = not failures
    announce(capsys, 9, "repeater energy ratio", ok, f"routing/flooding <= {worst:.3f}")
    assert not failures, failures


def test_ac10_saturation_ordering(ladder_reports, capsys):
    reports, wall = ladder_reports
    failures = []
    flood_knee = reports["flooding"]["knee_interval_s"]
    route_knee = reports["routing"]["knee_interval_s"]
    if flood_knee is None or route_knee is None:
        failures.append(f"knee missing ({flood_knee}, {route_knee})")
    else:
        if not flood_knee > route_knee:
            failures.append(f"ordering {flood_knee} vs {route_knee}")
        rate_ratio = (
            reports["routing"]["knee_rate_pkt_per_s"] / reports["flooding"]["knee_rate_pkt_per_s"]
        )
        if rate_ratio < 2.0:
            failures.append(f"rate ratio {rate_ratio:.2f}")
    if wall >= 1800.0:
        failures.append(f"wall {wall:.0f}s")
    ok = not failures
    announce(
        capsys, 10, "saturation ordering", ok,
        f"knees {flood_knee}s vs {route_knee}s, {wall:.0f}s wall",
    )
    assert not failures, failures


def level_at(ledger, when: float) -> int:
    """The level a ledger announced at ``when``: its last history point at or before it."""
    return [level for t, level in ledger.history if t <= when][-1]


def test_ac11_energy_aware_lifetime(ablation_runs, capsys):
    runs, repeaters = ablation_runs
    failures = []
    ratios = []
    spreads = []
    for seed in SEEDS:
        disabled = runs[("routing_no_energy", seed)]
        enabled = runs[("routing", seed)]
        t_dis = disabled["first_death"]
        t_en = enabled["first_death"]
        if t_dis is None or t_en is None:
            failures.append(f"no death seed {seed}")
            continue
        ratios.append(t_en / t_dis)
        if t_en < 1.10 * t_dis:
            failures.append(f"lifetime {t_en:.0f}s vs {t_dis:.0f}s seed {seed}")
        levels_dis = [level_at(disabled["ledgers"][uid], t_dis) for uid in repeaters]
        levels_en = [level_at(enabled["ledgers"][uid], t_dis) for uid in repeaters]
        spread_dis = max(levels_dis) - min(levels_dis)
        spread_en = max(levels_en) - min(levels_en)
        spreads.append((spread_dis, spread_en))
        if not spread_en < spread_dis:
            failures.append(f"spread {spread_en} vs {spread_dis} seed {seed}")
    ok = not failures
    detail = ""
    if ratios:
        detail = (
            f"lifetime x{min(ratios):.2f}+, spread "
            f"{max(s for _d, s in spreads)} vs {min(d for d, _s in spreads)}"
        )
    announce(capsys, 11, "energy-aware lifetime", ok, detail)
    assert not failures, failures


def test_ac12_determinism(capsys):
    failures = []
    scripted = load_scenario("standby_recovery")
    periodic = load_scenario("representative")
    periodic = replace(
        periodic, traffic=replace(periodic.traffic, total_packets=500), seed=4
    )
    for scenario in (scripted, periodic):
        first = Simulation(scenario).run().metrics
        second = Simulation(scenario).run().metrics
        if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
            failures.append(f"metrics differ: {scenario.name}")
        if first["trace_sha256"] != second["trace_sha256"]:
            failures.append(f"digest differs: {scenario.name}")
    ok = not failures
    announce(capsys, 12, "determinism", ok, "repeated runs byte-identical")
    assert not failures, failures
