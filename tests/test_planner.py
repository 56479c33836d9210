import math
import random

import pytest

from loramesh.planner import (
    PlannerError,
    emit_chunks,
    plan,
    plan_from_topology,
    plan_to_dict,
    reports_from_dict,
)
from loramesh.scenario import scenario_from_dict


def floyd_warshall_values(vertices, edges, gateways):
    """Independent all-pairs oracle for the multi-source distance values."""
    dist = {u: {v: math.inf for v in vertices} for u in vertices}
    for u in vertices:
        dist[u][u] = 0.0
    for (a, b), w in edges.items():
        if w < dist[a][b]:
            dist[a][b] = w
            dist[b][a] = w
    for k in vertices:
        row_k = dist[k]
        for i in vertices:
            dik = dist[i][k]
            if dik == math.inf:
                continue
            row_i = dist[i]
            for j in vertices:
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return {u: min(dist[g][u] for g in gateways) for u in vertices}


def random_connected_graph(rng, max_vertices=10):
    """Spanning tree plus extras; quarter-meter weights stay float exact."""
    n = rng.randint(2, max_vertices)
    vertices = list(range(n))
    edges = {}
    order = vertices[1:]
    rng.shuffle(order)
    connected = [0]
    for v in order:
        u = rng.choice(connected)
        edges[(min(u, v), max(u, v))] = rng.randint(4, 400) / 4.0
        connected.append(v)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(vertices, 2)
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = rng.randint(4, 400) / 4.0
    gateways = sorted(rng.sample(vertices, rng.randint(1, min(3, n))))
    return vertices, edges, gateways


def reports_for(edges, vertices):
    reports = {u: [] for u in vertices}
    for (a, b), w in edges.items():
        reports[a].append((b, w))
        reports[b].append((a, w))
    return reports


def replay_downlink(graph):
    """Walk a gateway broadcast: addressed nodes retransmit once.

    Returns (members, heard) per gateway subgraph so tests can assert
    full coverage under the exact operational forwarding rule.
    """
    out = []
    for gw in graph.gateways:
        members = {
            u
            for u in graph.vertices
            if graph.nearest_gateway.get(u) == gw and u != gw
        }
        member_set = members | {gw}
        neighborhood = {
            u: {n for n, _w in graph.adjacency[u] if n in member_set}
            for u in member_set
        }
        heard = set()
        transmitted = set()
        frontier = [gw]
        while frontier:
            tx = frontier.pop(0)
            transmitted.add(tx)
            for n in neighborhood[tx]:
                heard.add(n)
                if (
                    n in graph.downstream.get(tx, ())
                    and n not in transmitted
                    and n not in frontier
                ):
                    frontier.append(n)
        out.append((gw, members, heard, transmitted))
    return out


def test_distance_values_match_all_pairs_oracle():
    rng = random.Random(20260815)
    for _ in range(120):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        expected = floyd_warshall_values(vertices, edges, gateways)
        for uid in vertices:
            assert graph.distance_value[uid] == expected[uid], (uid, edges, gateways)


def test_upstream_is_lowest_valued_neighbor():
    rng = random.Random(7)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        for uid in vertices:
            if uid in graph.gateways:
                assert graph.upstream[uid] is None
                continue
            best = min(
                ((graph.distance_value[n], n) for n, _w in graph.adjacency[uid]),
                default=None,
            )
            assert graph.upstream[uid] == best[1]
            # strictly decreasing toward the gateway: loop free
            assert graph.distance_value[best[1]] < graph.distance_value[uid]


def test_downlink_sets_cover_every_member():
    rng = random.Random(99)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        assert not any("coverage failed" in w for w in graph.warnings)
        for _gw, members, heard, _tx in replay_downlink(graph):
            assert members <= heard


def test_downlink_forwarder_economy():
    rng = random.Random(4242)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        children: dict[int, int] = {}
        for uid in vertices:
            parent = graph.predecessor.get(uid)
            if parent is not None:
                children[parent] = children.get(parent, 0) + 1
        internal = {uid for uid, count in children.items() if count}
        selected = set()
        for uid in vertices:
            selected.update(graph.downstream.get(uid, ()))
        assert len(selected) <= len(internal)


def test_plan_is_deterministic():
    rng = random.Random(11)
    vertices, edges, gateways = random_connected_graph(rng)
    a = plan_to_dict(plan(reports_for(edges, vertices), gateways))
    b = plan_to_dict(plan(reports_for(edges, vertices), gateways))
    assert a == b


def test_two_gateways_partition_by_proximity():
    edges = {(0, 1): 10.0, (1, 2): 10.0, (2, 3): 10.0, (3, 4): 10.0}
    graph = plan(reports_for(edges, [0, 1, 2, 3, 4]), [0, 4])
    assert graph.distance_value == {0: 0.0, 1: 10.0, 2: 20.0, 3: 10.0, 4: 0.0}
    assert graph.nearest_gateway[1] == 0
    assert graph.nearest_gateway[3] == 4
    # the middle node ties at 20 and settles toward the lower gateway uid
    assert graph.nearest_gateway[2] == 0


def test_directed_reports_average_into_one_weight():
    reports = {0: [(1, 10.0)], 1: [(0, 20.0)]}
    graph = plan(reports, [0])
    assert graph.adjacency[0] == [(1, 15.0)]
    assert graph.adjacency[1] == [(0, 15.0)]
    assert graph.warnings == []


def test_one_sided_report_kept_with_warning():
    reports = {0: [(1, 10.0)], 1: []}
    graph = plan(reports, [0])
    assert graph.adjacency[0] == [(1, 10.0)]
    assert any("one side only" in w for w in graph.warnings)


def test_unreachable_node_flagged_and_left_out_of_tables():
    reports = {0: [(1, 10.0)], 1: [(0, 10.0)], 5: []}
    graph = plan(reports, [0])
    assert graph.distance_value[5] == math.inf
    assert any("unreachable" in w for w in graph.warnings)
    assert 5 not in graph.rows


def test_planner_input_validation():
    with pytest.raises(PlannerError):
        plan({0: []}, [])
    with pytest.raises(PlannerError):
        plan({}, [0])
    with pytest.raises(PlannerError):
        plan({0: [(1, -5.0)]}, [0])


def test_the_order_of_the_reports_changes_nothing():
    # the simulation hands reports over in arrival order
    reports = {2: [(1, 5.0), (0, 9.0)], 0: [(2, 9.0), (1, 4.0)], 1: [(2, 5.0)]}
    shuffled = {uid: list(reversed(entries)) for uid, entries in reversed(reports.items())}
    assert plan_to_dict(plan(shuffled, [0])) == plan_to_dict(plan(reports, [0]))
    bad = {2: [(1, 0.0)], 1: [(2, 0.0)]}
    for given in (bad, dict(reversed(bad.items()))):
        with pytest.raises(PlannerError, match=r"^non-positive distance reported by 1 for 2$"):
            plan(given, [0])


def test_a_plan_longer_than_the_distance_field_names_what_is_too_long():
    # two hops of 9 000 m fit the field one by one, not as a path
    with pytest.raises(
        PlannerError,
        match=r"^node 2's path to its nearest gateway is 18000\.0 m; "
        r"the distance field holds at most 16383\.75 m$",
    ):
        plan({0: [(1, 9000.0)], 1: [(0, 9000.0), (2, 9000.0)], 2: [(1, 9000.0)]}, [0])
    # an audible link at path-loss exponent 2.0
    scenario = scenario_from_dict(
        {
            "name": "far",
            "topology": {
                "path_loss": {"exponent": 2.0},
                "nodes": [{"uid": 0, "role": "gateway"}, {"uid": 1, "role": "repeater"}],
                "links": [{"a": 0, "b": 1, "distance_m": 20000.0}],
            },
        }
    )
    heard = scenario.topology.links.hearing(scenario.radio.tx_power_dbm, scenario.seed)
    assert heard[0][2] is not None
    with pytest.raises(PlannerError, match=r"^link 0-1 is 20000\.0 m; the distance field"):
        plan_from_topology(scenario.topology, heard)


def test_emit_chunks_respects_payload_budget():
    # a star of 90 leaves produces rows well past one frame
    edges = {(0, uid): 10.0 for uid in range(1, 91)}
    graph = plan(reports_for(edges, list(range(91))), [0])
    chunks = emit_chunks(graph)
    assert len(chunks) > 1
    for size, chunk in chunks:
        assert size <= 255
        assert size == 4 + sum(7 + 2 * len(row[3]) for row in chunk.values())
        assert all(row[0] == uid for uid, row in chunk.items())
    flattened = [row for _size, chunk in chunks for row in chunk.values()]
    assert [row[0] for row in flattened] == list(graph.rows) == list(range(91))
    assert all(row[1:] == graph.rows[row[0]][:3] for row in flattened)


def test_reports_round_trip_from_disk_format():
    data = {
        "gateways": [0],
        "reports": [
            {"node": 0, "neighbors": [{"uid": 1, "distance_m": 40.0}]},
            {"node": 1, "neighbors": [{"uid": 0, "distance_m": 40.0}]},
        ],
    }
    reports, gateways = reports_from_dict(data)
    assert gateways == [0]
    assert reports == {0: [(1, 40.0)], 1: [(0, 40.0)]}
    graph = plan(reports, gateways)
    assert graph.distance_value[1] == 40.0
    with pytest.raises(PlannerError):
        reports_from_dict({"gateways": [0]})
