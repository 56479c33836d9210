import random

import pytest

from loramesh.planner import (
    PlannerError,
    aggregate_reports,
    compute_distance_values,
    emit_chunks,
    plan,
    plan_from_topology,
    plan_to_dict,
    reports_from_dict,
)
from loramesh.scenario import scenario_from_dict
from planner_oracles import (
    all_pairs_values,
    random_connected_graph,
    replay_downlink,
    reports_for,
)


def aggregated(edges, vertices, gateways):
    """The adjacency the planner merges from ``edges``' reports."""
    return aggregate_reports(reports_for(edges, vertices), gateways)[0]


def test_distance_values_match_all_pairs_oracle():
    rng = random.Random(20260815)
    for _ in range(120):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        expected = all_pairs_values(vertices, edges, gateways)
        for uid in vertices:
            assert graph.rows[uid][0] == expected[uid], (uid, edges, gateways)


def test_upstream_is_lowest_valued_neighbor():
    rng = random.Random(7)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        adjacency = aggregated(edges, vertices, gateways)
        for uid in vertices:
            value, upstream, _downstream, _values = graph.rows[uid]
            if uid in graph.gateways:
                assert upstream is None
                continue
            best = min((graph.rows[n][0], n) for n, _w in adjacency[uid])
            assert upstream == best[1]
            # strictly decreasing toward the gateway: loop free
            assert best[0] < value


def test_downlink_sets_cover_every_member():
    rng = random.Random(99)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        assert not any("coverage failed" in w for w in graph.warnings)
        adjacency = aggregated(edges, vertices, gateways)
        for _gw, members, heard, _tx in replay_downlink(graph, adjacency):
            assert members <= heard


def test_downlink_forwarder_economy():
    rng = random.Random(4242)
    for _ in range(60):
        vertices, edges, gateways = random_connected_graph(rng)
        graph = plan(reports_for(edges, vertices), gateways)
        adjacency = aggregated(edges, vertices, gateways)
        _dist, predecessor, _root = compute_distance_values(adjacency, graph.gateways, [])
        internal = {parent for parent in predecessor.values() if parent is not None}
        selected = set()
        for row in graph.rows.values():
            selected.update(row[2])
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
    assert {uid: row[0] for uid, row in graph.rows.items()} == {
        0: 0.0, 1: 10.0, 2: 20.0, 3: 10.0, 4: 0.0
    }
    assert graph.nearest_gateway[1] == 0
    assert graph.nearest_gateway[3] == 4
    # the middle node ties at 20 and settles toward the lower gateway uid
    assert graph.nearest_gateway[2] == 0


def test_directed_reports_average_into_one_weight():
    reports = {0: [(1, 10.0)], 1: [(0, 20.0)]}
    assert aggregate_reports(reports, [0]) == ({0: [(1, 15.0)], 1: [(0, 15.0)]}, [])
    assert plan(reports, [0]).warnings == []


def test_one_sided_report_kept_with_warning():
    reports = {0: [(1, 10.0)], 1: []}
    adjacency, _warnings = aggregate_reports(reports, [0])
    assert adjacency[0] == [(1, 10.0)]
    assert any("one side only" in w for w in plan(reports, [0]).warnings)


def test_unreachable_node_flagged_and_left_out_of_tables():
    reports = {0: [(1, 10.0)], 1: [(0, 10.0)], 5: []}
    graph = plan(reports, [0])
    assert 5 in graph.vertices
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
    assert graph.rows[1][0] == 40.0
    with pytest.raises(PlannerError):
        reports_from_dict({"gateways": [0]})
