"""Server-side route computation from collected neighbor reports.

The planner merges the two directions of every reported link, runs a
multi-source shortest-path pass from the gateways, and derives three
things per repeater: its distance value (path length in meters to the
nearest gateway), its upstream next hop (the audible neighbor with the
lowest distance value), and a downlink forwarding set that covers its
subgraph with as few rebroadcasts as the shortest-path tree allows.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .learning import MAX_WIRE_DISTANCE_M, quantize_distance
from .model import pack_frames, table_row_bytes
from .scenario import _integer, _number

INFINITE = float("inf")


class PlannerError(ValueError):
    pass


def _on_wire(distance_m: float, what: str) -> float:
    """``distance_m`` on the wire grid; a plan cannot carry a longer one."""
    if distance_m > MAX_WIRE_DISTANCE_M:
        raise PlannerError(
            f"{what} is {distance_m} m; the distance field holds at most {MAX_WIRE_DISTANCE_M} m"
        )
    return quantize_distance(distance_m)


@dataclass
class GlobalGraph:
    """Aggregated link graph plus everything the planner derives from it."""

    gateways: tuple[int, ...]
    vertices: tuple[int, ...]
    edges: dict[tuple[int, int], float]
    adjacency: dict[int, list[tuple[int, float]]]
    warnings: list[str] = field(default_factory=list)
    distance_value: dict[int, float] = field(default_factory=dict)
    predecessor: dict[int, int | None] = field(default_factory=dict)
    nearest_gateway: dict[int, int | None] = field(default_factory=dict)
    upstream: dict[int, int | None] = field(default_factory=dict)
    downstream: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def neighbors_of(self, uid: int) -> list[tuple[int, float]]:
        return self.adjacency.get(uid, [])


def aggregate_reports(
    reports: dict[int, list[tuple[int, float]]],
    gateways: list[int],
) -> GlobalGraph:
    """Merge per-node observations into one undirected weighted graph.

    ``reports`` maps an observer uid to its (heard uid, estimated
    distance) pairs; gateway self-observations belong in there too. When
    both directions of a link were reported the weight is their mean,
    and one-sided links are kept but flagged, since a usable radio link
    passed traffic at least one way.
    """
    if not gateways:
        raise PlannerError("no gateways: nothing to route toward")
    if not reports:
        raise PlannerError("no neighbor reports to aggregate")
    directed: dict[tuple[int, int], float] = {}
    vertices: set[int] = set(gateways)
    for observer, entries in reports.items():
        vertices.add(observer)
        for heard, dist in entries:
            if dist <= 0:
                raise PlannerError(f"non-positive distance reported by {observer} for {heard}")
            vertices.add(heard)
            directed[(observer, heard)] = dist
    warnings: list[str] = []
    edges: dict[tuple[int, int], float] = {}
    for (a, b), d_ab in sorted(directed.items()):
        key = (a, b) if a < b else (b, a)
        if key in edges:
            continue
        d_ba = directed.get((b, a))
        if d_ba is None:
            warnings.append(f"link {key[0]}-{key[1]} reported by one side only")
            edges[key] = d_ab
        else:
            edges[key] = (d_ab + d_ba) / 2.0
    adjacency: dict[int, list[tuple[int, float]]] = {uid: [] for uid in sorted(vertices)}
    for (a, b), w in sorted(edges.items()):
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    for uid in adjacency:
        adjacency[uid].sort()
    return GlobalGraph(
        gateways=tuple(sorted(gateways)),
        vertices=tuple(sorted(vertices)),
        edges=edges,
        adjacency=adjacency,
        warnings=warnings,
    )


def compute_distance_values(graph: GlobalGraph) -> None:
    """Multi-source Dijkstra from every gateway at distance zero.

    Ties break toward the lower gateway uid and then the lower
    predecessor uid, so the tree is reproducible across runs. Vertices
    no gateway can reach keep an infinite distance value and are
    reported; they fall back to flooding.
    """
    dist: dict[int, float] = {uid: INFINITE for uid in graph.vertices}
    pred: dict[int, int | None] = {uid: None for uid in graph.vertices}
    root: dict[int, int | None] = {uid: None for uid in graph.vertices}
    heap: list[tuple[float, int, int, int | None]] = []
    for gw in graph.gateways:
        dist[gw] = 0.0
        root[gw] = gw
        heapq.heappush(heap, (0.0, gw, gw, None))
    settled: set[int] = set()
    while heap:
        d, gw, uid, via = heapq.heappop(heap)
        if uid in settled:
            continue
        settled.add(uid)
        dist[uid] = d
        pred[uid] = via
        root[uid] = gw
        for nbr, w in graph.neighbors_of(uid):
            if nbr not in settled:
                heapq.heappush(heap, (d + w, gw, nbr, uid))
    for uid in graph.vertices:
        if dist[uid] == INFINITE:
            graph.warnings.append(f"node {uid} unreachable from every gateway")
            root[uid] = None
    graph.distance_value = dist
    graph.predecessor = pred
    graph.nearest_gateway = root


def assign_upstream(graph: GlobalGraph) -> None:
    """Point every reachable non-gateway at its best audible neighbor.

    The upstream hop is the neighbor with the lowest distance value
    (ties to the lower uid). On a shortest-path metric that neighbor's
    value is strictly below the node's own, which keeps uplink hop
    sequences strictly decreasing and therefore loop free.
    """
    upstream: dict[int, int | None] = {}
    for uid in graph.vertices:
        if uid in graph.gateways or graph.distance_value.get(uid, INFINITE) == INFINITE:
            upstream[uid] = None
            continue
        best: tuple[float, int] | None = None
        # the graph is undirected, so a reachable node's neighbors are reachable
        for nbr, _w in graph.neighbors_of(uid):
            value = graph.distance_value[nbr]
            if best is None or (value, nbr) < best:
                best = (value, nbr)
        if best is None or best[0] >= graph.distance_value[uid]:
            upstream[uid] = None
            graph.warnings.append(f"node {uid} has no neighbor closer to a gateway")
        else:
            upstream[uid] = best[1]
    graph.upstream = upstream


def _tree_children(graph: GlobalGraph) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {uid: [] for uid in graph.vertices}
    for uid in graph.vertices:
        parent = graph.predecessor.get(uid)
        if parent is not None:
            children[parent].append(uid)
    for uid in children:
        children[uid].sort()
    return children


def compute_downlink_sets(graph: GlobalGraph) -> None:
    """Choose, per node, which shortest-path-tree children rebroadcast.

    Within each gateway's subgraph the selection walks the tree from the
    root. Candidate forwarders are internal tree children only (a leaf
    transmission can always be replaced by its parent's), picked
    greedily by how many still-uncovered members they reach, lowest uid
    first on ties. A repair pass then forces any internal chain a
    stranded member still needs. Every subgraph member ends up within
    one hop of the root or a selected forwarder, and the forwarder count
    never exceeds the internal node count of the tree.
    """
    children = _tree_children(graph)
    downstream: dict[int, set[int]] = {uid: set() for uid in graph.vertices}
    for gw in graph.gateways:
        members = [
            uid
            for uid in graph.vertices
            if graph.nearest_gateway.get(uid) == gw and uid != gw
        ]
        if not members:
            continue
        member_set = set(members) | {gw}
        neighborhood = {
            uid: [n for n, _w in graph.neighbors_of(uid) if n in member_set]
            for uid in member_set
        }
        internal = {uid for uid in member_set if children[uid]}
        covered = {gw} | set(neighborhood[gw])
        selected: set[int] = set()
        queue = [gw]
        while queue:
            node = queue.pop(0)
            candidates = [c for c in children[node] if c in internal]
            while True:
                best: tuple[int, int] | None = None
                best_gain: set[int] = set()
                for cand in candidates:
                    if cand in selected:
                        continue
                    # a candidate, a tree child of the gateway or of a selected
                    # forwarder, is covered already
                    gain = {n for n in neighborhood[cand] if n not in covered}
                    if gain and (best is None or (-len(gain), cand) < best):
                        best = (-len(gain), cand)
                        best_gain = gain
                if best is None:
                    break
                chosen = best[1]
                selected.add(chosen)
                downstream[node].add(chosen)
                covered |= best_gain
                covered.add(chosen)
                queue.append(chosen)
        # Repair: a member whose whole tree branch went unselected can
        # still be uncovered; walk its ancestry and enable the internal
        # chain below the deepest transmitting ancestor.
        remaining = sorted(member_set - covered)
        while remaining:
            uid = remaining[0]
            chain: list[int] = []
            node = uid
            while node != gw and node not in selected:
                parent = graph.predecessor[node]
                chain.append(node)
                node = parent
            transmitter = node
            for link in reversed(chain):
                if link not in internal:
                    break
                selected.add(link)
                downstream[transmitter].add(link)
                covered |= set(neighborhood[link])
                covered.add(link)
                transmitter = link
            newly = sorted(member_set - covered)
            if newly == remaining:
                graph.warnings.append(f"downlink coverage failed for node {uid}")
                break
            remaining = newly
    graph.downstream = {uid: tuple(sorted(members)) for uid, members in downstream.items()}


def plan(reports: dict[int, list[tuple[int, float]]], gateways: list[int]) -> GlobalGraph:
    """Full pipeline: aggregate, distance values, upstream, downlink sets."""
    graph = aggregate_reports(reports, gateways)
    compute_distance_values(graph)
    assign_upstream(graph)
    compute_downlink_sets(graph)
    return graph


def route_rows(
    graph: GlobalGraph,
) -> dict[int, tuple[float, int | None, tuple[int, ...], dict[int, float]]]:
    """Per reachable node, in uid order: (distance value, upstream,
    downstream, neighbor values), every value quantized as on the wire.
    Raises ``PlannerError`` naming a node whose value the wire cannot hold."""
    wire = {
        uid: _on_wire(value, f"node {uid}'s path to its nearest gateway")
        for uid, value in graph.distance_value.items()
        if value != INFINITE
    }
    return {
        uid: (
            wire[uid],
            graph.upstream.get(uid),
            graph.downstream.get(uid, ()),
            {nbr: wire[nbr] for nbr, _w in graph.neighbors_of(uid) if nbr in wire},
        )
        for uid in graph.vertices
        if uid in wire
    }


def table_rows(graph: GlobalGraph) -> list[tuple[int, float, int | None, tuple[int, ...]]]:
    """Disseminated rows: (uid, distance value, upstream, downstream)."""
    return [(uid, row[0], row[1], row[2]) for uid, row in route_rows(graph).items()]


def emit_chunks(
    graph: GlobalGraph,
) -> list[tuple[int, list[tuple[int, float, int | None, tuple[int, ...]]]]]:
    """Pack table rows into chunks, preserving row order: (payload bytes, rows) each."""
    rows = table_rows(graph)
    try:
        return pack_frames(rows, lambda row: table_row_bytes(len(row[3])))
    except ValueError as exc:
        raise PlannerError(f"table row {exc}") from exc


def plan_from_topology(topology, heard) -> GlobalGraph:
    """Plan as if the learning phase had run losslessly on ``topology``.

    ``heard`` is the run's audibility map (``LinkModel.hearing``): every
    link as (a, b, received power, or None when inaudible). Each mesh
    node reports the mesh peers it hears, at their true distance passed
    through the wire quantization, and the reports feed the normal
    pipeline. An inaudible link is never quantized, so its length may
    exceed the wire range; an audible one that does raises
    ``PlannerError``, as a longer planned path does in ``route_rows``.
    With zero shadowing and no control frame lost, the in-simulator
    learning phase converges to exactly this plan; with shadowing its
    RSSI distance estimates carry the shadow term, while this plan keeps
    the true distances.
    """
    links = topology.links
    mesh = topology.gateways | topology.repeaters
    reports: dict[int, list[tuple[int, float]]] = {uid: [] for uid in sorted(mesh)}
    for a, b, prx in heard:
        if prx is not None and a in mesh and b in mesh:
            dist = _on_wire(links.distance(a, b), f"link {a}-{b}")
            reports[a].append((b, dist))
            reports[b].append((a, dist))
    return plan(reports, sorted(topology.gateways))


def plan_to_dict(graph: GlobalGraph) -> dict:
    tables = {
        str(uid): {
            "distance_value": value,
            "nearest_gateway": graph.nearest_gateway.get(uid),
            "upstream": upstream,
            "downstream": list(downstream),
            "neighbor_values": {str(nbr): v for nbr, v in neighbor_values.items()},
        }
        for uid, (value, upstream, downstream, neighbor_values) in route_rows(graph).items()
    }
    return {
        "gateways": list(graph.gateways),
        "tables": tables,
        "warnings": list(graph.warnings),
    }


def plan_to_json(graph: GlobalGraph) -> str:
    return json.dumps(plan_to_dict(graph), indent=2, sort_keys=True) + "\n"


def reports_from_dict(data: dict) -> tuple[dict[int, list[tuple[int, float]]], list[int]]:
    """Parse the on-disk reports format; see the README for the layout.

    Uids follow the scenario file's integer rule, distances its finite-number rule.
    """
    try:
        gateways = [_integer(uid, "reports file", "gateways entry") for uid in data["gateways"]]
        reports: dict[int, list[tuple[int, float]]] = {}
        for i, item in enumerate(data["reports"]):
            observer = _integer(item["node"], f"reports[{i}]", "node")
            entries = []
            for j, entry in enumerate(item["neighbors"]):
                where = f"reports[{i}].neighbors[{j}]"
                uid = _integer(entry["uid"], where, "uid")
                entries.append((uid, _number(entry["distance_m"], where, "distance_m")))
            reports[observer] = entries
    except (KeyError, TypeError, ValueError) as exc:
        raise PlannerError(f"malformed reports file: {exc}") from exc
    return reports, gateways
