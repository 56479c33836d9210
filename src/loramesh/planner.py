"""Server-side route computation from collected neighbor reports.

The planner merges the two directions of every reported link, runs a
multi-source shortest-path pass from the gateways, and derives three
things per repeater: its distance value (path length in meters to the
nearest gateway), its upstream next hop (the audible neighbor with the
lowest distance value), and a downlink forwarding set that covers its
subgraph with as few rebroadcasts as the shortest-path tree allows.
``plan`` then makes, once, each reachable node's row as it goes on the
wire; table chunks, the exported tables and every installed route read
those rows.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .learning import MAX_WIRE_DISTANCE_M, quantize_distance
from .model import pack_frames, table_row_bytes
from .scenario import ScenarioError, _array, _integer, _number, _object

INFINITE = float("inf")

# vertex -> its (neighbor, weight) pairs, every vertex a key in uid order
Adjacency = dict[int, list[tuple[int, float]]]


class PlannerError(ValueError):
    pass


def _on_wire(distance_m: float, what: str) -> float:
    """``distance_m`` on the wire grid; a plan cannot carry a longer one."""
    wire = quantize_distance(distance_m)
    if wire is None:
        raise PlannerError(
            f"{what} is {distance_m} m; the distance field holds at most {MAX_WIRE_DISTANCE_M} m"
        )
    return wire


@dataclass
class GlobalGraph:
    """Aggregated link graph plus everything the planner derives from it."""

    gateways: tuple[int, ...]
    vertices: tuple[int, ...]
    adjacency: Adjacency
    warnings: list[str]
    distance_value: dict[int, float]
    predecessor: dict[int, int | None]
    nearest_gateway: dict[int, int | None]
    upstream: dict[int, int | None]
    downstream: dict[int, tuple[int, ...]]
    # per reachable node in uid order: (distance value, upstream, downstream,
    # neighbor values), every value quantized as on the wire
    rows: dict[int, tuple[float, int | None, tuple[int, ...], dict[int, float]]]

    def neighbors_of(self, uid: int) -> list[tuple[int, float]]:
        return self.adjacency.get(uid, [])


def aggregate_reports(
    reports: dict[int, list[tuple[int, float]]],
    gateways: list[int],
) -> tuple[Adjacency, list[str]]:
    """Merge per-node observations into one undirected weighted graph:
    its adjacency, each neighbor list sorted, and the merge's warnings.

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
            vertices.add(heard)
            directed[(observer, heard)] = dist
    warnings: list[str] = []
    edges: dict[tuple[int, int], float] = {}
    # in sorted order, so that no outcome depends on the order of the reports
    for (a, b), d_ab in sorted(directed.items()):
        if d_ab <= 0:
            raise PlannerError(f"non-positive distance reported by {a} for {b}")
        key = (a, b) if a < b else (b, a)
        if key in edges:
            continue
        d_ba = directed.get((b, a))
        if d_ba is None:
            warnings.append(f"link {key[0]}-{key[1]} reported by one side only")
            edges[key] = d_ab
        else:
            edges[key] = (d_ab + d_ba) / 2.0
    adjacency: Adjacency = {uid: [] for uid in sorted(vertices)}
    for (a, b), w in sorted(edges.items()):
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    for uid in adjacency:
        adjacency[uid].sort()
    return adjacency, warnings


def compute_distance_values(
    adjacency: Adjacency, gateways: tuple[int, ...], warnings: list[str]
) -> tuple[dict[int, float], dict[int, int | None], dict[int, int | None]]:
    """Multi-source Dijkstra from every gateway at distance zero; returns
    (distance value, predecessor, nearest gateway) per vertex.

    Ties break toward the lower gateway uid and then the lower
    predecessor uid, so the tree is reproducible across runs. Vertices
    no gateway can reach keep an infinite distance value and are
    reported; they fall back to flooding.
    """
    dist: dict[int, float] = {uid: INFINITE for uid in adjacency}
    pred: dict[int, int | None] = {uid: None for uid in adjacency}
    root: dict[int, int | None] = {uid: None for uid in adjacency}
    heap: list[tuple[float, int, int, int | None]] = []
    for gw in gateways:
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
        for nbr, w in adjacency[uid]:
            if nbr not in settled:
                heapq.heappush(heap, (d + w, gw, nbr, uid))
    for uid in adjacency:
        if dist[uid] == INFINITE:
            warnings.append(f"node {uid} unreachable from every gateway")
            root[uid] = None
    return dist, pred, root


def assign_upstream(
    adjacency: Adjacency,
    gateways: tuple[int, ...],
    distance_value: dict[int, float],
    warnings: list[str],
) -> dict[int, int | None]:
    """Point every reachable non-gateway at its best audible neighbor;
    returns the upstream hop per vertex, None where there is none.

    The upstream hop is the neighbor with the lowest distance value
    (ties to the lower uid). On a shortest-path metric that neighbor's
    value is strictly below the node's own, which keeps uplink hop
    sequences strictly decreasing and therefore loop free.
    """
    upstream: dict[int, int | None] = {}
    for uid in adjacency:
        if uid in gateways or distance_value[uid] == INFINITE:
            upstream[uid] = None
            continue
        best: tuple[float, int] | None = None
        # the graph is undirected, so a reachable node's neighbors are reachable
        for nbr, _w in adjacency[uid]:
            value = distance_value[nbr]
            if best is None or (value, nbr) < best:
                best = (value, nbr)
        if best is None or best[0] >= distance_value[uid]:
            upstream[uid] = None
            warnings.append(f"node {uid} has no neighbor closer to a gateway")
        else:
            upstream[uid] = best[1]
    return upstream


def _tree_children(predecessor: dict[int, int | None]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {uid: [] for uid in predecessor}
    for uid, parent in predecessor.items():
        if parent is not None:
            children[parent].append(uid)
    for uid in children:
        children[uid].sort()
    return children


def compute_downlink_sets(
    adjacency: Adjacency,
    gateways: tuple[int, ...],
    predecessor: dict[int, int | None],
    nearest_gateway: dict[int, int | None],
    warnings: list[str],
) -> dict[int, tuple[int, ...]]:
    """Choose, per node, which shortest-path-tree children rebroadcast;
    returns each vertex's forwarding set in uid order.

    Within each gateway's subgraph the selection walks the tree from the
    root. Candidate forwarders are internal tree children only (a leaf
    transmission can always be replaced by its parent's), picked
    greedily by how many still-uncovered members they reach, lowest uid
    first on ties. A repair pass then forces any internal chain a
    stranded member still needs. Every subgraph member ends up within
    one hop of the root or a selected forwarder, and the forwarder count
    never exceeds the internal node count of the tree.
    """
    children = _tree_children(predecessor)
    downstream: dict[int, set[int]] = {uid: set() for uid in adjacency}
    for gw in gateways:
        members = [uid for uid in adjacency if nearest_gateway[uid] == gw and uid != gw]
        if not members:
            continue
        member_set = set(members) | {gw}
        neighborhood = {
            uid: [n for n, _w in adjacency[uid] if n in member_set] for uid in member_set
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
                parent = predecessor[node]
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
                warnings.append(f"downlink coverage failed for node {uid}")
                break
            remaining = newly
    return {uid: tuple(sorted(members)) for uid, members in downstream.items()}


def plan(reports: dict[int, list[tuple[int, float]]], gateways: list[int]) -> GlobalGraph:
    """Full pipeline: aggregate, distance values, upstream, downlink sets,
    then every reachable node's row as it goes on the wire. Raises
    ``PlannerError`` on unusable reports, or naming a node whose path to
    its nearest gateway the distance field cannot hold."""
    adjacency, warnings = aggregate_reports(reports, gateways)
    gateways = tuple(sorted(gateways))
    dist, pred, root = compute_distance_values(adjacency, gateways, warnings)
    upstream = assign_upstream(adjacency, gateways, dist, warnings)
    downstream = compute_downlink_sets(adjacency, gateways, pred, root, warnings)
    wire = {
        uid: _on_wire(value, f"node {uid}'s path to its nearest gateway")
        for uid, value in dist.items()
        if value != INFINITE
    }
    rows = {
        uid: (
            value,
            upstream[uid],
            downstream[uid],
            {nbr: wire[nbr] for nbr, _w in adjacency[uid] if nbr in wire},
        )
        for uid, value in wire.items()
    }
    return GlobalGraph(
        gateways=gateways,
        vertices=tuple(adjacency),
        adjacency=adjacency,
        warnings=warnings,
        distance_value=dist,
        predecessor=pred,
        nearest_gateway=root,
        upstream=upstream,
        downstream=downstream,
        rows=rows,
    )


def emit_chunks(graph: GlobalGraph) -> list[tuple[int, dict[int, tuple]]]:
    """Pack the disseminated rows, (uid, distance value, upstream,
    downstream) in uid order, into chunks: (payload bytes, rows by uid)
    each, so a receiver looks up the rows it keeps."""
    rows = [(uid, *row[:3]) for uid, row in graph.rows.items()]
    try:
        frames = pack_frames(rows, lambda row: table_row_bytes(len(row[3])))
    except ValueError as exc:
        raise PlannerError(f"table row {exc}") from exc
    return [(size, {row[0]: row for row in chunk}) for size, chunk in frames]


def plan_from_topology(topology, heard) -> GlobalGraph:
    """Plan as if the learning phase had run losslessly on ``topology``.

    ``heard`` is the run's audibility map (``LinkModel.hearing``): every
    link as (a, b, received power, or None when inaudible). Each mesh
    node reports the mesh peers it hears, at their true distance passed
    through the wire quantization, and the reports feed the normal
    pipeline. An inaudible link is never quantized, so its length may
    exceed the wire range; an audible one that does raises
    ``PlannerError``, as a longer planned path does in ``plan``.
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
            "nearest_gateway": graph.nearest_gateway[uid],
            "upstream": upstream,
            "downstream": list(downstream),
            "neighbor_values": {str(nbr): v for nbr, v in neighbor_values.items()},
        }
        for uid, (value, upstream, downstream, neighbor_values) in graph.rows.items()
    }
    return {
        "gateways": list(graph.gateways),
        "tables": tables,
        "warnings": list(graph.warnings),
    }


def plan_to_json(graph: GlobalGraph) -> str:
    return json.dumps(plan_to_dict(graph), indent=2, sort_keys=True) + "\n"


def reports_from_dict(data) -> tuple[dict[int, list[tuple[int, float]]], list[int]]:
    """Parse the on-disk reports format; see the README for the layout.

    Uids follow the scenario file's integer rule, distances its
    finite-number rule. Each node is reported once and does not list
    itself among its neighbors; a neighbor is listed once per report.
    """
    try:
        data = _object(data, "reports file")
        gateways = [
            _integer(uid, "reports file", "gateways entry")
            for uid in _array(data["gateways"], "reports file", "gateways")
        ]
        reports: dict[int, list[tuple[int, float]]] = {}
        for i, item in enumerate(_array(data["reports"], "reports file", "reports")):
            item = _object(item, f"reports[{i}]")
            observer = _integer(item["node"], f"reports[{i}]", "node")
            if observer in reports:
                raise PlannerError(f"reports[{i}]: node {observer} is reported twice")
            entries = {}
            for j, entry in enumerate(_array(item["neighbors"], f"reports[{i}]", "neighbors")):
                where = f"reports[{i}].neighbors[{j}]"
                entry = _object(entry, where)
                uid = _integer(entry["uid"], where, "uid")
                if uid == observer:
                    raise PlannerError(f"{where}: node {uid} cannot be its own neighbor")
                if uid in entries:
                    raise PlannerError(f"{where}: node {uid} is listed twice")
                entries[uid] = _number(entry["distance_m"], where, "distance_m")
            reports[observer] = list(entries.items())
    except ScenarioError as exc:
        # the message names the entry already
        raise PlannerError(str(exc)) from exc
    except KeyError as exc:
        raise PlannerError(f"malformed reports file: missing key {exc}") from exc
    return reports, gateways
