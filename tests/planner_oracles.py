"""Independent oracles for the planner, shared by its unit tests and the
acceptance gate.

- ``all_pairs_values`` recomputes every multi-source distance value
  with Floyd-Warshall;
- ``random_connected_graph`` draws a connected weighted graph;
- ``replay_downlink`` walks a gateway broadcast under the forwarding
  rule the downlink sets are built for.
"""

import math


def all_pairs_values(vertices, edges, gateways):
    """Each vertex's shortest distance to its nearest gateway, by
    Floyd-Warshall over ``edges`` ((a, b) -> weight)."""
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
    """(vertices, edges, gateways): a random spanning tree on 2 to
    ``max_vertices`` vertices plus a few extra edges, and one to three
    gateways. Quarter-meter weights keep every path sum float exact and
    on the wire grid."""
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
    """Both ends of every edge report it at its weight."""
    reports = {u: [] for u in vertices}
    for (a, b), w in edges.items():
        reports[a].append((b, w))
        reports[b].append((a, w))
    return reports


def replay_downlink(graph, adjacency):
    """Walk each gateway's broadcast over ``adjacency`` (uid -> its
    (neighbor, weight) pairs): the gateway sends, and every node in its
    sender's downstream set sends once in turn.

    Returns (gateway, members, heard, transmitted) per gateway subgraph,
    so tests can assert full coverage under that forwarding rule.
    """
    out = []
    for gw in graph.gateways:
        members = {u for u in graph.vertices if graph.nearest_gateway[u] == gw and u != gw}
        member_set = members | {gw}
        heard = set()
        transmitted = set()
        frontier = [gw]
        while frontier:
            tx = frontier.pop(0)
            transmitted.add(tx)
            downstream = graph.rows[tx][2]
            for n, _w in adjacency[tx]:
                if n not in member_set:
                    continue
                heard.add(n)
                if n in downstream and n not in transmitted and n not in frontier:
                    frontier.append(n)
        out.append((gw, members, heard, transmitted))
    return out
