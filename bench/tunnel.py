"""Deterministic synthetic tunnel scenarios for the benchmark.

A tunnel is one main gallery with a gateway at each end, side branches
hanging off interior gallery nodes, and one end device per repeater.
The layout depends only on the mesh size and the seed, so the same
inputs always give the same scenario JSON bytes.
"""

from __future__ import annotations

import json
import random

# Total offered uplink load, in packets per second over all end devices.
# The end-device mean interval is derived from it, so growing the mesh
# adds devices without pushing the network past its saturation knee.
# At 100 mesh nodes a 2 s per-device interval (49 pkt/s) delivered under
# half the packets; the knee lies between 5 and 10 pkt/s (bench/README.md).
OFFERED_PKT_PER_S = 2.5

SPACING_M = (40.0, 90.0)  # neighbouring repeaters along a gallery
BRANCH_LEN = 4  # repeaters per side branch; the last one may be shorter
MAIN_SHARE = 0.6  # fraction of repeaters on the main gallery
ED_DISTANCE_M = 10.0
ED_UID_BASE = 1000

# Learning-phase settings under which every repeater of a 100-node tunnel
# installs its row on every seed tried. With the bundled defaults (0.1 s
# carrier-sense wait, three chunk rounds) a table chunk's flood often
# catches up with the previous chunk's and collides, so 1 to 30 of 98
# repeaters kept flooding, and the work per run varied twofold by seed.
MAC = {"wait_max_s": 0.3}
PHASES = {"report_end_s": 400.0, "dissemination_end_s": 1000.0, "chunk_rounds": 6}


def _gallery_links(chain: list[int], rng: random.Random, links: list[tuple[int, int, float]]) -> None:
    spans = [round(rng.uniform(*SPACING_M), 1) for _ in chain[1:]]
    for (a, b), d in zip(zip(chain, chain[1:]), spans):
        links.append((a, b, d))
    # each node also hears the node two along (at most 180 m away)
    for i in range(len(chain) - 2):
        links.append((chain[i], chain[i + 2], round(spans[i] + spans[i + 1], 1)))


def generate(mesh_nodes: int, seed: int, packets: int) -> dict:
    """Scenario dict for a tunnel of ``mesh_nodes`` gateways plus repeaters."""
    if not 4 <= mesh_nodes < ED_UID_BASE:
        raise ValueError(f"mesh size {mesh_nodes} outside 4..{ED_UID_BASE - 1}")
    if packets < 1:
        raise ValueError("packet budget must be positive")
    rng = random.Random(f"loramesh-tunnel:{mesh_nodes}:{seed}")
    repeaters = list(range(2, mesh_nodes))
    n_main = max(2, round(len(repeaters) * MAIN_SHARE))
    main, rest = repeaters[:n_main], repeaters[n_main:]
    links: list[tuple[int, int, float]] = []
    _gallery_links([0] + main + [1], rng, links)
    branches = [rest[i : i + BRANCH_LEN] for i in range(0, len(rest), BRANCH_LEN)]
    # one junction per equal stretch of the main gallery, placed at random
    # within its stretch, so branches spread along the whole tunnel
    stretch = len(main) / max(1, len(branches))
    for k, branch in enumerate(branches):
        junction = main[int(k * stretch + rng.random() * stretch)]
        _gallery_links([junction] + branch, rng, links)
    nodes = [
        {"uid": 0, "role": "gateway", "label": "gw-west"},
        {"uid": 1, "role": "gateway", "label": "gw-east"},
    ]
    nodes += [{"uid": uid, "role": "repeater"} for uid in repeaters]
    nodes += [
        {"uid": ED_UID_BASE + uid, "role": "end_device", "attach": uid} for uid in repeaters
    ]
    links += [(ED_UID_BASE + uid, uid, ED_DISTANCE_M) for uid in repeaters]
    return {
        "name": f"tunnel-{mesh_nodes}",
        "protocol": "routing",
        "learning_phase": True,
        "seed": seed,
        "topology": {
            "nodes": nodes,
            "links": [{"a": a, "b": b, "distance_m": d} for a, b, d in links],
        },
        "mac": MAC,
        "phases": PHASES,
        "traffic": {
            "mean_interval_s": len(repeaters) / OFFERED_PKT_PER_S,
            "payload_bytes": 20,
            "total_packets": packets,
        },
    }


def dumps(scenario: dict) -> str:
    return json.dumps(scenario, indent=1, sort_keys=True) + "\n"
