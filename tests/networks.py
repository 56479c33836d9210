"""Random small networks for the property tests, as scenario dicts.

``small_networks`` draws the networks that ``test_simulation`` checks
against the network-wide scan and ``test_reference`` runs against the
naive simulator: no fixed case covers their mix of links, shadowing,
learning and colliding bursts.
"""

from hypothesis import strategies as st

DISTANCES = st.sampled_from([8.0, 30.0, 60.0, 120.0, 400.0, 1500.0, 3500.0, 6000.0])


# the default learning phase hands over to the learned routes here
SWITCHOVER_S = 180.0


@st.composite
def small_networks(draw):
    """A gateway, one to four repeaters and one to three end devices, with
    random links (some below sensitivity), shadowing on or off, the
    learning phase's control floods on or off, and bursts of scripted
    uplinks close enough to collide (after switchover when learning)."""
    repeaters = list(range(1, draw(st.integers(min_value=1, max_value=4)) + 1))
    devices = list(range(101, 101 + draw(st.integers(min_value=1, max_value=3))))
    nodes = [{"uid": 0, "role": "gateway"}] + [{"uid": r, "role": "repeater"} for r in repeaters]
    links = {}
    for a in [0] + repeaters:
        for b in repeaters:
            if a < b and draw(st.booleans()):
                links[a, b] = draw(DISTANCES)
    schedule = {}
    for ed in devices:
        attach = draw(st.sampled_from(repeaters))
        nodes.append({"uid": ed, "role": "end_device", "attach": attach})
        links[min(ed, attach), max(ed, attach)] = draw(DISTANCES)
        # end devices and other nodes may overhear each other
        for other in draw(st.sets(st.sampled_from([0] + repeaters + devices), max_size=2)):
            if other != ed:
                links.setdefault((min(ed, other), max(ed, other)), draw(DISTANCES))
        schedule[ed] = sorted(
            draw(
                st.lists(
                    st.sampled_from([1.0, 1.005, 1.02, 1.05, 1.1, 1.3]), min_size=1, max_size=4
                )
            )
        )
    sigma = draw(st.sampled_from([0.0, 6.0]))
    learning = draw(st.booleans())
    if learning:
        schedule = {ed: [SWITCHOVER_S + t for t in ts] for ed, ts in schedule.items()}
    topology = {
        "nodes": nodes,
        "links": [{"a": a, "b": b, "distance_m": d} for (a, b), d in sorted(links.items())],
        "path_loss": {"shadowing_sigma_db": sigma},
    }
    return {
        "name": "hearing",
        "topology": topology,
        "traffic": {
            "schedule": {str(ed): ts for ed, ts in schedule.items()},
            "payload_bytes": draw(st.sampled_from([10, 20, 200])),
        },
        "mac": {"wait_min_s": 0.0, "wait_max_s": draw(st.sampled_from([0.005, 0.05]))},
        "protocol": draw(st.sampled_from(["flooding", "routing", "routing_no_energy"])),
        "learning_phase": learning,
        "seed": draw(st.integers(min_value=0, max_value=50)),
    }
