from loramesh.routing import (
    MONITOR_CAPACITY,
    RECENT_HOP_CAPACITY,
    RouteState,
    apply_route_switch,
    arm_monitor,
    case1_should_switch,
    case2_should_switch,
    note_recent_hop,
    revert_upstream,
    should_arm,
)


def observer_state():
    """Node E at value 150 with audible neighbors C, D, F and upstream F."""
    state = RouteState(uid=50)
    state.install(
        distance_value=150.0,
        upstream=60,  # F
        neighbor_values={40: 120.0, 45: 200.0, 60: 130.0},  # C, D, F
    )
    return state


# --- depleted-addressee takeover (three worked examples) ---


def test_takeover_fires_when_both_hold_margin():
    # addressee announces 40; observer at 55 and its next hop at 52
    assert case1_should_switch(55, 52, 40) is True


def test_takeover_blocked_when_own_margin_too_thin():
    # observer at 49 is not strictly above 40 + 10
    assert case1_should_switch(49, 52, 40) is False
    assert case1_should_switch(50, 52, 40) is False  # boundary is strict
    assert case1_should_switch(55, 50, 40) is False  # next hop gates too


def test_takeover_ignores_off_decade_announcements():
    assert case1_should_switch(95, 95, 43) is False
    assert case1_should_switch(95, 95, 39) is False


# --- depleted-relay bypass (three worked examples) ---


def test_bypass_fires_above_announcer():
    assert case2_should_switch(45, 30) is True


def test_bypass_requires_strictly_more_charge():
    assert case2_should_switch(30, 30) is False
    assert case2_should_switch(29, 30) is False


def test_bypass_ignores_off_decade_announcements():
    assert case2_should_switch(99, 35) is False


# --- switch application (three worked examples) ---


def test_switch_applies_and_points_uplink_at_sender():
    state = observer_state()
    assert apply_route_switch(state, 45) is True
    assert state.upstream_current == 45
    assert state.upstream_original == 60  # planner assignment preserved


def test_switch_duplicate_is_idempotent():
    state = observer_state()
    assert apply_route_switch(state, 45) is True
    assert apply_route_switch(state, 45) is False
    assert state.upstream_current == 45


def test_switch_from_unknown_sender_ignored():
    state = observer_state()
    assert apply_route_switch(state, 99) is False
    assert state.upstream_current == 60


# --- the rest of the route state behavior ---


def test_revert_restores_planner_upstream():
    state = observer_state()
    apply_route_switch(state, 45)
    revert_upstream(state)
    assert state.upstream_current == 60


def test_should_arm_uplink_ordering():
    state = observer_state()
    # D (200) hands to F (130); we sit at 150, below D: arm
    assert should_arm(state, 45, 60) is True
    # transmitter closer than addressee: nothing to recover
    assert should_arm(state, 60, 45) is False
    # we sit farther than the transmitter: not our recovery
    state.distance_value = 250.0
    assert should_arm(state, 45, 60) is False


def test_should_arm_requires_known_values_and_other_parties():
    state = observer_state()
    assert should_arm(state, 99, 60) is False
    assert should_arm(state, 45, 99) is False
    assert should_arm(state, state.uid, 60) is False
    assert should_arm(state, 45, state.uid) is False
    uninstalled = RouteState(uid=50)
    assert should_arm(uninstalled, 45, 60) is False


def test_monitor_capacity_evicts_oldest():
    state = observer_state()
    evictions = []
    for pid in range(MONITOR_CAPACITY + 2):
        evicted = arm_monitor(state, pid, 45, 60, deadline=1.0, packet=None)
        if evicted is not None:
            evictions.append(evicted)
    assert evictions == [0, 1]
    assert len(state.monitors) == MONITOR_CAPACITY


def test_recent_hops_positional_gate():
    state = observer_state()
    note_recent_hop(state, 1, 45, 40)  # addressee C at 120 < 150: reject
    assert 1 not in state.recent_hops
    state.neighbor_values[41] = 180.0
    note_recent_hop(state, 2, 45, 41)  # both beyond us: keep
    assert state.recent_hops[2] == (45, 41)
    note_recent_hop(state, 3, 99, 41)  # unknown transmitter: reject
    assert 3 not in state.recent_hops


def test_recent_hops_capacity():
    state = observer_state()
    state.neighbor_values[41] = 180.0
    for pid in range(RECENT_HOP_CAPACITY + 5):
        note_recent_hop(state, pid, 45, 41)
    assert len(state.recent_hops) == RECENT_HOP_CAPACITY
    assert 0 not in state.recent_hops
    assert RECENT_HOP_CAPACITY + 4 in state.recent_hops


def test_unknown_neighbor_level_defaults_optimistic():
    state = observer_state()
    assert state.level_of(45) == 100
    state.neighbor_levels[45] = 40
    assert state.level_of(45) == 40
