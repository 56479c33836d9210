"""Operational-phase repeater state: forwarding, standby recovery, and
battery-triggered route switching.

:class:`RouteState` holds what one repeater knows for next-hop
decisions. The trigger conditions (``should_arm`` and the two switch
cases) are pure functions of their arguments; the simulation asks
``should_arm`` only about addressees that forward, never a gateway.
``arm_monitor``, ``note_recent_hop``, ``apply_route_switch`` and
``revert_upstream`` update the state they are given. The simulation loop owns timers,
queues and the radio, so every rule here is unit-testable without it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

MONITOR_CAPACITY = 16
RECENT_HOP_CAPACITY = 64

# Optimistic default for neighbors whose level was never overheard.
UNKNOWN_LEVEL = 100


@dataclass
class StandbyMonitor:
    """A hop this node may take over; keyed by packet id in ``RouteState.monitors``."""

    overheard_from: int
    intended_next: int
    deadline: float
    packet: object
    fired: bool = False


@dataclass
class RouteState:
    """Everything a repeater knows for next-hop decisions."""

    uid: int
    distance_value: float = float("inf")
    upstream_original: int | None = None
    upstream_current: int | None = None
    downstream_current: tuple[int, ...] = ()
    neighbor_values: dict[int, float] = field(default_factory=dict)
    neighbor_levels: dict[int, int] = field(default_factory=dict)
    last_announced_level: int = 100
    installed: bool = False
    # Addressed forwards already made, so a late duplicate copy of the
    # same packet id is not forwarded twice.
    forwarded_ids: set[int] = field(default_factory=set)
    monitors: OrderedDict[int, StandbyMonitor] = field(default_factory=OrderedDict)
    # packet id -> (tx, addressee) for overheard two-hop sequences.
    recent_hops: OrderedDict[int, tuple[int, int]] = field(default_factory=OrderedDict)
    # (announcer, level) pairs already acted on, so one announcement
    # fires at most one switch from this observer.
    switch_acted: set[tuple[int, int]] = field(default_factory=set)

    def install(
        self,
        distance_value: float,
        upstream: int | None,
        downstream: tuple[int, ...],
        neighbor_values: dict[int, float],
    ) -> None:
        self.distance_value = distance_value
        self.upstream_original = upstream
        self.upstream_current = upstream
        self.downstream_current = tuple(downstream)
        self.neighbor_values = dict(neighbor_values)
        self.installed = True

    def level_of(self, uid: int) -> int:
        return self.neighbor_levels.get(uid, UNKNOWN_LEVEL)


def should_arm(state: RouteState, tx_uid: int, addressee_uid: int, up: bool) -> bool:
    """Decide whether an overheard addressed forward arms a monitor.

    Uplink: the transmitter must sit farther from the gateways than both
    the addressee and this node, all values known from the learning
    phase. Downlink mirrors the ordering. The caller passes only
    addressees that forward: gateways never do, so a hop addressed to
    one is not monitored.
    """
    if not state.installed or tx_uid == state.uid or addressee_uid == state.uid:
        return False
    tx_value = state.neighbor_values.get(tx_uid)
    addr_value = state.neighbor_values.get(addressee_uid)
    if tx_value is None or addr_value is None:
        return False
    if up:
        return tx_value > addr_value and state.distance_value < tx_value
    return tx_value < addr_value and state.distance_value > tx_value


def arm_monitor(
    state: RouteState,
    packet_id: int,
    tx_uid: int,
    addressee_uid: int,
    deadline: float,
    packet,
) -> int | None:
    """Record a monitor for a packet not monitored yet; returns the packet
    id of the oldest monitor when capacity evicts it, else None."""
    monitors = state.monitors
    monitors[packet_id] = StandbyMonitor(
        overheard_from=tx_uid, intended_next=addressee_uid, deadline=deadline, packet=packet
    )
    if len(monitors) > MONITOR_CAPACITY:
        return monitors.popitem(last=False)[0]
    return None


def note_recent_hop(state: RouteState, packet_id: int, tx_uid: int, addressee_uid: int) -> None:
    """Remember an overheard uplink hop where both ends sit farther out.

    Only hops satisfying the positional precondition are worth keeping:
    the later battery check can then fire a switch toward the original
    sender without creating a loop.
    """
    tx_value = state.neighbor_values.get(tx_uid)
    addr_value = state.neighbor_values.get(addressee_uid)
    if tx_value is None or addr_value is None:
        return
    if not (tx_value > state.distance_value and addr_value > state.distance_value):
        return
    hops = state.recent_hops
    if packet_id in hops:
        del hops[packet_id]
    hops[packet_id] = (tx_uid, addressee_uid)
    if len(hops) > RECENT_HOP_CAPACITY:
        hops.popitem(last=False)


def case1_should_switch(level_self: int, level_next_original: int, announced: int) -> bool:
    """Depleted-addressee takeover offer by a standby observer.

    Fires only on decade announcements, and only when both this node
    and its original next hop hold strictly more than ten levels above
    the announcer.
    """
    if announced % 10 != 0:
        return False
    return level_self > announced + 10 and level_next_original > announced + 10


def case2_should_switch(level_self: int, announced: int) -> bool:
    """Depleted-relay bypass offer after watching a two-hop sequence."""
    if announced % 10 != 0:
        return False
    return level_self > announced


def apply_route_switch(state: RouteState, sender_uid: int) -> bool:
    """Point the uplink at the instructing neighbor; True when changed.

    Unknown senders are ignored; repeated instructions are a no-op.
    """
    if sender_uid not in state.neighbor_values or state.upstream_current == sender_uid:
        return False
    state.upstream_current = sender_uid
    return True


def revert_upstream(state: RouteState) -> None:
    """Fall back to the planner-assigned next hop (after offering a
    takeover the observer must not keep any switched-in detour)."""
    state.upstream_current = state.upstream_original
