"""Core data types shared by the radio, protocol, and metrics layers.

Everything in here is deliberately dependency free: plain dataclasses,
integer packet kinds, and the closed-form LoRa time-on-air computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Logical channels. Repeaters and gateways exchange traffic on the mesh
# channel; end devices transmit on a separate ingress channel so their
# uplinks never collide with mesh forwards, only with a busy transmitter.
MESH_CHANNEL = 0
ED_CHANNEL = 1

# Packet kinds.
DATA_UP = 0
DATA_DOWN = 1
BEACON = 2
NEIGHBOR_REPORT = 3
ROUTE_TABLE_CHUNK = 4
ROUTE_SWITCH = 5

KIND_NAMES = (
    "DataUp",
    "DataDown",
    "Beacon",
    "NeighborReport",
    "RouteTableChunk",
    "RouteSwitch",
)

MAX_PAYLOAD_BYTES = 255

# Fixed control-plane payload sizes in bytes. Beacons and switch
# instructions carry a small fixed frame; reports and table chunks are
# a frame header plus their entries (see pack_frames below).
BEACON_PAYLOAD = 8
ROUTE_SWITCH_PAYLOAD = 8
FRAME_HEADER = 4
REPORT_ENTRY = 4


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters shared by every radio in a scenario.

    The defaults are the operating point used throughout: SF7 at 500 kHz
    with coding rate 4/5, an 8-symbol preamble, explicit header and CRC
    enabled. Low-data-rate optimization is never engaged (DE = 0), which
    is standard at this bandwidth.
    """

    spreading_factor: int = 7
    bandwidth_hz: int = 500_000
    coding_rate_denominator: int = 5  # 4/5 coding -> denominator 5
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    tx_power_dbm: float = 14.0

    def __post_init__(self) -> None:
        if not 7 <= self.spreading_factor <= 12:
            raise ValueError(f"spreading factor {self.spreading_factor} outside 7..12")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ValueError("coding rate denominator outside 5..8")
        if self.preamble_symbols < 1:
            raise ValueError("preamble must contain at least one symbol")


def airtime(config: RadioConfig, payload_bytes: int) -> float:
    """Time on air in seconds for one transmission of ``payload_bytes``.

    Implements the Semtech LoRa modem timing:

        t_sym      = 2^SF / BW
        t_preamble = (n_preamble + 4.25) * t_sym
        n_payload  = 8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*H)
                                  / (4*SF)) * CR, 0)

    with H = 0 for an explicit header, CRC = 1 when enabled, and CR the
    coding-rate overhead (denominator - 4 + 4 symbols per group).
    """
    if payload_bytes <= 0:
        raise ValueError("payload must be at least one byte")
    if payload_bytes > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload {payload_bytes} exceeds {MAX_PAYLOAD_BYTES} bytes")
    sf = config.spreading_factor
    t_sym = (2.0**sf) / config.bandwidth_hz
    t_preamble = (config.preamble_symbols + 4.25) * t_sym
    header = 0 if config.explicit_header else 1
    crc = 1 if config.crc_on else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * header
    cr = config.coding_rate_denominator - 4 + 4
    n_payload = 8 + max(math.ceil(numerator / (4.0 * sf)) * cr, 0)
    return t_preamble + n_payload * t_sym


@dataclass(frozen=True)
class EnergyModel:
    """Battery capacity and current draw per radio state (mA / mAh)."""

    battery_capacity_mah: float = 100.0
    i_tx_ma: float = 500.0
    i_rx_ma: float = 50.0
    i_idle_ma: float = 1.0
    # None keeps battery_capacity_mah for that role
    gateway_capacity_mah: float | None = None
    ed_capacity_mah: float | None = None

    def __post_init__(self) -> None:
        if self.battery_capacity_mah <= 0:
            raise ValueError("battery capacity must be positive")
        if self.gateway_capacity_mah is not None and self.gateway_capacity_mah <= 0:
            raise ValueError("gateway_capacity_mah must be positive")
        if self.ed_capacity_mah is not None and self.ed_capacity_mah <= 0:
            raise ValueError("ed_capacity_mah must be positive")
        for value in (self.i_tx_ma, self.i_rx_ma, self.i_idle_ma):
            if value < 0:
                raise ValueError("current draw cannot be negative")


def quantize_battery(remaining_mah: float, capacity_mah: float) -> int:
    """Map a residual charge onto the 0..100 announcement scale.

    Levels are the floor of the remaining percentage, so a battery at
    39.999% reads level 39 and announcements fire exactly once per unit
    drop. A full (or overfull, from float dust) battery reads 100.
    """
    if capacity_mah <= 0:
        raise ValueError("capacity must be positive")
    if remaining_mah < 0:
        raise ValueError("remaining charge cannot be negative")
    if remaining_mah >= capacity_mah:
        return 100
    return int(math.floor(100.0 * remaining_mah / capacity_mah))


def table_row_bytes(downstream_count: int) -> int:
    # uid(2) + distance value(2) + upstream uid(2) + set length(1) + 2/member
    return 7 + 2 * downstream_count


def pack_frames(items, item_bytes) -> list[tuple[int, list]]:
    """Pack ``items`` greedily, in order, into frames of at most MAX_PAYLOAD_BYTES.

    Each frame spends FRAME_HEADER bytes plus ``item_bytes(item)`` per
    item; returns (payload bytes, items) per frame. An item that fits no
    frame raises ValueError.
    """
    frames: list[tuple[int, list]] = []
    current: list = []
    used = FRAME_HEADER
    for item in items:
        size = item_bytes(item)
        if FRAME_HEADER + size > MAX_PAYLOAD_BYTES:
            raise ValueError(f"{item!r} cannot fit any {MAX_PAYLOAD_BYTES}-byte frame")
        if used + size > MAX_PAYLOAD_BYTES and current:
            frames.append((used, current))
            current = []
            used = FRAME_HEADER
        current.append(item)
        used += size
    if current:
        frames.append((used, current))
    return frames


class Packet:
    """One over-the-air transmission unit.

    The same logical packet (``packet_id``) is re-instantiated at every
    hop so per-hop fields (addressee, piggyback) never mutate a frame
    that is still in flight elsewhere. A frame's sender is its
    transmission's ``tx_uid``, not a packet field.

    ``next_hop`` encodes addressing: ``None`` is an undirected broadcast
    (flooding), an ``int`` is a unicast uplink hop, and a ``tuple`` is a
    downlink forwarding set.
    """

    __slots__ = (
        "packet_id",
        "kind",
        "origin",
        "next_hop",
        "payload_bytes",
        "battery_level",
        "body",
    )

    def __init__(
        self,
        packet_id: int,
        kind: int,
        origin: int,
        next_hop=None,
        payload_bytes: int = 20,
        battery_level: int | None = None,
        body=None,
    ) -> None:
        self.packet_id = packet_id
        self.kind = kind
        self.origin = origin
        self.next_hop = next_hop
        self.payload_bytes = payload_bytes
        self.battery_level = battery_level
        self.body = body

    def rehop(self, next_hop=None, battery_level: int | None = None) -> "Packet":
        """Copy for the next hop; the forwarded payload keeps its size."""
        return Packet(
            self.packet_id,
            self.kind,
            self.origin,
            next_hop,
            self.payload_bytes,
            battery_level,
            self.body,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, kind={KIND_NAMES[self.kind]}, "
            f"origin={self.origin}, next={self.next_hop})"
        )
