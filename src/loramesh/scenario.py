"""Scenario configuration: deployment, radio, traffic, and run options.

A scenario file is one JSON document embedding (or referencing) the
deployment topology plus every knob a run needs. Validation happens
eagerly at load; anything structurally wrong, and any number that is not
finite, raises ``ScenarioError`` and the command line maps that onto the
configuration exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .channel import (
    DEFAULT_CAPTURE_DB,
    DEFAULT_SENSITIVITY_DBM,
    LinkModel,
    PathLossModel,
)
from .model import EnergyModel, MAX_PAYLOAD_BYTES, RadioConfig

GATEWAY = "gateway"
REPEATER = "repeater"
END_DEVICE = "end_device"
ROLES = (GATEWAY, REPEATER, END_DEVICE)

PROTOCOLS = ("flooding", "routing", "routing_no_energy")
UID_LIMIT = 2**31


class ScenarioError(ValueError):
    """Configuration problem: bad file, missing node, impossible value."""


@dataclass(frozen=True)
class NodeSpec:
    uid: int
    role: str
    attach: int | None = None
    label: str | None = None


class Topology:
    """Node roster plus the explicit link set with radio thresholds."""

    def __init__(
        self,
        nodes: list[NodeSpec],
        links: LinkModel,
    ) -> None:
        self.nodes: dict[int, NodeSpec] = {}
        for spec in nodes:
            # a uid fills a signed 32-bit trace slot, where -1 means "none";
            # attach points and link ends must name nodes, so they are bound too
            if not 0 <= spec.uid < UID_LIMIT:
                raise ScenarioError(f"node uid {spec.uid} is outside 0 <= uid < 2**31")
            if spec.uid in self.nodes:
                raise ScenarioError(f"duplicate node uid {spec.uid}")
            self.nodes[spec.uid] = spec
        self.links = links
        self.gateways = {u for u, s in self.nodes.items() if s.role == GATEWAY}
        self.repeaters = {u for u, s in self.nodes.items() if s.role == REPEATER}
        self.end_devices = {u for u, s in self.nodes.items() if s.role == END_DEVICE}
        self._validate()

    def _validate(self) -> None:
        if not self.gateways:
            raise ScenarioError("topology defines no gateway")
        for uid, spec in sorted(self.nodes.items()):
            if spec.role not in ROLES:
                raise ScenarioError(f"node {uid}: unknown role {spec.role!r}")
            if spec.role == END_DEVICE:
                if spec.attach is None:
                    raise ScenarioError(f"end device {uid} has no attach point")
                if spec.attach not in self.repeaters:
                    raise ScenarioError(
                        f"end device {uid} attaches to {spec.attach}, which is not a repeater"
                    )
                if self.links.distance(uid, spec.attach) is None:
                    # reception follows links, so every packet would be lost
                    raise ScenarioError(
                        f"end device {uid} has no link to its attach point {spec.attach}"
                    )
            elif spec.attach is not None:
                raise ScenarioError(f"node {uid}: only end devices may attach")
        for a, b, _d in self.links.link_items():
            if a not in self.nodes or b not in self.nodes:
                raise ScenarioError(f"link {a}-{b} references an unknown node")


@dataclass(frozen=True)
class TrafficSpec:
    """Uplink generation: either periodic-random or a scripted schedule."""

    mean_interval_s: float = 2.0
    payload_bytes: int = 20
    total_packets: int = 0
    start_s: float = 0.0
    schedule: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.payload_bytes < 1 or self.payload_bytes > MAX_PAYLOAD_BYTES:
            raise ScenarioError(f"payload of {self.payload_bytes} bytes is outside 1..{MAX_PAYLOAD_BYTES}")
        if self.total_packets < 0:
            raise ScenarioError("total packet budget cannot be negative")
        if not self.schedule and self.total_packets > 0 and not 0 < self.mean_interval_s < math.inf:
            raise ScenarioError("mean interval must be positive and finite")
        if not self.start_s >= 0:
            raise ScenarioError("traffic start cannot be negative")
        for uid, times in sorted(self.schedule.items()):
            for t in times:
                if not t >= 0:
                    raise ScenarioError(f"node {uid}: scripted time {t!r} is negative")


@dataclass(frozen=True)
class MacParams:
    wait_min_s: float = 0.010
    wait_max_s: float = 0.100
    standby_min_s: float = 0.150
    standby_max_s: float = 0.400
    queue_capacity: int = 512
    dedup_ttl_s: float = 60.0
    dedup_capacity: int = 4096

    def __post_init__(self) -> None:
        if not 0 <= self.wait_min_s <= self.wait_max_s:
            raise ScenarioError("carrier-sense wait window is inverted")
        if not 0 < self.standby_min_s <= self.standby_max_s:
            raise ScenarioError("standby timeout window is inverted")
        if self.queue_capacity < 1:
            raise ScenarioError("queue capacity must be at least one packet")
        if self.dedup_capacity < 1 or self.dedup_ttl_s <= 0:
            raise ScenarioError("dedup cache needs positive ttl and capacity")


@dataclass(frozen=True)
class PhaseWindows:
    """Learning-phase schedule: beacons, reports, dissemination, switch."""

    beacon_end_s: float = 30.0
    report_end_s: float = 120.0
    dissemination_end_s: float = 180.0
    beacon_rounds: int = 3
    chunk_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.beacon_end_s < self.report_end_s < self.dissemination_end_s:
            raise ScenarioError("phase windows must be increasing and positive")
        if self.beacon_rounds < 1 or self.chunk_rounds < 1:
            raise ScenarioError("beacon and chunk rounds must be at least 1")


@dataclass
class Scenario:
    name: str
    topology: Topology
    radio: RadioConfig
    energy: EnergyModel
    traffic: TrafficSpec
    mac: MacParams
    phases: PhaseWindows
    protocol: str = "routing"
    seed: int = 1
    horizon_s: float | None = None
    standby_enabled: bool = True
    learning_phase: bool = False
    gateway_capacity_mah: float | None = None
    ed_capacity_mah: float | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ScenarioError("horizon must be positive when given")
        if self.traffic.total_packets > 0 or self.traffic.schedule:
            if not self.topology.end_devices:
                raise ScenarioError("traffic requested but the topology has no end devices")
        for uid in sorted(self.traffic.schedule):
            if uid not in self.topology.end_devices:
                raise ScenarioError(f"traffic schedule names node {uid}, which is not an end device")


def _number(value, key: str) -> float:
    """``float(value)``, rejecting NaN and the infinities JSON readers accept."""
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    return number


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return data[key]


def topology_from_dict(data: dict) -> Topology:
    pl = data.get("path_loss", {})
    try:
        model = PathLossModel(
            ref_distance_m=_number(pl.get("ref_distance_m", 1.0), "ref_distance_m"),
            ref_loss_db=_number(pl.get("ref_loss_db", 40.0), "ref_loss_db"),
            exponent=_number(pl.get("exponent", 2.5), "exponent"),
            shadowing_sigma_db=_number(pl.get("shadowing_sigma_db", 0.0), "shadowing_sigma_db"),
        )
    except ValueError as exc:
        raise ScenarioError(f"path loss model: {exc}") from exc
    links = LinkModel(
        path_loss_model=model,
        sensitivity_dbm=_number(
            data.get("sensitivity_dbm", DEFAULT_SENSITIVITY_DBM), "sensitivity_dbm"
        ),
        capture_threshold_db=_number(
            data.get("capture_threshold_db", DEFAULT_CAPTURE_DB), "capture_threshold_db"
        ),
    )
    nodes = []
    for item in _require(data, "nodes", "topology"):
        try:
            nodes.append(
                NodeSpec(
                    uid=int(item["uid"]),
                    role=str(item["role"]),
                    attach=int(item["attach"]) if "attach" in item and item["attach"] is not None else None,
                    label=item.get("label"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed node entry {item!r}: {exc}") from exc
    for item in _require(data, "links", "topology"):
        try:
            distance = _number(item["distance_m"], "distance_m")
            links.add_link(int(item["a"]), int(item["b"]), distance)
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed link entry {item!r}: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return Topology(nodes, links)


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build and validate a scenario; any malformed value raises ScenarioError."""
    try:
        return _scenario_from_dict(data, base_dir)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc


def _scenario_from_dict(data: dict, base_dir: Path | None) -> Scenario:
    name = str(data.get("name", "unnamed"))
    if "topology" in data:
        topo_data = data["topology"]
    elif "topology_file" in data:
        path = Path(data["topology_file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            topo_data = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read topology file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"topology file {path} is not valid JSON: {exc}") from exc
    else:
        raise ScenarioError("scenario needs either 'topology' or 'topology_file'")
    topology = topology_from_dict(topo_data)

    radio_data = data.get("radio", {})
    try:
        radio = RadioConfig(
            spreading_factor=int(radio_data.get("spreading_factor", 7)),
            bandwidth_hz=int(radio_data.get("bandwidth_hz", 500_000)),
            coding_rate_denominator=int(radio_data.get("coding_rate_denominator", 5)),
            preamble_symbols=int(radio_data.get("preamble_symbols", 8)),
            explicit_header=bool(radio_data.get("explicit_header", True)),
            crc_on=bool(radio_data.get("crc_on", True)),
            tx_power_dbm=_number(radio_data.get("tx_power_dbm", 14.0), "tx_power_dbm"),
        )
    except ValueError as exc:
        raise ScenarioError(f"radio config: {exc}") from exc

    energy_data = data.get("energy", {})
    try:
        energy = EnergyModel(
            battery_capacity_mah=_number(
                energy_data.get("battery_capacity_mah", 100.0), "battery_capacity_mah"
            ),
            i_tx_ma=_number(energy_data.get("i_tx_ma", 500.0), "i_tx_ma"),
            i_rx_ma=_number(energy_data.get("i_rx_ma", 50.0), "i_rx_ma"),
            i_idle_ma=_number(energy_data.get("i_idle_ma", 1.0), "i_idle_ma"),
        )
    except ValueError as exc:
        raise ScenarioError(f"energy model: {exc}") from exc

    traffic_data = data.get("traffic", {})
    schedule: dict[int, tuple[float, ...]] = {}
    for uid, times in traffic_data.get("schedule", {}).items():
        schedule[int(uid)] = tuple(_number(t, "scripted time") for t in times)
    traffic = TrafficSpec(
        mean_interval_s=_number(traffic_data.get("mean_interval_s", 2.0), "mean_interval_s"),
        payload_bytes=int(traffic_data.get("payload_bytes", 20)),
        total_packets=int(traffic_data.get("total_packets", 0)),
        start_s=_number(traffic_data.get("start_s", 0.0), "start_s"),
        schedule=schedule,
    )

    mac_data = data.get("mac", {})
    mac = MacParams(
        wait_min_s=_number(mac_data.get("wait_min_s", 0.010), "wait_min_s"),
        wait_max_s=_number(mac_data.get("wait_max_s", 0.100), "wait_max_s"),
        standby_min_s=_number(mac_data.get("standby_min_s", 0.150), "standby_min_s"),
        standby_max_s=_number(mac_data.get("standby_max_s", 0.400), "standby_max_s"),
        queue_capacity=int(mac_data.get("queue_capacity", 512)),
        dedup_ttl_s=_number(mac_data.get("dedup_ttl_s", 60.0), "dedup_ttl_s"),
        dedup_capacity=int(mac_data.get("dedup_capacity", 4096)),
    )

    phase_data = data.get("phases", {})
    phases = PhaseWindows(
        beacon_end_s=_number(phase_data.get("beacon_end_s", 30.0), "beacon_end_s"),
        report_end_s=_number(phase_data.get("report_end_s", 120.0), "report_end_s"),
        dissemination_end_s=_number(
            phase_data.get("dissemination_end_s", 180.0), "dissemination_end_s"
        ),
        beacon_rounds=int(phase_data.get("beacon_rounds", 3)),
        chunk_rounds=int(phase_data.get("chunk_rounds", 3)),
    )

    horizon = data.get("horizon_s")
    scenario = Scenario(
        name=name,
        topology=topology,
        radio=radio,
        energy=energy,
        traffic=traffic,
        mac=mac,
        phases=phases,
        protocol=str(data.get("protocol", "routing")),
        seed=int(data.get("seed", 1)),
        horizon_s=_number(horizon, "horizon_s") if horizon is not None else None,
        standby_enabled=bool(data.get("standby_enabled", True)),
        learning_phase=bool(data.get("learning_phase", False)),
        gateway_capacity_mah=(
            _number(energy_data["gateway_capacity_mah"], "gateway_capacity_mah")
            if "gateway_capacity_mah" in energy_data
            else None
        ),
        ed_capacity_mah=(
            _number(energy_data["ed_capacity_mah"], "ed_capacity_mah")
            if "ed_capacity_mah" in energy_data
            else None
        ),
    )
    return scenario


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a file path or a bundled name.

    Bundled scenarios resolve by bare name ("representative") from the
    package data directory; anything containing a path separator or an
    extension is treated as a file path.
    """
    text_name = str(source)
    if "/" not in text_name and not text_name.endswith(".json"):
        try:
            text = (
                resources.files("loramesh").joinpath("data", f"{text_name}.json").read_text()
            )
        except (FileNotFoundError, ModuleNotFoundError) as exc:
            raise ScenarioError(f"no bundled scenario named {text_name!r}") from exc
        base_dir = None
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        base_dir = path.parent
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data, base_dir)


def bundled_scenario_names() -> list[str]:
    names = []
    for entry in resources.files("loramesh").joinpath("data").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)
