"""Scenario configuration: deployment, radio, traffic, and run options.

A scenario file is one JSON document embedding (or referencing) the
deployment topology plus every knob a run needs. One reader, ``_build``,
turns each JSON object into its class: each key converts by the type of
the parameter it names, and a key left out keeps the class's default.
Node entries build ``NodeSpec`` and link entries call
``LinkModel.add_link`` through the same reader. Validation happens
eagerly at load: an unknown or missing key, a value of the wrong JSON
type (a flag that is not a boolean, an integer field given 7.9), a
number that is not finite and each class's own checks raise
``ScenarioError``, which the command line maps onto the configuration
exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .channel import LinkModel, PathLossModel
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
    topology: Topology
    radio: RadioConfig
    energy: EnergyModel
    traffic: TrafficSpec
    mac: MacParams
    phases: PhaseWindows
    name: str = "unnamed"
    protocol: str = "routing"
    seed: int = 1
    horizon_s: float | None = None
    standby_enabled: bool = True
    learning_phase: bool = False

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


# Each conversion names the key only when it refuses a value, so a large
# topology formats no message it does not print.
_FLOAT_MAX = sys.float_info.max


def _number(value, section: str, key: str) -> float:
    """A JSON number as a float; NaN, the infinities JSON readers accept and
    integers too large for a float are refused."""
    if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise ScenarioError(f"{section}: {key} must be a finite number, got {value!r}")


def _integer(value, section: str, key: str) -> int:
    """A JSON integer; an integral float such as ``6.0`` is accepted too. As
    ``_number`` does, it refuses an integer too large for a float."""
    if type(value) is int or type(value) is float and value.is_integer():
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return int(value)
        raise ScenarioError(f"{section}: {key} must be a finite number, got {value!r}")
    raise ScenarioError(f"{section}: {key} must be an integer, got {value!r}")


def _flag(value, section: str, key: str) -> bool:
    if type(value) is bool:
        return value
    raise ScenarioError(f"{section}: {key} must be true or false, got {value!r}")


def _text(value, section: str, key: str) -> str:
    if type(value) is str:
        return value
    raise ScenarioError(f"{section}: {key} must be a string, got {value!r}")


def _array(value, section: str, key: str) -> list:
    if type(value) is list:
        return value
    raise ScenarioError(f"{section}: {key} must be a JSON array, got {type(value).__name__}")


def _schedule(value, section: str, key: str) -> dict[int, tuple[float, ...]]:
    """Scripted uplink times per end device: an object whose keys are uids
    in canonical decimal form (ASCII digits, no sign, spaces, underscores
    or leading zeros) and whose values are arrays of times. A key longer
    than any uid below ``UID_LIMIT`` is refused before it is converted."""
    schedule = {}
    digits = len(str(UID_LIMIT))
    for uid, times in _object(value, f"{section}: {key}").items():
        if not (len(uid) <= digits and uid.isascii() and uid.isdigit() and str(int(uid)) == uid):
            raise ScenarioError(f"{section}: {key} key {uid!r} is not a node uid")
        times = _array(times, section, f"{key} of {uid}")
        schedule[int(uid)] = tuple(_number(t, section, f"{key} time") for t in times)
    return schedule


# The conversion for each field annotation a JSON value can set, and the
# one JSON type, if any, that conversion passes unchanged. Every module here
# postpones annotations, so an annotation is its source text.
_CONVERSIONS = {
    "float": (_number, None),
    "int": (_integer, None),
    "bool": (_flag, bool),
    "str": (_text, str),
    "dict[int, tuple[float, ...]]": (_schedule, None),
}


@functools.cache
def _settable(cls) -> tuple[dict[str, tuple], tuple[str, ...]]:
    """Each parameter of ``cls`` a JSON value can set, as (its name, conversion, the
    type passed unchanged, whether null is allowed), and those without a default.

    The name is the signature's own string: keyword binding matches it by
    identity, while a key read from JSON must be compared as text.
    """
    table = {}
    required = []
    for name, param in inspect.signature(cls).parameters.items():
        kind = param.annotation
        if not isinstance(kind, str):
            continue  # ``self`` of a function such as ``LinkModel.add_link``
        optional = kind.endswith(" | None")
        conversion = _CONVERSIONS.get(kind.removesuffix(" | None"))
        if conversion is not None:
            table[name] = (name, *conversion, optional)
            if param.default is param.empty:
                required.append(name)
    return table, tuple(required)


def _object(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{section}: expected a JSON object, got {type(value).__name__}")
    return value


def _values(cls, data, section: str) -> dict:
    """Each key of the JSON object ``data`` converted by the annotation of
    the parameter of ``cls`` it names; one naming no such parameter is
    unknown, and one without a default must be given."""
    settable, required = _settable(cls)
    values = {}
    for key, value in _object(data, section).items():
        entry = settable.get(key)
        if entry is None:
            raise ScenarioError(f"{section}: unknown key {key!r}")
        name, convert, exact, optional = entry
        if type(value) is not exact:
            value = None if value is None and optional else convert(value, section, key)
        values[name] = value
    for key in required:
        if key not in values:
            raise ScenarioError(f"{section}: missing required key {key!r}")
    return values


def _build(cls, data, section: str, **given):
    """``cls`` from one JSON object of the scenario file.

    A key the object leaves out keeps the default ``cls`` declares, so
    each default is written once, on the class. ``given`` holds the
    parameters that other code reads, and a ``ValueError`` the class
    raises becomes a ``ScenarioError`` that names the section.
    """
    values = _values(cls, data, section)
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _read_json(path: Path, what: str):
    """One JSON file; one that cannot be read or parsed raises ScenarioError naming it."""
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: {what} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # json refuses an integer literal longer than Python converts
        raise ScenarioError(f"{path}: {what} holds an integer too long to read: {exc}") from exc
    except RecursionError:
        raise ScenarioError(f"{path}: {what} nests arrays or objects too deeply to read") from None


def topology_from_dict(data: dict) -> Topology:
    data = dict(_object(data, "topology"))
    try:
        node_items, link_items = data.pop("nodes"), data.pop("links")
    except KeyError as exc:
        raise ScenarioError(f"topology: missing required key {exc}") from None
    path_loss = _build(PathLossModel, data.pop("path_loss", {}), "path_loss")
    links = _build(LinkModel, data, "topology", path_loss_model=path_loss)
    # Entries are read by _values alone: NodeSpec raises nothing, and a
    # positional add_link call binds faster than _build's keywords, which a
    # large topology's load time shows. add_link's errors get the entry here.
    nodes = [
        NodeSpec(**_values(NodeSpec, item, f"nodes[{i}]"))
        for i, item in enumerate(_array(node_items, "topology", "nodes"))
    ]
    for i, item in enumerate(_array(link_items, "topology", "links")):
        link = _values(LinkModel.add_link, item, f"links[{i}]")
        try:
            links.add_link(link["a"], link["b"], link["distance_m"])
        except ValueError as exc:
            raise ScenarioError(f"links[{i}]: {exc}") from exc
    return Topology(nodes, links)


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build and validate a scenario; any malformed value raises ScenarioError."""
    try:
        return _scenario_from_dict(data, base_dir)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc


def _scenario_from_dict(data: dict, base_dir: Path | None) -> Scenario:
    data = dict(_object(data, "scenario"))
    if "topology" in data:
        topo_data = data.pop("topology")
    elif "topology_file" in data:
        path = Path(data.pop("topology_file"))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        topo_data = _read_json(path, "topology file")
    else:
        raise ScenarioError("scenario needs either 'topology' or 'topology_file'")
    sections = {
        "topology": topology_from_dict(topo_data),
        "radio": _build(RadioConfig, data.pop("radio", {}), "radio"),
        "energy": _build(EnergyModel, data.pop("energy", {}), "energy"),
        "traffic": _build(TrafficSpec, data.pop("traffic", {}), "traffic"),
        "mac": _build(MacParams, data.pop("mac", {}), "mac"),
        "phases": _build(PhaseWindows, data.pop("phases", {}), "phases"),
    }
    return _build(Scenario, data, "scenario", **sections)


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a file path or a bundled name.

    Bundled scenarios resolve by bare name ("representative") from the
    package data directory; anything containing a path separator or an
    extension is treated as a file path.
    """
    text_name = str(source)
    if "/" not in text_name and not text_name.endswith(".json"):
        try:
            text = resources.files("loramesh").joinpath("data", f"{text_name}.json").read_text()
        except FileNotFoundError as exc:
            raise ScenarioError(f"no bundled scenario named {text_name!r}") from exc
        return scenario_from_dict(json.loads(text))
    path = Path(source)
    return scenario_from_dict(_read_json(path, "scenario"), path.parent)


def bundled_scenario_names() -> list[str]:
    names = []
    for entry in resources.files("loramesh").joinpath("data").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)
