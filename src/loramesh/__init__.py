"""Discrete-event simulator and protocol library for underground LoRa mesh networks.

The package models a two-tier network: battery powered sensor end
devices talk to nearby repeaters over one channel, and the repeaters
relay traffic to surface gateways over another. Two relay protocols are
provided behind one MAC and radio model: naive flooding, and
position-aware source routing with standby repeaters and battery-level
route switching. A deterministic engine makes every run reproducible
from (scenario, seed) alone.
"""

from .channel import LinkModel, PathLossModel, captures
from .energy import EnergyLedger
from .engine import EventQueue, RngStreams
from .learning import NeighborTable, estimate_distance
from .model import EnergyModel, Packet, RadioConfig, airtime
from .planner import GlobalGraph, PlannerError, plan, plan_from_topology
from .scenario import Scenario, ScenarioError, Topology, load_scenario
from .simulation import RunResult, Simulation

__version__ = "0.1.0"

__all__ = [
    "EnergyLedger",
    "EnergyModel",
    "EventQueue",
    "GlobalGraph",
    "LinkModel",
    "NeighborTable",
    "Packet",
    "PathLossModel",
    "PlannerError",
    "RadioConfig",
    "RngStreams",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "Topology",
    "airtime",
    "captures",
    "estimate_distance",
    "load_scenario",
    "plan",
    "plan_from_topology",
    "__version__",
]
