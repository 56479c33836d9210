"""Run metrics derived purely from the event stream.

The builder reconstructs everything reported about a run from the event
tuples the simulation emits, in emission order: delivery and loss
accounting, latency statistics, per-node duty cycle, and the energy
ledger per node. A live simulation hands these ledgers to its nodes and
bills them itself, where energy is spent (each decoded or collided frame
at its end, each own transmission just before ``TX_END``), so the
battery levels the protocol acts on are the ones reported. Everything
else is derived by ``account``, once per batch of events, just before
the trace writer packs that batch; nothing in it depends on where the
batches split, and nothing in it reads a ledger. So the identical
metrics can be rebuilt from an exported trace alone, which is also how
the trace format is validated: ``recompute_from_trace`` runs the live
run's batch path, billing each batch's charge windows (``t - dur`` to
``t``) in order, then accounting the batch and packing it for the digest.
"""

from __future__ import annotations

import csv
import math

from . import trace as tr
from .energy import EnergyLedger
from .scenario import END_DEVICE, GATEWAY, REPEATER, Scenario

class MetricsBuilder:
    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        topo = scenario.topology
        self.roles = {uid: spec.role for uid, spec in topo.nodes.items()}
        energy = scenario.energy
        # None, for a repeater or an unset role, keeps battery_capacity_mah
        capacity = {GATEWAY: energy.gateway_capacity_mah, END_DEVICE: energy.ed_capacity_mah}
        self.ledgers = {
            uid: EnergyLedger(energy, capacity.get(self.roles[uid])) for uid in sorted(topo.nodes)
        }
        self.generated: dict[int, tuple[float, int]] = {}
        self.delivered: dict[int, float] = {}
        self.ingress_heard: set[int] = set()
        self.tx_s = {uid: 0.0 for uid in self.ledgers}
        self.counts = [0] * len(tr.COUNT_KEYS)

    def account(self, events) -> None:
        """Count a batch of events, in emission order; bills nothing."""
        counts = self.counts
        generated = self.generated
        roles = self.roles
        for t, kind, node, pkt, peer, dur, _ch in events:
            counts[kind] += 1
            if kind == tr.RX_OK:
                gen = generated.get(pkt)
                if gen is not None and gen[1] == peer and roles[node] != END_DEVICE:
                    self.ingress_heard.add(pkt)
            elif kind == tr.TX_END:
                self.tx_s[node] += dur
            elif kind == tr.GENERATED:
                generated[pkt] = (t, node)
            elif kind == tr.DELIVERED:
                if pkt not in self.delivered:
                    self.delivered[pkt] = t

    def finalize(self, end_time: float, trace_digest: str | None = None) -> dict:
        for uid in sorted(self.ledgers):
            self.ledgers[uid].finalize(end_time)

        latencies = sorted(
            (self.delivered[pid] - self.generated[pid][0]) * 1000.0
            for pid in self.delivered
            if pid in self.generated
        )
        latency = None
        if latencies:
            n = len(latencies)
            mid = n // 2
            median = latencies[mid] if n % 2 else (latencies[mid - 1] + latencies[mid]) / 2.0
            p95 = latencies[max(0, math.ceil(0.95 * n) - 1)]
            latency = {"mean": sum(latencies) / n, "median": median, "p95": p95}

        lost = [pid for pid in self.generated if pid not in self.delivered]
        intermediate = sum(pid in self.ingress_heard for pid in lost)
        initial_ed = len(lost) - intermediate

        span = end_time if end_time > 0 else 1.0
        duty = {str(uid): self.tx_s[uid] / span * 100.0 for uid in sorted(self.tx_s)}
        energy = {str(uid): self.ledgers[uid].consumed_mah for uid in sorted(self.ledgers)}
        battery = {str(uid): self.ledgers[uid].level for uid in sorted(self.ledgers)}
        deaths = [
            ledger.death_time for ledger in self.ledgers.values() if ledger.death_time is not None
        ]

        metrics = {
            "scenario": self.scenario.name,
            "protocol": self.scenario.protocol,
            "seed": self.seed,
            "end_time_s": end_time,
            "generated": len(self.generated),
            "delivered": len(self.delivered),
            "pdr": len(self.delivered) / len(self.generated) if self.generated else None,
            "losses": {"initial_ed": initial_ed, "intermediate": intermediate},
            "latency_ms": latency,
            "duty_cycle_pct": duty,
            "energy_mah": energy,
            "battery_level": battery,
            "total_energy_mah": sum(self.ledgers[uid].consumed_mah for uid in self.ledgers),
            "repeater_energy_mah": sum(
                self.ledgers[uid].consumed_mah
                for uid in self.ledgers
                if self.roles[uid] == REPEATER
            ),
            "network_lifetime_s": min(deaths) if deaths else None,
            "throughput": {
                "offered_pkt_per_s": len(self.generated) / span,
                "delivered_pkt_per_s": len(self.delivered) / span,
            },
            "counts": dict(zip(tr.COUNT_KEYS, self.counts)),
        }
        if trace_digest is not None:
            metrics["trace_sha256"] = trace_digest
        return metrics


def _replay(builder: MetricsBuilder, writer: tr.TraceWriter) -> None:
    """Bill the charge windows of the writer's batch in order, then account
    the batch and flush it, as ``Simulation._flush`` does."""
    ledgers = builder.ledgers
    for t, kind, node, _pkt, _peer, dur, _ch in writer.batch:
        if kind in tr.BILLED:
            ledger = ledgers[node]
            ledger.charge(t - dur, t, ledger.tx_rate if kind == tr.TX_END else ledger.rx_rate)
    builder.account(writer.batch)
    writer.flush()


def recompute_from_trace(scenario: Scenario, seed: int, trace_path, end_time: float) -> dict:
    """Rebuild the metrics dict for a finished run from its trace, as
    ``read_records`` reads it; raises ``TraceFormatError`` where that does
    and at a node or a set peer the scenario lacks.

    Matches the live run byte for byte when serialized with sorted keys,
    digest included: the same windows are billed in the same order, and
    neither accounting nor packing depends on where batches split.
    """
    builder = MetricsBuilder(scenario, seed)
    writer = tr.TraceWriter()
    batch, roles = writer.batch, builder.roles
    for lineno, ev in enumerate(tr.read_records(trace_path), 2):
        node, peer = ev[tr.NODE], ev[tr.PEER]
        if node not in roles or (peer not in roles and peer != tr.NONE_INT):
            raise tr.TraceFormatError(
                f"{tr.trace_name(trace_path)}:{lineno}: no node "
                f"{peer if node in roles else node} in {scenario.name!r}"
            )
        batch.append(ev)
        if len(batch) >= tr.BATCH_EVENTS:
            _replay(builder, writer)
    _replay(builder, writer)
    return builder.finalize(end_time, writer.hexdigest())


def write_battery_csv(path, builder: MetricsBuilder) -> None:
    """Level-change history for every node, one row per crossing."""
    rows = []
    for uid in sorted(builder.ledgers):
        for t, level in builder.ledgers[uid].history:
            rows.append((t, uid, level))
    rows.sort(key=lambda r: (r[0], r[1], -r[2]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "uid", "level"])
        for t, uid, level in rows:
            writer.writerow([repr(t), uid, level])
