"""Neighbor discovery bookkeeping: what each repeater learns on its own.

During the beacon phase every repeater accumulates a running mean of the
received power per transmitter. Reading the table inverts the path-loss
law on each mean to estimate link distances, once per read rather than
once per beacon: the estimate is a pure function of the mean, so it is
the same float either way. The estimates travel to the planner inside
neighbor reports whose wire entries quantize distances to a 0.25 m
fixed-point grid; a neighbor estimated beyond that grid's range is left
out of the report, since its distance cannot be sent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import PathLossModel
from .model import FRAME_HEADER, REPORT_ENTRY, pack_frames

# Fixed-point grid for distances on the wire: 2 bytes at 0.25 m per step
# covers 0..16383.75 m, far beyond any underground link budget.
# quantize_distance alone checks that range: a report leaves out a
# neighbor estimated beyond it, and the planner refuses a path beyond it.
DISTANCE_STEP_M = 0.25
MAX_WIRE_DISTANCE_M = 65535 * DISTANCE_STEP_M


def estimate_distance(tx_power_dbm: float, prx_dbm: float, model: PathLossModel) -> float:
    """Invert the log-distance law: received power back to meters.

    Solves Ptx - Prx = L0 + 10*gamma*log10(d/d0) for d. Losses at or
    below the reference loss mean the transmitter is inside the
    calibrated range, so the estimate clamps to the reference distance.
    """
    loss_db = tx_power_dbm - prx_dbm
    excess = loss_db - model.ref_loss_db
    if excess <= 0:
        return model.ref_distance_m
    return model.ref_distance_m * 10.0 ** (excess / (10.0 * model.exponent))


def quantize_distance(distance_m: float) -> float | None:
    """Snap a distance onto the wire grid (nearest 0.25 m step, and at
    least one step when positive, since the planner refuses a zero-length
    hop); None when it is beyond MAX_WIRE_DISTANCE_M, which the 2-byte
    field cannot hold."""
    if distance_m < 0:
        raise ValueError("distance cannot be negative")
    if distance_m > MAX_WIRE_DISTANCE_M:
        return None
    steps = round(distance_m / DISTANCE_STEP_M)
    if steps == 0 and distance_m > 0:
        steps = 1
    return steps * DISTANCE_STEP_M


@dataclass(slots=True)
class NeighborRecord:
    """Running reception statistics for one overheard transmitter."""

    samples: int = 0
    avg_prx_dbm: float = 0.0


class NeighborTable:
    """Per-node view of who is audible and how far away they sit.

    Every neighbor transmits at ``tx_power_dbm``, the power distances are
    estimated against.
    """

    def __init__(self, model: PathLossModel, tx_power_dbm: float) -> None:
        self.model = model
        self.tx_power_dbm = tx_power_dbm
        self.records: dict[int, NeighborRecord] = {}

    def record_beacon(self, tx_uid: int, prx_dbm: float) -> None:
        """Fold one beacon reception into the running per-neighbor mean."""
        rec = self.records.get(tx_uid)
        if rec is None:
            rec = NeighborRecord()
            self.records[tx_uid] = rec
        rec.samples += 1
        rec.avg_prx_dbm += (prx_dbm - rec.avg_prx_dbm) / rec.samples

    def distance(self, uid: int) -> float:
        """Estimated distance to neighbor ``uid`` from its mean received power."""
        return estimate_distance(self.tx_power_dbm, self.records[uid].avg_prx_dbm, self.model)

    def entries(self) -> list[tuple[int, float]]:
        """Quantized (uid, distance) pairs in uid order, ready to send; a
        neighbor estimated beyond the distance field is left out."""
        wire = ((uid, quantize_distance(self.distance(uid))) for uid in sorted(self.records))
        return [(uid, dist) for uid, dist in wire if dist is not None]


def build_report_chunks(
    entries: list[tuple[int, float]],
) -> list[tuple[int, list[tuple[int, float]]]]:
    """Pack neighbor entries into reports: (payload bytes, entries) each.

    Each entry spends REPORT_ENTRY bytes; a node with no audible
    neighbors still emits one empty report so the planner can tell
    silence from loss.
    """
    return pack_frames(entries, lambda _entry: REPORT_ENTRY) or [(FRAME_HEADER, [])]
