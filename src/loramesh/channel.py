"""Propagation model, audibility, and the capture rule.

Underground galleries attenuate hard and shadow little, so links follow a
log-distance law with a configurable exponent and (by default) no
shadowing term. Reachability is topology driven: node pairs without an
explicit link never exchange energy, whatever the nominal range.

Who hears whom is decided once per run, by ``LinkModel.hearing``: a
linked pair hears each other when the received power, shadow term
included, is at or above sensitivity. The simulator's hearer rows and
the oracle planner both read that one map, and ``captures`` then only
arbitrates between frames that are already audible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import RngStreams

DEFAULT_SENSITIVITY_DBM = -116.0
DEFAULT_CAPTURE_DB = 6.0


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: L(d) = L0 + 10*gamma*log10(d/d0) + X.

    ``ref_loss_db`` is the mean loss at the reference distance ``d0`` and
    ``exponent`` the environment exponent gamma. ``shadowing_sigma_db``
    is the standard deviation of the optional log-normal term X; zero
    keeps the channel deterministic.
    """

    ref_distance_m: float = 1.0
    ref_loss_db: float = 40.0
    exponent: float = 2.5
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.ref_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if self.exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma cannot be negative")


def path_loss(model: PathLossModel, distance_m: float, shadow_db: float = 0.0) -> float:
    """Mean path loss in dB at ``distance_m`` plus a sampled shadow term.

    Distances inside the reference distance are clamped to it; the law
    is not calibrated below d0, so closer nodes just see the floor loss.
    """
    if distance_m < model.ref_distance_m:
        distance_m = model.ref_distance_m
    return (
        model.ref_loss_db
        + 10.0 * model.exponent * math.log10(distance_m / model.ref_distance_m)
        + shadow_db
    )


def received_power(
    tx_power_dbm: float,
    model: PathLossModel,
    distance_m: float,
    shadow_db: float = 0.0,
) -> float:
    """Received signal strength in dBm over one link."""
    return tx_power_dbm - path_loss(model, distance_m, shadow_db)


class LinkModel:
    """Pairwise reachability and signal strength for one deployment.

    Links are undirected and explicit: ``distance(a, b)`` is ``None`` for
    any pair the deployment file does not connect, and such pairs are
    unconditionally out of range for carrier sensing, reception, and
    interference alike. A linked pair below sensitivity is out of range
    in the same way; ``hearing`` says which linked pairs those are.
    """

    def __init__(
        self,
        path_loss_model: PathLossModel | None = None,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        capture_threshold_db: float = DEFAULT_CAPTURE_DB,
    ) -> None:
        self.path_loss_model = path_loss_model or PathLossModel()
        self.sensitivity_dbm = sensitivity_dbm
        self.capture_threshold_db = capture_threshold_db
        self._distance: dict[tuple[int, int], float] = {}
        self._neighbors: dict[int, list[int]] = {}

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def add_link(self, a: int, b: int, distance_m: float) -> None:
        if a == b:
            raise ValueError(f"node {a} cannot link to itself")
        if distance_m <= 0:
            raise ValueError(f"link {a}-{b} needs a positive distance")
        key = self._key(a, b)
        if key in self._distance:
            raise ValueError(f"duplicate link {a}-{b}")
        self._distance[key] = distance_m
        self._neighbors.setdefault(a, []).append(b)
        self._neighbors.setdefault(b, []).append(a)

    def distance(self, a: int, b: int) -> float | None:
        return self._distance.get(self._key(a, b))

    def neighbors(self, uid: int) -> list[int]:
        return sorted(self._neighbors.get(uid, ()))

    def link_items(self) -> list[tuple[int, int, float]]:
        return sorted((a, b, d) for (a, b), d in self._distance.items())

    def hearing(self, tx_power_dbm: float, seed: int) -> list[tuple[int, int, float | None]]:
        """Every link in ``link_items`` order as (a, b, received power).

        The power is None when it is below sensitivity: such a pair
        neither decodes nor senses the other, and does not interfere.
        Shadowing, if any, is drawn once per undirected link from the
        run's ``(a, "shadow-{b}")`` stream, so both directions agree.
        """
        model = self.path_loss_model
        sigma = model.shadowing_sigma_db
        rng = RngStreams(seed)
        heard = []
        for a, b, d in self.link_items():
            shadow = rng.stream(a, f"shadow-{b}").gauss(0.0, sigma) if sigma > 0 else 0.0
            prx = received_power(tx_power_dbm, model, d, shadow)
            heard.append((a, b, prx if prx >= self.sensitivity_dbm else None))
        return heard


def captures(prx_dbm: float, strongest_interferer_dbm: float | None, capture_threshold_db: float) -> bool:
    """Whether an audible frame survives its worst concurrent rival.

    It does only when it clears the strongest overlapping rival by the
    capture margin for its whole airtime; the caller passes the strongest
    audible rival seen across that window, or None when there was none.
    """
    return (
        strongest_interferer_dbm is None
        or prx_dbm - strongest_interferer_dbm >= capture_threshold_db
    )
