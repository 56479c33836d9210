"""Per-node battery ledger.

A node is in exactly one of three states at any instant: transmitting,
decoding an audible frame, or idle in low-power channel-activity
detection. Every charge is billed by one rule, in ``_charge``: the idle
gap since ``charged_until``, then the part of the charged window after
it at the state's rate. Receive windows that overlap thus merge into a
union (an overlap is not billed twice). A transmission never overlaps a
reception its node was billed for, because a radio that transmits over
an incoming frame drops it unbilled, so transmissions follow the same
rule. ``finalize`` bills the last idle stretch as a zero-length window
at the end of the run.

Charges are applied in event order, so replaying the same windows in
the same order (for instance from an exported trace) reproduces the
ledger bit for bit, including the interpolated depletion instant.

The level is floor(100 * remaining / capacity), which never rises as
charge is spent. ``level_floor`` is a bound just above the current
level's floor: while the charge left after a charge stays above it, the
level cannot have changed and nobody dies, so the common case is two
subtractions made in place. Only a charge that reaches the bound goes
through ``_consume``, which bills the gap and the window in the same
order, records the level crossings and interpolates death, so every
float, level and history point is the same as when every charge
recomputes the level.
"""

from __future__ import annotations

from .model import EnergyModel, quantize_battery


class EnergyLedger:
    __slots__ = (
        "capacity",
        "tx_rate",
        "rx_rate",
        "idle_rate",
        "remaining",
        "charged_until",
        "level",
        "level_floor",
        "history",
        "dead",
        "death_time",
    )

    def __init__(self, model: EnergyModel, capacity_mah: float | None = None) -> None:
        self.capacity = model.battery_capacity_mah if capacity_mah is None else capacity_mah
        if self.capacity <= 0:
            raise ValueError("battery capacity must be positive")
        # mAh per second in each state
        self.tx_rate = model.i_tx_ma / 3600.0
        self.rx_rate = model.i_rx_ma / 3600.0
        self.idle_rate = model.i_idle_ma / 3600.0
        self.remaining = self.capacity
        self.charged_until = 0.0
        self.level = 100
        self.level_floor = self._floor_bound(100)
        self.history: list[tuple[float, int]] = [(0.0, 100)]
        self.dead = False
        self.death_time: float | None = None

    def _charge(self, t0: float, t1: float, rate: float) -> None:
        """Bill the idle gap since ``charged_until``, then [t0, t1) after it at ``rate``."""
        until = self.charged_until
        if self.dead or t1 <= until:
            return
        start = t0 if t0 > until else until
        remaining = self.remaining - self.idle_rate * (start - until) - rate * (t1 - start)
        if remaining > self.level_floor:
            self.remaining = remaining
        else:
            self._consume(self.idle_rate, start - until, start)
            self._consume(rate, t1 - start, t1)
        self.charged_until = t1

    def _consume(self, rate: float, duration: float, t_end: float) -> None:
        if self.dead or duration <= 0.0:
            return
        used = rate * duration
        start_remaining = self.remaining
        t_start = t_end - duration
        if used >= start_remaining and rate > 0.0:
            # Interpolate the instant the charge crosses zero.
            self._record_crossings(start_remaining, 0.0, t_start, rate)
            self.remaining = 0.0
            self.dead = True
            self.death_time = t_start + start_remaining / used * duration
            self.level = 0
            self.history.append((self.death_time, 0))
            return
        self.remaining = remaining = start_remaining - used
        if remaining <= self.level_floor:
            new_level = quantize_battery(remaining, self.capacity)
            if new_level < self.level:
                self._record_crossings(start_remaining, remaining, t_start, rate)
                self.level = new_level
                self.level_floor = self._floor_bound(new_level)

    def _floor_bound(self, level: int) -> float:
        """Remaining charge above which ``quantize_battery`` still reads ``level``.

        The relative margin dwarfs the rounding of the level formula, so
        the bound errs high and a crossing is never skipped.
        """
        return level * self.capacity / 100 * (1 + 1e-9)

    def _record_crossings(self, r_start: float, r_end: float, t_start: float, rate: float) -> None:
        """History points at the exact instants levels were entered.

        Within one charged interval the drain is linear, so each level
        boundary crossed maps to a closed-form timestamp; recording them
        here instead of at the charge call keeps long idle stretches
        from bunching their level drops at the interval's end.
        """
        level_start = quantize_battery(r_start, self.capacity)
        level_end = quantize_battery(r_end, self.capacity)
        step = self.capacity / 100.0
        for k in range(level_start - 1, level_end - 1, -1):
            threshold = (k + 1) * step
            self.history.append((t_start + (r_start - threshold) / rate, k))

    def charge_tx(self, t0: float, t1: float) -> None:
        """Bill one own transmission [t0, t1)."""
        self._charge(t0, t1, self.tx_rate)

    def charge_rx(self, t0: float, t1: float) -> None:
        """Bill one decoded frame window [t0, t1), merged with prior windows."""
        self._charge(t0, t1, self.rx_rate)

    def finalize(self, t_end: float) -> None:
        """Bill trailing idle time up to the end of the run."""
        self._charge(t_end, t_end, self.idle_rate)

    @property
    def consumed_mah(self) -> float:
        return self.capacity - self.remaining
