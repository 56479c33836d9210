"""Per-node battery ledger.

A node is in exactly one of three states at any instant: transmitting,
decoding an audible frame, or idle in low-power channel-activity
detection. The ledger charges each state's current over explicit time
intervals; receive intervals arrive as decoded frame windows and merge
into a union (overlapping arrivals are not double billed), and any gap
in between is billed as idle. Transmit intervals never overlap decode
intervals because a radio that transmits over an incoming frame drops
it entirely.

Charges are applied in event order, so replaying the same intervals in
the same order (for instance from an exported trace) reproduces the
ledger bit for bit, including the interpolated depletion instant.

The level is floor(100 * remaining / capacity), which never rises as
charge is spent, so it is recomputed only once the charge reaches a
bound just above the current level's floor; above that bound the level
cannot have changed, and the levels, history and death instant are the
same as when every charge recomputes it.

Receptions are most charges, so ``charge_rx`` bills the common case
inline: while the charge left after the idle gap and the decoded window
stays above that bound, no level is crossed and nobody dies, and the
two subtractions are made in place in ``_consume``'s order, so every
float is bit-identical. Level crossings and death go through
``_consume``.
"""

from __future__ import annotations

from .model import EnergyModel, quantize_battery

_TX, _RX, _IDLE = 0, 1, 2


class EnergyLedger:
    __slots__ = (
        "capacity",
        "rates",
        "remaining",
        "tx_s",
        "rx_s",
        "idle_s",
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
        # mAh per second, indexed by state
        self.rates = (model.i_tx_ma / 3600.0, model.i_rx_ma / 3600.0, model.i_idle_ma / 3600.0)
        self.remaining = self.capacity
        self.tx_s = 0.0
        self.rx_s = 0.0
        self.idle_s = 0.0
        self.charged_until = 0.0
        self.level = 100
        self.level_floor = self._floor_bound(100)
        self.history: list[tuple[float, int]] = [(0.0, 100)]
        self.dead = False
        self.death_time: float | None = None

    def _consume(self, state: int, duration: float, t_end: float) -> None:
        if self.dead or duration <= 0.0:
            return
        rate = self.rates[state]
        used = rate * duration
        start_remaining = self.remaining
        t_start = t_end - duration
        if used >= start_remaining and rate > 0.0:
            # Interpolate the instant the charge crosses zero.
            alive = start_remaining / used * duration
            if state == _TX:
                self.tx_s += alive
            elif state == _RX:
                self.rx_s += alive
            else:
                self.idle_s += alive
            self._record_crossings(start_remaining, 0.0, t_start, rate)
            self.remaining = 0.0
            self.dead = True
            self.death_time = t_start + alive
            self.level = 0
            self.history.append((self.death_time, 0))
            return
        self.remaining = remaining = start_remaining - used
        if state == _TX:
            self.tx_s += duration
        elif state == _RX:
            self.rx_s += duration
        else:
            self.idle_s += duration
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

    def _fill_idle(self, until: float) -> None:
        if until > self.charged_until:
            self._consume(_IDLE, until - self.charged_until, until)
            self.charged_until = until

    def charge_tx(self, t0: float, t1: float) -> None:
        """Bill one own transmission [t0, t1)."""
        if self.dead:
            return
        self._fill_idle(t0)
        self._consume(_TX, t1 - t0, t1)
        if t1 > self.charged_until:
            self.charged_until = t1

    def charge_rx(self, t0: float, t1: float) -> None:
        """Bill one decoded frame window [t0, t1), merged with prior windows.

        The idle gap and the window are billed inline while the charge
        left stays above ``level_floor``; otherwise through ``_consume``.
        """
        until = self.charged_until
        if self.dead or t1 <= until:
            return
        start = t0 if t0 > until else until
        idle = start - until
        window = t1 - start
        rates = self.rates
        remaining = self.remaining - rates[_IDLE] * idle - rates[_RX] * window
        if remaining > self.level_floor and window > 0.0:
            self.remaining = remaining
            self.idle_s += idle
            self.rx_s += window
        else:
            self._fill_idle(start)
            self._consume(_RX, window, t1)
        self.charged_until = t1

    def finalize(self, t_end: float) -> None:
        """Bill trailing idle time up to the end of the run."""
        if not self.dead:
            self._fill_idle(t_end)

    @property
    def consumed_mah(self) -> float:
        return self.capacity - self.remaining

    def level_at(self, when: float) -> int:
        """Announced level in force at ``when`` (step function lookup)."""
        level = 100
        for t, lvl in self.history:
            if t <= when:
                level = lvl
            else:
                break
        return level
