import pytest
from hypothesis import example, given, strategies as st

from loramesh.energy import EnergyLedger
from loramesh.model import EnergyModel, quantize_battery
from reference import EveryChargeLedger


def make_ledger(capacity=100.0, i_tx=500.0, i_rx=50.0, i_idle=1.0):
    model = EnergyModel(
        battery_capacity_mah=capacity, i_tx_ma=i_tx, i_rx_ma=i_rx, i_idle_ma=i_idle
    )
    return EnergyLedger(model)


def test_single_tx_charge():
    led = make_ledger()
    led.charge_tx(0.0, 0.014144)
    # 14.144 ms at 500 mA
    assert led.consumed_mah == pytest.approx(0.014144 * 500.0 / 3600.0, rel=1e-12)
    assert led.consumed_mah == pytest.approx(0.00196444444, rel=1e-6)


def test_idle_fills_gaps():
    led = make_ledger()
    led.charge_tx(10.0, 10.5)
    led.finalize(20.0)
    expected = (19.5 * 1.0 + 0.5 * 500.0) / 3600.0
    assert led.consumed_mah == pytest.approx(expected, rel=1e-12)


def test_overlapping_rx_windows_union_merge():
    led = make_ledger(i_idle=0.0)
    led.charge_rx(1.0, 2.0)
    led.charge_rx(1.5, 2.5)  # overlaps by 0.5
    led.charge_rx(2.5, 3.0)  # back to back
    assert led.consumed_mah == pytest.approx(2.0 * 50.0 / 3600.0, rel=1e-12)


def test_rx_window_fully_covered_is_free():
    led = make_ledger(i_idle=0.0)
    led.charge_rx(1.0, 3.0)
    led.charge_rx(1.2, 2.8)
    assert led.consumed_mah == pytest.approx(2.0 * 50.0 / 3600.0, rel=1e-12)


def test_transmission_follows_the_same_merge_rule():
    led = make_ledger(i_idle=0.0)
    led.charge_rx(1.0, 2.0)
    led.charge_tx(1.5, 2.5)  # only the part after the billed window
    assert led.consumed_mah == pytest.approx((1.0 * 50.0 + 0.5 * 500.0) / 3600.0, rel=1e-12)


def test_level_quantization_and_history():
    led = make_ledger(capacity=1.0, i_tx=3600.0, i_idle=0.0)
    # 3600 mA drains 1 mAh in exactly 1 s, so each 10 ms is one level.
    # Level 99 is entered the instant any charge leaves a full battery.
    led.charge_tx(0.0, 0.015)
    assert led.level == 98
    times = dict((lvl, t) for t, lvl in led.history)
    assert times[99] == pytest.approx(0.0, abs=1e-12)
    assert times[98] == pytest.approx(0.010)


def test_death_interpolation():
    led = make_ledger(capacity=1.0, i_tx=3600.0, i_idle=0.0)
    led.charge_tx(0.0, 0.9)
    assert not led.dead
    led.charge_tx(2.0, 3.0)  # needs 1.0 s worth, only 0.1 left
    assert led.dead
    assert led.death_time == pytest.approx(2.1)
    assert led.remaining == 0.0
    assert led.level == 0
    assert led.history[-1] == (pytest.approx(2.1), 0)


def test_dead_ledger_ignores_further_charges():
    led = make_ledger(capacity=0.001, i_tx=3600.0, i_idle=0.0)
    led.charge_tx(0.0, 10.0)
    assert led.dead
    death = led.death_time
    led.charge_tx(20.0, 21.0)
    led.finalize(100.0)
    assert led.death_time == death
    assert led.remaining == 0.0


def test_capacity_override():
    model = EnergyModel(battery_capacity_mah=100.0)
    led = EnergyLedger(model, capacity_mah=12.0)
    assert led.capacity == 12.0
    assert led.remaining == 12.0


def test_replay_reproduces_ledger():
    calls = [("tx", 0.1, 0.2), ("rx", 0.5, 0.6), ("rx", 0.55, 0.7), ("tx", 1.0, 1.3)]
    ledgers = []
    for _ in range(2):
        led = make_ledger()
        for kind, t0, t1 in calls:
            (led.charge_tx if kind == "tx" else led.charge_rx)(t0, t1)
        led.finalize(2.0)
        ledgers.append(led)
    a, b = ledgers
    assert a.remaining == b.remaining
    assert a.history == b.history
    assert a.charged_until == b.charged_until


CHARGES = st.lists(
    st.tuples(
        st.sampled_from(("tx", "rx", "finalize")),
        # start relative to the last end: negative overlaps it
        st.floats(min_value=-0.5, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    max_size=60,
)


@given(
    CHARGES,
    st.floats(min_value=0.01, max_value=2.0),
    st.sampled_from((0.0, 1.0, 7.3)),
    st.floats(min_value=1.0, max_value=900.0),
)
# inline receptions, then an idle gap whose window crosses a level
@example([("rx", 0.0, 0.1), ("rx", 1.0, 0.1), ("rx", 2.0, 1.5)], 1.0, 7.3, 360.0)
# inline receptions, then an idle gap that crosses a level by itself
@example([("rx", 0.0, 0.1), ("rx", 1.0, 0.1), ("rx", 3.0, 0.001)], 1.0, 7.3, 360.0)
# a window that ends in death
@example([("rx", 0.0, 0.1), ("rx", 0.5, 5.0), ("rx", 0.5, 1.0)], 0.01, 1.0, 900.0)
# overlapping windows, one inside the last
@example([("rx", 0.0, 1.0), ("rx", -0.5, 1.0), ("rx", -0.2, 0.1), ("rx", -0.1, 3.0)], 2.0, 1.0, 10.0)
def test_level_checked_near_a_boundary_matches_every_charge(charges, capacity, i_idle, i_tx):
    model = EnergyModel(
        battery_capacity_mah=capacity, i_tx_ma=i_tx, i_rx_ma=i_tx / 10.0, i_idle_ma=i_idle
    )
    led = EnergyLedger(model)
    ref = EveryChargeLedger(model)
    clock = 0.0
    for kind, offset, length in charges:
        t0 = max(0.0, clock + offset)
        t1 = t0 + length
        for ledger in (led, ref):
            if kind == "tx":
                ledger.charge_tx(t0, t1)
            elif kind == "rx":
                ledger.charge_rx(t0, t1)
            else:
                ledger.finalize(t1)
        clock = max(clock, t1)
        if not led.dead:
            assert led.level == quantize_battery(led.remaining, led.capacity)
        assert (led.remaining, led.level, led.dead) == (ref.remaining, ref.level, ref.dead)
    assert led.history == ref.history
    assert led.death_time == ref.death_time
    assert led.charged_until == ref.charged_until
