import math

import pytest
from hypothesis import given, strategies as st

from loramesh.learning import build_report_chunks
from loramesh.model import (
    MAX_PAYLOAD_BYTES,
    Packet,
    RadioConfig,
    airtime,
    pack_frames,
    quantize_battery,
    table_row_bytes,
)


def reference_airtime(sf, bw, cr_denom, preamble, payload, crc=True, explicit=True):
    """Straight transcription of the transceiver datasheet timing formula."""
    t_sym = (2.0**sf) / bw
    t_preamble = (preamble + 4.25) * t_sym
    h = 0 if explicit else 1
    crc_bits = 16 if crc else 0
    numerator = 8 * payload - 4 * sf + 28 + crc_bits - 20 * h
    n_payload = 8 + max(math.ceil(numerator / (4 * sf)) * (cr_denom - 4 + 4), 0)
    return t_preamble + n_payload * t_sym


def test_airtime_default_frame():
    cfg = RadioConfig()
    # 20-byte frame at SF7 / 500 kHz / 4-5 coding: 43 symbols, 14.144 ms
    assert airtime(cfg, 20) == pytest.approx(0.014144, abs=1e-12)


def test_airtime_small_frames():
    cfg = RadioConfig()
    assert airtime(cfg, 12) == pytest.approx(0.010304, abs=1e-12)
    assert airtime(cfg, 8) == pytest.approx(0.009024, abs=1e-12)


def test_airtime_matches_reference_sweep():
    for sf in range(7, 13):
        for bw in (125_000, 250_000, 500_000):
            for cr in (5, 6, 7, 8):
                cfg = RadioConfig(
                    spreading_factor=sf, bandwidth_hz=bw, coding_rate_denominator=cr
                )
                for payload in range(1, 65):
                    expected = reference_airtime(sf, bw, cr, 8, payload)
                    assert airtime(cfg, payload) == pytest.approx(expected, rel=1e-12), (
                        sf,
                        bw,
                        cr,
                        payload,
                    )


@given(
    payload=st.integers(min_value=1, max_value=254),
    sf=st.integers(min_value=7, max_value=12),
)
def test_airtime_monotonic_in_payload(payload, sf):
    cfg = RadioConfig(spreading_factor=sf)
    assert airtime(cfg, payload + 1) >= airtime(cfg, payload)


def test_airtime_rejects_bad_payload():
    cfg = RadioConfig()
    with pytest.raises(ValueError):
        airtime(cfg, 0)
    with pytest.raises(ValueError):
        airtime(cfg, MAX_PAYLOAD_BYTES + 1)


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(spreading_factor=6)
    with pytest.raises(ValueError):
        RadioConfig(bandwidth_hz=0)
    with pytest.raises(ValueError):
        RadioConfig(coding_rate_denominator=9)


def test_quantize_battery():
    assert quantize_battery(100.0, 100.0) == 100
    assert quantize_battery(101.0, 100.0) == 100
    assert quantize_battery(99.9, 100.0) == 99
    assert quantize_battery(0.5, 100.0) == 0
    assert quantize_battery(0.0, 100.0) == 0


def test_payload_size_helpers():
    assert build_report_chunks([])[0][0] == 4
    assert build_report_chunks([(uid, 1.0) for uid in range(10)])[0][0] == 44
    assert table_row_bytes(0) == 7
    assert table_row_bytes(3) == 13
    # a chunk row is (uid, distance value, upstream, downstream set)
    rows = [(1, 0.0, None, ()), (2, 1.0, 1, (3, 4))]
    assert pack_frames(rows, lambda row: table_row_bytes(len(row[3]))) == [(4 + 7 + 11, rows)]


def test_packet_rehop_keeps_identity():
    p = Packet(7, 1, origin=42, next_hop=None, payload_bytes=20)
    q = p.rehop(next_hop=9, battery_level=80)
    assert q.packet_id == 7
    assert q.origin == 42
    assert q.next_hop == 9
    assert q.battery_level == 80
    assert q.payload_bytes == 20
    # original untouched
    assert (p.next_hop, p.battery_level) == (None, None)
