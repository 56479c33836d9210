import pytest
from hypothesis import given, strategies as st

from loramesh.channel import PathLossModel, received_power
from loramesh.learning import (
    DISTANCE_STEP_M,
    NeighborTable,
    build_report_chunks,
    estimate_distance,
    quantize_distance,
)


MODEL = PathLossModel()


def test_estimate_inverts_known_points():
    assert estimate_distance(14.0, -76.0, MODEL) == pytest.approx(100.0, rel=1e-12)
    assert estimate_distance(14.0, -51.0, MODEL) == pytest.approx(10.0, rel=1e-12)


def test_estimate_clamps_inside_reference():
    # loss at or below the floor loss means "at reference distance"
    assert estimate_distance(14.0, -26.0, MODEL) == 1.0
    assert estimate_distance(14.0, 0.0, MODEL) == 1.0


@given(st.floats(min_value=1.0, max_value=5000.0))
def test_estimate_round_trips_the_law(distance):
    prx = received_power(14.0, MODEL, distance)
    est = estimate_distance(14.0, prx, MODEL)
    assert est == pytest.approx(distance, rel=1e-9)


def test_quantize_distance_grid():
    assert quantize_distance(0.0) == 0.0
    # a positive distance is never sent as zero, which the planner refuses
    assert quantize_distance(0.05) == 0.25
    assert quantize_distance(0.125) == 0.25
    assert quantize_distance(100.0) == 100.0
    assert quantize_distance(100.1) == 100.0
    assert quantize_distance(100.2) == 100.25
    assert quantize_distance(99.87) == 99.75
    assert quantize_distance(16383.75) == 16383.75
    assert quantize_distance(16383.9) is None  # beyond the 2-byte field
    with pytest.raises(ValueError):
        quantize_distance(-1.0)


def test_neighbor_table_running_mean():
    table = NeighborTable(model=MODEL, tx_power_dbm=14.0)
    table.record_beacon(2, -70.0)
    table.record_beacon(2, -80.0)
    rec = table.records[2]
    assert rec.samples == 2
    assert rec.avg_prx_dbm == pytest.approx(-75.0)
    assert table.distance(2) == pytest.approx(estimate_distance(14.0, -75.0, MODEL))


def test_neighbor_table_entries_sorted_and_quantized():
    table = NeighborTable(model=MODEL, tx_power_dbm=14.0)
    table.record_beacon(9, -76.0)
    table.record_beacon(2, -51.0)
    entries = table.entries()
    assert [uid for uid, _ in entries] == [2, 9]
    for _, dist in entries:
        steps = dist / DISTANCE_STEP_M
        assert steps == round(steps)


def test_report_chunks_fit_max_payload():
    entries = [(uid, 100.0) for uid in range(62)]
    assert len(build_report_chunks(entries)) == 1
    entries.append((99, 100.0))
    chunks = build_report_chunks(entries)
    assert len(chunks) == 2
    assert len(chunks[0][1]) == 62
    assert len(chunks[1][1]) == 1
    assert [size for size, _entries in chunks] == [4 + 62 * 4, 4 + 4]


def test_report_chunks_empty_still_reports():
    assert build_report_chunks([]) == [(4, [])]
