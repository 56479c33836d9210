import pytest
from hypothesis import given, strategies as st

from loramesh.channel import (
    LinkModel,
    PathLossModel,
    captures,
    path_loss,
    received_power,
)


def test_path_loss_reference_points():
    m = PathLossModel()
    assert path_loss(m, 1.0) == pytest.approx(40.0)
    assert path_loss(m, 10.0) == pytest.approx(65.0)
    assert path_loss(m, 100.0) == pytest.approx(90.0)


def test_path_loss_clamps_inside_reference():
    m = PathLossModel()
    assert path_loss(m, 0.01) == pytest.approx(40.0)


def test_received_power_at_100m():
    m = PathLossModel()
    assert received_power(14.0, m, 100.0) == pytest.approx(-76.0)


def test_path_loss_shadow_term_adds():
    m = PathLossModel(shadowing_sigma_db=4.0)
    assert path_loss(m, 100.0, shadow_db=3.5) == pytest.approx(93.5)


def test_path_loss_model_validation():
    with pytest.raises(ValueError):
        PathLossModel(ref_distance_m=0.0)
    with pytest.raises(ValueError):
        PathLossModel(exponent=-1.0)
    with pytest.raises(ValueError):
        PathLossModel(shadowing_sigma_db=-0.1)


@given(st.floats(min_value=1.0, max_value=1e4), st.floats(min_value=1.0, max_value=1e4))
def test_path_loss_monotonic(d1, d2):
    m = PathLossModel()
    if d1 <= d2:
        assert path_loss(m, d1) <= path_loss(m, d2)
    else:
        assert path_loss(m, d1) >= path_loss(m, d2)


def test_link_model_symmetry_and_absence():
    lm = LinkModel()
    lm.add_link(1, 2, 80.0)
    assert lm.distance(1, 2) == 80.0
    assert lm.distance(2, 1) == 80.0
    assert lm.distance(1, 3) is None
    assert lm.neighbors(1) == [2]
    assert lm.neighbors(3) == []
    # an unlinked pair is not on the audibility map at all
    assert [(a, b) for a, b, _p in lm.hearing(14.0, 1)] == [(1, 2)]


def test_link_model_rejects_bad_links():
    lm = LinkModel()
    with pytest.raises(ValueError):
        lm.add_link(1, 1, 10.0)
    with pytest.raises(ValueError):
        lm.add_link(1, 2, 0.0)
    lm.add_link(1, 2, 10.0)
    with pytest.raises(ValueError):
        lm.add_link(2, 1, 11.0)  # duplicate regardless of orientation


def test_reception_outcome_sensitivity_floor():
    # the audibility map is reception's sensitivity floor: 90 dB of loss
    # at 100 m, so -26 dBm arrives at exactly -116 dBm and is audible
    lm = LinkModel()
    lm.add_link(1, 2, 100.0)
    assert lm.hearing(-26.0, 1) == [(1, 2, -116.0)]
    assert lm.hearing(-26.01, 1) == [(1, 2, None)]


def test_hearing_keeps_link_order_and_powers():
    lm = LinkModel()
    lm.add_link(3, 1, 100.0)
    lm.add_link(1, 2, 10.0)
    assert lm.hearing(14.0, 1) == [(1, 2, pytest.approx(-51.0)), (1, 3, pytest.approx(-76.0))]


def test_reception_outcome_capture_boundary():
    # margin of exactly the threshold survives, a hair less does not
    assert captures(-70.0, -76.0, 6.0)
    assert not captures(-70.0, -75.99, 6.0)
    assert captures(-70.0, None, 6.0)


def test_reception_outcome_single_arrival():
    assert captures(-80.0, None, 6.0)


def test_reception_outcome_capture_and_losers():
    # three overlapping frames at -70, -76 and -90 dBm: each is judged
    # against the strongest of the others, so only the -70 frame survives
    assert captures(-70.0, -76.0, 6.0)
    assert not captures(-76.0, -70.0, 6.0)
    assert not captures(-90.0, -70.0, 6.0)


def test_reception_outcome_mutual_destruction():
    # 1 dB apart: neither frame clears the margin over the other
    assert not captures(-70.0, -71.0, 6.0)
    assert not captures(-71.0, -70.0, 6.0)


def test_reception_outcome_subsensitivity_rival_is_not_interference():
    # A -117 dBm rival is below the -116 dBm floor, so the map leaves it
    # out and capture sees no rival for the -112 dBm frame; counting the
    # rival would have collided it (5 dB < 6 dB).
    lm = LinkModel()
    lm.add_link(0, 1, 100.0)
    assert lm.hearing(-27.0, 1) == [(0, 1, None)]
    assert captures(-112.0, None, 6.0)
    assert not captures(-112.0, -117.0, 6.0)
