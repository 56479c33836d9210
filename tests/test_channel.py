import pytest
from hypothesis import given, strategies as st

from loramesh.channel import (
    RX_BELOW_SENSITIVITY,
    RX_COLLIDED,
    RX_OK,
    LinkModel,
    PathLossModel,
    path_loss,
    received_power,
    reception_outcome,
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
    assert lm.rx_power(1, 3, 14.0) is None
    assert lm.neighbors(1) == [2]
    assert lm.neighbors(3) == []


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
    assert reception_outcome(-116.0, None, -116.0, 6.0) == RX_OK
    assert reception_outcome(-116.01, None, -116.0, 6.0) == RX_BELOW_SENSITIVITY


def test_reception_outcome_capture_boundary():
    # margin of exactly the threshold survives, a hair less does not
    assert reception_outcome(-70.0, -76.0, -116.0, 6.0) == RX_OK
    assert reception_outcome(-70.0, -75.99, -116.0, 6.0) == RX_COLLIDED
    assert reception_outcome(-70.0, None, -116.0, 6.0) == RX_OK


def test_reception_outcome_single_arrival():
    assert reception_outcome(-80.0, None, -116.0, 6.0) == RX_OK


def test_reception_outcome_capture_and_losers():
    # three overlapping frames at -70, -76 and -90 dBm: each is judged
    # against the strongest of the others, so only the -70 frame survives
    assert reception_outcome(-70.0, -76.0, -116.0, 6.0) == RX_OK
    assert reception_outcome(-76.0, -70.0, -116.0, 6.0) == RX_COLLIDED
    assert reception_outcome(-90.0, -70.0, -116.0, 6.0) == RX_COLLIDED


def test_reception_outcome_mutual_destruction():
    # 1 dB apart: neither frame clears the margin over the other
    assert reception_outcome(-70.0, -71.0, -116.0, 6.0) == RX_COLLIDED
    assert reception_outcome(-71.0, -70.0, -116.0, 6.0) == RX_COLLIDED


def test_reception_outcome_subsensitivity_rival_is_not_interference():
    # The caller passes only audible rivals. A -117 dBm rival is below
    # the -116 dBm floor, so the -112 dBm frame sees no rival and is
    # decoded; counting the rival would have collided it (5 dB < 6 dB).
    assert reception_outcome(-112.0, None, -116.0, 6.0) == RX_OK
    assert reception_outcome(-112.0, -117.0, -116.0, 6.0) == RX_COLLIDED
    assert reception_outcome(-117.0, -112.0, -116.0, 6.0) == RX_BELOW_SENSITIVITY
