"""Commutator rank certificates and structural predicates."""
import numpy as np
import pytest

from conftest import H_A3, H_B3, RHO_D2, SX, SY, SZ, qubit, qutrit
from smestab import (
    RankReport,
    kalman_like_rank,
    stochastic_jq_commutators,
    strong_regularity,
)
from smestab.analysis import (
    control_direction,
    iterated_commutators,
    span_rank,
)


def brute_rank(mats):
    rows = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
    return int(np.linalg.matrix_rank(rows, tol=1e-10 * max(1.0, np.abs(rows).max())))


def test_iterated_commutators_by_hand():
    a = -1j * SZ
    b0 = SX.astype(complex)
    mats = iterated_commutators(a, b0, 2)
    assert len(mats) == 3
    np.testing.assert_allclose(mats[0], b0, atol=1e-15)
    np.testing.assert_allclose(mats[1], a @ b0 - b0 @ a, atol=1e-15)
    np.testing.assert_allclose(
        mats[2], a @ mats[1] - mats[1] @ a, atol=1e-15
    )


def test_span_rank_known_families():
    assert span_rank([SX, SY, SZ]) == 3
    assert span_rank([SX, SX, 2.0 * SX]) == 1
    assert span_rank([np.zeros((2, 2), dtype=complex)]) == 0
    rng = np.random.default_rng(80)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(5)]
    assert span_rank(mats) == brute_rank(mats)


def test_control_direction_canonical_qubit():
    model, target = qubit()
    b0 = control_direction(model, target)
    # -i [sx, diag(1, 0)] = -sy
    np.testing.assert_allclose(b0, -SY, atol=1e-14)


def test_kalman_rank_canonical_qubit():
    model, target = qubit()
    rep = kalman_like_rank(model, target)
    assert isinstance(rep, RankReport)
    assert rep.required_rank == 2
    assert rep.achieved_rank == 2
    assert rep.passed
    mats = iterated_commutators(-1j * model.h_a, control_direction(model, target), 1)
    assert brute_rank(mats) == 2


def test_kalman_rank_use_argument():
    model, target = qubit()
    rep = kalman_like_rank(model, target, use="c")
    assert rep.achieved_rank == 2
    with pytest.raises(ValueError, match="use"):
        kalman_like_rank(model, target, use="h_b")


def test_three_level_ranks_are_frozen():
    # the N = 3 chain stalls at 4 of 6: both Kalman-like reports fail while
    # the stochastic two-letter span still covers the drift chain
    model, target = qutrit()
    rep_a = kalman_like_rank(model, target, use="h_a")
    rep_c = kalman_like_rank(model, target, use="c")
    assert (rep_a.achieved_rank, rep_a.required_rank, rep_a.passed) == (4, 6, False)
    assert (rep_c.achieved_rank, rep_c.required_rank, rep_c.passed) == (4, 6, False)
    jq = stochastic_jq_commutators(model, target)
    assert jq.achieved_rank == 4
    assert jq.required_rank == 4
    assert jq.passed


def test_stochastic_span_never_below_drift_chain():
    model, target = qubit()
    rep = stochastic_jq_commutators(model, target)
    assert rep.passed
    with pytest.raises(ValueError, match="depth"):
        stochastic_jq_commutators(model, target, depth=0)


def test_strong_regularity():
    assert strong_regularity(H_A3)  # gaps 1, 2, 3
    assert not strong_regularity(np.diag([0.0, 1.0, 2.0]))  # gap 1 repeats
    assert not strong_regularity(np.diag([0.0, 0.0, 1.0]))
    assert strong_regularity(np.diag([5.0]))
