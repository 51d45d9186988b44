"""Commutator rank certificates and structural predicates."""
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import H_A3, H_B3, RHO_D2, SX, SY, SZ, qubit, qutrit, random_model
from smestab import ModelSpec, TargetSpec
from smestab.cli import main
from smestab.analysis import (
    RankReport,
    control_direction,
    iterated_commutators,
    kalman_like_rank,
    span_rank,
    stochastic_jq_commutators,
    strong_regularity,
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


def test_a_negative_depth_is_refused(capsys):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        iterated_commutators(-1j * SZ, SX, -1)
    path = Path(__file__).resolve().parents[1] / "configs" / "qubit.json"
    assert main(["rankcheck", "--config", str(path), "--depth", "-1"]) == 2
    assert capsys.readouterr().err == "error: depth must be nonnegative\n"


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
    assert strong_regularity(np.diagonal(H_A3).real)  # gaps 1, 2, 3
    assert not strong_regularity([2.0, 0.0, 1.0])  # gap 1 repeats, in any order
    assert not strong_regularity([0.0, 0.0, 1.0])
    assert strong_regularity([5.0])


def separated_gaps(rng, n):
    """n - 1 signed gaps, |g| in (0.1, 3) and pairwise at least 0.1 apart."""
    while True:
        g = rng.uniform(0.1, 3.0, n - 1)
        if np.all(np.diff(np.sort(g)) >= 0.1):
            return g * rng.choice([-1.0, 1.0], n - 1)


def gapped_model(rng, n):
    """h_a and C diagonal with the target's gaps separated, then one random rotation."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    t = int(rng.integers(n))
    a, c = (np.insert(separated_gaps(rng, n), t, 0.0) for _ in range(2))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def rotate(m):
        return q @ m @ q.conj().T

    model = ModelSpec(h_a=rotate(np.diag(a)), h_b=rotate(g + g.conj().T), c=rotate(np.diag(c)),
                      mu=rng.uniform(0.2, 2.0), eta=1.0)
    return model, TargetSpec.for_model(model, rotate(np.diag(np.eye(n)[t]).astype(complex)))


def all_ranks(model, target):
    jq = stochastic_jq_commutators(model, target)
    return [kalman_like_rank(model, target).achieved_rank,
            kalman_like_rank(model, target, use="c").achieved_rank,
            jq.achieved_rank, jq.required_rank]


@pytest.mark.parametrize("n", range(2, 9))
def test_random_reports_stay_on_the_target_row_and_column(n):
    # every letter is a Schur multiplier in C's eigenbasis, so every family
    # stays on b0's support, the target's row and column: 2 (N - 1) real
    # dimensions of Hermitian matrices
    rng = np.random.default_rng(700 + n)
    for _ in range(6):
        for model, target in (random_model(rng, n), gapped_model(rng, n)):
            assert max(all_ranks(model, target)) <= 2 * (n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_kalman_ranks_reach_the_span_when_the_target_gaps_are_separated(n):
    # distinct nonzero gaps make ad_A a rotation with distinct frequencies on
    # b0's support, so the chain spans all of it, at N = 8 too, where its
    # powers grow by up to 3^55
    rng = np.random.default_rng(800 + n)
    for _ in range(4):
        model, target = gapped_model(rng, n)
        for use in ("h_a", "c"):
            assert kalman_like_rank(model, target, use=use).achieved_rank == 2 * (n - 1), use


RANKCHECK_LINES = {
    "qubit.json": ["achieved rank 2 / required 2 (depth 1): PASSED",
                   "achieved rank 2 vs drift-chain rank 2 (words(length<=2) x #): PASSED"],
    "spin_2.json": ["achieved rank 1 / required 20 (depth 19): FAILED",
                    "achieved rank 1 vs drift-chain rank 1 (words(length<=20) x #): PASSED"],
    "spin_3_2.json": ["achieved rank 1 / required 12 (depth 11): FAILED",
                      "achieved rank 1 vs drift-chain rank 1 (words(length<=12) x #): PASSED"],
    "three_level.json": ["achieved rank 4 / required 6 (depth 5): FAILED",
                         "achieved rank 4 vs drift-chain rank 4 (words(length<=6) x #): PASSED"],
}


def test_rankcheck_prints_the_same_ranks_and_verdicts_on_every_shipped_config(capsys):
    # the words-tested count depends on the search, not on the span
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert sorted(p.name for p in configs) == sorted(RANKCHECK_LINES)
    for path in configs:
        assert main(["rankcheck", "--config", str(path)]) == 0
        lines = [re.sub(r" x \d+\)", " x #)", line.strip())
                 for line in capsys.readouterr().out.splitlines() if "achieved rank" in line]
        assert lines == RANKCHECK_LINES[path.name], path.name


def test_rankcheck_prints_the_words_tested_not_one_label_per_power(capsys):
    # the Kalman search stops at the first level that adds nothing, so a
    # huge depth tests no more words and prints no longer lines
    path = Path(__file__).resolve().parents[1] / "configs" / "three_level.json"
    assert main(["rankcheck", "--config", str(path), "--depth", "1000000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert max(len(line) for line in out) <= 200
    lines = [re.sub(r" x \d+\)", " x #)", line.strip()) for line in out if "achieved rank" in line]
    kalman, stochastic = RANKCHECK_LINES["three_level.json"]
    assert lines == [kalman.replace("(depth 5)", "(depth 1000000)"), stochastic]
    assert "  words tested: 5" in out
