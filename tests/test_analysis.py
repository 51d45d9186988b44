"""Commutator rank certificates and structural predicates."""
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import SX, SY, SZ, H_A3, qubit, qutrit
from smestab import ModelSpec, TargetSpec
from smestab.cli import main
from smestab.analysis import (
    RankReport,
    control_direction,
    iterated_commutators,
    kalman_like_rank,
    strong_regularity,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def oracle_rank(a, b0, depth):
    """SVD rank of the iterated commutators, each flattened to 2 N^2 reals at unit norm.

    The threshold is a relative 1e-10; unit rows keep the growth of ad_a's
    powers from swamping it.
    """
    mats = iterated_commutators(a, b0, depth)
    rows = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
    s = np.linalg.svd(rows / np.linalg.norm(rows, axis=1, keepdims=True), compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0]))


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


def test_a_negative_depth_is_refused():
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        iterated_commutators(-1j * SZ, SX, -1)


@pytest.mark.parametrize("flag", ["--depth", "--use"])
def test_rankcheck_has_no_depth_or_letter_flag(flag):
    # the closed form needs no depth, and rankcheck prints both letters
    with pytest.raises(SystemExit) as exc:
        main(["rankcheck", "--config", str(CONFIGS / "qubit.json"), flag, "1"])
    assert exc.value.code == 2


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
    assert oracle_rank(-1j * model.h_a, control_direction(model, target), 1) == 2


def test_kalman_rank_use_argument():
    model, target = qubit()
    rep = kalman_like_rank(model, target, use="c")
    assert rep.achieved_rank == 2
    with pytest.raises(ValueError, match="use"):
        kalman_like_rank(model, target, use="h_b")


def test_three_level_ranks_are_frozen():
    # the N = 3 chain stalls at 4 of 6: both Kalman-like reports fail
    model, target = qutrit()
    rep_a = kalman_like_rank(model, target, use="h_a")
    rep_c = kalman_like_rank(model, target, use="c")
    assert (rep_a.achieved_rank, rep_a.required_rank, rep_a.passed) == (4, 6, False)
    assert (rep_c.achieved_rank, rep_c.required_rank, rep_c.passed) == (4, 6, False)


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


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_the_commutator_oracle(n):
    # the oracle runs one member past the closed-form rank, so it also shows the chain closing
    rng = np.random.default_rng(900 + n)
    for _ in range(6):
        model, target = gapped_model(rng, n)
        b0 = control_direction(model, target)
        for use, a in (("h_a", -1j * model.h_a), ("c", model.c)):
            rank = kalman_like_rank(model, target, use=use).achieved_rank
            assert rank == oracle_rank(a, b0, 2 * (n - 1)), use


def ladder(spacing):
    """N = 8: h_a = diag(0, 1, 1 + s, ..., 1 + 6 s), C = diag(0, ..., 7), every level coupled, target 0."""
    omegas = [1 + k * Fraction(spacing) for k in range(7)]
    model = ModelSpec(h_a=np.diag([0.0] + [float(w) for w in omegas]), h_b=np.ones((8, 8)) - np.eye(8),
                      c=np.diag(np.arange(8.0)), mu=1.0, eta=1.0)
    return omegas, model, TargetSpec.for_model(model, np.diag(np.eye(8)[0]).astype(complex))


def test_closed_form_keeps_the_rank_the_svd_loses_to_conditioning():
    # |omega_j| = 1, 1.01, ..., 1.06 are, like |lambda_j| = j, seven pairwise-
    # distinct nonzero values in exact arithmetic, so each letter has 14
    # distinct multipliers +-omega_j (+-lambda_j)
    omegas, model, target = ladder("0.01")
    assert len(set(omegas)) == 7 and 0 not in omegas
    for use in ("h_a", "c"):
        assert kalman_like_rank(model, target, use=use).achieved_rank == 2 * 7
    # the first 14 members of the h_a chain form a Vandermonde system in the
    # omegas with sigma_min / sigma_max = 5.5e-12, below the SVD's threshold
    assert oracle_rank(-1j * model.h_a, control_direction(model, target), 13) == 12
    # spaced 0.1 apart, the oracle agrees
    _, model, target = ladder("0.1")
    assert oracle_rank(-1j * model.h_a, control_direction(model, target), 13) == 14
    assert kalman_like_rank(model, target).achieved_rank == 14


ATTRACTS = "; each attracts locally under square_of_sum and tuned at every gain"
RANKCHECK_LINES = {
    "qubit.json": ["achieved 2 / required 2: PASSED", "achieved 2 / required 2: PASSED",
                   "h_a: True", "c:   True", "(level 1) by h_b: none"],
    "spin_2.json": ["achieved 1 / required 20: FAILED", "achieved 2 / required 20: FAILED",
                    "h_a: False", "c:   False", "(level 4) by h_b: 0, 1, 2" + ATTRACTS],
    "spin_3_2.json": ["achieved 1 / required 12: FAILED", "achieved 2 / required 12: FAILED",
                      "h_a: False", "c:   False", "(level 3) by h_b: 0, 1" + ATTRACTS],
    "three_level.json": ["achieved 4 / required 6: FAILED", "achieved 4 / required 6: FAILED",
                         "h_a: True", "c:   False", "(level 2) by h_b: none"],
}
LABELS = ["kalman-like rank, A = -i h_a: ", "kalman-like rank, A = c:      ",
          "strong regularity ", "strong regularity ", "levels not joined to the target "]


def test_rankcheck_prints_both_letters_and_regularity_on_every_shipped_config(capsys):
    configs = sorted(CONFIGS.glob("*.json"))
    assert sorted(p.name for p in configs) == sorted(RANKCHECK_LINES)
    for path in configs:
        assert main(["rankcheck", "--config", str(path)]) == 0
        expected = [a + b for a, b in zip(LABELS, RANKCHECK_LINES[path.name])]
        assert capsys.readouterr().out.splitlines() == expected, path.name


def test_validate_names_the_levels_h_b_does_not_join_to_the_target(capsys):
    # the rankcheck line, printed by validate too, just before its verdict
    for path in sorted(CONFIGS.glob("*.json")):
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [LABELS[-1] + RANKCHECK_LINES[path.name][-1],
                              "configuration valid"], path.name
