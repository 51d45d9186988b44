"""Structural controllability and regularity diagnostics.

The Kalman-like test spans the iterated commutator family
{b0, [A, b0], [A, [A, b0]], ...} with b0 = -i[h_b, rho_d] and A either -i h_a
or c; the stochastic variant spans all words in the two super-operators
ad(-i h_a) and -(mu/2) ad_c o ad_c. Matrices are flattened to 2 N^2 real
components (real and imaginary parts side by side) before the SVD rank count,
which is exact for families mixing Hermitian and anti-Hermitian members.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, TargetSpec
from .hermitian import commutator

RANK_RTOL = 1e-10
REGULARITY_TOL = 1e-10


@dataclass(frozen=True)
class RankReport:
    """Outcome of a commutator-span rank test."""

    generators_tested: list[str]
    achieved_rank: int
    required_rank: int
    passed: bool
    commutator_depth_used: int


def iterated_commutators(a: np.ndarray, b0: np.ndarray, depth: int) -> list[np.ndarray]:
    """[ad_a^0(b0), ad_a^1(b0), ..., ad_a^depth(b0)]."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    out = [np.asarray(b0, dtype=complex)]
    for _ in range(depth):
        out.append(commutator(a, out[-1]))
    return out


def _vectorize(mats: list[np.ndarray]) -> np.ndarray:
    rows = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    return np.asarray(rows)


def span_rank(mats: list[np.ndarray], rtol: float = RANK_RTOL) -> int:
    """Real dimension of span{mats} via SVD with a relative threshold."""
    rows = _vectorize(mats)
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def control_direction(model: ModelSpec, target: TargetSpec) -> np.ndarray:
    """b0 = -i [h_b, rho_d]: the control vector field at the target."""
    return -1j * commutator(model.h_b, target.rho_d)


def kalman_like_rank(
    model: ModelSpec,
    target: TargetSpec,
    use: str = "h_a",
    depth: int | None = None,
) -> RankReport:
    """Rank of the iterated commutator family against the N^2 - N requirement.

    use selects A = -i h_a ("h_a") or A = c ("c"). The default depth spans
    N^2 - N family members, matching the requirement it is tested against.
    """
    if use == "h_a":
        a = -1j * model.h_a
        label = "-i h_a"
    elif use == "c":
        a = model.c
        label = "c"
    else:
        raise ValueError(f"use must be 'h_a' or 'c', got {use!r}")
    n = model.n
    required = n * n - n
    if depth is None:
        depth = required - 1
    b0 = control_direction(model, target)
    mats = iterated_commutators(a, b0, depth)
    labels = [f"ad_{{{label}}}^{r}(b0)" for r in range(depth + 1)]
    achieved = span_rank(mats)
    return RankReport(
        generators_tested=labels,
        achieved_rank=achieved,
        required_rank=required,
        passed=achieved >= required,
        commutator_depth_used=depth,
    )


def _jq_letters(h_a: np.ndarray, c: np.ndarray, mu: float):
    def drift(x: np.ndarray) -> np.ndarray:
        return commutator(-1j * h_a, x)

    def kick(x: np.ndarray) -> np.ndarray:
        return -0.5 * mu * commutator(c, commutator(c, x))

    return drift, kick


def _jq_span(
    h_a: np.ndarray, c: np.ndarray, mu: float, b0: np.ndarray, depth: int, cap: int = 4096
) -> tuple[int, int]:
    """Rank of all words of length <= depth in the two letters, applied to b0.

    Expands breadth-first and stops once the rank saturates (the span is
    monotone in the word set, so early termination cannot change the result).
    Returns (rank, number of words spanned).
    """
    drift, kick = _jq_letters(h_a, c, mu)
    words = [np.asarray(b0, dtype=complex)]
    frontier = [words[0]]
    rank = span_rank(words)
    tested = 1
    for _ in range(depth):
        nxt = []
        for w in frontier:
            nxt.extend((drift(w), kick(w)))
        words.extend(nxt)
        tested += len(nxt)
        new_rank = span_rank(words)
        if new_rank == rank or tested >= cap:
            rank = new_rank
            break
        rank = new_rank
        frontier = nxt
    return rank, tested


def stochastic_jq_commutators(
    model: ModelSpec, target: TargetSpec, depth: int | None = None
) -> RankReport:
    """Stochastic Jurdjevic-Quinn span: words in ad(-i h_a) and -(mu/2) ad_c^2.

    Passes when the two-letter span reaches at least the rank of the pure
    drift chain at the same depth (the measurement letters can only help).
    """
    n = model.n
    if depth is None:
        depth = n * n - n
    if depth < 1:
        raise ValueError("depth must be at least 1")
    b0 = control_direction(model, target)
    achieved, tested = _jq_span(model.h_a, model.c, model.mu, b0, depth)
    pure_chain = iterated_commutators(-1j * model.h_a, b0, depth)
    required = span_rank(pure_chain)
    return RankReport(
        generators_tested=[f"words(length<={depth}) x {tested}"],
        achieved_rank=achieved,
        required_rank=required,
        passed=achieved >= required,
        commutator_depth_used=depth,
    )


def strong_regularity(levels: np.ndarray, tol: float = REGULARITY_TOL) -> bool:
    """Distinct levels with pairwise-distinct gaps (transition frequencies).

    levels is a spectrum in any order, e.g. ModelSpec.levels or
    ModelSpec.energies; nothing is decomposed here.
    """
    w = np.sort(np.asarray(levels, dtype=float))
    n = len(w)
    if n < 2:
        return True
    gaps = [w[j] - w[i] for i in range(n) for j in range(i + 1, n)]
    if min(gaps) <= tol:
        return False
    gaps = sorted(gaps)
    return all(b - a > tol for a, b in zip(gaps, gaps[1:]))
