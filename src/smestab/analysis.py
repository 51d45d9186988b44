"""Structural controllability and regularity diagnostics.

The Kalman-like test spans the iterated commutator family
{b0, [A, b0], [A, [A, b0]], ...} with b0 = -i[h_b, rho_d] and A either -i h_a
or c; the stochastic variant spans all words in the two super-operators
ad(-i h_a) and -(mu/2) ad_c o ad_c. Both reports run one breadth-first span
search (_span) over unit-norm words, so no power of a letter swamps the rank
threshold; iterated_commutators is the dense family it stands for. Matrices
are flattened to 2 N^2 real components (real and imaginary parts side by
side) before the SVD rank count, which is exact for families mixing
Hermitian and anti-Hermitian members.
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


def span_rank(mats: list[np.ndarray]) -> int:
    """Real dimension of span{mats} via SVD with the relative threshold RANK_RTOL."""
    rows = _vectorize(mats)
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def control_direction(model: ModelSpec, target: TargetSpec) -> np.ndarray:
    """b0 = -i [h_b, rho_d]: the control vector field at the target."""
    return -1j * commutator(model.h_b, target.rho_d)


def _span(letters, b0: np.ndarray, depth: int) -> tuple[int, int]:
    """Rank of the words of length <= depth in letters applied to b0, and the words tested.

    Breadth first: a word, b0 or a letter applied to a kept word, is kept
    only when it raises span_rank of the kept words, and only kept words are
    extended. Kept words are stored at unit norm, so no repeated letter grows
    a word until it swamps the rank threshold. A level that keeps nothing ends
    the search: the kept span is then closed under every letter, and each
    dropped word lies in it, so no longer or dropped word could raise it.
    """
    kept: list[np.ndarray] = []
    level = [np.asarray(b0, dtype=complex)]
    tested = 0
    for _ in range(depth + 1):
        grown = []
        for w in level:
            tested += 1
            if span_rank(kept + [w]) > len(kept):
                grown.append(w / np.linalg.norm(w))
                kept.append(grown[-1])
        if not grown:
            break
        level = [letter(w) for w in grown for letter in letters]
    return len(kept), tested


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
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    achieved, _ = _span([lambda x: commutator(a, x)], control_direction(model, target), depth)
    return RankReport(
        generators_tested=[f"ad_{{{label}}}^{r}(b0)" for r in range(depth + 1)],
        achieved_rank=achieved,
        required_rank=required,
        passed=achieved >= required,
        commutator_depth_used=depth,
    )


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

    def drift(x: np.ndarray) -> np.ndarray:
        return commutator(-1j * model.h_a, x)

    def kick(x: np.ndarray) -> np.ndarray:
        return -0.5 * model.mu * commutator(model.c, commutator(model.c, x))

    achieved, tested = _span([drift, kick], b0, depth)
    required, _ = _span([drift], b0, depth)
    return RankReport(
        generators_tested=[f"words(length<={depth}) x {tested}"],
        achieved_rank=achieved,
        required_rank=required,
        passed=achieved >= required,
        commutator_depth_used=depth,
    )


def strong_regularity(levels: np.ndarray) -> bool:
    """Distinct levels with pairwise-distinct gaps (transition frequencies), to REGULARITY_TOL.

    levels is a spectrum in any order, e.g. ModelSpec.levels or
    ModelSpec.energies; nothing is decomposed here.
    """
    w = np.sort(np.asarray(levels, dtype=float))
    n = len(w)
    if n < 2:
        return True
    gaps = [w[j] - w[i] for i in range(n) for j in range(i + 1, n)]
    if min(gaps) <= REGULARITY_TOL:
        return False
    gaps = sorted(gaps)
    return all(b - a > REGULARITY_TOL for a, b in zip(gaps, gaps[1:]))
