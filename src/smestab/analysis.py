"""Structural controllability and regularity diagnostics, in closed form.

The Kalman-like rank is the real dimension of the iterated commutator family
{b0, [A, b0], [A, [A, b0]], ...} with b0 = -i[h_b, rho_d] and A = -i h_a or
c. Under the standing assumptions both letters are Schur multipliers in c's
eigenbasis, and b0 lives on the target level t's row and column at the
levels j that h_b joins to t, so the rank counts distinct multipliers:

    A = -i h_a:  2 x (distinct nonzero |a_t - a_j|), plus 1 if some a_t = a_j
    A = c:       2 x (distinct |c_t - c_j|), as ad_c pairs +-(c_t - c_j)

Distinct and zero are judged to REGULARITY_TOL, as strong_regularity judges
gaps. iterated_commutators is the dense family, an oracle for the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EDGE_TOL, ModelSpec, TargetSpec
from .hermitian import commutator

REGULARITY_TOL = 1e-10


@dataclass(frozen=True)
class RankReport:
    """Outcome of a commutator-span rank test."""

    achieved_rank: int
    required_rank: int
    passed: bool


def iterated_commutators(a: np.ndarray, b0: np.ndarray, depth: int) -> list[np.ndarray]:
    """[ad_a^0(b0), ad_a^1(b0), ..., ad_a^depth(b0)]."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    out = [np.asarray(b0, dtype=complex)]
    for _ in range(depth):
        out.append(commutator(a, out[-1]))
    return out


def control_direction(model: ModelSpec, target: TargetSpec) -> np.ndarray:
    """b0 = -i [h_b, rho_d]: the control vector field at the target."""
    return -1j * commutator(model.h_b, target.rho_d)


def _distinct(values) -> int:
    """How many values remain when those within REGULARITY_TOL of a neighbour are merged."""
    x = np.sort(np.asarray(values, dtype=float))
    return int(x.size and 1 + np.count_nonzero(np.diff(x) > REGULARITY_TOL))


def _joined(model: ModelSpec, t: int) -> np.ndarray:
    """Mask of the levels j != t that h_b joins to level t: |coupling[j, t]| > EDGE_TOL."""
    joined = np.abs(model.coupling[:, t]) > EDGE_TOL
    joined[t] = False
    return joined


def unjoined_levels(model: ModelSpec, target: TargetSpec) -> list[int]:
    """The levels j != t that h_b does not join to the target level t, ascending.

    Linearised at eigenstate j, the completed-square laws (square_of_sum and
    tuned) feed back only terms that damp j's coherences when h_jt = 0, so
    such a level attracts locally at every gain.
    """
    t = target.level
    unjoined = ~_joined(model, t)
    unjoined[t] = False
    return np.flatnonzero(unjoined).tolist()


def kalman_like_rank(model: ModelSpec, target: TargetSpec, use: str = "h_a") -> RankReport:
    """Closed-form rank for A = -i h_a ("h_a") or c ("c") against N^2 - N; ValueError on another."""
    t = target.level
    coupled = _joined(model, t)
    if use == "h_a":
        w = np.abs(model.energies[t] - model.energies[coupled])
        zero = w <= REGULARITY_TOL
        achieved = 2 * _distinct(w[~zero]) + int(zero.any())
    elif use == "c":
        achieved = 2 * _distinct(np.abs(model.levels[t] - model.levels[coupled]))
    else:
        raise ValueError(f"use must be 'h_a' or 'c', got {use!r}")
    required = model.n * model.n - model.n
    return RankReport(achieved_rank=achieved, required_rank=required, passed=achieved >= required)


def strong_regularity(levels: np.ndarray) -> bool:
    """Whether a spectrum, in any order, has distinct levels and gaps, to REGULARITY_TOL."""
    w = np.asarray(levels, dtype=float)
    gaps = [abs(x - y) for i, x in enumerate(w) for y in w[:i]]
    return _distinct(w) == len(w) and _distinct(gaps) == len(gaps)
