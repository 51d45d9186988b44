"""Hermitian matrix kernel: traces, moments, density-cone checks and projection.

Every function accepts stacked operands of shape (..., N, N) and broadcasts
over the leading axes; a single matrix is the degenerate stack. The stacks
may be row-major or batch-last (the integrator's lanes, see integrate):
min_eigenvalue and clear_of_floor give the same rows in either layout.

The density-cone check asks whether the smallest eigenvalue lies below a
floor. min_eigenvalue answers it exactly (a radical at N = 2, eigvalsh above).
clear_of_floor settles the easy half for any N: a Cholesky pass on the shifted
matrix proves a row above the floor, and only the rest need eigvalsh.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9
# Absolute margin of clear_of_floor, far above its backward error and that of
# eigvalsh on matrices of order-one norm, such as densities.
SCREEN_TOL = 1e-12
# From this many rows up, clear_of_floor plus eigvalsh on the rows it leaves
# beats eigvalsh on every row at N = 3 to 5 (about 20 rows at N = 3 on a
# 2-core Xeon, numpy 2.4); at N = 6 to 8 the two are about even at 32 rows
# and the screen is 2-3 times faster from 100. It sets speed only: the rows
# found below the floor are the same.
SCREEN_MIN_ROWS = 32


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the last two axes."""
    return np.conj(np.asarray(m).swapaxes(-1, -2))


def trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes (complex)."""
    return np.einsum("...ii", m)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag)/2."""
    return 0.5 * (m + dag(m))


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when max |m - m^dag| <= tol across the whole stack."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return bool(np.max(np.abs(m - dag(m))) <= tol)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expectation(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<C> = Re tr(c rho); imaginary part is discarded (roundoff for Hermitian args)."""
    return np.einsum("...ij,...ji->...", c, rho).real


def variance(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """V(c, rho) = <c^2> - <c>^2 >= 0."""
    return expectation(c @ c, rho) - expectation(c, rho) ** 2


def purity(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2), in [1/N, 1] on the density cone."""
    return np.einsum("...ij,...ji->...", rho, rho).real


def project_to_density(m: np.ndarray) -> np.ndarray:
    """Clip onto the density cone: hermitize, zero the negative eigenvalues, rescale to unit trace.

    The kept eigenvalues are scaled, not shifted, so for N >= 3 this is not
    the Frobenius-nearest density matrix: the spectrum (0.6, 0.5, -0.1)
    becomes (0.545, 0.455, 0), while the nearest state is (0.55, 0.45, 0).
    The result is hermitized too. Raises ValueError when the clipped trace is
    not positive (nothing to normalize onto the cone).
    """
    m = hermitize(np.asarray(m))
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    tr = w.sum(axis=-1)
    if np.any(tr <= 0.0):
        raise ValueError("projection failed: non-positive trace after clipping")
    w = w / tr[..., None]
    return hermitize((v * w[..., None, :]) @ dag(v))


def min_eigenvalue(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of stacked Hermitian matrices.

    The 2x2 radical keeps the per-step positivity check cheap inside the
    integrator and stays exact on degenerate spectra.  Larger sizes go through
    eigvalsh: a trigonometric 3x3 closed form was tried and dropped, its
    arccos endpoint conditioning costs ~1e-8 absolute accuracy exactly on the
    near-pure states this check has to resolve against EIG_FLOOR.  At N >= 3
    the integrator asks clear_of_floor first, which proves most rows above
    the floor with one Cholesky pass, and calls this only on the rest; the
    screen's roundoff stays far under its margin at N = 8 (see
    clear_of_floor).

    The radical is elementwise on the entries m[..., i, j], so on batch-last
    lanes it reads contiguous (B,) arrays; eigvalsh reads a row-major copy.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    if n == 2:
        a = m[..., 0, 0].real
        d = m[..., 1, 1].real
        b = m[..., 0, 1]
        mid = 0.5 * (a + d)
        rad = np.sqrt((0.5 * (a - d)) ** 2 + (b * b.conj()).real)
        return mid - rad
    # on a row-major copy, so the call sees one layout whatever the caller's
    return np.linalg.eigvalsh(np.ascontiguousarray(m))[..., 0]


def clear_of_floor(m: np.ndarray, floor: float) -> np.ndarray:
    """True where a stacked Hermitian m provably has every eigenvalue > floor.

    False means "not proven", not "below": callers decide those rows with
    min_eigenvalue.  A row is cleared when the Cholesky factorisation without
    pivoting of A = m - (floor + SCREEN_TOL) I, run one entry of the lower
    triangle at a time across the stack, has every pivot positive.  Cholesky
    is backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3): such a run is the exact factorisation of a
    positive definite A + dA, ||dA|| <= N (N + 1) u ||m|| to first order (u
    the unit roundoff), so on a cleared row

        lambda_min(m) > floor + SCREEN_TOL - N (N + 1) u ||m||.

    This assumes ||m|| is of order one, as for trace-one densities and their
    Euler steps: the roundoff term is then 5e-15 at N = 6 and 8e-15 at N = 8,
    far under SCREEN_TOL, and eigvalsh (backward stable too) never puts a
    cleared row below the floor.
    Every pivot is at least lambda_min(A), so at EIG_FLOOR every state on the
    cone, pure and collapsed ones included, is cleared.

    The pass is elementwise on the entries m[..., i, j]: on batch-last lanes
    each is a contiguous (B,) array, and the result is the same in any layout.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != n:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    shift = floor + SCREEN_TOL
    cleared = np.ones(m.shape[:-2], dtype=bool)
    low = {}  # (i, j) -> L_ij of the factor, i > j
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            d = m[..., j, j].real - shift
            for k in range(j):
                d = d - (low[j, k].real ** 2 + low[j, k].imag ** 2)
            # a pivot <= 0 (or nan after one) leaves the row uncleared
            cleared &= d > 0.0
            if j + 1 == n:
                break
            inv = 1.0 / np.sqrt(d)
            row = [low[j, k].conj() for k in range(j)]  # row j of the factor, conjugated
            for i in range(j + 1, n):
                s = m[..., i, j]
                for k in range(j):
                    s = s - low[i, k] * row[k]
                low[i, j] = s * inv
    return cleared


def validate_density(rho: np.ndarray, name: str = "rho") -> None:
    """Density-cone membership check: Hermitian, unit trace, spectrum above the floor."""
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    if np.max(np.abs(trace(rho).real - 1.0)) > TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 beyond {TRACE_TOL}")
    if np.min(min_eigenvalue(rho)) < EIG_FLOOR:
        raise ValueError(f"{name} has an eigenvalue below {EIG_FLOOR}")
