"""Hermitian matrix kernel: traces, moments, density-cone checks and projection.

Every function accepts stacked operands of shape (..., N, N) and broadcasts
over the leading axes; a single matrix is the degenerate stack.

The density-cone check asks whether the smallest eigenvalue lies below a
floor. min_eigenvalue answers it exactly (a radical at N = 2, eigvalsh above).
For 3x3 stacks, clear_of_floor answers the easy half far more cheaply: one
pivoted Schur-complement step proves a row is above the floor, and only the
rows it cannot clear need the eigenvalues.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9
# Absolute margin of clear_of_floor: far above the ~1e-16 roundoff of the
# screen and of eigvalsh on matrices of order-one norm, such as densities.
SCREEN_TOL = 1e-12
# From this many rows up, clear_of_floor plus eigvalsh on the rows it leaves
# is faster than eigvalsh on every row (about 25 rows on a 2-core Xeon,
# numpy 2.4). It sets speed only: the rows found below the floor are the same.
SCREEN_MIN_ROWS = 32

# the two indices other than the pivot k, for k = 0, 1, 2
_REST_I = np.array([1, 0, 0])
_REST_J = np.array([2, 2, 1])


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
    """Nearest density matrix: hermitize, clip negative eigenvalues, renormalize trace.

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
    near-pure states this check has to resolve against EIG_FLOOR.  At N = 3
    the integrator asks clear_of_floor first, which proves most rows above
    the floor with one Schur-complement step, and calls this only on the rest.
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
    return np.linalg.eigvalsh(m)[..., 0]


def clear_of_floor(m: np.ndarray, floor: float) -> np.ndarray:
    """True where a stacked 3x3 Hermitian m provably has every eigenvalue >= floor.

    False means "not proven", not "below": callers decide those rows with
    min_eigenvalue.  The bound: let A = m - floor I, pivot on its largest
    diagonal entry p = A_kk, let a be the rest of column k (two entries),
    l = a / p and S = A_rest - a a^dag / p the 2x2 Schur complement.  Then
    A = L diag(p, S) L^dag with L unit lower triangular (l below the pivot),
    and ||L^-1|| <= 1 + ||l||, so for p > 0

        lambda_min(A) >= min(p, lambda_min(S)) / (1 + ||l||)^2.

    A row is cleared when min(p, lambda_min(S)) > SCREEN_TOL (1 + ||l||)^2,
    with lambda_min(S) from the same radical as min_eigenvalue's 2x2 branch,
    so a cleared row has lambda_min(A) > SCREEN_TOL.  On matrices of
    order-one norm that margin is far above the roundoff of this screen and
    of eigvalsh: a cleared row is never one that eigvalsh puts below the
    floor.  Eliminating on the largest diagonal keeps relative precision
    (on the cone, |l_i| <= 1), so near-pure states, whose small eigenvalues
    sit in S, are cleared too.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected stacked 3x3 matrices, got shape {m.shape}")
    flat = m.reshape(-1, 3, 3)
    rows = np.arange(len(flat))
    d = flat.diagonal(0, -2, -1).real - floor
    k = d.argmax(axis=-1)
    i, j = _REST_I[k], _REST_J[k]
    p = d[rows, k]
    ai, aj = flat[rows, i, k], flat[rows, j, k]
    ai2 = ai.real * ai.real + ai.imag * ai.imag
    aj2 = aj.real * aj.real + aj.imag * aj.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_p = 1.0 / p
        s_ii = d[rows, i] - ai2 * inv_p
        s_jj = d[rows, j] - aj2 * inv_p
        s_ij = flat[rows, i, j] - ai * aj.conj() * inv_p
        half = 0.5 * (s_ii - s_jj)
        rad = np.sqrt(half * half + s_ij.real * s_ij.real + s_ij.imag * s_ij.imag)
        lam = 0.5 * (s_ii + s_jj) - rad
        growth = 1.0 + np.sqrt(ai2 + aj2) * inv_p
        cleared = np.minimum(p, lam) > SCREEN_TOL * growth * growth
    return cleared.reshape(m.shape[:-2])


def validate_density(rho: np.ndarray, name: str = "rho") -> None:
    """Density-cone membership check: Hermitian, unit trace, spectrum above the floor."""
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    if np.max(np.abs(trace(rho).real - 1.0)) > TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 beyond {TRACE_TOL}")
    if np.min(min_eigenvalue(rho)) < EIG_FLOOR:
        raise ValueError(f"{name} has an eigenvalue below {EIG_FLOOR}")
