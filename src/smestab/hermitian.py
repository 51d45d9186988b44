"""Hermitian matrix kernel: traces, moments, density-cone checks and projection.

Every function accepts stacked operands of shape (..., N, N) and broadcasts
over the leading axes; a single matrix is the degenerate stack.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the last two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


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

    Raises ValueError when the clipped trace is not positive (nothing to
    normalize onto the cone).
    """
    m = hermitize(np.asarray(m))
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    tr = w.sum(axis=-1)
    if np.any(tr <= 0.0):
        raise ValueError("projection failed: non-positive trace after clipping")
    w = w / tr[..., None]
    return (v * w[..., None, :]) @ dag(v)


def min_eigenvalue(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of stacked Hermitian matrices.

    The 2x2 radical keeps the per-step positivity check cheap inside the
    integrator and stays exact on degenerate spectra.  Larger sizes go through
    eigvalsh: a trigonometric 3x3 closed form was tried and dropped, its
    arccos endpoint conditioning costs ~1e-8 absolute accuracy exactly on the
    near-pure states this check has to resolve against EIG_FLOOR.
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


def validate_density(rho: np.ndarray, name: str = "rho") -> None:
    """Density-cone membership check: Hermitian, unit trace, spectrum above the floor."""
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    if np.max(np.abs(trace(rho).real - 1.0)) > TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 beyond {TRACE_TOL}")
    if np.min(min_eigenvalue(rho)) < EIG_FLOOR:
        raise ValueError(f"{name} has an eigenvalue below {EIG_FLOOR}")
