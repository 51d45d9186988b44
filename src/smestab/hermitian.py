"""Hermitian matrix kernel: traces, moments and the density-cone check, never a repair.

Every function takes stacked (..., N, N) operands and broadcasts over the
leading axes; a single matrix is the degenerate stack.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-9


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the last two axes."""
    return np.conj(np.asarray(m).swapaxes(-1, -2))


def trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes (complex)."""
    return np.einsum("...ii", m)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag)/2."""
    return 0.5 * (m + dag(m))


def is_hermitian(m: np.ndarray) -> bool:
    """True when max |m - m^dag| <= HERMITICITY_TOL across the whole stack."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return bool(np.max(np.abs(m - dag(m))) <= HERMITICITY_TOL)


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


def min_eigenvalue(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of stacked Hermitian matrices, by eigvalsh on a row-major copy."""
    return np.linalg.eigvalsh(np.ascontiguousarray(m))[..., 0]


def validate_density(rho: np.ndarray, name: str = "rho") -> None:
    """Raise ValueError, naming name, unless every matrix of rho is on the density cone.

    On the cone: Hermitian to HERMITICITY_TOL, trace 1 to TRACE_TOL, smallest
    eigenvalue at least EIG_FLOOR.
    """
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    if np.max(np.abs(trace(rho).real - 1.0)) > TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 beyond {TRACE_TOL}")
    if np.min(min_eigenvalue(rho)) < EIG_FLOOR:
        raise ValueError(f"{name} has an eigenvalue below {EIG_FLOOR}")
