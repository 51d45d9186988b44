"""Diffusive measurement dynamics for an N-level system.

Ito form of the conditioned master equation, with control u entering through
H = h_a + u h_b:

    d rho = (F(H, rho) + D(rho)) dt + G(rho) dW
    F     = -i [H, rho]
    D     = mu (C rho C - (C^2 rho + rho C^2)/2)
    G     = sqrt(mu eta) (C rho + rho C - 2 tr(C rho) rho)
    dY    = sqrt(eta) tr(C rho) dt + dW

and, for unit efficiency on pure states, the equivalent state-vector equation

    d psi = (-i H - (mu/2)(C - <C>)^2) psi dt + sqrt(mu) (C - <C>) psi dW.

State arguments are stacked (..., N, N) or (..., N) arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import (
    commutator,
    dag,
    expectation,
    hermitize,
    is_hermitian,
    purity,
    trace,
    validate_density,
)

COMMUTING_TOL = 1e-10
EIGENSTATE_TOL = 1e-9
EDGE_TOL = 1e-12
SPECTRAL_GAP_TOL = 1e-10

# rows of TargetSpec.observables
RHO_D, C1, C2, C3, K_RHO_D, K_C, K_C2 = range(7)


def _connected(h_b: np.ndarray, tol: float = EDGE_TOL) -> bool:
    """Breadth-first search on the coupling graph: edge (i,j) iff |h_b[i,j]| > tol."""
    n = h_b.shape[0]
    adj = np.abs(h_b) > tol
    np.fill_diagonal(adj, False)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


@dataclass(frozen=True)
class ModelSpec:
    """Free Hamiltonian h_a, control Hamiltonian h_b, measured observable c.

    Construction enforces the standing assumptions: all three matrices
    Hermitian, [h_a, c] = 0 (nondemolition), c with a simple spectrum (every
    eigenvalue gap above SPECTRAL_GAP_TOL), the coupling graph of h_b
    connected, mu > 0 and 0 < eta <= 1.

    projectors holds the rank-one eigenprojectors of c in ascending eigenvalue
    order. It is derived from c here, the only place c is decomposed; targets,
    antipodes and collapse outcomes are all members of it.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    c: np.ndarray
    mu: float
    eta: float
    projectors: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h_a = np.asarray(self.h_a, dtype=complex)
        h_b = np.asarray(self.h_b, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        object.__setattr__(self, "h_a", h_a)
        object.__setattr__(self, "h_b", h_b)
        object.__setattr__(self, "c", c)
        shapes = {h_a.shape, h_b.shape, c.shape}
        if len(shapes) != 1 or h_a.ndim != 2 or h_a.shape[0] != h_a.shape[1]:
            raise ValueError(f"h_a, h_b, c must share one square shape, got {shapes}")
        for name, m in (("h_a", h_a), ("h_b", h_b), ("c", c)):
            if not is_hermitian(m):
                raise ValueError(f"{name} is not Hermitian")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if np.max(np.abs(commutator(h_a, c))) > COMMUTING_TOL:
            raise ValueError("h_a and c do not commute: measurement is not nondemolition")
        w, v = np.linalg.eigh(c)
        if np.any(np.diff(w) <= SPECTRAL_GAP_TOL):
            raise ValueError("c has a degenerate spectrum; eigenstates are not isolated")
        projectors = [v[:, [j]] @ dag(v[:, [j]]) for j in range(len(w))]
        object.__setattr__(self, "projectors", projectors)
        if not _connected(h_b):
            raise ValueError("coupling graph of h_b is disconnected")

    @property
    def n(self) -> int:
        return self.h_a.shape[0]


@dataclass(frozen=True)
class TargetSpec:
    """Rank-one target eigenstate rho_d and the competing eigenprojectors of c.

    antipodal[j] is the j-th member of model.projectors other than rho_d, in
    ascending eigenvalue order; outcomes refer to antipodal states by that index.

    observables is derived by for_model: a (7, N*N) table whose rows, indexed
    by RHO_D, C1, C2, C3, K_RHO_D, K_C, K_C2, are the flattened Hermitian
    matrices rho_d, c, c^2, c^3 and K_X = -i[X, h_b] for X = rho_d, c, c^2.
    Feedback and certificates read a state only through these expectations,
    so a target serves models with the h_b and c it was built for.
    """

    rho_d: np.ndarray
    antipodal: list[np.ndarray] = field(repr=False)
    observables: np.ndarray = field(init=False, repr=False, compare=False)

    @classmethod
    def for_model(cls, model: ModelSpec, rho_d: np.ndarray) -> "TargetSpec":
        rho_d = hermitize(np.asarray(rho_d, dtype=complex))
        validate_density(rho_d, name="rho_d")
        if abs(purity(rho_d) - 1.0) > EIGENSTATE_TOL:
            raise ValueError("rho_d is not rank one")
        for name, m in (("c", model.c), ("h_a", model.h_a)):
            lam = expectation(m, rho_d)
            if np.max(np.abs(m @ rho_d - lam * rho_d)) > EIGENSTATE_TOL:
                raise ValueError(f"rho_d is not an eigenstate of {name}")
        overlaps = [expectation(p, rho_d) for p in model.projectors]
        hit = int(np.argmax(overlaps))
        if overlaps[hit] < 1.0 - EIGENSTATE_TOL:
            raise ValueError("rho_d does not match any spectral projector of c")
        antipodal = [p for j, p in enumerate(model.projectors) if j != hit]
        target = cls(rho_d=rho_d, antipodal=antipodal)
        c, c2 = model.c, model.c @ model.c
        rows = [rho_d, c, c2, c2 @ c] + [-1j * commutator(x, model.h_b) for x in (rho_d, c, c2)]
        object.__setattr__(target, "observables", hermitize(np.stack(rows)).reshape(7, -1))
        return target


def hamiltonian_drift(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """F = -i [h, rho]."""
    return -1j * commutator(h, rho)


def lindblad_drift(rho: np.ndarray, c: np.ndarray, mu: float) -> np.ndarray:
    """D = mu (c rho c - (c^2 rho + rho c^2)/2)."""
    c2 = c @ c
    return mu * ((c @ rho) @ c - 0.5 * (c2 @ rho + rho @ c2))


def diffusion_term(rho: np.ndarray, c: np.ndarray, mu: float, eta: float) -> np.ndarray:
    """G = sqrt(mu eta) (c rho + rho c - 2 <c> rho); traceless and Hermitian."""
    crho = c @ rho
    ex = trace(crho).real
    return np.sqrt(mu * eta) * (crho + dag(crho) - 2.0 * ex[..., None, None] * rho)


def sme_drift(rho: np.ndarray, model: ModelSpec, u) -> np.ndarray:
    """Deterministic part F + D with H = h_a + u h_b."""
    u = np.asarray(u)
    h = model.h_a + u[..., None, None] * model.h_b
    return hamiltonian_drift(h, rho) + lindblad_drift(rho, model.c, model.mu)


def measurement_increment(rho: np.ndarray, c: np.ndarray, eta: float, dt: float, dW) -> np.ndarray:
    """Detector record dY = sqrt(eta) tr(c rho) dt + dW."""
    return np.sqrt(eta) * expectation(c, rho) * dt + np.asarray(dW)


def sse_drift(psi: np.ndarray, model: ModelSpec, u) -> np.ndarray:
    """State-vector drift (-i H - (mu/2)(c - <c>)^2) psi, valid at eta = 1."""
    u = np.asarray(u)
    h = model.h_a + u[..., None, None] * model.h_b
    cpsi = np.einsum("ij,...j->...i", model.c, psi)
    ex = np.einsum("...i,...i->...", np.conj(psi), cpsi).real
    ccpsi = np.einsum("ij,...j->...i", model.c, cpsi)
    centered_sq = ccpsi - 2.0 * ex[..., None] * cpsi + (ex**2)[..., None] * psi
    hpsi = np.einsum("...ij,...j->...i", h, psi)
    return -1j * hpsi - 0.5 * model.mu * centered_sq


def sse_diffusion(psi: np.ndarray, model: ModelSpec) -> np.ndarray:
    """State-vector noise coefficient sqrt(mu) (c - <c>) psi, valid at eta = 1."""
    cpsi = np.einsum("ij,...j->...i", model.c, psi)
    ex = np.einsum("...i,...i->...", np.conj(psi), cpsi).real
    return np.sqrt(model.mu) * (cpsi - ex[..., None] * psi)
