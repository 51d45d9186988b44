"""The conditioned dynamics of an N-level system, in C's eigenbasis.

Ito form, with control u entering through H = h_a + u h_b:

    d rho = (F + D) dt + G dW,   F = -i [H, rho],   D = mu (C rho C - (C^2 rho + rho C^2)/2)
    G     = sqrt(mu eta) (C rho + rho C - 2 tr(C rho) rho)
    d psi = (-i H - (mu/2)(C - <C>)^2) psi dt + sqrt(mu) (C - <C>) psi dW   (eta = 1)

In ModelSpec's basis h_a = diag(a) and C = diag(c), so only the control
term multiplies matrices:

    (F + D)_ij = (-i (a_i - a_j) - mu (c_i - c_j)^2 / 2) rho_ij - i u [h_b, rho]_ij
    G_ij       = sqrt(mu eta) (c_i + c_j - 2 <C>) rho_ij.

sme_drift and diffusion_term are the one definition of these coefficients:
integrate._split reads its tables off them, and every step, ket or density,
reads those tables. No step calls sse_drift or sse_diffusion, the ket's
forms; only tests and tracing reach them. Every kernel takes states in that
basis, densities (..., N, N) or ket columns (..., N, 1).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .hermitian import commutator, dag, hermitize, is_hermitian, purity, validate_density
from .params import as_real

COMMUTING_TOL = 1e-10
EIGENSTATE_TOL = 1e-9
EDGE_TOL = 1e-12
SPECTRAL_GAP_TOL = 1e-10

# rows of TargetSpec.observables
RHO_D, C1, C2, C3, K_RHO_D, K_C, K_C2 = range(7)


def _derived():
    return field(init=False, repr=False)


def _connected(coupling: np.ndarray) -> bool:
    """Whether the graph with edge (i, j) iff |coupling[i, j]| > EDGE_TOL is connected."""
    adj = np.abs(coupling) > EDGE_TOL
    seen = np.arange(len(adj)) == 0
    for _ in range(len(adj)):  # a path visits at most N levels
        seen |= adj[seen].any(axis=0)
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Free Hamiltonian h_a, control Hamiltonian h_b, measured observable c.

    ValueError unless the three are Hermitian of one square shape, 2x2 or
    more, [h_a, c] = 0 to COMMUTING_TOL, c's gaps exceed SPECTRAL_GAP_TOL,
    h_b connects c's eigenlevels (_connected) and 0 < mu, 0 < eta <= 1. basis
    holds c's eigenvectors as columns and levels its eigenvalues, ascending;
    in that basis h_a is diag(energies) and h_b is coupling.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    c: np.ndarray
    mu: float
    eta: float
    basis: np.ndarray = _derived()
    levels: np.ndarray = _derived()
    energies: np.ndarray = _derived()
    coupling: np.ndarray = _derived()

    def __post_init__(self):
        h_a = np.asarray(self.h_a, dtype=complex)
        h_b = np.asarray(self.h_b, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        object.__setattr__(self, "h_a", h_a)
        object.__setattr__(self, "h_b", h_b)
        object.__setattr__(self, "c", c)
        shapes = {h_a.shape, h_b.shape, c.shape}
        if len(shapes) != 1 or h_a.ndim != 2 or not h_a.shape[0] == h_a.shape[1] >= 2:
            raise ValueError(f"h_a, h_b, c must share one square shape, 2x2 or more, got {shapes}")
        for name, m in (("h_a", h_a), ("h_b", h_b), ("c", c)):
            if not is_hermitian(m):
                raise ValueError(f"{name} is not Hermitian")
        object.__setattr__(self, "mu", as_real(self.mu, "mu"))
        object.__setattr__(self, "eta", as_real(self.eta, "eta"))
        if not 0.0 < self.mu:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if np.max(np.abs(commutator(h_a, c))) > COMMUTING_TOL:
            raise ValueError("h_a and c do not commute: measurement is not nondemolition")
        w, v = np.linalg.eigh(c)
        if np.any(np.diff(w) <= SPECTRAL_GAP_TOL):
            raise ValueError("c has a degenerate spectrum; eigenstates are not isolated")
        coupling = hermitize(dag(v) @ h_b @ v)
        if not _connected(coupling):
            raise ValueError("coupling graph of h_b in c's eigenbasis is disconnected")
        object.__setattr__(self, "basis", v)
        object.__setattr__(self, "levels", w)
        object.__setattr__(self, "energies", np.diagonal(dag(v) @ h_a @ v).real.copy())
        object.__setattr__(self, "coupling", coupling)

    @property
    def n(self) -> int:
        return self.h_a.shape[0]

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V^dag m V for stacked (..., N, N) matrices given in the lab basis."""
        return dag(self.basis) @ m @ self.basis

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V m V^dag: stacked (..., N, N) matrices back in the lab basis, each row alone.

        The einsums read a row-major copy, so a row's bits do not depend on the batch.
        """
        vm = np.einsum("ij,...jk->...ik", self.basis, np.ascontiguousarray(m))
        return np.einsum("...ij,kj->...ik", vm, self.basis.conj())


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Rank-one target rho_d, an eigenstate of c, built from its model and rho_d alone.

    ValueError unless rho_d is a rank-one density within EIGENSTATE_TOL of
    the projector onto column level of model.basis. antipodal[j] projects
    onto the j-th other column. observables (7, N) weights the populations
    by x_i = (rho_d)_ii, c_i, c_i^2, c_i^3 and the control rates r_i by 2 x_i,
    as <-i[X, h_b]> = 2 sum_i x_i r_i; moment_weights is its (2N, 7) block form.
    """

    model: InitVar[ModelSpec]
    rho_d: np.ndarray
    level: int = _derived()
    c: np.ndarray = _derived()
    antipodal: list[np.ndarray] = _derived()
    observables: np.ndarray = _derived()
    moment_weights: np.ndarray = _derived()

    def __post_init__(self, model: ModelSpec):
        rho_d = hermitize(np.asarray(self.rho_d, dtype=complex))
        n = model.n
        if rho_d.shape != (n, n):
            raise ValueError(f"rho_d shape {rho_d.shape} does not match model dimension {n}")
        validate_density(rho_d, name="rho_d")
        if abs(purity(rho_d) - 1.0) > EIGENSTATE_TOL:
            raise ValueError("rho_d is not rank one")
        d = model.to_eigenbasis(rho_d)
        c, v = model.levels, model.basis
        # diagonals of rho_d, C, C^2, C^3 in C's eigenbasis, taken before the level check edits d
        diagonals = np.stack([np.diagonal(d).real, c, c * c, c * c * c])
        hit = int(np.argmax(diagonals[0]))
        d[hit, hit] -= 1.0
        if np.max(np.abs(d)) > EIGENSTATE_TOL:
            raise ValueError("rho_d is not an eigenstate of c: in c's eigenbasis it is no level")
        observables = np.concatenate([diagonals, 2.0 * diagonals[:3]])
        weights = np.zeros((2 * n, 7))
        weights[:n, :K_RHO_D] = observables[:K_RHO_D].T
        weights[n:, K_RHO_D:] = observables[K_RHO_D:].T
        derived = {
            "rho_d": rho_d,
            "level": hit,
            "c": model.c,
            "antipodal": [v[:, [j]] @ dag(v[:, [j]]) for j in range(n) if j != hit],
            "observables": observables,
            "moment_weights": weights,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def for_model(cls, model: ModelSpec, rho_d: np.ndarray) -> "TargetSpec":
        return cls(model, rho_d)


def _left_product(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h @ x, h (N, N) or stacked: a matmul on ket columns, index-order adds on densities.

    The one product of density stacks: each entry is sum_k h_ik x_kj, added
    in k order by elementwise operations, so no row depends on the batch.
    """
    if x.shape[-1] == 1:
        return h @ x
    out = h[..., :, :1] * x[..., :1, :]
    for k in range(1, x.shape[-2]):
        out += h[..., :, k : k + 1] * x[..., k : k + 1, :]
    return out


def sum_last(x: np.ndarray) -> np.ndarray:
    """x.sum(-1) as elementwise adds in index order, so no row depends on the batch's layout."""
    out = x[..., 0]
    for k in range(1, x.shape[-1]):
        out = out + x[..., k]
    return out


def density(state: np.ndarray) -> np.ndarray:
    """The density of a state: a density as given, psi psi^dag of a ket column."""
    if state.shape[-1] == 1:
        return state * np.conj(state.swapaxes(-1, -2))
    return state


def populations(state: np.ndarray) -> np.ndarray:
    """(..., N) populations in C's eigenbasis: rho_ii, or Re(conj(psi_i) psi_i) of a ket column."""
    if state.shape[-1] == 1:
        psi = state[..., 0]
        return (np.conj(psi) * psi).real
    return state.diagonal(0, -2, -1).real


def moments(state: np.ndarray, model: ModelSpec, target: TargetSpec, hx=None,
            weights=None) -> np.ndarray:
    """<rho_d>, <C>, <C^2>, <C^3>, <K_rho_d>, <K_C>, <K_C2> of a state, on a last axis of 7.

    hx is h_b state if the caller holds it. Populations p_i and rates
    r_i = Im (h_b rho)_ii are weighted by target.observables: for a density
    as (N, ...) lanes times weights, its (N, 7, ...) form (made here if None),
    summed in index order; for a ket by one matmul of [p, r] with moment_weights.
    """
    hx = _left_product(model.coupling, state) if hx is None else hx
    if state.shape[-1] == 1:
        bra = np.conj(state[..., 0])
        p, r = (bra * state[..., 0]).real, (bra * hx[..., 0]).imag
        pr = np.concatenate([p, r], axis=-1)[..., None, :]
        return (pr @ target.moment_weights)[..., 0, :]
    # (N, ...) lanes with the batch axes reversed, which the closing .T restores
    p, r = populations(state).T, hx.diagonal(0, -2, -1).imag.T
    if weights is None:
        weights = target.observables.T.reshape(len(p), 7, *[1] * (p.ndim - 1))
    rows = np.empty((len(p), 7, *p.shape[1:]))
    rows[:, :K_RHO_D] = p[:, None]
    rows[:, K_RHO_D:] = r[:, None]
    rows *= weights
    return sum_last(rows.T)


def _density_stack(b: int, n: int) -> np.ndarray:
    """An empty (b, n, n) density stack in batch-last lanes: the view of (n, n, b) memory.

    Entry (i, j) of every row is one contiguous (b,) lane. No einsum, np.sum,
    matmul or LAPACK call may read it, as their summation order follows the
    strides: sums are index-order adds (_left_product, sum_last) and other
    reads take row-major copies, so a row is bit for bit the same in any batch.
    """
    return np.empty((n, n, b), dtype=complex).transpose(2, 0, 1)


def mean_level(state: np.ndarray, model: ModelSpec) -> np.ndarray:
    """<C> = sum_i c_i p_i as adds in index order, bit for bit moments' C1 row for a density."""
    return sum_last(populations(state) * model.levels)


def sme_drift(rho: np.ndarray, model: ModelSpec, u) -> np.ndarray:
    """F + D with H = h_a + u h_b, a new array; u = None (open loop) skips the control term."""
    a, c = model.energies, model.levels
    gaps = c[:, None] - c[None, :]
    out = (-1j * (a[:, None] - a[None, :]) - 0.5 * model.mu * (gaps * gaps)) * rho
    if u is None:
        return out
    hr = _left_product(model.coupling, rho)
    control = hr - dag(hr)
    # u as an array even for a scalar u, so -1j times it is a numpy value
    control *= (-1j * np.asarray(u))[..., None, None]
    out += control
    return out


def diffusion_term(rho: np.ndarray, mean: np.ndarray, model: ModelSpec) -> np.ndarray:
    """G = sqrt(mu eta) (c_i + c_j - 2 mean) rho_ij, in rho's layout; traceless at mean = <C>."""
    c = model.levels
    # in rho's layout: broadcast from (N, N) and (..., 1, 1) alone it comes out row-major
    centered = np.subtract(c[:, None] + c[None, :], 2.0 * mean[..., None, None],
                           out=np.empty_like(rho, dtype=float))
    centered *= math.sqrt(model.mu * model.eta)
    return centered * rho


def measurement_increment(mean: np.ndarray, model: ModelSpec, dt: float, dW) -> np.ndarray:
    """Detector record dY = sqrt(eta) <C> dt + dW, with mean = <C>.

    Mis-scaled: the SME filters 2 sqrt(eta mu) <C> dt + dW, the record of
    sqrt(mu) C, so the two agree only at mu = 1/4. No state or verdict reads dY.
    """
    return (math.sqrt(model.eta) * dt) * mean + dW


def sse_drift(psi: np.ndarray, mean: np.ndarray, model: ModelSpec, u) -> np.ndarray:
    """(-i H - (mu/2)(c - mean)^2) psi, H = h_a + u h_b, of ket columns at eta = 1; a new array."""
    centered = model.levels[:, None] - mean[..., None, None]
    centered *= centered
    centered *= -0.5 * model.mu
    out = np.add(centered, -1j * model.energies[:, None])
    out *= psi
    out += (-1j * np.asarray(u))[..., None, None] * (model.coupling @ psi)
    return out


def sse_diffusion(psi: np.ndarray, mean: np.ndarray, model: ModelSpec) -> np.ndarray:
    """sqrt(mu) (c - mean) psi of ket columns at eta = 1, a new array."""
    return (math.sqrt(model.mu) * (model.levels[:, None] - mean[..., None, None])) * psi
