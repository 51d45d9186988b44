"""Shared builders for the test suite: canonical and random models, random states,
and the dense lab-basis forms of the conditioned equation used as oracles."""
import numpy as np

from smestab import ModelSpec, TargetSpec
from smestab.dynamics import _left_product, populations, sme_drift
from smestab.hermitian import dag
from smestab.integrate import _assemble, _coherences, _population_step, _sme_step

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

RHO_D2 = np.diag([1.0, 0.0]).astype(complex)
RHO_D3 = np.diag([1.0, 0.0, 0.0]).astype(complex)

H_A3 = np.diag([0.0, 1.0, 3.0]).astype(complex)
C3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
H_B3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
H_B3_FIRST_ROW = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)


def qubit(mu=1.0, eta=1.0, omega=1.0):
    """Canonical two-level model: h_a = omega sz, h_b = sx, c = sz, target z=+1."""
    model = ModelSpec(h_a=omega * SZ, h_b=SX, c=SZ, mu=mu, eta=eta)
    return model, TargetSpec.for_model(model, RHO_D2)


def qutrit(mu=1.0, eta=1.0, h_b=None):
    """Three-level model with strongly regular h_a and a simple observable."""
    model = ModelSpec(h_a=H_A3, h_b=H_B3 if h_b is None else h_b, c=C3, mu=mu, eta=eta)
    return model, TargetSpec.for_model(model, RHO_D3)


def ginibre(rng, n, batch=()):
    """Full-rank random density matrices (normalized Wishart form)."""
    g = rng.normal(size=(*batch, n, n)) + 1j * rng.normal(size=(*batch, n, n))
    rho = g @ np.conj(np.swapaxes(g, -1, -2))
    tr = np.einsum("...ii", rho).real
    return rho / tr[..., None, None]


def random_pure(rng, n, batch=()):
    """Rank-one random density matrices from isotropic state vectors."""
    psi = rng.normal(size=(*batch, n)) + 1j * rng.normal(size=(*batch, n))
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    return np.einsum("...i,...j->...ij", psi, np.conj(psi))


def random_model(rng, n):
    """Diagonal C and h_a, dense h_b, all rotated by one Haar-ish unitary."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    spectrum = np.sort(rng.uniform(-1.0, 1.0, n))
    spectrum += 0.05 * np.arange(n)  # gaps stay above the simple-spectrum tolerance
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h_b = (g + g.conj().T) / (2.0 * np.sqrt(n))

    def rotate(m):
        return q @ m @ q.conj().T

    model = ModelSpec(
        h_a=rotate(np.diag(rng.uniform(-1.0, 1.0, n))), h_b=rotate(h_b),
        c=rotate(np.diag(spectrum)), mu=rng.uniform(0.2, 2.0), eta=rng.uniform(0.1, 1.0),
    )
    rho_d = rotate(np.diag(np.eye(n)[rng.integers(n)]).astype(complex))
    return model, TargetSpec.for_model(model, rho_d)


def drift_table(model):
    """The drift's constant (N, N) table, read off the all-ones J as integrate._split reads it."""
    return sme_drift(np.ones((model.n, model.n), dtype=complex), model, None)


def dense_drift(rho, model, u):
    """-i [h_a + u h_b, rho] + mu D[c] rho in the lab basis, from the definition."""
    u = np.asarray(u)[..., None, None]
    h = model.h_a + u * model.h_b
    c, c2 = model.c, model.c @ model.c
    return -1j * (h @ rho - rho @ h) + model.mu * (c @ rho @ c - 0.5 * (c2 @ rho + rho @ c2))


def dense_diffusion(rho, model):
    """sqrt(mu eta) (c rho + rho c - 2 <c> rho) in the lab basis, from the definition."""
    c = model.c
    ex = np.einsum("ij,...ji->...", c, rho).real[..., None, None]
    return np.sqrt(model.mu * model.eta) * (c @ rho + rho @ c - 2.0 * ex * rho)


def dense_split_step(rho, model, u, dt, dw):
    """One exact QND split step of lab-basis densities, from the definitions.

    In C's eigenbasis V: dY = 2 sqrt(mu eta) <c> dt + dW, the control
    congruence K rho K^dag with K = I - i u dt V^dag h_b V (u = None skips
    it), then phi * R * (s s^T) normalised to unit trace, with
    phi_ij = exp((-i (a_i - a_j) - mu (c_i - c_j)^2 / 2 - mu eta (c_i + c_j)^2 / 2) dt)
    and s_i = exp(sqrt(mu eta) c_i dY). Dense matmuls throughout.
    """
    v, a, c = model.basis, model.energies, model.levels
    root = np.sqrt(model.mu * model.eta)
    frame = dag(v) @ rho @ v
    mean = np.einsum("ij,...ji->...", model.c, rho).real
    dy = 2.0 * root * mean * dt + dw
    if u is not None:
        k = np.eye(model.n) - 1j * (np.asarray(u) * dt)[..., None, None] * (dag(v) @ model.h_b @ v)
        frame = k @ frame @ dag(k)
    diff, total = c[:, None] - c[None, :], c[:, None] + c[None, :]
    phi = np.exp((-1j * (a[:, None] - a[None, :]) - 0.5 * model.mu * diff**2
                  - 0.5 * model.mu * model.eta * total**2) * dt)
    s = np.exp(root * c * np.asarray(dy)[..., None])
    out = phi * frame * (s[..., :, None] * s[..., None, :])
    out = out / np.einsum("...ii", out).real[..., None, None]
    return v @ out @ dag(v)


def density_step(rho, mean, u, hr, dw, split):
    """One exact QND split step of a (B, N, N) stack in C's eigenbasis; u = None is open loop.

    A steered step is integrate._sme_step, with h_b rho formed here from
    split.coupling when hr is None. An open-loop step is the composition
    run_batch takes: the population step, then a one-step assembly from
    rho's coherences; hr is not read.
    """
    if u is not None:
        hr = _left_product(split.coupling[..., 0], rho) if hr is None else hr
        return _sme_step(rho, mean, u, hr, dw, split)
    p = populations(rho).T
    return _assemble(_coherences(rho), _population_step(p, mean, dw, split), 1, split)
