"""Closed-form qubit dynamics in Bloch coordinates (x, y, z) = tr(rho sigma).

Canonical model: h_a = omega sigma_z, h_b = sigma_x, c = sigma_z, target the
z = +1 pole diag(1, 0). The conditioned master equation reduces to

    dx = (-2 omega y - 2 mu x) dt - 2 sqrt(mu eta) x z dW
    dy = (+2 omega x - 2 u z - 2 mu y) dt - 2 sqrt(mu eta) y z dW
    dz =  2 u y dt + 2 sqrt(mu eta) (1 - z^2) dW

with V1 = (1 - z)/2, V2 = 1 - z^2, and the trace term T_ell = y (1 + 4 z/ell^2).
These forms cross-check the matrix engine, which is normative.
"""
from __future__ import annotations

import numpy as np

from .dynamics import ModelSpec
from .integrate import SimConfig, _brownian_increments, _record_slots
from .lyapunov import ControllerSpec
from .params import as_integer

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def to_density(b: np.ndarray) -> np.ndarray:
    """rho = (I + x sx + y sy + z sz)/2 for stacked Bloch vectors (..., 3)."""
    b = np.asarray(b, dtype=float)
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    out = 0.5 * (
        np.eye(2, dtype=complex)
        + x[..., None, None] * SIGMA_X
        + y[..., None, None] * SIGMA_Y
        + z[..., None, None] * SIGMA_Z
    )
    return out


def from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (..., 3) of stacked qubit densities."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("from_density expects 2x2 matrices")
    x = np.einsum("...ij,...ji->...", SIGMA_X, rho).real
    y = np.einsum("...ij,...ji->...", SIGMA_Y, rho).real
    z = np.einsum("...ij,...ji->...", SIGMA_Z, rho).real
    return np.stack([x, y, z], axis=-1)


def bloch_v2(b: np.ndarray) -> np.ndarray:
    """1 - z^2: variance of sigma_z."""
    return 1.0 - np.asarray(b)[..., 2] ** 2


def bloch_trace_term(b: np.ndarray, ell: float) -> np.ndarray:
    """T_ell = y (1 + 4 z / ell^2)."""
    b = np.asarray(b)
    return b[..., 1] * (1.0 + 4.0 * b[..., 2] / ell**2)


def bloch_feedback(b: np.ndarray, ctrl: ControllerSpec, mu: float, eta: float) -> np.ndarray:
    """The control laws in Bloch coordinates; mirrors feedback() exactly."""
    b = np.asarray(b)
    y = b[..., 1]
    if ctrl.kind == "open_loop":
        return np.zeros(y.shape)
    if ctrl.kind == "linear":
        return ctrl.k * y
    t = bloch_trace_term(b, ctrl.ell)
    if ctrl.kind == "sum_of_squares":
        return ctrl.k * t
    gain = 4.0 * ctrl.k * np.sqrt(mu * eta) / ctrl.ell
    return ctrl.k**2 * t - gain * bloch_v2(b)


def bloch_split_step(b: np.ndarray, omega: float, u, mu: float, eta: float, dt: float,
                     dW) -> np.ndarray:
    """One step of the exact split that integrate._sme_step takes, in closed form.

    With r = sqrt(mu eta), e = u dt and the record dY = 2 r z dt + dW, the
    control congruence K rho K^dag, K = I - i e sigma_x, maps the trace and
    Bloch vector (1, x, y, z) to the unnormalised (t, x~, y~, z~) =
    (1 + e^2, (1 + e^2) x, (1 - e^2) y - 2 e z, (1 - e^2) z + 2 e y). The
    split then weighs the poles by p = (t + z~) exp(2 r dY) and
    q = (t - z~) exp(-2 r dY), and turns the coherence by 2 omega dt and damps
    it by exp(-2 mu (1 - eta) dt):

        z' = (p - q) / (p + q)
        x' + i y' = 2 exp(-2 mu (1 - eta) dt) exp(2 i omega dt) (x~ + i y~) / (p + q)
    """
    b = np.asarray(b, dtype=float)
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    e = np.asarray(u) * dt
    root = 2.0 * np.sqrt(mu * eta)
    dy = z * (root * dt) + dW
    t, shrink = 1.0 + e * e, 1.0 - e * e
    x, y, z = t * x, shrink * y - 2.0 * e * z, shrink * z + 2.0 * e * y
    p = (t + z) * np.exp(root * dy)
    q = (t - z) * np.exp(-root * dy)
    g = 2.0 * np.exp(-2.0 * mu * (1.0 - eta) * dt) / (p + q)
    cos, sin = np.cos(2.0 * omega * dt), np.sin(2.0 * omega * dt)
    return np.stack([g * (cos * x - sin * y), g * (sin * x + cos * y), (p - q) / (p + q)], axis=-1)


def integrate_bloch(
    b0: np.ndarray,
    omega: float,
    ctrl: ControllerSpec,
    mu: float,
    eta: float,
    sim: SimConfig,
    indices: list[int] | None = None,
    n_trajectories: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, paths (B, n_recorded, 3)) of lockstep bloch_split_step paths on run_batch's noise.

    ValueError on an "sse" sim or a b0 that is not one (3,) vector.
    """
    if indices is None:
        indices = list(range(n_trajectories))
    if sim.representation != "sme":
        raise ValueError("integrate_bloch implements the density representation only")
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != (3,):
        raise ValueError("b0 must be a single Bloch vector of shape (3,)")
    n_steps = sim.n_steps
    slots = _record_slots(n_steps, sim.record_stride)
    slot_of = {int(k): j for j, k in enumerate(slots)}

    b = np.broadcast_to(b0, (len(indices), 3)).copy()
    paths = np.zeros((len(indices), len(slots), 3))
    noise = _brownian_increments(sim.seed, indices, sim.dt, n_steps)
    for k in range(n_steps + 1):
        if k in slot_of:
            paths[:, slot_of[k]] = b
        if k == n_steps:
            break
        dw = next(noise)
        u = bloch_feedback(b, ctrl, mu, eta)
        b = bloch_split_step(b, omega, u, mu, eta, sim.dt, dw)
    return slots * sim.dt, paths


def levelset_table(
    k: float, ell: float, mu: float, eta: float, resolution: int = 201
) -> dict[str, np.ndarray]:
    """Closed-loop L Vt <= 0 of the square_of_sum law on a (y, z) grid over [-1, 1]^2.

    Flat arrays y, z, lv and physical (1 inside the unit disc). ValueError on
    a resolution that is not an integer of at least 2, or a k, ell, mu or eta
    that a run would refuse.
    """
    resolution = as_integer(resolution, "resolution")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    ControllerSpec("square_of_sum", k, ell)
    ModelSpec(h_a=SIGMA_Z, h_b=SIGMA_X, c=SIGMA_Z, mu=mu, eta=eta)
    axis = np.linspace(-1.0, 1.0, resolution)
    yy, zz = np.meshgrid(axis, axis, indexing="ij")
    s = k * yy * (1.0 + 4.0 * zz / ell**2) - (2.0 * np.sqrt(mu * eta) / ell) * (
        1.0 - zz**2
    )
    lv = -(s**2)
    physical = (yy**2 + zz**2 <= 1.0).astype(int)
    return {
        "y": yy.ravel(),
        "z": zz.ravel(),
        "lv": lv.ravel(),
        "physical": physical.ravel(),
    }
