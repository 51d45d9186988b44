"""Lyapunov certificates and the measurement-backaction feedback laws.

Distance-to-target and collapse witnesses

    V1 = tr(rho_d^2) - tr(rho_d rho)
    V2 = <C^2> - <C>^2
    Vt = V1 + V2 / ell^2

with the closed-form generator split along the control direction

    L Vt = -u T_ell - (4 mu eta / ell^2) V2^2
    T_ell = tr(-i[h_b, rho] (rho_d + (2 <C> C - C^2) / ell^2)).

The square_of_sum law completes L Vt to a negative square:

    u = k^2 T_ell - (4 k sqrt(mu eta) / ell) V2
    L Vt = -(k T_ell - (2 sqrt(mu eta) / ell) V2)^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, TargetSpec, diffusion_term, sme_drift
from .hermitian import commutator, expectation, purity, variance

KINDS = ("open_loop", "linear", "sum_of_squares", "square_of_sum", "tuned")


@dataclass(frozen=True)
class ControllerSpec:
    """Feedback law selector with gain k > 0 and variance weight ell > 0."""

    kind: str
    k: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}, expected one of {KINDS}")
        if not self.k > 0.0:
            raise ValueError(f"gain k must be positive, got {self.k}")
        if not self.ell > 0.0:
            raise ValueError(f"weight ell must be positive, got {self.ell}")


@dataclass(frozen=True)
class LyapunovReport:
    """Certificate values at one recorded state."""

    v1: float
    v2: float
    v_tilde: float
    lv_closed_loop: float
    l0_v: float
    lb_v: float
    third_moment: float


def v1(rho: np.ndarray, target: TargetSpec) -> np.ndarray:
    """tr(rho_d^2) - tr(rho_d rho), in [0, 1]; zero exactly at rho = rho_d."""
    return purity(target.rho_d) - expectation(target.rho_d, rho)


def v2(rho: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Measured-observable variance; zero exactly on eigenstates of c."""
    return variance(model.c, rho)


def v_tilde(rho: np.ndarray, model: ModelSpec, target: TargetSpec, ell: float) -> np.ndarray:
    """V1 + V2 / ell^2; unique global minimum at rho_d for every ell > 0."""
    return v1(rho, target) + v2(rho, model) / ell**2


def third_central_moment(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<C^3> - 3 <C> <C^2> + 2 <C>^3; the drift asymmetry of the collapse."""
    c2 = c @ c
    e1 = expectation(c, rho)
    e2 = expectation(c2, rho)
    e3 = expectation(c2 @ c, rho)
    return e3 - 3.0 * e1 * e2 + 2.0 * e1**3


def trace_term(rho: np.ndarray, model: ModelSpec, target: TargetSpec, ell: float) -> np.ndarray:
    """T_ell = tr(-i[h_b, rho] (rho_d + (2 <C> C - C^2) / ell^2))."""
    comm = commutator(model.h_b, rho)
    ex = expectation(model.c, rho)
    c2 = model.c @ model.c
    m = target.rho_d + (2.0 * ex[..., None, None] * model.c - c2) / ell**2
    return np.einsum("...ij,...ji->...", -1j * comm, m).real


def lb_v1(rho: np.ndarray, model: ModelSpec, target: TargetSpec) -> np.ndarray:
    """Control derivative of V1: L_b V1 = -tr(-i[h_b, rho] rho_d)."""
    comm = commutator(model.h_b, rho)
    return -np.einsum("...ij,...ji->...", -1j * comm, target.rho_d).real


def lb_v_tilde(rho: np.ndarray, model: ModelSpec, target: TargetSpec, ell: float) -> np.ndarray:
    """Control derivative of Vt: L_b Vt = -T_ell."""
    return -trace_term(rho, model, target, ell)


def l0_v_tilde(rho: np.ndarray, model: ModelSpec, ell: float) -> np.ndarray:
    """Drift part of L Vt at u = 0: -(4 mu eta / ell^2) V2^2 <= 0."""
    return -4.0 * model.mu * model.eta * v2(rho, model) ** 2 / ell**2


def generator_v(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, u, ell: float
) -> np.ndarray:
    """Closed-form infinitesimal generator of Vt along the controlled diffusion."""
    u = np.asarray(u)
    return -u * trace_term(rho, model, target, ell) + l0_v_tilde(rho, model, ell)


def feedback(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, ctrl: ControllerSpec
) -> np.ndarray:
    """Control value of the selected law at the current state."""
    if ctrl.kind == "open_loop":
        return np.zeros(np.asarray(rho).shape[:-2])
    if ctrl.kind == "linear":
        return -ctrl.k * lb_v1(rho, model, target)
    t = trace_term(rho, model, target, ctrl.ell)
    if ctrl.kind == "sum_of_squares":
        return ctrl.k * t
    # square_of_sum and tuned share the gain-bearing completed-square law
    gain = 4.0 * ctrl.k * np.sqrt(model.mu * model.eta) / ctrl.ell
    return ctrl.k**2 * t - gain * v2(rho, model)


def closed_loop_generator(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, ctrl: ControllerSpec
) -> np.ndarray:
    """L Vt evaluated at u = feedback(rho)."""
    u = feedback(rho, model, target, ctrl)
    return generator_v(rho, model, target, u, ctrl.ell)


def generator_v_montecarlo_check(
    rho: np.ndarray,
    model: ModelSpec,
    target: TargetSpec,
    u: float,
    ell: float,
    n_samples: int = 10_000,
    dt: float = 1e-5,
    seed: int = 0,
) -> tuple[float, float]:
    """Finite-difference estimate of L Vt, independent of the closed form.

    Draws n_samples one-step Euler-Maruyama updates of rho (raw increments, no
    cone projection) and returns ((E[Vt(rho')] - Vt(rho)) / dt, standard error).
    """
    if n_samples < 1_000:
        raise ValueError("n_samples must be at least 1000")
    if dt > 1e-3:
        raise ValueError("dt must be at most 1e-3")
    rho = np.asarray(rho, dtype=complex)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    dw = rng.normal(0.0, np.sqrt(dt), size=n_samples)
    drift = sme_drift(rho, model, u)
    g = diffusion_term(rho, model.c, model.mu, model.eta)
    samples = rho + drift * dt + g * dw[:, None, None]
    vt = v_tilde(samples, model, target, ell)
    v0 = float(v_tilde(rho, model, target, ell))
    estimate = (float(vt.mean()) - v0) / dt
    stderr = float(vt.std(ddof=1)) / np.sqrt(n_samples) / dt
    return estimate, stderr
