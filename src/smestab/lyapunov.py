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

As tr(-i[h_b, rho] X) = <K_X> with the constant Hermitian K_X = -i[X, h_b],
laws and certificates read rho only through <O> = Re tr(O rho) for the seven
rows of TargetSpec.observables (rho_d, C, C^2, C^3, K_rho_d, K_C, K_C2):

    T_ell = <K_rho_d> + (2 <C> <K_C> - <K_C2>) / ell^2,   linear u = k <K_rho_d>.

All seven are diagonal or h_b-weighted in C's eigenbasis, so each is a fixed
weighting of the populations p_i = rho_ii and the control rates
r_i = Im (h_b rho)_ii there: <X> = sum_i x_i p_i and <K_X> = 2 sum_i x_i r_i.
dynamics.moments builds this table. integrate.run_batch hands it
X = h_b rho, which its control term reuses, and passes the table to the law;
record points store it, and one certificates call per run derives every
certificate series from them. generator_v reads L Vt from certificates too.

v1, v2 and v_tilde keep their direct trace forms: the Monte-Carlo arbiter of
the generator shares no code with the closed form it judges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import C1, C2, C3, K_C, K_C2, K_RHO_D, RHO_D  # rows of TargetSpec.observables
from .dynamics import ModelSpec, TargetSpec, diffusion_term, mean_level, moments, sme_drift
from .hermitian import expectation, purity, variance
from .params import as_real

KINDS = ("open_loop", "linear", "sum_of_squares", "square_of_sum", "tuned")


@dataclass(frozen=True)
class ControllerSpec:
    """Feedback law selector with gain k > 0 and variance weight ell > 0.

    Each must be finite with a square in (0, inf), as the laws square both.
    """

    kind: str
    k: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}, expected one of {KINDS}")
        for name, what in (("k", "gain k"), ("ell", "weight ell")):
            x = as_real(getattr(self, name), what)
            if not (x > 0.0 and 0.0 < x * x < np.inf):
                raise ValueError(f"{what} must be positive with a finite nonzero square, got {x}")
            object.__setattr__(self, name, x)


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


# Powers are written as products: numpy raises a scalar with pow() but squares
# an array elementwise, and the two may differ in the last bit, so a state
# alone would not match its row in a batch.
def _variance(m: np.ndarray) -> np.ndarray:
    return m[..., C2] - m[..., C1] * m[..., C1]


def _trace_term(m: np.ndarray, ell: float) -> np.ndarray:
    return m[..., K_RHO_D] + (2.0 * m[..., C1] * m[..., K_C] - m[..., K_C2]) / ell**2


def _l0(var: np.ndarray, model: ModelSpec, ell: float) -> np.ndarray:
    return -4.0 * model.mu * model.eta * (var * var) / ell**2


def trace_term(rho: np.ndarray, model: ModelSpec, target: TargetSpec, ell: float) -> np.ndarray:
    """T_ell = <K_rho_d> + (2 <C> <K_C> - <K_C2>) / ell^2 of a lab-basis density."""
    return _trace_term(moments(model.to_eigenbasis(rho), model, target), ell)


def generator_v(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, u, ell: float
) -> np.ndarray:
    """Closed-form infinitesimal generator of Vt along the controlled diffusion."""
    m = moments(model.to_eigenbasis(rho), model, target)
    return certificates(m, model, target, u, ell)["lv"]


def certificates(
    m: np.ndarray, model: ModelSpec, target: TargetSpec, u, ell: float
) -> dict[str, np.ndarray]:
    """Every recorded certificate at control u, from a (..., 7) table m of moments.

    v1, v2, v_tilde; lv = L Vt at u, split into the drift part l0 and the
    control derivative lb = -T_ell; third = <C^3> - 3 <C> <C^2> + 2 <C>^3, the
    drift asymmetry of the collapse; fidelity = tr(rho_d rho). T_ell, V2 and
    l0 are evaluated once each.
    """
    e1 = m[..., C1]
    var = _variance(m)
    t = _trace_term(m, ell)
    l0 = _l0(var, model, ell)
    dist = purity(target.rho_d) - m[..., RHO_D]
    return {
        "v1": dist,
        "v2": var,
        "v_tilde": dist + var / ell**2,
        "lv": -np.asarray(u) * t + l0,
        "l0": l0,
        "lb": -t,
        "third": m[..., C3] - 3.0 * e1 * m[..., C2] + 2.0 * (e1 * e1 * e1),
        "fidelity": m[..., RHO_D],
    }


def feedback(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, ctrl: ControllerSpec, m=None
) -> np.ndarray:
    """Control value of the selected law at a lab-basis density, or at the moments m if given."""
    if ctrl.kind == "open_loop":
        return np.zeros(np.asarray(rho).shape[:-2])
    m = moments(model.to_eigenbasis(rho), model, target) if m is None else m
    if ctrl.kind == "linear":
        return ctrl.k * m[..., K_RHO_D]
    t = _trace_term(m, ctrl.ell)
    if ctrl.kind == "sum_of_squares":
        return ctrl.k * t
    # square_of_sum and tuned share the gain-bearing completed-square law
    gain = 4.0 * ctrl.k * math.sqrt(model.mu * model.eta) / ctrl.ell
    return ctrl.k**2 * t - gain * _variance(m)


def closed_loop_generator(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, ctrl: ControllerSpec
) -> np.ndarray:
    """L Vt evaluated at u = feedback(rho); the law and L Vt read one moment table."""
    m = moments(model.to_eigenbasis(rho), model, target)
    return certificates(m, model, target, feedback(rho, model, target, ctrl, m), ctrl.ell)["lv"]


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
    frame = model.to_eigenbasis(rho)
    drift = sme_drift(frame, model, u)
    g = diffusion_term(frame, mean_level(frame, model), model)
    samples = model.from_eigenbasis(frame + drift * dt + g * dw[:, None, None])
    vt = v_tilde(samples, model, target, ell)
    v0 = float(v_tilde(rho, model, target, ell))
    estimate = (float(vt.mean()) - v0) / dt
    stderr = float(vt.std(ddof=1)) / np.sqrt(n_samples) / dt
    return estimate, stderr
