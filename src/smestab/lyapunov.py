"""Lyapunov certificates and the measurement-backaction feedback laws.

    V1 = tr(rho_d^2) - tr(rho_d rho),   V2 = <C^2> - <C>^2,   Vt = V1 + V2 / ell^2
    L Vt  = -u T_ell - (4 mu eta / ell^2) V2^2
    T_ell = tr(-i[h_b, rho] (rho_d + (2 <C> C - C^2) / ell^2))
          = <K_rho_d> + (2 <C> <K_C> - <K_C2>) / ell^2,   K_X = -i[X, h_b]

The square_of_sum law u = k^2 T_ell - (4 k sqrt(mu eta) / ell) V2 completes
L Vt to -(k T_ell - (2 sqrt(mu eta) / ell) V2)^2. Laws and certificates read
rho only through the seven moments of dynamics.moments; v1, v2 and v_tilde
keep their trace forms for the arbiter, generator_v_montecarlo_check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import C1, C2, C3, K_C, K_C2, K_RHO_D, RHO_D  # rows of TargetSpec.observables
from .dynamics import ModelSpec, TargetSpec, diffusion_term, mean_level, moments, sme_drift
from .hermitian import expectation, purity, validate_density, variance
from .params import as_integer, as_real

KINDS = ("open_loop", "linear", "sum_of_squares", "square_of_sum", "tuned")


def _squared_gain(value, what: str) -> float:
    """A gain the laws may square: positive with a square in (0, inf), else ValueError."""
    x = as_real(value, what)
    if not (x > 0.0 and 0.0 < x * x < np.inf):
        raise ValueError(f"{what} must be positive with a finite nonzero square, got {x}")
    return x


def _certificate_inputs(rho, u, ell) -> float:
    """ell as ControllerSpec accepts it; ValueError on rho off the cone, non-finite u, bad ell."""
    validate_density(rho, name="rho")
    if u is not None and not np.all(np.isfinite(np.asarray(u, dtype=float))):
        raise ValueError(f"u must be finite, got {u!r}")
    return _squared_gain(ell, "weight ell")


@dataclass(frozen=True)
class ControllerSpec:
    """Feedback law selector with gain k and variance weight ell, which the laws square.

    ValueError on an unknown kind, or a k or ell without a square in (0, inf).
    """

    kind: str
    k: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}, expected one of {KINDS}")
        object.__setattr__(self, "k", _squared_gain(self.k, "gain k"))
        object.__setattr__(self, "ell", _squared_gain(self.ell, "weight ell"))


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
    """T_ell of a lab-basis density; ValueError as in _certificate_inputs."""
    ell = _certificate_inputs(rho, None, ell)
    return _trace_term(moments(model.to_eigenbasis(rho), model, target), ell)


def generator_v(
    rho: np.ndarray, model: ModelSpec, target: TargetSpec, u, ell: float
) -> np.ndarray:
    """L Vt at control u of a lab-basis density, in closed form; ValueError as in trace_term."""
    ell = _certificate_inputs(rho, u, ell)
    m = moments(model.to_eigenbasis(rho), model, target)
    return certificates(m, model, target, u, ell)["lv"]


def certificates(
    m: np.ndarray, model: ModelSpec, target: TargetSpec, u, ell: float
) -> dict[str, np.ndarray]:
    """Every recorded certificate at control u, from a (..., 7) table m of moments.

    v1, v2, v_tilde; lv = L Vt = -u T_ell + l0 and lb = -T_ell;
    third = <C^3> - 3 <C> <C^2> + 2 <C>^3; fidelity = tr(rho_d rho).
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
    """L Vt at u = feedback(rho), both from one moment table; ValueError on rho off the cone."""
    validate_density(rho, name="rho")
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
    """Sampled L Vt at one state and its standard error, independent of the closed form.

    Averages Vt over (dW, -dW) pairs of one-step Euler-Maruyama updates
    rho + (F + D) dt +/- G dW from sme_drift and diffusion_term, n_samples
    >= 1000 draws of N(0, dt), 0 < dt <= 1e-3, Philox keyed (seed, 0). A pair
    cancels the O(dW) term exactly, leaving -(tr C G)^2 (dW^2 / dt - 1) / ell^2
    and the bias -(tr C (F + D))^2 dt / ell^2. ValueError on rho off the cone,
    a non-finite u, a bad ell, or n_samples, dt or seed out of range.
    """
    u = as_real(u, "u")
    ell = _certificate_inputs(rho, u, ell)
    n_samples = as_integer(n_samples, "n_samples")
    if n_samples < 1_000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples}")
    dt = as_real(dt, "dt")
    if not 0.0 < dt <= 1e-3:
        raise ValueError(f"dt must be positive and at most 1e-3, got {dt}")
    seed = as_integer(seed, "seed")
    if not 0 <= seed <= 2**64 - 1:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    rho = np.asarray(rho, dtype=complex)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    dw = rng.normal(0.0, np.sqrt(dt), size=n_samples)
    frame = model.to_eigenbasis(rho)
    step = model.from_eigenbasis(frame + sme_drift(frame, model, u) * dt)
    g = model.from_eigenbasis(diffusion_term(frame, mean_level(frame, model), model))
    kick = g * dw[:, None, None]

    def vt(states):
        return v_tilde(states, model, target, ell)

    pairs = 0.5 * (vt(step + kick) + vt(step - kick))
    v0 = float(vt(rho))
    estimate = (float(pairs.mean()) - v0) / dt
    stderr = float(pairs.std(ddof=1)) / np.sqrt(n_samples) / dt
    return estimate, stderr
