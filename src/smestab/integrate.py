"""Euler-Maruyama integration of the conditioned dynamics, one or many paths.

One step loop, run_batch, advances trajectories in lockstep. The
representation picks its step kernel once per call: _sme_step advances a
(B, N, N) density stack, _sse_step a (B, N) state-vector stack (eta = 1
only). Feedback, the detector record and the certificates are evaluated on
the density of either. Each trajectory index draws its Brownian increments
from its own counter-based substream keyed (master_seed, trajectory_index),
so a path is bit-identical whether it runs alone or inside any batch, and
reruns reproduce it exactly.

Per step: the control is evaluated at the pre-step state and the Ito
increment is applied. A density is then re-Hermitized and trace-renormalized,
and hermitian.project_to_density clips it only when its smallest eigenvalue
drops below the validity floor; a state vector is renormalized.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ModelSpec,
    TargetSpec,
    diffusion_term,
    measurement_increment,
    sme_drift,
    sse_diffusion,
    sse_drift,
)
from .hermitian import EIG_FLOOR, hermitize, min_eigenvalue, project_to_density, purity, trace
from .lyapunov import (
    ControllerSpec,
    LyapunovReport,
    feedback,
    generator_v,
    l0_v_tilde,
    lb_v_tilde,
    third_central_moment,
    v1 as _v1,
    v2 as _v2,
    v_tilde as _v_tilde,
)

REPRESENTATIONS = ("sme", "sse")
REJECTION_BUDGET = 1e-3
NOISE_WINDOW = 4096


class IntegrationError(RuntimeError):
    """Numerical failure inside the step loop (non-finite state, bad dt)."""


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seeding, and recording policy for one integration."""

    dt: float
    t_final: float
    seed: int
    record_stride: int = 1
    representation: str = "sme"

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ValueError("t_final must cover at least one step")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.record_stride < 1 or int(self.record_stride) != self.record_stride:
            raise ValueError("record_stride must be a positive integer")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    """One recorded path with its certificate series and final classification."""

    times: np.ndarray
    states: list[np.ndarray]
    controls: np.ndarray
    records: np.ndarray
    lyapunov: list[LyapunovReport]
    outcome: str
    fidelity_target: np.ndarray
    purity: np.ndarray
    n_steps: int
    n_projected: int
    n_rejected: int
    trajectory_index: int = 0

    @property
    def valid(self) -> bool:
        return within_rejection_budget(self.n_rejected, self.n_steps)


def within_rejection_budget(n_rejected, n_steps: int):
    """True where the step-rejection count fits REJECTION_BUDGET; counts or arrays."""
    return n_rejected <= REJECTION_BUDGET * n_steps


def _substream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _brownian_increments(seed: int, indices: list[int], dt: float, n_steps: int):
    """Yield the (B,) Brownian increments of steps 0..n_steps-1 in turn.

    Each trajectory's substream draws NOISE_WINDOW steps at a time, so memory
    stays bounded on long horizons and no path depends on the others.
    """
    gens = [_substream(seed, i) for i in indices]
    sqrt_dt = np.sqrt(dt)
    for start in range(0, n_steps, NOISE_WINDOW):
        width = min(NOISE_WINDOW, n_steps - start)
        yield from np.stack([g.normal(0.0, sqrt_dt, width) for g in gens]).T


def _sme_step(rho, u, dw, model, dt, n_rejected, n_projected) -> np.ndarray:
    """One Euler-Maruyama step of the density SME on a (B, N, N) stack.

    The increment is re-Hermitized and trace-normalized. A row left with a
    non-positive trace keeps its pre-step state and counts in n_rejected; a row
    whose smallest eigenvalue drops below EIG_FLOOR is projected onto the
    density cone and counts in n_projected. Both counters update in place.
    """
    g = diffusion_term(rho, model.c, model.mu, model.eta)
    nxt = rho + sme_drift(rho, model, u) * dt + g * dw[:, None, None]
    nxt = hermitize(nxt)
    tr = trace(nxt).real
    if not np.all(np.isfinite(tr)):
        raise IntegrationError("non-finite state")
    bad = tr <= 0.0
    if np.any(bad):
        n_rejected[bad] += 1
        nxt[bad] = rho[bad]
        tr = np.where(bad, 1.0, tr)
    nxt = nxt / tr[:, None, None]
    low = min_eigenvalue(nxt) < EIG_FLOOR
    if np.any(low):
        n_projected[low] += 1
        nxt[low] = project_to_density(nxt[low])
    return nxt


def _sse_step(psi, u, dw, model, dt, n_rejected, n_projected) -> np.ndarray:
    """One Euler-Maruyama step of the state-vector equation on a (B, N) stack.

    Valid at eta = 1 only. The result is renormalized, so it stays pure and
    neither counter ever moves.
    """
    psi = psi + sse_drift(psi, model, u) * dt + sse_diffusion(psi, model) * dw[:, None]
    norm = np.linalg.norm(psi, axis=-1)
    if not np.all(np.isfinite(norm)) or np.any(norm <= 0.0):
        raise IntegrationError("degenerate state-vector norm")
    return psi / norm[:, None]


def _pure_density(psi: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...j->...ij", psi, np.conj(psi))


@dataclass
class BatchResult:
    """Recorded series for a lockstep batch, trajectory-major."""

    indices: list[int]
    times: np.ndarray
    controls: np.ndarray
    records: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v_tilde: np.ndarray
    lv: np.ndarray
    l0: np.ndarray
    lb: np.ndarray
    third: np.ndarray
    fidelity: np.ndarray
    purity: np.ndarray
    final_states: np.ndarray
    n_steps: int
    n_projected: np.ndarray
    n_rejected: np.ndarray
    states: np.ndarray | None = field(default=None, repr=False)


def _record_slots(n_steps: int, stride: int) -> np.ndarray:
    slots = list(range(0, n_steps + 1, stride))
    if slots[-1] != n_steps:
        slots.append(n_steps)
    return np.asarray(slots)


CONVERGENCE_FIDELITY = 0.99


def _outcome_labels(target: TargetSpec) -> list[str]:
    """Every outcome label, in the order _classify tries them."""
    antipodal = [f"converged_antipodal({j})" for j in range(len(target.antipodal))]
    return ["converged_target", *antipodal, "undetermined"]


def _classify(final: np.ndarray, target: TargetSpec) -> list[str]:
    """Label each state by the first of [rho_d, *antipodal] it has converged to.

    Converged means a population of at least CONVERGENCE_FIDELITY; a state
    converged to none of them is "undetermined".
    """
    pops = np.stack(
        [np.einsum("ij,bji->b", p, final).real for p in [target.rho_d, *target.antipodal]],
        axis=1,
    )
    hit = pops >= CONVERGENCE_FIDELITY
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), pops.shape[1])
    labels = _outcome_labels(target)
    return [labels[j] for j in first]


def _alloc(b: int, n_rec: int) -> dict[str, np.ndarray]:
    names = "controls records v1 v2 v_tilde lv l0 lb third fidelity purity".split()
    return {name: np.zeros((b, n_rec)) for name in names}


def _record_point(
    out: dict[str, np.ndarray],
    slot: int,
    rho: np.ndarray,
    u: np.ndarray,
    window_dy: np.ndarray,
    model: ModelSpec,
    target: TargetSpec,
    ctrl: ControllerSpec,
) -> None:
    out["controls"][:, slot] = u
    out["records"][:, slot] = window_dy
    out["v1"][:, slot] = _v1(rho, target)
    out["v2"][:, slot] = _v2(rho, model)
    out["v_tilde"][:, slot] = _v_tilde(rho, model, target, ctrl.ell)
    out["lv"][:, slot] = generator_v(rho, model, target, u, ctrl.ell)
    out["l0"][:, slot] = l0_v_tilde(rho, model, ctrl.ell)
    out["lb"][:, slot] = lb_v_tilde(rho, model, target, ctrl.ell)
    out["third"][:, slot] = third_central_moment(model.c, rho)
    out["fidelity"][:, slot] = np.einsum("ij,...ji->...", target.rho_d, rho).real
    out["purity"][:, slot] = purity(rho)


def run_batch(
    rho0: np.ndarray,
    model: ModelSpec,
    target: TargetSpec,
    ctrl: ControllerSpec,
    sim: SimConfig,
    indices: list[int] | None = None,
    n_trajectories: int = 1,
    record_states: bool = False,
) -> BatchResult:
    """Integrate trajectories in lockstep from a shared or stacked initial state.

    rho0 is broadcast against (B, N, N), so one state may be shared by the
    whole batch or each trajectory may start from its own. indices selects the
    noise substreams (default 0..n_trajectories-1); every recorded scalar
    series has shape (B, n_recorded). The "sse" representation needs eta = 1
    and a rank-one rho0, and advances the leading eigenvector of rho0.
    """
    if indices is None:
        indices = list(range(n_trajectories))
    b = len(indices)
    n = model.n
    rho0 = np.asarray(rho0, dtype=complex)
    if sim.representation == "sse":
        if model.eta != 1.0:
            raise ValueError("the state-vector representation requires eta = 1")
        if np.max(np.abs(purity(rho0) - 1.0)) > 1e-9:
            raise ValueError("the state-vector representation requires a rank-one rho0")
        state = np.broadcast_to(np.linalg.eigh(rho0)[1][..., :, -1], (b, n)).copy()
        step, density = _sse_step, _pure_density
    else:
        state = np.broadcast_to(rho0, (b, n, n)).copy()
        step, density = _sme_step, lambda rho: rho

    n_steps = sim.n_steps
    slots = _record_slots(n_steps, sim.record_stride)
    slot_of = {int(k): j for j, k in enumerate(slots)}
    out = _alloc(b, len(slots))
    states = np.zeros((b, len(slots), n, n), dtype=complex) if record_states else None
    n_projected = np.zeros(b, dtype=int)
    n_rejected = np.zeros(b, dtype=int)
    window_dy = np.zeros(b)
    noise = _brownian_increments(sim.seed, indices, sim.dt, n_steps)

    for k in range(n_steps + 1):
        rho = density(state)
        u = feedback(rho, model, target, ctrl)
        if k in slot_of:
            j = slot_of[k]
            _record_point(out, j, rho, u, window_dy, model, target, ctrl)
            if states is not None:
                states[:, j] = rho
            window_dy = np.zeros(b)
        if k == n_steps:
            break
        dw = next(noise)
        window_dy = window_dy + measurement_increment(rho, model.c, model.eta, sim.dt, dw)
        try:
            state = step(state, u, dw, model, sim.dt, n_rejected, n_projected)
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {k}; reduce dt") from None

    return BatchResult(
        indices=list(indices),
        times=slots * sim.dt,
        final_states=rho,
        n_steps=n_steps,
        n_projected=n_projected,
        n_rejected=n_rejected,
        states=states,
        **out,
    )


def simulate(
    rho0: np.ndarray,
    model: ModelSpec,
    target: TargetSpec,
    ctrl: ControllerSpec,
    sim: SimConfig,
    trajectory_index: int = 0,
) -> Trajectory:
    """Integrate a single trajectory and record states and certificates."""
    res = run_batch(
        rho0, model, target, ctrl, sim, indices=[trajectory_index], record_states=True
    )
    # in LyapunovReport field order
    certificates = (res.v1, res.v2, res.v_tilde, res.lv, res.l0, res.lb, res.third)
    rows = np.stack([c[0] for c in certificates], axis=1).tolist()
    return Trajectory(
        times=res.times,
        states=list(res.states[0]),
        controls=res.controls[0],
        records=res.records[0],
        lyapunov=[LyapunovReport(*row) for row in rows],
        outcome=_classify(res.final_states, target)[0],
        fidelity_target=res.fidelity[0],
        purity=res.purity[0],
        n_steps=res.n_steps,
        n_projected=int(res.n_projected[0]),
        n_rejected=int(res.n_rejected[0]),
        trajectory_index=trajectory_index,
    )
