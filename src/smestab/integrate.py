"""Integration of the conditioned dynamics: one lockstep step loop, run_batch.

A path depends only on (seed, trajectory index) (see _brownian_increments),
so it is bit-identical alone, inside any batch and on rerun. Every step is
the exact QND split of Rouchon and Ralph (PRA 91, 012118, 2015) in C's
eigenbasis (see _split): steered, of a density stack (_sme_step) or at
eta = 1 of a ket stack (_sse_step); open loop, of either representation's
(N, B) population lanes alone (_population_step), with the density
assembled at record points (_assemble). Every row stays on the density cone
by construction, so BatchResult.n_projected is always zero. Failure rule: a
trace (or ket norm) that is not finite and positive, as from a non-finite
control or too large a dt, raises IntegrationError naming the step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    C1,
    ModelSpec,
    TargetSpec,
    _density_stack,
    _left_product,
    density,
    diffusion_term,
    measurement_increment,
    moments,
    populations,
    sme_drift,
    sse_diffusion,  # not called here, but bench/tracing.py looks both names up here
    sse_drift,
    sum_last,
)
from .hermitian import (
    hermitize,
    min_eigenvalue,  # not called here, but bench/tracing.py looks it up here
    purity,
    validate_density,
)
from .lyapunov import ControllerSpec, LyapunovReport, certificates, feedback
from .params import as_integer, as_real

REPRESENTATIONS = ("sme", "sse")
NOISE_WINDOW = 4096
NOISE_BLOCK = 16


class IntegrationError(RuntimeError):
    """Numerical failure inside the step loop (non-finite state, bad dt)."""


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seeding, and recording policy for one integration.

    ValueError unless dt > 0, t_final is a whole number of steps of dt to a
    relative 1e-9 and under 5e8 of them (where that admits half a step),
    seed lies in [0, 2**64), record_stride >= 1 and representation is known.
    """

    dt: float
    t_final: float
    seed: int
    record_stride: int = 1
    representation: str = "sme"

    def __post_init__(self):
        object.__setattr__(self, "dt", as_real(self.dt, "dt"))
        object.__setattr__(self, "t_final", as_real(self.t_final, "t_final"))
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_final >= self.dt:
            raise ValueError(f"t_final must cover one step, got {self.t_final}")
        steps = self.t_final / self.dt
        slack = 1e-9 * steps
        if not slack < 0.5:
            raise ValueError(f"t_final must be under 5e8 steps of dt, t_final/dt = {steps:.3g}")
        if abs(steps - round(steps)) > slack:
            raise ValueError(f"t_final must be a whole number of steps, t_final/dt = {steps:.17g}")
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        if not 0 <= self.seed <= 2**64 - 1:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "record_stride", as_integer(self.record_stride, "record_stride"))
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    """One recorded path: its series, lab-basis states (n_recorded, N, N) and outcome."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    records: np.ndarray
    lyapunov: list[LyapunovReport]
    outcome: str
    fidelity_target: np.ndarray
    purity: np.ndarray
    n_steps: int
    n_projected: int
    trajectory_index: int = 0


class _Substream:
    """The draws of Generator(Philox(key=[seed, block])), bit for bit, through a shared Generator.

    Its Philox state is set before each draw and saved after it, so no
    Philox is built (and seeded from OS entropy) per block.
    """

    def __init__(self, gen: np.random.Generator, seed: int, block: int, n_steps: int):
        self._gen = gen
        self._left = n_steps
        # Python ints: the state setter reads these element by element, and a
        # list of ints is several times cheaper to index than a uint64 array
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, block]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def normal(self, loc: float, scale: float, size: tuple[int, int]) -> np.ndarray:
        """Draw size = (steps, NOISE_BLOCK) increments, one row per step."""
        bits = self._gen.bit_generator
        bits.state = self._state
        out = self._gen.normal(loc, scale, size)
        self._left -= size[0]
        if self._left > 0:
            self._state = bits.state
        return out


def _substream(seed: int, block: int, gen: np.random.Generator, n_steps: int) -> _Substream:
    return _Substream(gen, seed, block, n_steps)


def _noise_key(index) -> int:
    """A trajectory index as the int it keys, else ValueError."""
    i = as_integer(index, "trajectory index")
    if not 0 <= i < 2**64:
        raise ValueError(f"trajectory index {i} does not fit in an unsigned 64-bit integer")
    return i


def _noise_keys(indices) -> np.ndarray:
    """Trajectory indices as uint64 keys, else ValueError naming the bad index (_noise_key)."""
    if set(map(type, indices)) == {int}:
        try:
            return np.array(indices, dtype=np.uint64)
        except OverflowError:
            pass
    return np.array([_noise_key(i) for i in indices], dtype=np.uint64)


def _brownian_increments(seed: int, indices: list[int], dt: float, n_steps: int):
    """An iterator over the (B,) Brownian increments of steps 0..n_steps-1.

    Index i reads column i % NOISE_BLOCK of the Philox substream keyed
    (seed, i // NOISE_BLOCK), drawn NOISE_WINDOW steps at a time. ValueError
    on no index, or one that is not an integer in [0, 2**64).
    """
    if len(indices) == 0:
        raise ValueError("no trajectory indices to draw noise for")
    keys = _noise_keys(indices)
    blocks, slot = np.unique(keys // NOISE_BLOCK, return_inverse=True)
    # a duplicated index reads the same column
    cols = slot * NOISE_BLOCK + (keys % NOISE_BLOCK).astype(np.intp)
    lo, b = int(cols[0]), len(cols)
    run = slice(lo, lo + b) if np.array_equal(cols, np.arange(lo, lo + b)) else None
    # seed 0 is never drawn from: each substream sets its own key first
    shared = np.random.Generator(np.random.Philox(0))
    gens = [_substream(seed, block, shared, n_steps) for block in blocks.tolist()]
    sqrt_dt = np.sqrt(dt)

    def steps():
        for start in range(0, n_steps, NOISE_WINDOW):
            size = (min(NOISE_WINDOW, n_steps - start), NOISE_BLOCK)
            window = np.concatenate([g.normal(0.0, sqrt_dt, size) for g in gens], axis=1)
            # (width, B) with each step's increments contiguous: consecutive
            # indices read a slice of the window, others a gathered copy
            yield from window[:, run] if run is not None else window.take(cols, axis=1)

    return steps()


def check_representation(model: ModelSpec, rho0: np.ndarray, representation: str) -> None:
    """Refuse a state-vector run that could not start: eta != 1 or rho0 not rank one."""
    if representation != "sse":
        return
    if model.eta != 1.0:
        raise ValueError("the state-vector representation requires eta = 1")
    if np.max(np.abs(purity(rho0) - 1.0)) > 1e-9:
        raise ValueError("the state-vector representation requires a rank-one rho0")


def _check_target(model: ModelSpec, target: TargetSpec) -> None:
    """Refuse a target built for another c, which would steer toward another level."""
    n = len(target.c)
    if n != model.n:
        raise ValueError(f"target of dimension {n} does not match model dimension {model.n}")
    if not np.array_equal(target.c, model.c):
        raise ValueError("target was built for another c: its entries differ from this model's c")


def _mirror(table: np.ndarray) -> np.ndarray:
    """An (N, N) table made exactly conjugate symmetric from its upper triangle (for exp's)."""
    return np.triu(table) + np.triu(table, 1).conj().T


class Split(NamedTuple):
    """The constant tables of the exact step at one step size (see _split)."""

    phi: np.ndarray  # (N, N, b) lanes of exp(L)
    phi_ii: np.ndarray  # (N, 1) real diagonal of phi
    h: np.ndarray  # (N, 1) column sqrt(mu eta) c
    gain: float  # 2 sqrt(mu eta) dt, the record's gain on <C>
    coupling: np.ndarray  # (N, N, b) lanes of h_b
    dt: float
    kappa: np.ndarray  # (N, N) coherence rates L - (L_ii + L_jj) / 2 (see _assemble)
    ket: np.ndarray  # (N, 1) column v = exp(-i a dt) sqrt(phi_ii), phi's factor at eta = 1


def _split(model: ModelSpec, dt: float, b: int = 1) -> Split:
    """The constant tables of the exact step at step size dt, phi and coupling as (N, N, b) lanes.

    Given dY the linear SME is a geometric Brownian motion per entry in C's
    eigenbasis, so phi * rho * (s s^T), s_i = exp(h_i dY), renormalised, is
    its exact open-loop step, with phi = exp(L), L = (T - S S / 2) dt and
    h_i = S_ii / 2. The kernels' tables T = sme_drift(J) (open loop) and
    S = diffusion_term(J) (<C> = 0) are read off the all-ones J. phi and kappa
    are exactly conjugate symmetric; at eta = 1 phi_ij = v_i conj(v_j), v = ket.
    """
    ones = np.ones((model.n, model.n), dtype=complex)
    # kernels called positionally, so wrappers that take *args see every input
    drift = sme_drift(ones, model, None)
    noise = diffusion_term(ones, np.zeros(()), model).real
    log_phi = (drift - 0.5 * noise * noise) * dt
    phi = _mirror(np.exp(log_phi))
    diag = log_phi.diagonal().real
    kappa = _mirror(log_phi - 0.5 * (diag[:, None] + diag[None]))
    phi_ii = phi.diagonal().real[:, None]
    return Split(
        phi=np.repeat(phi[..., None], b, axis=-1), phi_ii=phi_ii,
        h=0.5 * np.diagonal(noise)[:, None], gain=2.0 * math.sqrt(model.mu * model.eta) * dt,
        coupling=np.repeat(model.coupling[..., None], b, axis=-1), dt=dt, kappa=kappa,
        ket=np.exp(dt * (-1j * model.energies[:, None])) * np.sqrt(phi_ii),
    )


def _record_scale(before, after, mean, dw, split) -> np.ndarray:
    """s_i = exp(h_i dY) / sqrt(tr') of the record table s s^T, as (N, B) lanes.

    before, the populations before the control, set dY = gain <C> / tr + dW;
    after, those after it, tr' = sum_i phi_ii p_i s_i^2 in index order. A tr'
    that is not finite and positive raises IntegrationError.
    """
    dy = mean / sum_last(before.T)
    dy *= split.gain
    dy += dw
    # s_i of every row, level i one contiguous (B,) lane
    s = np.exp(split.h * dy)
    w = s * s
    w *= after
    w *= split.phi_ii
    tr = sum_last(w.T)
    # a nan fails both comparisons
    if not (tr.min() > 0.0 and tr.max() < np.inf):
        raise IntegrationError("trace not finite and positive")
    s *= 1.0 / np.sqrt(tr)
    return s


def _population_step(p, mean, dw, split) -> np.ndarray:
    """One open-loop split step of (N, B) population lanes p_i = rho_ii, as new lanes.

    p_i' = (p_i phi_ii)(s_i s_i): the full step's diagonal, by the same
    operations in the same order, which open loop depends on nothing else.
    """
    s = _record_scale(p, p, mean, dw, split)
    nxt = p * split.phi_ii
    nxt *= s * s
    return nxt


def _coherences(rho: np.ndarray) -> np.ndarray:
    """coh_ij = rho_ij / (sqrt(p_i) sqrt(p_j)) of a (B, N, N) stack, 0 where a p is not positive."""
    root = np.sqrt(np.maximum(populations(rho), 0.0))
    scale = root[:, :, None] * root[:, None, :]
    return np.divide(rho, scale, out=np.zeros_like(rho), where=scale > 0.0)


def _assemble(coh: np.ndarray, p: np.ndarray, k: int, split) -> np.ndarray:
    """The open-loop density k steps after its base, a new stack in _density_stack's layout.

    rho_ij(k) = coh_ij exp(k kappa_ij) sqrt(p_i) sqrt(p_j) with
    coh = _coherences(base) and p the (N, B) populations, diagonal p exactly:
    three positive semidefinite, exactly conjugate symmetric factors.
    """
    b, n = coh.shape[:2]
    decay = _mirror(np.exp(k * split.kappa))
    root = np.sqrt(np.maximum(p.T, 0.0))
    out = _density_stack(b, n)
    np.multiply(coh, decay, out=out)
    out *= root[:, :, None] * root[:, None, :]
    levels = np.arange(n)
    out[:, levels, levels] = p.T
    return out


def _sme_step(rho, mean, u, hr, dw, split) -> np.ndarray:
    """One steered split step of a (B, N, N) density stack, a new stack.

    rho' = phi * (K rho K^dag) * (s s^T), K = I - i u dt h_b, formed as
    rho + (Q + Q^dag) with Q = hr G, hr = h_b rho, G = (u dt)^2 h_b / 2 - i u dt I.
    Each row stays on the cone and exactly Hermitian, of trace 1 to roundoff;
    every operation is elementwise on (N, N, B) views, so any layout gives
    the same values.
    """
    n = len(split.coupling)
    # (N, N, B) views, in whose C order the batch axis is innermost
    rho = rho.transpose(1, 2, 0)
    x = hr.transpose(1, 2, 0)
    eps = split.dt * u
    g = split.coupling * (0.5 * eps * eps)
    # the diagonal lanes of the contiguous (N, N, B) table, as a view
    g.reshape(n * n, -1)[:: n + 1] -= 1j * eps
    q = x[:, :1] * g[:1]
    term = np.empty_like(q)
    for k in range(1, n):
        q += np.multiply(x[:, k : k + 1], g[k : k + 1], out=term)
    q += np.conjugate(q.transpose(1, 0, 2), out=term)
    q += rho
    s = _record_scale(rho.diagonal(0, 0, 1).real.T, q.diagonal(0, 0, 1).real.T, mean, dw, split)
    # the step owns the congruence it formed, so it scales that in place
    q *= split.phi
    q *= s[:, None] * s[None]
    return q.transpose(2, 0, 1)


def _sse_step(psi, mean, u, hpsi, dw, split) -> np.ndarray:
    """One steered split step of a (B, N, 1) ket stack at eta = 1, a new stack.

    phi is rank one there, so the density step of psi psi^dag is pure:
    psi' = ket exp(h dY) * (psi - i u dt hpsi) / norm, dY = gain <C> + dW.
    A norm that is not finite and positive raises IntegrationError.
    """
    nxt = psi + (-1j * split.dt * u)[:, None, None] * hpsi
    dy = split.gain * mean + dw
    nxt *= split.ket * np.exp(split.h * dy[:, None, None])
    norm = np.sqrt(populations(nxt).sum(-1))
    # a nan fails both comparisons
    if not (norm.min() > 0.0 and norm.max() < np.inf):
        raise IntegrationError("degenerate state-vector norm")
    # a complex divided by a real t is multiplied by 1 / t, so this is bit for bit the division
    nxt *= (1.0 / norm)[:, None, None]
    return nxt


@dataclass
class BatchResult:
    """run_batch's series, (B, n_recorded) at times, and lab-basis final (and recorded) states."""

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
    states: np.ndarray | None = field(default=None, repr=False)
    # always zeros, as a bad step raises; bench/tracing.py reads it
    n_rejected = property(lambda self: np.zeros(len(self.indices), dtype=int))


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
    """Label each state by the first of [rho_d, *antipodal] it holds CONVERGENCE_FIDELITY of."""
    pops = np.stack(
        [np.einsum("ij,bji->b", p, final).real for p in [target.rho_d, *target.antipodal]],
        axis=1,
    )
    hit = pops >= CONVERGENCE_FIDELITY
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), pops.shape[1])
    labels = _outcome_labels(target)
    return [labels[j] for j in first]


def _alloc(b: int, n_rec: int) -> dict[str, np.ndarray]:
    shapes = {"controls": (), "records": (), "moments": (7,), "purity": ()}
    return {name: np.zeros((b, n_rec, *shape)) for name, shape in shapes.items()}


def _record_point(out, slot, state, u, window_dy, m) -> None:
    out["controls"][:, slot] = u
    out["records"][:, slot] = window_dy
    out["moments"][:, slot] = m
    # einsum sums in an order that follows the strides: give it a row-major copy
    out["purity"][:, slot] = purity(np.ascontiguousarray(density(state)))


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
    """Integrate trajectories in lockstep from rho0, broadcast against (B, N, N).

    indices selects each trajectory's noise (default 0..n_trajectories-1).
    An "sse" run needs eta = 1 and a rank-one rho0. ValueError on an empty
    batch, a bad index, rho0 off the cone, a target for another c or an
    "sse" run that cannot start; IntegrationError by the failure rule.
    """
    if indices is None:
        indices = list(range(n_trajectories))
    b = len(indices)
    if b == 0:
        raise ValueError("run_batch needs at least one trajectory")
    n = model.n
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density(rho0, name="rho0")
    _check_target(model, target)
    rho0 = model.to_eigenbasis(rho0)
    check_representation(model, rho0, sim.representation)
    # the open-loop law's zeros are recorded, but no step forms a control term
    steered = ctrl.kind != "open_loop"
    ket = steered and sim.representation == "sse"
    # the tables a steered density step and its moment table multiply by, as lanes
    lanes = b if steered and not ket else 1
    split = _split(model, sim.dt, lanes)
    weights = np.repeat(target.observables.T[..., None], lanes, axis=-1)
    if ket:
        state = np.broadcast_to(np.linalg.eigh(rho0)[1][..., :, -1:], (b, n, 1)).copy()
    else:
        state = _density_stack(b, n)
        state[...] = hermitize(rho0)
    step = _sse_step if ket else _sme_step
    if not steered:
        coh, pops = _coherences(state), np.ascontiguousarray(populations(state).T)

    n_steps = sim.n_steps
    slots = _record_slots(n_steps, sim.record_stride)
    slot_of = {int(k): j for j, k in enumerate(slots)}
    out = _alloc(b, len(slots))
    states = np.zeros((b, len(slots), n, n), dtype=complex) if record_states else None
    window_dy = np.zeros(b)
    noise = _brownian_increments(sim.seed, indices, sim.dt, n_steps)

    for k in range(n_steps + 1):
        j = slot_of.get(k)
        if not steered and j is not None:
            state = _assemble(coh, pops, k, split)
        hx = m = None
        if steered or j is not None:
            hx = _left_product(model.coupling, state)
            m = moments(state, model, target, hx, weights)
        # one source of <C> per law, so the path does not depend on the record points
        mean = m[..., C1] if steered else sum_last(pops.T * model.levels)
        # between record points an open-loop run's state is the last one
        # assembled, of which the open-loop law reads only the batch size
        u = feedback(state, model, target, ctrl, m)
        if j is not None:
            _record_point(out, j, state, u, window_dy, m)
            if states is not None:
                states[:, j] = density(state)
            window_dy = np.zeros(b)
        if k == n_steps:
            break
        dw = next(noise)
        window_dy += measurement_increment(mean, model, sim.dt, dw)
        try:
            if steered:
                state = step(state, mean, u, hx, dw, split)
            else:
                pops = _population_step(pops, mean, dw, split)
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {k}; reduce dt") from None

    out.update(certificates(out.pop("moments"), model, target, out["controls"], ctrl.ell))
    return BatchResult(
        # integers, as _brownian_increments has checked
        indices=[int(i) for i in indices],
        times=slots * sim.dt,
        final_states=model.from_eigenbasis(density(state)),
        n_steps=n_steps,
        # no step clips: the field stays for the callers that report it
        n_projected=np.zeros(b, dtype=int),
        states=None if states is None else model.from_eigenbasis(states),
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
    """run_batch of one trajectory, recording its states, as a Trajectory with its outcome."""
    res = run_batch(
        rho0, model, target, ctrl, sim, indices=[trajectory_index], record_states=True
    )
    # in LyapunovReport field order
    series = (res.v1, res.v2, res.v_tilde, res.lv, res.l0, res.lb, res.third)
    rows = np.stack([c[0] for c in series], axis=1).tolist()
    return Trajectory(
        times=res.times,
        states=res.states[0],
        controls=res.controls[0],
        records=res.records[0],
        lyapunov=[LyapunovReport(*row) for row in rows],
        outcome=_classify(res.final_states, target)[0],
        fidelity_target=res.fidelity[0],
        purity=res.purity[0],
        n_steps=res.n_steps,
        n_projected=int(res.n_projected[0]),
        trajectory_index=trajectory_index,
    )
