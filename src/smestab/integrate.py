"""Integration of the conditioned dynamics, one or many paths.

One step loop, run_batch, advances trajectories in lockstep. The
representation picks its step kernel once per call: _sme_step takes a
steered step of a (B, N, N) density stack by the exact QND split (an
open-loop density run steps its populations instead, see below), _sse_step
a (B, N, 1) stack of ket columns (eta = 1 only) by Euler-Maruyama.
Trajectory index i draws its Brownian increments from column
i % NOISE_BLOCK of a counter-based substream keyed
(master_seed, i // NOISE_BLOCK), one per block of NOISE_BLOCK consecutive
indices (see _brownian_increments). A path still depends only on
(master_seed, i), so it is bit-identical whether it runs alone or inside
any batch, and reruns reproduce it exactly.

The density stack takes the layout dynamics._density_stack gives it,
batch-last lanes at every N, which also states the rule that keeps each row
independent of the batch; the ket stack is row-major at every N. A steered
density run builds every constant table its steps and moment tables
multiply by at the batch's lane shape, once per call: phi and the coupling
h_b as (N, N, B) lanes (_split) and target.observables as (N, 7, B) weight
lanes (dynamics.moments), so each per-step product has same-shape operands
or broadcasts only a per-row (B,) scalar. That is 2 N^2 complex and 7 N
real entries per trajectory, next to the state stack's N^2 complex.

States are stepped in C's eigenbasis (see dynamics): run_batch rotates the
initial state in once, feedback, the detector record and the certificates
read the populations and control rates there, and only the states it
returns (final_states, states) are rotated back to the lab basis.

Per step the pre-step state is read once. On a steered step or a record
point, X = h_b state and the moment table built from it (dynamics.moments)
serve the law, the record point and the control term. A steered step takes
<C> from the table's C1 row; an open-loop step takes it from the populations
at every step, record point or not, as for a ket the two may differ in the
last bit (see dynamics.mean_level). Open-loop ket steps get u = None and skip
the control term. In C's eigenbasis both SME kernels, dynamics.sme_drift and
dynamics.diffusion_term, are Schur multipliers, so run_batch reads their
tables once per call (_split) and the density step is the split of Rouchon
and Ralph (PRA 91, 012118, 2015): the control as a congruence K rho K^dag,
then one Schur product with a constant table and one with the rank-one
table s s^T of the record, renormalised. Both tables are positive
semidefinite, so every row stays Hermitian, of unit trace and on the density
cone by construction: no eigenvalue is computed and no row is clipped, and
BatchResult.n_projected is always zero. Open loop the split is a Schur
product alone, so the N populations set <C>, the record and the next step:
an open-loop density run steps only its (N, B) population lanes
(_population_step) and assembles the density in closed form from rho0's
coherences at its record points (_assemble), with rho0 its base for the
whole run, so no path depends on the record stride. A state vector is
renormalized, as Euler-Maruyama does not keep its norm; _sse_step
multiplies the ket by one diagonal factor and adds the control term (see
dynamics). Every step leaves its input alone and checks the trace (the ket
norm) with one min/max pair. One certificates call derives every
certificate series from the recorded tables after the loop.

One failure rule covers a bad step: a trace (or ket norm) that is not finite
and positive raises IntegrationError naming the step. For a density this
takes a non-finite control (a gain whose law overflows), or a dt so large
that the step's exponentials leave the floating-point range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    C1,
    ModelSpec,
    TargetSpec,
    _density_stack,
    _left_product,
    density,
    diffusion_term,
    mean_level,
    measurement_increment,
    moments,
    populations,
    sme_drift,
    sse_diffusion,  # the reference ket terms: _sse_step forms their factor instead,
    sse_drift,  # but bench/tracing.py looks both names up here
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

    t_final must be a whole number of steps of dt, to a relative 1e-9. From
    5e8 steps on that tolerance admits half a step, so such horizons are
    refused rather than rounded.
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
    """One recorded path with its certificate series and final classification.

    states holds the recorded lab-basis densities as one (n_rec, N, N) array.
    """

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
    """The noise stream of one block of trajectory indices: Philox keyed (seed, block).

    Every substream of a batch draws through one shared Generator. Its Philox
    state is set to this stream's before each draw and saved after it while
    steps of the n_steps remain, so the draws are bit for bit those of
    Generator(Philox(key=[seed, block])), without building (and seeding from
    OS entropy) one Philox per block.
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
    """A trajectory index as the int it keys, else ValueError (see _brownian_increments)."""
    i = as_integer(index, "trajectory index")
    if not 0 <= i < 2**64:
        raise ValueError(f"trajectory index {i} does not fit in an unsigned 64-bit integer")
    return i


def _noise_keys(indices) -> np.ndarray:
    """Trajectory indices as the uint64 keys they stand for, else ValueError.

    A list of plain ints is checked by its one conversion, which overflows on
    any index outside [0, 2**64); any other list, or that overflow, goes
    through _noise_key index by index, which names the bad index.
    """
    if set(map(type, indices)) == {int}:
        try:
            return np.array(indices, dtype=np.uint64)
        except OverflowError:
            pass
    return np.array([_noise_key(i) for i in indices], dtype=np.uint64)


def _brownian_increments(seed: int, indices: list[int], dt: float, n_steps: int):
    """Return an iterator over the (B,) Brownian increments of steps 0..n_steps-1.

    Trajectory index i reads column i % NOISE_BLOCK of the substream of block
    i // NOISE_BLOCK, so one draw serves up to NOISE_BLOCK trajectories and a
    path depends only on (seed, i), never on the rest of the batch. Each
    substream draws NOISE_WINDOW steps at a time, so memory stays bounded on
    long horizons. An index must be an integer in [0, 2**64), the range of
    the unsigned 64-bit key, else ValueError here, before any key is built.
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
    """An (N, N) table made exactly conjugate symmetric from its upper triangle.

    exp does not promise exp(conj z) = conj(exp z) bit for bit, so every
    table a step multiplies by is mirrored after it is formed.
    """
    return np.triu(table) + np.triu(table, 1).conj().T


def _split(model: ModelSpec, dt: float, b: int = 1) -> tuple:
    """The constant tables of the exact density step at step size dt, for b rows.

    In C's eigenbasis both SME kernels are Schur multipliers, so their tables
    are read off the all-ones matrix J: sme_drift(J) is the drift table
    T_ij = -i (a_i - a_j) - mu (c_i - c_j)^2 / 2 and diffusion_term(J) at
    <C> = 0 the Zakai noise table S_ij = sqrt(mu eta) (c_i + c_j). With
    L = (T - S S / 2) dt, returns phi = exp(L), its real diagonal, the column
    h_i = S_ii / 2 = sqrt(mu eta) c_i, the record gain 2 sqrt(mu eta) dt, the
    coupling h_b, dt and the coherence rates kappa = L - (L_ii + L_jj) / 2,
    which the open-loop closed form reads (see _assemble). phi and kappa are
    made exactly conjugate symmetric. phi and the coupling, the two tables
    a steered step multiplies the whole stack by, come as (N, N, b) lanes,
    one copy per row, so each of those products has same-shape operands;
    b = 1 gives (N, N, 1) tables, which broadcast against any batch.
    """
    ones = np.ones((model.n, model.n), dtype=complex)
    # kernels called positionally, so wrappers that take *args see every input
    drift = sme_drift(ones, model, None)
    noise = diffusion_term(ones, np.zeros(()), model).real
    log_phi = (drift - 0.5 * noise * noise) * dt
    phi = _mirror(np.exp(log_phi))
    diag = log_phi.diagonal().real
    kappa = _mirror(log_phi - 0.5 * (diag[:, None] + diag[None]))
    h = 0.5 * np.diagonal(noise)[:, None]
    gain = 2.0 * math.sqrt(model.mu * model.eta) * dt
    phi_lanes = np.repeat(phi[..., None], b, axis=-1)
    coupling_lanes = np.repeat(model.coupling[..., None], b, axis=-1)
    return phi_lanes, phi.diagonal().real[:, None], h, gain, coupling_lanes, dt, kappa


def _record_scale(before, after, mean, dw, split) -> np.ndarray:
    """s_i = exp(h_i dY) / sqrt(tr') of the split's record table s s^T, as (N, B) lanes.

    before and after are (N, B) population lanes: before the step's
    congruence, whose trace sets dY = 2 sqrt(mu eta) <C> / tr dt + dW, and
    after it, which set the new trace tr' = sum_i phi_ii p_i s_i^2, summed
    in index order (see _sme_step). A trace that is not finite and positive
    raises IntegrationError.
    """
    _, phi_ii, h, gain, *_ = split
    dy = mean / sum_last(before.T)
    dy *= gain
    dy += dw
    # s_i of every row, level i one contiguous (B,) lane
    s = np.exp(h * dy)
    w = s * s
    w *= after
    w *= phi_ii
    tr = sum_last(w.T)
    # a nan fails both comparisons
    if not (tr.min() > 0.0 and tr.max() < np.inf):
        raise IntegrationError("trace not finite and positive")
    s *= 1.0 / np.sqrt(tr)
    return s


def _population_step(p, mean, dw, split) -> np.ndarray:
    """One open-loop split step of (N, B) population lanes, p_i = rho_ii.

    Open loop the split is a Schur product, so the populations alone set <C>,
    the record and the next populations: p_i' = (p_i phi_ii)(s_i s_i) with s
    from _record_scale, the diagonal of the full step with the same
    operations in the same order, so every value read from populations is
    bit for bit that of the full step. p is left unmodified.
    """
    s = _record_scale(p, p, mean, dw, split)
    nxt = p * split[1]
    nxt *= s * s
    return nxt


def _coherences(rho: np.ndarray) -> np.ndarray:
    """coh_ij = rho_ij / (sqrt(p_i) sqrt(p_j)) of a (B, N, N) stack, in rho's layout.

    An entry whose population product is zero (or a population below zero,
    which validate_density admits to EIG_FLOOR) gets 0, not 0/0: a row of a
    density whose population is zero is zero. coh is conjugate symmetric
    bit for bit when rho is.
    """
    root = np.sqrt(np.maximum(populations(rho), 0.0))
    scale = root[:, :, None] * root[:, None, :]
    return np.divide(rho, scale, out=np.zeros_like(rho), where=scale > 0.0)


def _assemble(coh: np.ndarray, p: np.ndarray, k: int, split) -> np.ndarray:
    """The open-loop density k steps after its base, from the base's coherences.

    k open-loop split steps multiply entry (i, j) by phi_ij^k and the
    product of the records' s_i s_j, which the populations p (N, B) already
    carry, so rho_ij(k) = coh_ij exp(k kappa_ij) sqrt(p_i) sqrt(p_j) with
    coh = _coherences(base), and the diagonal is written as p exactly. coh,
    exp(k kappa) (mirrored) and sqrt(p) sqrt(p)^T are positive semidefinite,
    so the row is on the density cone by the Schur product theorem, and
    each is conjugate symmetric bit for bit, so the row is exactly Hermitian.
    An underflowed population gives zero coherences. The result is a new
    (B, N, N) stack in the layout _density_stack gives.
    """
    *_, kappa = split
    b, n = coh.shape[:2]
    decay = _mirror(np.exp(k * kappa))
    root = np.sqrt(np.maximum(p.T, 0.0))
    out = _density_stack(b, n)
    np.multiply(coh, decay, out=out)
    out *= root[:, :, None] * root[:, None, :]
    levels = np.arange(n)
    out[:, levels, levels] = p.T
    return out


def _sme_step(rho, mean, u, hr, dw, split) -> np.ndarray:
    """One steered exact QND split step of the density SME on a (B, N, N) stack.

    mean is <C> = sum_i c_i rho_ii, u one control per row, hr is h_b rho or
    None, and split holds the tables of _split. Given the record increment
    dY = 2 sqrt(mu eta) <C> / tr(rho) dt + dW of sqrt(mu) C, the linear SME
    is a geometric Brownian motion per entry in C's eigenbasis, so with
    s_i = exp(h_i dY) the open-loop step rho' = phi * rho * (s s^T) / tr is
    exact (run_batch takes it as _population_step and _assemble). The
    steered step first applies the control as the congruence K rho K^dag,
    K = I - i u dt h_b, formed as rho + (Q + Q^dag) with Q = X G, X = h_b rho
    and the per-row table G = (u dt)^2 h_b / 2 - i u dt I, one product of the
    split's coupling lanes with a (B,) scalar. K rho K^dag, phi and s s^T
    are positive semidefinite, so by the Schur product theorem every row
    stays on the density cone, and every sum and product rounds entries
    (i, j) and (j, i) alike, so a Hermitian row stays exactly Hermitian. The
    new trace sum_i phi_ii rho_ii s_i^2 is read off the diagonal lanes alone
    and 1 / sqrt(trace) folded into s, so the result has unit trace to
    roundoff at any input trace. The step runs on (N, N, B) views, so on
    batch-last lanes (see _density_stack) every temporary of the stack's
    size and the result are lanes too; a row-major stack gives the same
    values, as every operation is elementwise and every sum index-order.
    rho is left unmodified. A trace that is not finite and positive raises
    IntegrationError.
    """
    phi, _, _, _, coupling, dt, _ = split
    n = len(coupling)
    if hr is None:
        hr = _left_product(coupling[..., 0], rho)
    # (N, N, B) views, in whose C order the batch axis is innermost
    rho = rho.transpose(1, 2, 0)
    x = hr.transpose(1, 2, 0)
    eps = dt * u
    # K rho K^dag = rho + (Q + Q^dag) with Q = X G, G = (u dt)^2 h_b / 2 - i u dt I
    g = coupling * (0.5 * eps * eps)
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
    q *= phi
    q *= s[:, None] * s[None]
    return q.transpose(2, 0, 1)


def _sse_step(psi, mean, u, hpsi, dw, model, dt) -> np.ndarray:
    """One Euler-Maruyama step of the state-vector equation on a (B, N, 1) stack.

    mean is <C> and hpsi is h_b psi or None. Valid at eta = 1 only. In C's
    eigenbasis every term of psi + sse_drift dt + sse_diffusion dW but the
    control term is diagonal, so the step is f psi - i u dt h_b psi with one
    (B, N, 1) factor f = (1 - i a dt) + x (sqrt(mu) dW - (mu dt / 2) x),
    x = c - <C>, formed in real arithmetic and the constant column added
    last; u = None skips the control term. psi is left unmodified. The
    result is divided by its norm, sqrt(sum_i populations), a sum along each
    row's own level axis of the row-major stack, so it stays pure and no row
    depends on the batch. A norm that is not finite and positive raises
    IntegrationError.
    """
    x = model.levels[:, None] - mean[:, None, None]
    f = (0.5 * model.mu * dt) * x
    np.subtract((math.sqrt(model.mu) * dw)[:, None, None], f, out=f)
    f *= x
    nxt = np.add(f, 1.0 + dt * model.ket_phase)
    nxt *= psi
    if u is not None:
        hpsi = _left_product(model.coupling, psi) if hpsi is None else hpsi
        nxt += (-1j * dt * u)[:, None, None] * hpsi
    norm = np.sqrt(populations(nxt).sum(-1))
    # a nan fails both comparisons
    if not (norm.min() > 0.0 and norm.max() < np.inf):
        raise IntegrationError("degenerate state-vector norm")
    # a complex divided by a real t is multiplied by 1 / t, so this is bit for bit the division
    nxt *= (1.0 / norm)[:, None, None]
    return nxt


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
    """Integrate trajectories in lockstep from a shared or stacked initial state.

    rho0 is broadcast against (B, N, N), so one state may be shared by the
    whole batch or each trajectory may start from its own. indices selects
    each trajectory's noise (default 0..n_trajectories-1); every recorded scalar
    series has shape (B, n_recorded). The "sse" representation needs eta = 1
    and a rank-one rho0, and advances the leading eigenvector of rho0. A
    target whose c has other entries than model.c is refused (see _check_target).
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
    # the open-loop law's zeros are recorded, but the step skips its control term
    steered = ctrl.kind != "open_loop"
    if sim.representation == "sse":
        state = np.broadcast_to(np.linalg.eigh(rho0)[1][..., :, -1:], (b, n, 1)).copy()
        step, consts, weights = _sse_step, (model, sim.dt), None
    else:
        state = _density_stack(b, n)
        state[...] = hermitize(rho0)
        # the constant tables a steered step and its moment table multiply
        # by, built once per call at the batch's lane shape
        lanes = b if steered else 1
        split = _split(model, sim.dt, lanes)
        step, consts = _sme_step, (split,)
        weights = np.repeat(target.observables.T[..., None], lanes, axis=-1)
    # an open-loop density run steps only its (N, B) population lanes, and
    # assembles the density from rho0's coherences at its record points
    coh = None
    if sim.representation == "sme" and not steered:
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
        if coh is not None and j is not None:
            state = _assemble(coh, pops, k, split)
        hx = m = None
        if steered or j is not None:
            hx = _left_product(model.coupling, state)
            m = moments(state, model, target, hx, weights)
        # one source of <C> per law, so the path does not depend on the record points
        if steered:
            mean = m[..., C1]
        else:
            mean = mean_level(state, model) if coh is None else sum_last(pops.T * model.levels)
        # between record points an open-loop density's state is the last one
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
            if coh is None:
                state = step(state, mean, u if steered else None, hx, dw, *consts)
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
    """Integrate a single trajectory and record states and certificates."""
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
