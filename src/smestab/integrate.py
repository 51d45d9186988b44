"""Euler-Maruyama integration of the conditioned dynamics, one or many paths.

One step loop, run_batch, advances trajectories in lockstep. The
representation picks its step kernel once per call: _sme_step advances a
(B, N, N) density stack, _sse_step a (B, N, 1) stack of ket columns (eta = 1
only). Trajectory index i draws its Brownian increments from column
i % NOISE_BLOCK of a counter-based substream keyed (master_seed,
i // NOISE_BLOCK), one per block of NOISE_BLOCK consecutive indices (see
_brownian_increments). A path still depends only on (master_seed, i), so it
is bit-identical whether it runs alone or inside any batch, and reruns
reproduce it exactly.

Up to dynamics.SUM_MAX_N the density stack is held in batch-last lanes
(_density_stack): (N, N, B) memory seen through its (B, N, N) transposed view,
so entry (i, j) of every row is one contiguous (B,) lane. The kernels keep
their (..., N, N) call forms, and every elementwise temporary takes its
input's layout, so each inner loop runs over the batch. No einsum, np.sum,
norm, matmul or LAPACK call reads the lane stack, as their summation order
follows the strides: the level-axis sums are index-order adds
(dynamics.sum_last), and the purity at a record point, eigvalsh on the rows
the floor screen leaves and the rotation back to the lab basis run on
row-major copies. Above SUM_MAX_N the density stack, and the ket stack at
every N, is row-major, for the stacked matmul. A single row is both.

States are stepped in C's eigenbasis (see dynamics): run_batch rotates the
initial state in once, feedback, the detector record and the certificates
read the populations and control rates there, and only the states it
returns (final_states, states) are rotated back to the lab basis.

Per step the pre-step state is read once. On a steered step or a record
point, X = h_b state and the moment table built from it (lyapunov.moments)
serve the law, the record point and the control term. A steered step takes
<C> from the table's C1 row; an open-loop step takes it from mean_level at
every step, record point or not, as above SUM_MAX_N the two may differ in
the last bit. Open-loop steps get u = None and skip the zero control term
(see dynamics.sme_drift). A density stays Hermitian by construction (see
dynamics) and is trace-renormalized, and hermitian.project_to_density clips
it only when its smallest eigenvalue drops below the validity floor; a state
vector is renormalized. _sme_step assembles the step in place in the arrays
the dynamics kernels return; _sse_step multiplies the ket by one diagonal
factor and adds the control term (see dynamics). Both leave their input
alone and check the trace (the ket norm) with one min/max pair. One
certificates call derives every certificate series from the recorded tables
after the loop. On stacks of N >= 3 and at least hermitian.SCREEN_MIN_ROWS
rows, hermitian.clear_of_floor first clears the rows it proves above the
floor and min_eigenvalue decides only the rest, so the clipped rows are
exactly those min_eigenvalue alone would pick.

One failure rule covers a bad step: a trace (or ket norm) that is not finite
and positive raises IntegrationError naming the step. The density increment
is traceless, so this happens only when |u| dt is so large that roundoff
swamps the unit trace; a smaller dt is the remedy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    C1,
    SUM_MAX_N,
    ModelSpec,
    TargetSpec,
    _left_product,
    density,
    diffusion_term,
    mean_level,
    measurement_increment,
    populations,
    sme_drift,
    sse_diffusion,  # the reference ket terms: _sse_step forms their factor instead,
    sse_drift,  # but bench/tracing.py looks both names up here
    sum_last,
)
from .hermitian import (
    EIG_FLOOR,
    SCREEN_MIN_ROWS,
    clear_of_floor,
    hermitize,
    min_eigenvalue,
    project_to_density,
    purity,
    validate_density,
)
from .lyapunov import ControllerSpec, LyapunovReport, certificates, feedback, moments

REPRESENTATIONS = ("sme", "sse")
NOISE_WINDOW = 4096
NOISE_BLOCK = 16


class IntegrationError(RuntimeError):
    """Numerical failure inside the step loop (non-finite state, bad dt)."""


def as_integer(value, where: str) -> int:
    """An integral real number (numpy scalars too, booleans not) as int, else ValueError."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, seeding, and recording policy for one integration.

    t_final must be a whole number of steps of dt, to a relative 1e-9.
    """

    dt: float
    t_final: float
    seed: int
    record_stride: int = 1
    representation: str = "sme"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError(f"t_final must be finite and cover one step, got {self.t_final}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
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


def _sme_step(rho, mean, u, hr, dw, model, dt, n_projected) -> np.ndarray:
    """One Euler-Maruyama step of the density SME on a (B, N, N) stack.

    mean is <C> and hr is h_b rho or None. The increment is Hermitian term by
    term, so Hermitian rows stay exactly Hermitian; the result is
    trace-normalized. It is assembled in place in the arrays the kernels
    return, in the order of rho + drift dt + g dW, and rho is left
    unmodified; u = None is the open-loop law (see sme_drift). rho may be
    row-major or a batch-last lanes view (see _density_stack): every
    temporary, and the result, takes rho's layout, and the trace is an
    index-order sum, so each row's result is the same in either. A trace that
    is not finite and positive raises IntegrationError; a row whose smallest
    eigenvalue drops below EIG_FLOOR is projected onto the density cone and
    counts in n_projected, which updates in place.
    """
    nxt = sme_drift(rho, model, u, hr)
    nxt *= dt
    nxt += rho
    g = diffusion_term(rho, mean, model)
    g *= dw[:, None, None]
    nxt += g
    tr = sum_last(nxt.diagonal(0, -2, -1).real)
    # a nan fails both comparisons
    if not (tr.min() > 0.0 and tr.max() < np.inf):
        raise IntegrationError("trace not finite and positive")
    # a complex divided by a real t is multiplied by 1 / t, so this is bit for bit the division
    nxt *= (1.0 / tr)[:, None, None]
    low = _below_floor(nxt)
    if low.any():
        n_projected[low] += 1
        nxt[low] = project_to_density(nxt[low])
    return nxt


def _below_floor(rho: np.ndarray) -> np.ndarray:
    """Rows of a (B, N, N) stack whose smallest eigenvalue is below EIG_FLOOR.

    The mask is min_eigenvalue's on every row. On stacks of N >= 3 and at
    least SCREEN_MIN_ROWS rows, clear_of_floor clears most rows first and
    min_eigenvalue runs only on those it leaves (a row-major copy of them).
    """
    b, n = rho.shape[:2]
    if n < 3 or b < SCREEN_MIN_ROWS:
        return min_eigenvalue(rho) < EIG_FLOOR
    low = ~clear_of_floor(rho, EIG_FLOOR)
    if low.any():
        low[low] = min_eigenvalue(rho[low]) < EIG_FLOOR
    return low


def _density_stack(b: int, n: int) -> np.ndarray:
    """An empty (b, n, n) density stack in the layout its step kernels run fastest on.

    Up to SUM_MAX_N it is the batch-last view of (n, n, b) memory: entry
    (i, j) of every row is one contiguous (b,) lane, so each elementwise
    kernel loops over the batch rather than over N^2 <= 9 entries. Above
    SUM_MAX_N it is row-major, for the stacked matmul.
    """
    if n > SUM_MAX_N:
        return np.empty((b, n, n), dtype=complex)
    return np.empty((n, n, b), dtype=complex).transpose(2, 0, 1)


def _sse_step(psi, mean, u, hpsi, dw, model, dt, n_projected) -> np.ndarray:
    """One Euler-Maruyama step of the state-vector equation on a (B, N, 1) stack.

    mean is <C> and hpsi is h_b psi or None. Valid at eta = 1 only. In C's
    eigenbasis every term of psi + sse_drift dt + sse_diffusion dW but the
    control term is diagonal, so the step is f psi - i u dt h_b psi with one
    (B, N, 1) factor f = (1 - i a dt) + x (sqrt(mu) dW - (mu dt / 2) x),
    x = c - <C>, formed in real arithmetic and the constant column added
    last; u = None skips the control term. psi is left unmodified. The
    result is divided by its norm, sqrt(sum_i populations), a sum along each
    row's own level axis of the row-major stack, so it stays pure, no row
    depends on the batch and n_projected never moves. A norm that is not
    finite and positive raises IntegrationError.
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
    # bit for bit the division, as in _sme_step
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
    and a rank-one rho0, and advances the leading eigenvector of rho0.
    """
    if indices is None:
        indices = list(range(n_trajectories))
    b = len(indices)
    if b == 0:
        raise ValueError("run_batch needs at least one trajectory")
    n = model.n
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density(rho0, name="rho0")
    rho0 = model.to_eigenbasis(rho0)
    check_representation(model, rho0, sim.representation)
    if sim.representation == "sse":
        state = np.broadcast_to(np.linalg.eigh(rho0)[1][..., :, -1:], (b, n, 1)).copy()
        step = _sse_step
    else:
        state = _density_stack(b, n)
        state[...] = hermitize(rho0)
        step = _sme_step
    # the open-loop law's zeros are recorded, but the step skips its control term
    steered = ctrl.kind != "open_loop"

    n_steps = sim.n_steps
    slots = _record_slots(n_steps, sim.record_stride)
    slot_of = {int(k): j for j, k in enumerate(slots)}
    out = _alloc(b, len(slots))
    states = np.zeros((b, len(slots), n, n), dtype=complex) if record_states else None
    n_projected = np.zeros(b, dtype=int)
    window_dy = np.zeros(b)
    noise = _brownian_increments(sim.seed, indices, sim.dt, n_steps)

    for k in range(n_steps + 1):
        j = slot_of.get(k)
        hx = m = None
        if steered or j is not None:
            hx = _left_product(model.coupling, state)
            m = moments(state, target, hx)
        # one source of <C> per law, so the path does not depend on the record points
        mean = m[..., C1] if steered else mean_level(state, model)
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
            state = step(state, mean, u if steered else None, hx, dw, model, sim.dt, n_projected)
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {k}; reduce dt") from None

    out.update(certificates(out.pop("moments"), model, target, out["controls"], ctrl.ell))
    return BatchResult(
        # integers, as _brownian_increments has checked
        indices=[int(i) for i in indices],
        times=slots * sim.dt,
        final_states=model.from_eigenbasis(np.ascontiguousarray(density(state))),
        n_steps=n_steps,
        n_projected=n_projected,
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
        states=list(res.states[0]),
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
