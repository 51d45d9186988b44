"""Euler-Maruyama engine: stepping, noise streams, recording, classification."""
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RHO_D2,
    SX,
    SZ,
    dense_diffusion,
    dense_drift,
    ginibre,
    qubit,
    qutrit,
    random_model,
    random_pure,
    with_spectrum,
)
from smestab import (
    ControllerSpec,
    ModelSpec,
    SimConfig,
    TargetSpec,
    feedback,
    run_batch,
    simulate,
)
import smestab.dynamics as dynamics
import smestab.integrate as integrate
import smestab.lyapunov as lyapunov
from smestab.lyapunov import moments
from smestab.dynamics import (
    _left_product,
    diffusion_term,
    mean_level,
    populations,
    sme_drift,
    sse_diffusion,
    sse_drift,
)
from smestab.hermitian import (
    EIG_FLOOR,
    SCREEN_MIN_ROWS,
    hermitize,
    min_eigenvalue,
    project_to_density,
    trace,
    validate_density,
)
from smestab.integrate import (
    NOISE_BLOCK,
    NOISE_WINDOW,
    BatchResult,
    IntegrationError,
    _brownian_increments,
    _record_slots,
    _sme_step,
    _sse_step,
)


def test_sim_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0, t_final=1.0, seed=1)
    with pytest.raises(ValueError, match="t_final"):
        SimConfig(dt=1e-3, t_final=0.0, seed=1)
    with pytest.raises(ValueError, match="record_stride"):
        SimConfig(dt=1e-3, t_final=1.0, seed=1, record_stride=0)
    with pytest.raises(ValueError, match="representation"):
        SimConfig(dt=1e-3, t_final=1.0, seed=1, representation="heisenberg")
    assert SimConfig(dt=1e-3, t_final=2.0, seed=1).n_steps == 2000
    # non-finite times, and seeds or strides that are booleans or not integral
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=dt, t_final=1.0, seed=1)
    for t_final in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_final"):
            SimConfig(dt=1e-3, t_final=t_final, seed=1)
    for seed in (1.5, True, np.nan, -1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(dt=1e-3, t_final=1.0, seed=seed)
    for stride in (2.5, True, np.inf):
        with pytest.raises(ValueError, match="record_stride"):
            SimConfig(dt=1e-3, t_final=1.0, seed=1, record_stride=stride)
    # a horizon that is not a whole number of steps: 0.15/0.1 = 1.4999999999999998
    # would run one step and end at 0.1, 1.0/0.3 would end at 0.9
    for dt, t_final in ((0.1, 0.15), (0.3, 1.0), (1e-3, 1.0005)):
        with pytest.raises(ValueError, match="whole number of steps"):
            SimConfig(dt=dt, t_final=t_final, seed=1)
    assert SimConfig(dt=0.1, t_final=0.3, seed=1).n_steps == 3
    # integral floats are stored as int, so the loop can slice and key with them
    sim = SimConfig(dt=0.1, t_final=0.4, seed=2.0, record_stride=2.0)
    assert (sim.seed, sim.record_stride) == (2, 2)
    assert type(sim.seed) is int and type(sim.record_stride) is int
    model, target = qubit()
    res = run_batch(RHO_D2, model, target, ControllerSpec(kind="open_loop"), sim)
    assert np.allclose(res.times, [0.0, 0.2, 0.4])


def test_run_batch_refuses_an_empty_batch_and_a_state_off_the_cone():
    model, target = qubit()
    ctrl = ControllerSpec(kind="open_loop")
    sim = SimConfig(dt=1e-3, t_final=1e-2, seed=1)
    with pytest.raises(ValueError, match="at least one trajectory"):
        run_batch(RHO_D2, model, target, ctrl, sim, indices=[])
    with pytest.raises(ValueError, match="at least one trajectory"):
        run_batch(RHO_D2, model, target, ctrl, sim, n_trajectories=0)
    half = np.eye(2, dtype=complex) / 2
    negative = np.diag([1.2, -0.2]).astype(complex)
    skew = half + np.array([[0.0, 0.1], [0.0, 0.0]])
    for rho0, word in ((2.0 * RHO_D2, "trace"), (negative, "eigenvalue"), (skew, "Hermitian"),
                       (np.stack([half, 2.0 * half]), "trace")):
        with pytest.raises(ValueError, match=word):
            run_batch(rho0, model, target, ctrl, sim, n_trajectories=2)


def test_record_slots_include_endpoint():
    slots = _record_slots(10, 3)
    np.testing.assert_array_equal(slots, [0, 3, 6, 9, 10])
    slots = _record_slots(10, 5)
    np.testing.assert_array_equal(slots, [0, 5, 10])


def test_em_step_matches_raw_increment():
    # the density kernel on a one-row stack in C's eigenbasis is the dense
    # lab-basis increment, hermitized and trace-normalized, while the state
    # stays interior
    rng = np.random.default_rng(60)
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    dt = 1e-4
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.2 * SX + 0.3 * SZ)
    n_projected = np.zeros(1, dtype=int)
    for _ in range(50):
        dw = np.array([rng.normal(0.0, np.sqrt(dt))])
        u = feedback(rho, model, target, ctrl)
        frame = model.to_eigenbasis(rho)[None]
        rho_next = model.from_eigenbasis(
            _sme_step(frame, mean_level(frame, model), np.atleast_1d(u), None, dw, model, dt,
                      n_projected)[0]
        )
        raw = rho + dense_drift(rho, model, u) * dt + dense_diffusion(rho, model) * dw[0]
        raw = hermitize(raw)
        raw = raw / trace(raw).real
        # interior state, small step: the eigenvalue clip never engages here
        np.testing.assert_allclose(rho_next, raw, atol=1e-14)
        validate_density(rho_next)
        rho = rho_next
    assert n_projected[0] == 0


@pytest.mark.parametrize("n_steps", [7, 2 * NOISE_WINDOW + 5])
def test_noise_blocks_are_one_philox_per_block_of_indices(n_steps):
    # index i reads column i % NOISE_BLOCK of the Philox keyed (seed, i // NOISE_BLOCK),
    # window by window, with duplicates, unsorted indices, both sides of a
    # block edge and the last key
    seed, dt = 2**64 - 1, 1e-3
    indices = [3, 0, 2**64 - 1, 3, 15, 16]
    got = np.stack(list(_brownian_increments(seed, indices, dt, n_steps)))
    assert got.shape == (n_steps, len(indices))
    for col, i in enumerate(indices):
        key = np.array([seed, i // NOISE_BLOCK], dtype=np.uint64)
        own = np.random.Generator(np.random.Philox(key=key))
        for start in range(0, n_steps, NOISE_WINDOW):
            width = min(NOISE_WINDOW, n_steps - start)
            window = own.normal(0.0, np.sqrt(dt), (width, NOISE_BLOCK))
            assert np.array_equal(got[start : start + width, col], window[:, i % NOISE_BLOCK]), i


def test_the_columns_of_a_noise_block_are_independent_increments():
    # the NOISE_BLOCK indices of one block: each has variance dt and every
    # pair has correlation 0, within 5 standard errors
    n_steps, dt = 20_000, 1e-3
    got = np.stack(list(_brownian_increments(11, list(range(NOISE_BLOCK)), dt, n_steps)))
    variance = np.mean(got**2, axis=0)
    assert np.all(np.abs(variance - dt) < 5 * dt * np.sqrt(2 / n_steps)), variance / dt
    corr = np.corrcoef(got.T)[np.triu_indices(NOISE_BLOCK, 1)]
    assert np.all(np.abs(corr) < 5 / np.sqrt(n_steps)), np.abs(corr).max()


def test_sse_step_requires_unit_efficiency():
    model, target = qubit(mu=1.0, eta=0.5)
    sim = SimConfig(dt=1e-4, t_final=1e-3, seed=1, representation="sse")
    with pytest.raises(ValueError, match="eta"):
        run_batch(RHO_D2, model, target, ControllerSpec(kind="open_loop"), sim)


def test_rerun_is_bit_identical():
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=123, record_stride=10)
    rho0 = np.eye(2, dtype=complex) / 2
    a = run_batch(rho0, model, target, ctrl, sim, n_trajectories=4)
    b = run_batch(rho0, model, target, ctrl, sim, n_trajectories=4)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.records, b.records)
    assert np.array_equal(a.v_tilde, b.v_tilde)
    assert np.array_equal(a.final_states, b.final_states)


def test_trajectory_independent_of_batch_composition():
    # trajectory 3 must be bitwise identical whether run alone or in a batch
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=123, record_stride=10)
    rho0 = np.eye(2, dtype=complex) / 2
    full = run_batch(rho0, model, target, ctrl, sim, n_trajectories=8)
    solo = run_batch(rho0, model, target, ctrl, sim, indices=[3])
    assert np.array_equal(full.controls[3], solo.controls[0])
    assert np.array_equal(full.records[3], solo.records[0])
    assert np.array_equal(full.final_states[3], solo.final_states[0])


def test_rows_at_a_noise_block_edge_equal_their_solo_runs():
    # indices 15 and 16 lie in different blocks; inside a batch that spans
    # both blocks and a third, each row is its solo run
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=0.2, seed=123, record_stride=10)
    rho0 = np.eye(2, dtype=complex) / 2
    batch = run_batch(rho0, model, target, ctrl, sim, indices=[14, 15, 16, 17, 40])
    for row, i in ((1, 15), (2, 16)):
        solo = run_batch(rho0, model, target, ctrl, sim, indices=[i])
        assert np.array_equal(batch.controls[row], solo.controls[0])
        assert np.array_equal(batch.records[row], solo.records[0])
        assert np.array_equal(batch.final_states[row], solo.final_states[0])
    assert not np.array_equal(batch.records[1], batch.records[2])


def test_run_batch_refuses_indices_outside_the_substream_keys():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=0.01, seed=1)
    # out of the key range, booleans and non-integral numbers: the key would
    # wrap or be truncated onto another index's noise
    for index in (-1, 2**64, 0.5, 0.9, True, np.float64(1.5), np.inf, np.nan):
        with pytest.raises(ValueError, match="trajectory index"):
            run_batch(np.eye(2) / 2, model, target, ControllerSpec(kind="open_loop"), sim,
                      indices=[0, index])
    # numpy integers are accepted and recorded as ints
    res = run_batch(np.eye(2) / 2, model, target, ControllerSpec(kind="open_loop"), sim,
                    indices=[np.int64(3), np.uint64(2**64 - 1)])
    assert res.indices == [3, 2**64 - 1] and all(type(i) is int for i in res.indices)


@pytest.mark.parametrize("make", [qubit, qutrit])
def test_a_step_whose_trace_is_not_positive_raises_at_its_step(make):
    # at k = 1e10 and dt = 1e-3, |u| dt swamps the unit trace with roundoff
    # within a few steps; run_batch stops there and names the step
    model, target = make()
    n = model.n
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=7)
    law = ControllerSpec(kind="square_of_sum", k=1e10)
    with pytest.raises(IntegrationError, match=r"not finite and positive at step \d+; reduce dt"):
        run_batch(np.eye(n) / n, model, target, law, sim, n_trajectories=50)


@pytest.mark.parametrize("make", [qubit, qutrit])
def test_a_ket_step_whose_norm_overflows_raises_at_step_0(make):
    # at k = 1e200 the linear law's control term overflows the ket's norm on
    # the first step; run_batch stops there and names it
    model, target = make(eta=1.0)
    psi0 = random_pure(np.random.default_rng(3), model.n)
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=7, representation="sse")
    law = ControllerSpec(kind="linear", k=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"norm at step 0; reduce dt$"):
            run_batch(psi0, model, target, law, sim, n_trajectories=5)


def test_eigenvalue_clip_engages_on_coarse_steps():
    # a deliberately coarse step pushes the spectrum below the floor; the
    # maintenance projection must fire and still hand back valid densities
    h_b = np.array([[0, -1j], [1j, 0]], dtype=complex)
    model = ModelSpec(h_a=SZ, h_b=h_b, c=SZ, mu=4.0, eta=1.0)
    target = TargetSpec.for_model(model, RHO_D2)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    sim = SimConfig(dt=0.05, t_final=2.5, seed=7, record_stride=10)
    res = run_batch(
        plus, model, target, ControllerSpec(kind="open_loop"), sim,
        n_trajectories=20, record_states=True,
    )
    assert res.n_projected.sum() > 0
    for i in range(20):
        for j in range(res.states.shape[1]):
            validate_density(res.states[i, j])


def test_classification_labels():
    model, target = qutrit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="open_loop")
    sim = SimConfig(dt=1e-3, t_final=0.01, seed=5)
    at_target = run_batch(target.rho_d, model, target, ctrl, sim)
    traj = simulate(target.rho_d, model, target, ctrl, sim)
    assert traj.outcome == "converged_target"
    traj = simulate(target.antipodal[0], model, target, ctrl, sim)
    assert traj.outcome == "converged_antipodal(0)"
    traj = simulate(target.antipodal[1], model, target, ctrl, sim)
    assert traj.outcome == "converged_antipodal(1)"
    traj = simulate(np.eye(3, dtype=complex) / 3, model, target, ctrl, sim)
    assert traj.outcome == "undetermined"
    assert at_target.final_states.shape == (1, 3, 3)


def test_stacked_initial_states_match_single_runs():
    rng = np.random.default_rng(61)
    model, target = qubit(mu=1.0, eta=1.0)
    ctrl = ControllerSpec(kind="sum_of_squares")
    rho0 = np.stack([random_pure(rng, 2) for _ in range(3)])
    for rep in ("sme", "sse"):
        sim = SimConfig(dt=1e-3, t_final=0.5, seed=9, representation=rep)
        batch = run_batch(rho0, model, target, ctrl, sim, n_trajectories=3)
        for i in range(3):
            solo = run_batch(rho0[i], model, target, ctrl, sim, indices=[i])
            assert np.array_equal(batch.controls[i], solo.controls[0]), rep
            assert np.array_equal(batch.final_states[i], solo.final_states[0]), rep


def test_sse_batch_stays_pure():
    rng = np.random.default_rng(62)
    model, target = qutrit(mu=1.0, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-4, t_final=0.5, seed=11, representation="sse")
    rho0 = random_pure(rng, 3)
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=5)
    assert np.max(np.abs(res.purity - 1.0)) < 1e-12


def test_sse_rejects_mixed_initial_state():
    model, target = qubit(mu=1.0, eta=1.0)
    sim = SimConfig(dt=1e-3, t_final=0.1, seed=1, representation="sse")
    with pytest.raises(ValueError, match="rank-one"):
        run_batch(
            np.eye(2, dtype=complex) / 2, model, target,
            ControllerSpec(kind="open_loop"), sim,
        )


def test_representations_agree_on_fidelity_paths():
    # same substreams, same feedback: the two integrators track each other to
    # O(dt) over a short horizon (measured gap 6.5 dt at this seed)
    rng = np.random.default_rng(63)
    model, target = qubit(mu=1.0, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum")
    rho0 = random_pure(rng, 2)
    dt = 1e-4
    runs = {}
    for rep in ("sme", "sse"):
        sim = SimConfig(dt=dt, t_final=1e-2, seed=99, representation=rep)
        runs[rep] = run_batch(rho0, model, target, ctrl, sim, n_trajectories=2)
    gap = np.max(np.abs(runs["sme"].fidelity - runs["sse"].fidelity))
    assert gap < 10.0 * dt


def test_simulate_matches_batch_rows_and_validity():
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=0.5, seed=21, record_stride=50)
    rho0 = np.eye(2, dtype=complex) / 2
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=3, record_states=True)
    for i in range(3):
        t = simulate(rho0, model, target, ctrl, sim, trajectory_index=i)
        assert t.trajectory_index == i
        assert np.array_equal(t.times, res.times)
        assert np.array_equal(np.asarray(t.states), res.states[i])
        pairs = (
            (t.controls, res.controls),
            (t.records, res.records),
            (t.fidelity_target, res.fidelity),
            (t.purity, res.purity),
            ([r.v_tilde for r in t.lyapunov], res.v_tilde),
            ([r.lv_closed_loop for r in t.lyapunov], res.lv),
        )
        for got, want in pairs:
            assert np.array_equal(got, want[i])
        np.testing.assert_allclose(t.lyapunov[0].v_tilde, 1.0 + 0.5, atol=1e-12)


def dense_sse_step(psi, model, u, dt, dw):
    """One normalized Euler-Maruyama step of the state-vector equation, lab basis."""
    c = model.c
    h = model.h_a + u[:, None, None] * model.h_b
    cpsi = np.einsum("ij,bj->bi", c, psi)
    centered = cpsi - np.einsum("bi,bi->b", psi.conj(), cpsi).real[:, None] * psi
    centered_sq = np.einsum("ij,bj->bi", c, centered) - (
        np.einsum("bi,bi->b", psi.conj(), cpsi).real[:, None] * centered
    )
    drift = -1j * np.einsum("bij,bj->bi", h, psi) - 0.5 * model.mu * centered_sq
    nxt = psi + drift * dt + np.sqrt(model.mu) * centered * dw[:, None]
    return nxt / np.linalg.norm(nxt, axis=-1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    batch=st.sampled_from([1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_matches_dense_reference_and_is_row_local(n, batch, seed):
    # N = 2..8 runs both the broadcast-sum and the matmul side of the
    # eigenbasis kernels, up to the N = 8 of the state-vector benchmark; the
    # reference is the dense lab-basis scheme
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    dt = 1e-4
    sim_seed = int(rng.integers(2**32))
    indices = list(range(batch))
    dw = next(_brownian_increments(sim_seed, indices, dt, 1))
    interior = 0.5 * ginibre(rng, n, batch=(batch,)) + 0.5 * np.eye(n) / n
    cases = (("sme", model, interior), ("sse", replace(model, eta=1.0), random_pure(rng, n, (batch,))))

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    for rep, m, rho0 in cases:
        sim = SimConfig(dt=dt, t_final=dt, seed=sim_seed, representation=rep)
        res = run_batch(rho0, m, target, ctrl, sim, indices=indices)
        u = res.controls[:, 0]
        close(u, feedback(rho0, m, target, ctrl))
        if rep == "sme":
            ref = rho0 + dense_drift(rho0, m, u) * dt + dense_diffusion(rho0, m) * dw[:, None, None]
            ref = hermitize(ref)
            ref = ref / trace(ref).real[:, None, None]
        else:
            psi = dense_sse_step(np.linalg.eigh(rho0)[1][..., -1], m, u, dt, dw)
            ref = np.einsum("bi,bj->bij", psi, psi.conj())
        final = res.final_states
        close(final, ref)
        close(final, np.conj(np.swapaxes(final, -1, -2)))
        close(trace(final).real, 1.0)
        assert res.n_projected.sum() == 0
        for i in range(batch):
            solo = run_batch(rho0[i], m, target, ctrl, sim, indices=[i])
            for name in ("controls", "records", "v_tilde", "lv", "fidelity", "purity"):
                assert np.array_equal(getattr(solo, name)[0], getattr(res, name)[i]), (rep, name)
            assert np.array_equal(solo.final_states[0], final[i]), rep


def test_below_floor_is_min_eigenvalues_mask_next_to_the_floor():
    # smallest eigenvalues planted on, just around and within the screen's
    # margin above EIG_FLOOR: rows the screen cannot clear are decided by
    # min_eigenvalue, so the mask is min_eigenvalue's on every row and N
    rng = np.random.default_rng(45)
    smallest = EIG_FLOOR + np.array([-1e-12, -1e-15, 0.0, 1e-15, 1e-13, 5e-13, 2e-12, 1e-9])
    b = 8 * SCREEN_MIN_ROWS
    for n in range(2, 9):
        lam = rng.choice(smallest, b)
        others = rng.uniform(0.0, 1.0, (b, n - 1))
        rho = with_spectrum(rng, np.column_stack([lam, others]))
        below = integrate._below_floor(rho)
        assert np.array_equal(below, min_eigenvalue(rho) < EIG_FLOOR), n
        assert 0 < below.sum() < b, n


def test_screened_clip_decisions_match_eigvalsh_on_every_row(monkeypatch):
    # coarse regimes that clip often, on batches large enough for the floor
    # screen at N >= 3: every clip and every state equal the step that asks
    # eigvalsh about every row; the fixed qutrit from a shared start, and
    # random N = 4 and N = 6 models from mixed and pure starts
    b = 40
    assert b >= SCREEN_MIN_ROWS
    rng = np.random.default_rng(44)
    qutrit_model, qutrit_target = qutrit(mu=6.0, eta=0.5)
    cases = [(qutrit_model, qutrit_target, np.full((3, 3), 1.0 / 3.0, dtype=complex))]
    for n in (4, 6):
        model, target = random_model(rng, n)
        starts = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
        cases.append((model, target, starts))
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    sim = SimConfig(dt=0.3, t_final=9.0, seed=5, record_stride=3)

    def eigvalsh_mask(rho):
        return np.linalg.eigvalsh(rho)[:, 0] < EIG_FLOOR

    for model, target, rho0 in cases:
        screened = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b,
                             record_states=True)
        with monkeypatch.context() as patch:
            patch.setattr(integrate, "_below_floor", eigvalsh_mask)
            reference = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b,
                                  record_states=True)
        assert screened.n_projected.sum() > 100, model.n
        for name in ("controls", "records", "v_tilde", "lv", "fidelity", "purity",
                     "final_states", "states", "n_projected", "n_rejected"):
            assert np.array_equal(getattr(screened, name), getattr(reference, name)), (
                model.n, name)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_interior_stacks_above_three_levels_ask_min_eigenvalue_about_no_row(monkeypatch, n):
    # the screen clears every row of an interior stack of N > 3, and of a
    # fine-step run from the maximally mixed state, so eigvalsh sees none
    asked = []

    def counted(rho):
        asked.append(len(rho))
        return min_eigenvalue(rho)

    monkeypatch.setattr(integrate, "min_eigenvalue", counted)
    rng = np.random.default_rng(n)
    for b in (SCREEN_MIN_ROWS, 5 * SCREEN_MIN_ROWS):
        rho = with_spectrum(rng, rng.uniform(0.02, 1.0, (b, n)))
        assert not integrate._below_floor(rho).any()
    model, target = random_model(rng, n)
    sim = SimConfig(dt=1e-3, t_final=0.2, seed=n)
    ctrl = ControllerSpec(kind="square_of_sum", k=3.0, ell=3.0)
    res = run_batch(np.eye(n) / n, model, target, ctrl, sim, n_trajectories=SCREEN_MIN_ROWS)
    assert res.n_projected.sum() == 0
    assert asked == []


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([0.02, 0.1, 0.3]),
       kind=st.sampled_from(["open_loop", "square_of_sum", "sum_of_squares"]))
def test_random_qutrits_stay_on_the_cone_over_many_coarse_steps(seed, dt, kind):
    # the screened batch path against solo runs, which ask eigvalsh about
    # their single row, over 60 coarse steps of random N = 3 models
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, 3)
    ctrl = ControllerSpec(kind=kind, k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=dt, t_final=60 * dt, seed=int(rng.integers(2**32)), record_stride=20)
    b = SCREEN_MIN_ROWS + 8
    rho0 = np.concatenate([ginibre(rng, 3, (b // 2,)), random_pure(rng, 3, (b - b // 2,))])
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b)
    validate_density(res.final_states)
    for i in rng.choice(b, 4, replace=False):
        solo = run_batch(rho0[i], model, target, ctrl, sim, indices=[int(i)])
        assert np.array_equal(solo.n_projected[0], res.n_projected[i])
        assert np.array_equal(solo.final_states[0], res.final_states[i])
        assert np.array_equal(solo.controls[0], res.controls[i])


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([0.05, 0.2]),
       kind=st.sampled_from(["open_loop", "square_of_sum", "sum_of_squares"]))
def test_random_models_stay_exactly_hermitian_and_on_the_cone(n, seed, dt, kind):
    # 400 coarse density steps on a random N = 2..6 model, with many clips:
    # no step repairs Hermiticity, so every state must be Hermitian bit for
    # bit; every final state is on the cone, and rows stepped alone equal
    # their rows in the batch (for N = 3 the batch is large enough to screen)
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind=kind, k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    b = SCREEN_MIN_ROWS + 8
    lab = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    batch = hermitize(model.to_eigenbasis(lab))
    solo_rows = [int(i) for i in rng.choice(b, 3, replace=False)]
    solos = [batch[[i]] for i in solo_rows]
    counts = np.zeros(b, dtype=int)
    solo_counts = [np.zeros(1, dtype=int) for _ in solo_rows]

    def step(rho, dw, n_projected):
        u = feedback(rho, model, target, ctrl, moments(rho, target))
        return _sme_step(rho, mean_level(rho, model), u, None, dw, model, dt, n_projected)

    for _ in range(400):
        dw = rng.normal(0.0, np.sqrt(dt), b)
        batch = step(batch, dw, counts)
        assert np.array_equal(batch, np.conj(np.swapaxes(batch, -1, -2)))
        solos = [step(r, dw[[i]], c) for r, i, c in zip(solos, solo_rows, solo_counts)]
    validate_density(model.from_eigenbasis(batch))
    for r, i, c in zip(solos, solo_rows, solo_counts):
        assert np.array_equal(r[0], batch[i])
        assert c[0] == counts[i]


def repaired_sme_step(rho, mean, u, hr, dw, model, dt, n_projected):
    """The density step with the increment hermitized before it is normalized.

    It forms its own h_b rho and ignores the hr the loop hands it.
    """
    nxt = rho + sme_drift(rho, model, u) * dt + diffusion_term(rho, mean, model) * dw[:, None, None]
    nxt = hermitize(nxt)
    nxt = nxt / trace(nxt).real[:, None, None]
    low = np.linalg.eigvalsh(nxt)[:, 0] < EIG_FLOOR
    n_projected[low] += 1
    nxt[low] = project_to_density(nxt[low])
    return nxt


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_run_batch_agrees_with_a_step_that_hermitizes_every_step(monkeypatch, n):
    rng = np.random.default_rng(80 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=0.01, t_final=2.0, seed=n, record_stride=20)
    b = SCREEN_MIN_ROWS + 8
    rho0 = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    got = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    monkeypatch.setattr(integrate, "_sme_step", repaired_sme_step)
    want = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    assert got.n_projected.sum() > 0
    assert np.array_equal(got.n_projected, want.n_projected)
    for name in ("controls", "records", "v_tilde", "lv", "fidelity", "purity", "final_states",
                 "states"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-12)


def _open_loop_cases(b):
    """(name, model, target, rho0, sim) for b rows: SME at N = 2, N = 3 (coarse, clipping), SSE."""
    model2, target2 = qubit(mu=1.0, eta=0.5)
    model3, target3 = qutrit(mu=6.0, eta=0.5)
    plus3 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    rng = np.random.default_rng(91)
    model5, target5 = random_model(rng, 5)
    return (
        ("sme2", model2, target2, ginibre(rng, 2, (b,)), SimConfig(dt=1e-3, t_final=0.3, seed=3,
                                                                   record_stride=7)),
        ("sme3_coarse", model3, target3, plus3, SimConfig(dt=0.3, t_final=9.0, seed=5,
                                                          record_stride=3)),
        ("sse5", replace(model5, eta=1.0), target5, random_pure(rng, 5, (b,)),
         SimConfig(dt=1e-3, t_final=0.3, seed=8, record_stride=7, representation="sse")),
    )


@pytest.mark.parametrize("case", range(3))
def test_open_loop_runs_skip_the_control_term_and_match_a_step_given_zeros(monkeypatch, case):
    # run_batch hands the open-loop step u = None; the same run with the step
    # given explicit zeros agrees on every BatchResult field, bit for bit
    b = SCREEN_MIN_ROWS + 8
    name, model, target, rho0, sim = _open_loop_cases(b)[case]
    ctrl = ControllerSpec(kind="open_loop")
    kernel = "_sse_step" if sim.representation == "sse" else "_sme_step"
    real = getattr(integrate, kernel)
    seen = []

    def watched(state, mean, u, *rest):
        seen.append(u)
        return real(state, mean, u, *rest)

    def given_zeros(state, mean, u, *rest):
        assert u is None
        return real(state, mean, np.zeros(state.shape[0]), *rest)

    monkeypatch.setattr(integrate, kernel, watched)
    got = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    assert len(seen) == sim.n_steps and all(u is None for u in seen)
    monkeypatch.setattr(integrate, kernel, given_zeros)
    want = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    if name == "sme3_coarse":
        assert got.n_projected.sum() > 100
    for f in fields(BatchResult):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (name, f.name)
    assert not got.controls.any()
    # a closed-loop law hands the step its controls
    seen.clear()
    monkeypatch.setattr(integrate, kernel, watched)
    run_batch(rho0, model, target, ControllerSpec(kind="square_of_sum"), sim, n_trajectories=b)
    assert len(seen) == sim.n_steps
    assert all(isinstance(u, np.ndarray) and u.shape == (b,) for u in seen)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_density_step_leaves_its_input_and_matches_the_plain_expression(n):
    # the step is assembled in place in the kernels' own arrays: the input
    # stack is untouched and the result is the plain expression bit for bit,
    # whether the step forms h_b rho itself or is handed the loop's product
    rng = np.random.default_rng(70 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.3, ell=0.7)
    b, dt = 40, 1e-3
    dw = rng.normal(0.0, np.sqrt(dt), b)
    n_projected = np.zeros(b, dtype=int)
    rho = hermitize(model.to_eigenbasis(0.5 * ginibre(rng, n, (b,)) + 0.5 * np.eye(n) / n))
    mean = mean_level(rho, model)
    hr = _left_product(model.coupling, rho)
    for u in (None, feedback(rho, model, target, ctrl, moments(rho, target))):
        g = diffusion_term(rho, mean, model)
        raw = rho + sme_drift(rho, model, u) * dt + g * dw[:, None, None]
        # the increment is traceless: before normalization the trace is 1 to roundoff
        assert np.max(np.abs(trace(raw).real - 1.0)) < 1e-12
        for shared in (None, hr):
            before = rho.copy()
            got = _sme_step(rho, mean, u, shared, dw, model, dt, n_projected)
            assert np.array_equal(rho, before)
            assert np.array_equal(got, raw / trace(raw).real[:, None, None])
    assert not n_projected.any()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_ket_step_leaves_its_input_and_matches_the_plain_expression(n):
    # the state-vector twin of the density test above: the step is the plain
    # expression to roundoff, and bit for bit one diagonal factor times psi
    # plus the control term, divided by sqrt of its summed populations
    rng = np.random.default_rng(90 + n)
    model, target = random_model(rng, n)
    model = replace(model, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.3, ell=0.7)
    b, dt = 40, 1e-3
    dw = rng.normal(0.0, np.sqrt(dt), b)
    n_projected = np.zeros(b, dtype=int)
    psi = rng.normal(size=(b, n, 1)) + 1j * rng.normal(size=(b, n, 1))
    psi /= np.linalg.norm(psi, axis=-2, keepdims=True)
    mean = mean_level(psi, model)
    hpsi = _left_product(model.coupling, psi)
    x = model.levels[:, None] - mean[:, None, None]
    f = x * (np.sqrt(model.mu) * dw[:, None, None] - (0.5 * model.mu * dt) * x)
    f = f + (1.0 - 1j * dt * model.energies[:, None])
    for u in (None, feedback(psi, model, target, ctrl, moments(psi, target))):
        g = sse_diffusion(psi, mean, model)
        raw = psi + sse_drift(psi, mean, model, u) * dt + g * dw[:, None, None]
        factored = f * psi
        if u is not None:
            factored = factored + (-1j * dt * u)[:, None, None] * hpsi
        want = factored / np.sqrt(populations(factored).sum(-1))[:, None, None]
        for shared in (None, hpsi):
            before = psi.copy()
            got = _sse_step(psi, mean, u, shared, dw, model, dt, n_projected)
            assert np.array_equal(psi, before)
            assert np.array_equal(got, want)
            np.testing.assert_allclose(
                got, raw / np.linalg.norm(raw, axis=-2, keepdims=True), rtol=0.0, atol=1e-15
            )
    assert not n_projected.any()


def test_coarse_steps_that_clip_leave_their_input_unmodified():
    model, target = qutrit(mu=6.0, eta=0.5)
    rng = np.random.default_rng(12)
    b = SCREEN_MIN_ROWS + 8
    rho = hermitize(model.to_eigenbasis(random_pure(rng, 3, (b,))))
    n_projected = np.zeros(b, dtype=int)
    for u in (None, rng.normal(size=b)):
        for _ in range(20):
            before = rho.copy()
            nxt = _sme_step(rho, mean_level(rho, model), u, None, rng.normal(0.0, 0.5, b), model,
                            0.3, n_projected)
            assert np.array_equal(rho, before)
            rho = nxt
    assert n_projected.sum() > 0


def _count_calls(monkeypatch, names):
    """Count the calls run_batch makes to names on smestab.integrate.

    h_b state is counted wherever it is formed: the step kernels form it in
    dynamics and moments in lyapunov when they are not handed the loop's.
    """
    counts = dict.fromkeys(names, 0)
    for module in (integrate, dynamics, lyapunov):
        for name in names:
            if module is integrate or name == "_left_product":
                real = getattr(module, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("representation", ["sme", "sse"])
def test_each_step_reads_its_state_once(monkeypatch, representation):
    # a steered run that records every step builds one moment table and one
    # h_b state product per step and never reads <C> on its own; an open-loop
    # run builds them only at its record points and reads <C> from mean_level
    # at every step
    model, target = qubit(mu=1.0, eta=1.0)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SX)
    names = ("moments", "_left_product", "mean_level", "feedback")
    steered = SimConfig(dt=1e-3, t_final=0.05, seed=4, representation=representation)
    counts = _count_calls(monkeypatch, names)
    run_batch(rho0, model, target, ControllerSpec(kind="square_of_sum"), steered, n_trajectories=3)
    n = steered.n_steps
    assert counts == {"moments": n + 1, "_left_product": n + 1, "mean_level": 0, "feedback": n + 1}
    open_loop = SimConfig(dt=1e-3, t_final=1.0, seed=4, record_stride=200,
                          representation=representation)
    counts = _count_calls(monkeypatch, names)
    res = run_batch(rho0, model, target, ControllerSpec(kind="open_loop"), open_loop,
                    n_trajectories=3)
    n, points = open_loop.n_steps, len(res.times)
    assert points == 6
    assert counts == {"moments": points, "_left_product": points, "mean_level": n + 1,
                      "feedback": n + 1}


@pytest.mark.parametrize("n, representation", [(4, "sme"), (5, "sme"), (6, "sme"), (5, "sse")])
def test_open_loop_paths_do_not_depend_on_the_record_stride(n, representation):
    # above SUM_MAX_N the moment table's <C> may differ from mean_level's in
    # the last bit; an open-loop step reads mean_level at every step, so a
    # record point does not move the path
    rng = np.random.default_rng(40 + n)
    model, target = random_model(rng, n)
    if representation == "sse":
        model = replace(model, eta=1.0)
    b = 8
    rho0 = random_pure(rng, n, (b,)) if representation == "sse" else ginibre(rng, n, (b,))
    ctrl = ControllerSpec(kind="open_loop")
    sim = SimConfig(dt=1e-3, t_final=0.2, seed=n, representation=representation)
    every = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b)
    for stride in (7, sim.n_steps):
        res = run_batch(rho0, model, target, ctrl, replace(sim, record_stride=stride),
                        n_trajectories=b)
        at = _record_slots(sim.n_steps, stride)
        assert np.array_equal(res.final_states, every.final_states), stride
        # records sum dY over each stride's window, so they are not compared
        for name in ("fidelity", "purity", "v_tilde", "third"):
            assert np.array_equal(getattr(res, name), getattr(every, name)[:, at]), (stride, name)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       representation=st.sampled_from(["sme", "sse"]))
def test_random_steered_runs_are_row_local_and_keep_the_rates(n, seed, representation):
    # a steered run on a random N = 2..8 model shares one h_b state product
    # between the rates and the control term: rows run alone equal their rows
    # in the batch bit for bit; the density rates taken from that product are
    # the elementwise sum they replace, exactly up to N = 3 (broadcast adds in
    # the same order) and within 1e-15 above it (a stacked matmul)
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    if representation == "sse":
        model = replace(model, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=0.01, t_final=1.2, seed=seed, record_stride=10,
                    representation=representation)
    b = 6
    rho0 = random_pure(rng, n, (b,))
    if representation == "sme":
        rho0[: b // 2] = ginibre(rng, n, (b // 2,))
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    assert sim.n_steps >= 100
    for i in (0, b - 1):
        solo = run_batch(rho0[i], model, target, ctrl, sim, indices=[i], record_states=True)
        for f in fields(BatchResult):
            if f.name not in ("indices", "times", "n_steps"):
                assert np.array_equal(getattr(solo, f.name)[0], getattr(res, f.name)[i]), f.name
    frame = hermitize(model.to_eigenbasis(res.states))
    shared = dynamics.rates(_left_product(model.coupling, frame))
    summed = dynamics.sum_last((model.coupling * frame.swapaxes(-1, -2)).imag)
    if n <= dynamics.SUM_MAX_N:
        assert np.array_equal(shared, summed)
    else:
        np.testing.assert_allclose(shared, summed, rtol=0.0, atol=1e-15)


def _position_cases():
    """(name, model, target, ctrl, sim): densities steered at N = 2, open-loop and
    steered at N = 3; kets steered at N = 8 and open-loop at N = 3."""
    model2, target2 = qubit(mu=1.0, eta=0.5)
    model3, target3 = qutrit(mu=6.0, eta=0.5)
    model8, target8 = random_model(np.random.default_rng(8), 8)
    steered = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    return (
        ("qubit_steered", model2, target2, steered,
         SimConfig(dt=0.05, t_final=3.0, seed=21, record_stride=7)),
        ("qutrit_open", model3, target3, ControllerSpec(kind="open_loop"),
         SimConfig(dt=0.1, t_final=6.0, seed=22, record_stride=7)),
        ("qutrit_steered", model3, target3, steered,
         SimConfig(dt=0.1, t_final=6.0, seed=23, record_stride=7)),
        ("ket8_steered", replace(model8, eta=1.0), target8, steered,
         SimConfig(dt=0.01, t_final=3.0, seed=24, record_stride=7, representation="sse")),
        ("ket3_open", replace(model3, eta=1.0), target3, ControllerSpec(kind="open_loop"),
         SimConfig(dt=0.02, t_final=2.0, seed=25, record_stride=7, representation="sse")),
    )


@pytest.mark.parametrize("case", range(5))
def test_rows_equal_solo_runs_at_every_batch_position(monkeypatch, case):
    # B = 1003 is no multiple of a SIMD width, so the first, a middle and the
    # last lane each sit at a different offset in their vector; coarse density
    # steps from mixed and pure starts clip often, and kets start pure. Each
    # row equals its solo run bit for bit on every series, and the batch
    # stepped on a row-major stack equals the batch stepped on lanes (for
    # kets, always row-major, a rerun)
    name, model, target, ctrl, sim = _position_cases()[case]
    n, b = model.n, 1003
    rng = np.random.default_rng(60 + case)
    if sim.representation == "sse":
        rho0 = random_pure(rng, n, (b,))
    else:
        # mixed starts in rows 0..500, pure ones in rows 501..1002
        rho0 = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    if sim.representation == "sme":
        assert res.n_projected.sum() > b, name
    for i in (0, 501, 1002):
        solo = run_batch(rho0[i], model, target, ctrl, sim, indices=[i], record_states=True)
        for f in fields(BatchResult):
            if f.name not in ("indices", "times", "n_steps"):
                assert np.array_equal(getattr(solo, f.name)[0], getattr(res, f.name)[i]), (
                    name, i, f.name)
    monkeypatch.setattr(integrate, "_density_stack",
                        lambda b, n: np.empty((b, n, n), dtype=complex))
    row_major = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    for f in fields(BatchResult):
        assert np.array_equal(getattr(row_major, f.name), getattr(res, f.name)), (name, f.name)


@pytest.mark.parametrize("n", [2, 3])
def test_step_kernels_give_lanes_and_a_row_major_copy_the_same_rows(n):
    # the kernels that read the lane stack, fed its row-major copy, agree bit
    # for bit and hand back arrays in their input's layout
    rng = np.random.default_rng(30 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=2.0, ell=0.5)
    b = 2 * SCREEN_MIN_ROWS + 1
    lanes = integrate._density_stack(b, n)
    lanes[...] = hermitize(model.to_eigenbasis(
        np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])))
    row_major = np.ascontiguousarray(lanes)
    assert lanes.strides[0] < min(lanes.strides[1:]) and row_major.flags.c_contiguous
    dw = rng.normal(0.0, 0.5, b)
    outputs = []
    for rho in (lanes, row_major):
        hr = _left_product(model.coupling, rho)
        m = moments(rho, target, hr)
        u = feedback(rho, model, target, ctrl, m)
        n_projected = np.zeros(b, dtype=int)
        mean = m[..., dynamics.C1]
        nxt = _sme_step(rho, mean, u, hr, dw, model, 0.2, n_projected)
        assert nxt.strides == rho.strides
        outputs.append((hr, m, mean_level(rho, model), sme_drift(rho, model, u, hr),
                        diffusion_term(rho, mean, model), min_eigenvalue(rho),
                        integrate._below_floor(rho), nxt, n_projected))
    assert outputs[1][-1].sum() > 0
    for got, want in zip(*outputs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_density_steps_run_on_batch_last_lanes_up_to_sum_max_n(monkeypatch, n):
    # every step of a batch with N <= SUM_MAX_N reads and returns a stack
    # whose batch axis has the smallest stride; above, the stack stays
    # row-major for the stacked matmul. Without this check a fall back to the
    # slow layout would keep every output, and every other test, unchanged
    rng = np.random.default_rng(50 + n)
    model, target = random_model(rng, n)
    real = integrate._sme_step
    seen = []

    def watched(state, *rest):
        nxt = real(state, *rest)
        seen.extend([state, nxt])
        return nxt

    monkeypatch.setattr(integrate, "_sme_step", watched)
    sim = SimConfig(dt=0.05, t_final=1.0, seed=n, record_stride=5)
    for kind in ("open_loop", "square_of_sum"):
        for b in (5, SCREEN_MIN_ROWS + 8):
            seen.clear()
            run_batch(np.eye(n) / n, model, target, ControllerSpec(kind=kind), sim,
                      n_trajectories=b)
            assert len(seen) == 2 * sim.n_steps
            for state in seen:
                if n <= dynamics.SUM_MAX_N:
                    assert state.strides[0] < min(state.strides[1:]), (kind, b, state.strides)
                else:
                    assert state.flags.c_contiguous, (kind, b, state.strides)
