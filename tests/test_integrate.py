"""The integrator: the density split, the ket step, noise streams, recording, classification."""
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    C3,
    H_A3,
    H_B3_FIRST_ROW,
    RHO_D2,
    SX,
    SY,
    SZ,
    dense_diffusion,
    dense_drift,
    dense_split_step,
    density_step,
    ginibre,
    qubit,
    qutrit,
    random_model,
    random_pure,
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
from smestab.lyapunov import moments
from smestab.dynamics import (
    _left_product,
    density,
    diffusion_term,
    mean_level,
    populations,
    sme_drift,
)
from smestab.hermitian import (
    dag,
    hermitize,
    min_eigenvalue,
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
    _split,
    _sse_step,
)

# batch size of the random-model density tests
ROWS = 40


def on_the_cone(states, floor=-1e-14):
    """Assert a stack of densities is exactly Hermitian, of unit trace and above floor."""
    assert np.array_equal(states, np.conj(np.swapaxes(states, -1, -2)))
    assert np.max(np.abs(trace(states).real - 1.0)) < 1e-12
    lowest = float(np.min(np.linalg.eigvalsh(np.ascontiguousarray(states))))
    assert lowest >= floor, lowest


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
    # from 5e8 steps the relative tolerance admits half a step: 1e9 + 0.5 steps
    # would be rounded, and 1e300 steps would overflow the record slots
    for dt, t_final in ((1.0, 1e9 + 0.5), (1e-300, 1.0)):
        with pytest.raises(ValueError, match="under 5e8 steps"):
            SimConfig(dt=dt, t_final=t_final, seed=1)
    assert SimConfig(dt=1.0, t_final=4e8, seed=1).n_steps == 400_000_000
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
    # the count follows the package's integer rule, as EnsembleConfig's does
    for count in (True, 2.5):
        with pytest.raises(ValueError, match="n_trajectories must be an integer"):
            run_batch(RHO_D2, model, target, ctrl, sim, n_trajectories=count)
    assert run_batch(RHO_D2, model, target, ctrl, sim, n_trajectories=3.0).indices == [0, 1, 2]
    half = np.eye(2, dtype=complex) / 2
    negative = np.diag([1.2, -0.2]).astype(complex)
    skew = half + np.array([[0.0, 0.1], [0.0, 0.0]])
    for rho0, word in ((2.0 * RHO_D2, "trace"), (negative, "eigenvalue"), (skew, "Hermitian"),
                       (np.stack([half, 2.0 * half]), "trace")):
        with pytest.raises(ValueError, match=word):
            run_batch(rho0, model, target, ctrl, sim, n_trajectories=2)


def test_run_batch_refuses_a_target_built_for_another_c():
    # B measures -sz, so target_a's tables put rho_d = |0><0| on B's other
    # level: B would steer toward |1> and record its population as fidelity
    # (0.467 on row 0 here) while rho_d and the outcome labels name |0>
    a = ModelSpec(h_a=SZ, h_b=SX, c=SZ, mu=1.0, eta=0.5)
    b = ModelSpec(h_a=SZ, h_b=SX, c=-SZ, mu=1.0, eta=0.5)
    target_a = TargetSpec.for_model(a, RHO_D2)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    sim = SimConfig(dt=1e-3, t_final=0.5, seed=1)
    half = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="target was built for another c"):
        run_batch(half, b, target_a, ctrl, sim)
    # rho_d no eigenstate of this c, or a target of another dimension
    sx_meter = ModelSpec(h_a=SX, h_b=SZ, c=SX, mu=1.0, eta=0.5)
    with pytest.raises(ValueError, match="target was built for another c"):
        run_batch(half, sx_meter, target_a, ctrl, sim)
    qutrit_model, qutrit_target = qutrit()
    with pytest.raises(ValueError, match="does not match model dimension"):
        run_batch(half, a, qutrit_target, ctrl, sim)
    with pytest.raises(ValueError, match="does not match model dimension"):
        run_batch(np.eye(3) / 3, qutrit_model, target_a, ctrl, sim)


@pytest.mark.parametrize("build, other", [
    (qubit, ModelSpec(h_a=0.3 * SZ, h_b=SY, c=SZ, mu=2.0, eta=0.9)),
    (qutrit, ModelSpec(h_a=-H_A3, h_b=H_B3_FIRST_ROW, c=C3, mu=0.7, eta=0.4)),
], ids=["qubit", "qutrit"])
def test_a_target_serves_every_model_with_its_c(build, other):
    # another h_a, h_b, mu and eta, the same c: the target built for the
    # first model is accepted and runs bit for bit as the one built for other
    model, target = build()
    own = TargetSpec.for_model(other, target.rho_d)
    rho0 = np.eye(model.n, dtype=complex) / model.n
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=3, record_stride=10)
    for kind in ("square_of_sum", "open_loop"):
        ctrl = ControllerSpec(kind=kind, k=1.5, ell=1.2)
        runs = [run_batch(rho0, other, t, ctrl, sim, n_trajectories=4, record_states=True)
                for t in (target, own)]
        for f in fields(BatchResult):
            assert np.array_equal(getattr(runs[0], f.name), getattr(runs[1], f.name)), f.name


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_target_is_accepted_on_equal_entries_of_c_and_refused_on_any_other(n):
    # run_batch compares c entry for entry: another h_a, h_b, mu and eta, or
    # an equal-valued copy of c, run bit for bit as the model's own target
    rng = np.random.default_rng(2300 + n)
    model, target = random_model(rng, n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = model.basis
    others = (
        replace(model, h_a=(v * rng.uniform(-1.0, 1.0, n)) @ v.conj().T,
                h_b=hermitize(g), mu=rng.uniform(0.2, 2.0), eta=rng.uniform(0.1, 1.0)),
        replace(model, c=model.c.copy()),
    )
    rho0 = ginibre(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.5, ell=1.2)
    sim = SimConfig(dt=1e-3, t_final=0.02, seed=5, record_stride=5)
    for other in others:
        runs = [run_batch(rho0, other, t, ctrl, sim, n_trajectories=3, record_states=True)
                for t in (target, TargetSpec.for_model(other, target.rho_d))]
        for f in fields(BatchResult):
            assert np.array_equal(getattr(runs[0], f.name), getattr(runs[1], f.name)), f.name
    # -c puts rho_d on another level; c one part in 2^52 off is refused as well
    for c in (-model.c, model.c * (1.0 + 2.0**-52)):
        with pytest.raises(ValueError, match="target was built for another c"):
            run_batch(rho0, replace(model, c=c), target, ctrl, sim)


def test_run_batch_builds_no_target(monkeypatch):
    model, target = qutrit(eta=0.5)

    def refuse(self, model):
        raise AssertionError("a target was built")

    monkeypatch.setattr(TargetSpec, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a target was built"):
        TargetSpec.for_model(model, target.rho_d)
    for kind in ("square_of_sum", "open_loop"):
        res = run_batch(np.eye(3) / 3, model, target, ControllerSpec(kind=kind),
                        SimConfig(dt=1e-3, t_final=0.01, seed=2), n_trajectories=2)
        assert res.final_states.shape == (2, 3, 3)


def test_record_slots_include_endpoint():
    slots = _record_slots(10, 3)
    np.testing.assert_array_equal(slots, [0, 3, 6, 9, 10])
    slots = _record_slots(10, 5)
    np.testing.assert_array_equal(slots, [0, 5, 10])


def test_split_step_agrees_with_the_euler_maruyama_increment_to_first_order():
    # the split solves the same SME: from an interior state, one small step
    # differs from the dense lab-basis Euler-Maruyama increment by O(dt), the
    # dW^2 - dt terms the increment drops, and lands on the cone
    rng = np.random.default_rng(60)
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    dt = 1e-4
    split = _split(model, dt)
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.2 * SX + 0.3 * SZ)
    worst = 0.0
    for _ in range(50):
        dw = np.array([rng.normal(0.0, np.sqrt(dt))])
        u = feedback(rho, model, target, ctrl)
        frame = model.to_eigenbasis(rho)[None]
        rho_next = model.from_eigenbasis(
            density_step(frame, mean_level(frame, model), np.atleast_1d(u), None, dw, split)[0]
        )
        raw = rho + dense_drift(rho, model, u) * dt + dense_diffusion(rho, model) * dw[0]
        worst = max(worst, float(np.max(np.abs(rho_next - raw))))
        validate_density(rho_next)
        rho = rho_next
    assert worst < 5.0 * dt, worst  # measured 0.93 dt


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
    # the split keeps every row on the cone, so a huge finite gain steps fine:
    # at k = 1e10 and dt = 1e-3 the congruence is dominated by its u^2 term,
    # and every row stays a density. At k = 1.3e154 (k^2 = 1.69e308) from
    # random pure starts the law k^2 T_ell overflows to inf on some row, the
    # trace is not finite, and run_batch stops at step 0 and names it
    model, target = make()
    n = model.n
    rho0 = random_pure(np.random.default_rng(7), n, (50,))
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=7)
    res = run_batch(rho0, model, target, ControllerSpec(kind="square_of_sum", k=1e10), sim,
                    n_trajectories=50)
    assert np.all(np.isfinite(res.controls)) and not res.n_projected.any()
    on_the_cone(model.to_eigenbasis(res.final_states), floor=-1e-12)
    law = ControllerSpec(kind="square_of_sum", k=1.3e154)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"not finite and positive at step 0; reduce dt"):
            run_batch(rho0, model, target, law, sim, n_trajectories=50)


@pytest.mark.parametrize("make", [qubit, qutrit])
def test_a_ket_step_whose_norm_overflows_raises_at_step_0(make):
    # at k = 1e150 and dt = 1e10 the linear law's control term overflows the
    # ket's norm on the first step; run_batch stops there and names it
    model, target = make(eta=1.0)
    psi0 = random_pure(np.random.default_rng(3), model.n)
    sim = SimConfig(dt=1e10, t_final=2e10, seed=7, representation="sse")
    law = ControllerSpec(kind="linear", k=1e150)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"norm at step 0; reduce dt$"):
            run_batch(psi0, model, target, law, sim, n_trajectories=5)


def test_coarse_steps_never_clip_and_stay_on_the_cone():
    # a coarse step from a coherent start, which pushed Euler-Maruyama rows
    # below the floor: every recorded state is a density, exactly Hermitian
    h_b = np.array([[0, -1j], [1j, 0]], dtype=complex)
    model = ModelSpec(h_a=SZ, h_b=h_b, c=SZ, mu=4.0, eta=1.0)
    target = TargetSpec.for_model(model, RHO_D2)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    sim = SimConfig(dt=0.05, t_final=2.5, seed=7, record_stride=10)
    res = run_batch(
        plus, model, target, ControllerSpec(kind="open_loop"), sim,
        n_trajectories=20, record_states=True,
    )
    assert not res.n_projected.any()
    on_the_cone(model.to_eigenbasis(res.states))
    validate_density(res.states)


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
    # at eta = 1 from pure starts the ket step is the density split's rank-one
    # factor, so on random N = 2..8 models the two representations agree to
    # roundoff at every record point (measured 3.7e-14 on states, 1.0e-13 on
    # controls); open loop both take the population path, bit for bit
    for n in range(2, 9):
        rng = np.random.default_rng(63 + n)
        model, target = random_model(rng, n)
        model = replace(model, eta=1.0)
        rho0 = random_pure(rng, n, (3,))
        steered = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0),
                                 ell=rng.uniform(0.3, 3.0))
        for ctrl in (ControllerSpec(kind="open_loop"), steered):
            runs = {}
            for rep in ("sme", "sse"):
                sim = SimConfig(dt=1e-3, t_final=1.0, seed=99 + n, record_stride=50,
                                representation=rep)
                runs[rep] = run_batch(rho0, model, target, ctrl, sim, n_trajectories=3,
                                      record_states=True)
            sme, sse = runs["sme"], runs["sse"]
            if ctrl.kind == "open_loop":
                for f in fields(BatchResult):
                    assert np.array_equal(getattr(sme, f.name), getattr(sse, f.name)), (n, f.name)
            np.testing.assert_allclose(sse.states, sme.states, rtol=0.0, atol=1e-12,
                                       err_msg=f"N = {n} {ctrl.kind}")
            np.testing.assert_allclose(sse.controls, sme.controls, rtol=0.0, atol=1e-11,
                                       err_msg=f"N = {n} {ctrl.kind}")


def test_simulate_matches_batch_rows_and_validity():
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=0.5, seed=21, record_stride=50)
    rho0 = np.eye(2, dtype=complex) / 2
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=3, record_states=True)
    # a numpy index comes back as the int that keyed its noise
    for i in (0, 1, np.int64(2)):
        t = simulate(rho0, model, target, ctrl, sim, trajectory_index=i)
        assert type(t.trajectory_index) is int and t.trajectory_index == i
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


def dense_ket_step(psi, model, u, dt, dw):
    """One exact QND split step of (B, N) lab-basis kets at eta = 1, from the definitions.

    At eta = 1 the split's table is rank one, phi_ij = v_i conj(v_j) with
    v_i = exp((-i a_i - mu c_i^2) dt), so dense_split_step on psi psi^dag is
    the pure state V diag(v_i s_i) K V^dag psi, normalised, with
    K = I - i u dt V^dag h_b V, s_i = exp(sqrt(mu) c_i dY) and
    dY = 2 sqrt(mu) <c> dt + dW. Dense matmuls throughout.
    """
    v, a, c = model.basis, model.energies, model.levels
    mean = np.einsum("bi,ij,bj->b", psi.conj(), model.c, psi).real
    dy = 2.0 * np.sqrt(model.mu) * mean * dt + dw
    k = np.eye(model.n) - 1j * (u * dt)[:, None, None] * (dag(v) @ model.h_b @ v)
    d = np.exp((-1j * a - model.mu * c * c) * dt + np.sqrt(model.mu) * c * dy[:, None])
    frame = d * np.einsum("bij,bj->bi", k, psi @ v.conj())
    nxt = frame @ v.T
    return nxt / np.linalg.norm(nxt, axis=-1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    batch=st.sampled_from([1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_matches_dense_reference_and_is_row_local(n, batch, seed):
    # N = 2..8 runs the density split's index-order sums and the ket
    # kernels' stacked matmuls up to the N = 8 of the state-vector benchmark;
    # the references are the dense lab-basis forms of the split
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
            ref = dense_split_step(rho0, m, u, dt, dw)
        else:
            psi = dense_ket_step(np.linalg.eigh(rho0)[1][..., -1], m, u, dt, dw)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_density_runs_ask_min_eigenvalue_about_no_row(monkeypatch, n):
    # no eigenvalue decides any density row: a coarse steered run of a random
    # model from mixed and pure starts never asks min_eigenvalue, and clips none
    asked = []

    def counted(rho):
        asked.append(len(rho))
        return min_eigenvalue(rho)

    monkeypatch.setattr(integrate, "min_eigenvalue", counted)
    rng = np.random.default_rng(n)
    model, target = random_model(rng, n)
    rho0 = np.concatenate([ginibre(rng, n, (ROWS // 2,)), random_pure(rng, n, (ROWS // 2,))])
    sim = SimConfig(dt=0.2, t_final=4.0, seed=n)
    ctrl = ControllerSpec(kind="square_of_sum", k=3.0, ell=3.0)
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=ROWS)
    assert res.n_projected.sum() == 0
    assert asked == []


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([0.02, 0.1, 0.3]),
       kind=st.sampled_from(["open_loop", "square_of_sum", "sum_of_squares"]))
def test_random_qutrits_stay_on_the_cone_over_many_coarse_steps(seed, dt, kind):
    # the batch path against solo runs over 60 coarse steps of random N = 3
    # models: no row clips, and each row is its solo run
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, 3)
    ctrl = ControllerSpec(kind=kind, k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=dt, t_final=60 * dt, seed=int(rng.integers(2**32)), record_stride=20)
    b = ROWS
    rho0 = np.concatenate([ginibre(rng, 3, (b // 2,)), random_pure(rng, 3, (b - b // 2,))])
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b)
    validate_density(res.final_states)
    assert not res.n_projected.any()
    for i in rng.choice(b, 4, replace=False):
        solo = run_batch(rho0[i], model, target, ctrl, sim, indices=[int(i)])
        assert np.array_equal(solo.final_states[0], res.final_states[i])
        assert np.array_equal(solo.controls[0], res.controls[i])


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([0.05, 0.2]),
       kind=st.sampled_from(["open_loop", "square_of_sum", "sum_of_squares"]))
def test_random_models_stay_exactly_hermitian_and_on_the_cone(n, seed, dt, kind):
    # 400 coarse density steps on a random N = 2..6 model: no step repairs
    # Hermiticity or positivity, so every state must be Hermitian bit for bit
    # and on the cone, and rows stepped alone equal their rows in the batch
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind=kind, k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    b = ROWS
    lab = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    batch = hermitize(model.to_eigenbasis(lab))
    solo_rows = [int(i) for i in rng.choice(b, 3, replace=False)]
    solos = [batch[[i]] for i in solo_rows]
    split = _split(model, dt)

    def step(rho, dw):
        u = feedback(rho, model, target, ctrl, moments(rho, model, target))
        return density_step(rho, mean_level(rho, model), u, None, dw, split)

    for _ in range(400):
        dw = rng.normal(0.0, np.sqrt(dt), b)
        batch = step(batch, dw)
        assert np.array_equal(batch, np.conj(np.swapaxes(batch, -1, -2)))
        solos = [step(r, dw[[i]]) for r, i in zip(solos, solo_rows)]
    on_the_cone(batch)
    for r, i in zip(solos, solo_rows):
        assert np.array_equal(r[0], batch[i])


def repaired_sme_step(rho, mean, u, hr, dw, split):
    """The split step in dense algebra, hermitized after every step.

    It forms its own products from the split's tables with matmul, and
    ignores the hr the loop hands it.
    """
    coupling = split.coupling[..., 0]
    dy = split.gain * mean / trace(rho).real + dw
    if u is not None:
        k = np.eye(len(coupling)) - 1j * (split.dt * u)[:, None, None] * coupling
        rho = k @ rho @ np.conj(np.swapaxes(k, -1, -2))
    s = np.exp(split.h[:, 0] * dy[:, None])
    nxt = split.phi[..., 0] * rho * (s[:, :, None] * s[:, None, :])
    nxt = hermitize(nxt)
    return nxt / trace(nxt).real[:, None, None]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_run_batch_agrees_with_a_step_that_hermitizes_every_step(monkeypatch, n):
    rng = np.random.default_rng(80 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=0.01, t_final=2.0, seed=n, record_stride=20)
    b = ROWS
    rho0 = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    got = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    monkeypatch.setattr(integrate, "_sme_step", repaired_sme_step)
    want = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    assert not got.n_projected.any()
    for name in ("controls", "records", "v_tilde", "lv", "fidelity", "purity", "final_states",
                 "states"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-12)


def _open_loop_cases(b):
    """(name, model, target, rho0, sim) for b rows: SME at N = 2, N = 3 (coarse), SSE."""
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


# BatchResult fields that a density's coherences set; the rest are read from
# its populations. An open-loop density run assembles its coherences in
# closed form, the steered step multiplies them step by step: the two agree
# in exact arithmetic and round differently
SET_BY_COHERENCES = ("purity", "lb", "states", "final_states")


def assert_matches_the_steered_step(got, want, label):
    """Population fields bit for bit, coherence fields to 1e-12 absolute."""
    for f in fields(BatchResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in SET_BY_COHERENCES:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12, err_msg=f"{label} {f.name}")
        else:
            assert np.array_equal(a, b), (label, f.name)


def run_given_zeros(monkeypatch, rho0, model, target, ctrl, sim, b):
    """The run with every step taken by the steered _sme_step, handed u = 0.

    A steered law patched to return zeros keeps the open-loop law's ell, so
    every certificate is the open-loop run's.
    """
    steered = ControllerSpec(kind="square_of_sum", ell=ctrl.ell)
    with monkeypatch.context() as patch:
        patch.setattr(integrate, "feedback", lambda rho, *a: np.zeros(rho.shape[0]))
        return run_batch(rho0, model, target, steered, sim, n_trajectories=b, record_states=True)


@pytest.mark.parametrize("case", range(3))
def test_open_loop_runs_skip_the_control_term_and_match_a_step_given_zeros(monkeypatch, case):
    # run_batch skips the open-loop control term: a run of either
    # representation steps only its populations, never calling _sme_step or
    # _sse_step. The same run stepped by the steered step given explicit
    # zeros, whose congruence is the identity, agrees on every BatchResult
    # field: for a density bit for bit on every field it reads from its
    # populations and to 1e-12 on the fields its coherences set, for a ket,
    # whose populations are |psi_i|^2, to 1e-12 on every field
    b = ROWS
    name, model, target, rho0, sim = _open_loop_cases(b)[case]
    ctrl = ControllerSpec(kind="open_loop")
    kernel = "_sse_step" if sim.representation == "sse" else "_sme_step"
    real = getattr(integrate, kernel)
    seen = []

    def watched(state, mean, u, *rest):
        seen.append(u)
        return real(state, mean, u, *rest)

    counts = _count_calls(monkeypatch, ("_sme_step", "_sse_step", "_population_step"))
    got = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    assert counts == {"_sme_step": 0, "_sse_step": 0, "_population_step": sim.n_steps}, name
    monkeypatch.setattr(integrate, kernel, watched)
    want = run_given_zeros(monkeypatch, rho0, model, target, ctrl, sim, b)
    assert len(seen) == sim.n_steps and not any(u.any() for u in seen)
    if sim.representation == "sse":
        for f in fields(BatchResult):
            np.testing.assert_allclose(getattr(got, f.name), getattr(want, f.name), rtol=0.0,
                                       atol=1e-12, err_msg=f"{name} {f.name}")
    else:
        assert_matches_the_steered_step(got, want, name)
    assert not got.controls.any()
    # a closed-loop law hands the step its controls
    seen.clear()
    monkeypatch.setattr(integrate, kernel, watched)
    run_batch(rho0, model, target, ControllerSpec(kind="square_of_sum"), sim, n_trajectories=b)
    assert len(seen) == sim.n_steps
    assert all(isinstance(u, np.ndarray) and u.shape == (b,) for u in seen)


def watch_assembled(monkeypatch) -> list:
    """Collect every state _assemble hands back to run_batch, in C's eigenbasis."""
    made, real = [], integrate._assemble

    def watched(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(integrate, "_assemble", watched)
    return made


@pytest.mark.parametrize("n", range(2, 9))
def test_open_loop_densities_match_the_steered_step_and_assemble_on_the_cone(monkeypatch, n):
    # a random model from mixed and pure starts, at dt = 1e-3 and at dt = 0.3:
    # every state the open-loop run assembles is exactly Hermitian in C's
    # eigenbasis with eigvalsh >= -1e-14, and the run agrees with the
    # steered step given zeros, bit for bit on the fields read from
    # populations and to 1e-12 on those the coherences set
    rng = np.random.default_rng(400 + n)
    model, target = random_model(rng, n)
    b = 6
    rho0 = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    ctrl = ControllerSpec(kind="open_loop")
    made = watch_assembled(monkeypatch)
    for dt, t_final in ((1e-3, 0.5), (0.3, 30.0)):
        sim = SimConfig(dt=dt, t_final=t_final, seed=n, record_stride=10)
        made.clear()
        got = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
        assert len(made) == len(got.times)
        for state in made:
            on_the_cone(state)
        want = run_given_zeros(monkeypatch, rho0, model, target, ctrl, sim, b)
        assert_matches_the_steered_step(got, want, (n, dt))


def test_open_loop_densities_stay_finite_and_on_the_cone_where_they_underflow(monkeypatch):
    # to t = 600 at dt = 0.3 the populations of the levels a path left, and
    # the coherences they carry, underflow to zero on most random N = 2..8
    # models: every series stays finite and every assembled state on the cone
    made = watch_assembled(monkeypatch)
    zeros = {"populations": 0, "coherences": 0}
    for n in range(2, 9):
        rng = np.random.default_rng(500 + n)
        model, target = random_model(rng, n)
        rho0 = np.concatenate([ginibre(rng, n, (3,)), random_pure(rng, n, (3,))])
        sim = SimConfig(dt=0.3, t_final=600.0, seed=n, record_stride=500)
        made.clear()
        res = run_batch(rho0, model, target, ControllerSpec(kind="open_loop"), sim,
                        n_trajectories=6, record_states=True)
        for f in fields(BatchResult):
            assert np.all(np.isfinite(getattr(res, f.name))), (n, f.name)
        for state in made:
            on_the_cone(state)
        last = made[-1]
        zeros["populations"] += int(np.sum(np.diagonal(last, 0, 1, 2) == 0.0))
        zeros["coherences"] += int(np.sum(last[:, ~np.eye(n, dtype=bool)] == 0.0))
    assert zeros["populations"] > 0 and zeros["coherences"] > 0, zeros


def test_a_zero_population_gives_zero_coherences(monkeypatch):
    # rho_ij / sqrt(p_i p_j) is 0/0 on a level the start leaves empty, and
    # nan on one a hair below zero, which validate_density admits: both get
    # zero coherences, and the run stays finite
    model, target = qutrit(mu=1.0, eta=0.5)
    psi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    empty = np.outer(psi, psi).astype(complex)
    below = np.array([[0.6, 0.0, 0.1], [0.0, -1e-12, 0.0], [0.1, 0.0, 0.4 + 1e-12]], dtype=complex)
    rho0 = np.stack([empty, below])
    # c = diag(1, 0, -1): its eigenbasis reverses the levels, so level 1 stays level 1
    coh = integrate._coherences(model.to_eigenbasis(rho0))
    assert not coh[:, 1, [0, 2]].any() and not coh[:, [0, 2], 1].any()
    assert np.all(np.isfinite(coh))
    made = watch_assembled(monkeypatch)
    sim = SimConfig(dt=1e-2, t_final=1.0, seed=3, record_stride=10)
    res = run_batch(rho0, model, target, ControllerSpec(kind="open_loop"), sim, n_trajectories=2,
                    record_states=True)
    for f in fields(BatchResult):
        assert np.all(np.isfinite(getattr(res, f.name))), f.name
    for state in made:
        assert not state[:, 1, [0, 2]].any() and not state[:, [0, 2], 1].any()
        assert np.array_equal(state, np.conj(np.swapaxes(state, -1, -2)))
    on_the_cone(made[-1][:1])
    assert made[-1][1, 1, 1].real < 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_density_step_leaves_its_input_and_matches_the_dense_split(n):
    # the step leaves its input untouched and is the dense split to roundoff,
    # bit for bit the same whether it forms h_b rho itself or is handed the
    # loop's product. It reads <C> / tr(rho) and renormalises, so a stack
    # scaled by 1.25 steps to the same unit-trace states to roundoff
    rng = np.random.default_rng(70 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.3, ell=0.7)
    b, dt = ROWS, 1e-2
    dw = rng.normal(0.0, np.sqrt(dt), b)
    split = _split(model, dt)
    rho = hermitize(model.to_eigenbasis(0.5 * ginibre(rng, n, (b,)) + 0.5 * np.eye(n) / n))
    mean = mean_level(rho, model)
    hr = _left_product(model.coupling, rho)
    for u in (None, feedback(rho, model, target, ctrl, moments(rho, model, target))):
        want = model.to_eigenbasis(dense_split_step(model.from_eigenbasis(rho), model, u, dt, dw))
        got = []
        for shared in (None, hr):
            before = rho.copy()
            got.append(density_step(rho, mean, u, shared, dw, split))
            assert np.array_equal(rho, before)
        assert np.array_equal(got[0], got[1])
        np.testing.assert_allclose(got[0], want, rtol=0.0, atol=1e-14)
        scaled = density_step(1.25 * rho, 1.25 * mean, u, 1.25 * hr, dw, split)
        np.testing.assert_allclose(scaled, got[0], rtol=0.0, atol=1e-14)
        assert np.max(np.abs(trace(scaled).real - 1.0)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_open_loop_split_steps_compose_into_one_exact_step(n):
    # open loop the split is the exact solution of the QND filter, not a
    # scheme with a step error: m steps of dt give the states that one step
    # of m dt gives on the summed record Y = sum dY, to roundoff
    rng = np.random.default_rng(90 + n)
    model, _ = random_model(rng, n)
    b, dt, m = ROWS, 0.05, 8
    rho0 = hermitize(model.to_eigenbasis(0.5 * ginibre(rng, n, (b,)) + 0.5 * np.eye(n) / n))
    gain = 2.0 * np.sqrt(model.mu * model.eta)
    split = _split(model, dt)
    rho, record = rho0, np.zeros(b)
    for _ in range(m):
        dw = rng.normal(0.0, np.sqrt(dt), b)
        mean = mean_level(rho, model)
        record += gain * mean / trace(rho).real * dt + dw
        rho = density_step(rho, mean, None, None, dw, split)
    mean0 = mean_level(rho0, model)
    once = density_step(rho0, mean0, None, None, record - gain * mean0 * (m * dt),
                        _split(model, m * dt))
    np.testing.assert_allclose(rho, once, rtol=0.0, atol=1e-13)
    # a scheme with a step error would miss: one Euler-Maruyama step of m dt
    euler = rho0 + dense_drift(rho0, model, 0.0) * (m * dt)
    assert np.max(np.abs(euler - once)) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_efficiency_keeps_a_pure_state_pure(n):
    # at eta = 1 the SME keeps a pure state pure, and so does the split: phi
    # is then the rank-one table f f^dag with f_i = exp(-i a_i dt - mu c_i^2 dt),
    # and the congruence maps a rank-one row to a rank-one row. Steered
    # coarse steps keep every purity at 1 to roundoff; at eta < 1 they drop
    rng = np.random.default_rng(300 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=0.1, t_final=5.0, seed=n, record_stride=1)
    rho0 = random_pure(rng, n, (8,))
    for eta in (1.0, 0.5):
        batch = run_batch(rho0, replace(model, eta=eta), target, ctrl, sim, n_trajectories=8,
                          record_states=True)
        assert not batch.n_projected.any()
        gap = np.max(np.abs(batch.purity - 1.0))
        if eta == 1.0:
            assert gap < 1e-13, gap
        else:
            assert gap > 1e-2, gap


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_steered_runs_keep_unit_trace_and_rows_equal_solo_runs(n):
    # each step renormalises its trace, so over 2,500 steered steps of a
    # random model it stays within trace_drift of 1 with no drift, and a row
    # run alone is its row of the batch bit for bit
    trace_drift = 1e-11
    rng = np.random.default_rng(200 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    sim = SimConfig(dt=2e-3, t_final=5.0, seed=n, record_stride=50)
    rho0 = ginibre(rng, n, (4,))
    batch = run_batch(rho0, model, target, ctrl, sim, n_trajectories=4, record_states=True)
    assert np.max(np.abs(trace(batch.states).real - 1.0)) < trace_drift
    assert np.max(np.abs(trace(batch.final_states).real - 1.0)) < trace_drift
    solo = run_batch(rho0[2], model, target, ctrl, sim, indices=[2], record_states=True)
    for name in ("controls", "records", "v_tilde", "lv", "fidelity", "purity", "final_states",
                 "states", "n_projected"):
        assert np.array_equal(getattr(solo, name)[0], getattr(batch, name)[2]), name


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_ket_step_leaves_its_input_and_matches_the_plain_expression(n):
    # the state-vector twin of the density test above: the step is bit for
    # bit the split's rank-one factor times K psi, divided by sqrt of its
    # summed populations, and to roundoff the density split of psi psi^dag
    rng = np.random.default_rng(90 + n)
    model, target = random_model(rng, n)
    model = replace(model, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.3, ell=0.7)
    b, dt = 40, 1e-3
    dw = rng.normal(0.0, np.sqrt(dt), b)
    psi = rng.normal(size=(b, n, 1)) + 1j * rng.normal(size=(b, n, 1))
    psi /= np.linalg.norm(psi, axis=-2, keepdims=True)
    rho = density(psi)
    mean = mean_level(psi, model)
    hpsi = _left_product(model.coupling, psi)
    split = _split(model, dt)
    v = np.exp(-1j * dt * model.energies[:, None]) * np.sqrt(split.phi_ii)
    f = v * np.exp(np.sqrt(model.mu) * model.levels[:, None]
                   * (2.0 * np.sqrt(model.mu) * dt * mean + dw)[:, None, None])
    for u in (np.zeros(b), feedback(psi, model, target, ctrl, moments(psi, model, target))):
        kpsi = (-1j * dt * u)[:, None, None] * hpsi + psi
        factored = kpsi * f
        want = factored / np.sqrt(populations(factored).sum(-1))[:, None, None]
        before = psi.copy()
        got = _sse_step(psi, mean, u, hpsi, dw, split)
        assert np.array_equal(psi, before)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(density(got), density_step(rho, mean, u, None, dw, split),
                                   rtol=0.0, atol=1e-15)


def test_coarse_density_steps_leave_their_input_unmodified():
    model, target = qutrit(mu=6.0, eta=0.5)
    rng = np.random.default_rng(12)
    rho = hermitize(model.to_eigenbasis(random_pure(rng, 3, (ROWS,))))
    split = _split(model, 0.3)
    for u in (None, rng.normal(size=ROWS)):
        for _ in range(20):
            before = rho.copy()
            nxt = density_step(rho, mean_level(rho, model), u, None, rng.normal(0.0, 0.5, ROWS),
                               split)
            assert np.array_equal(rho, before)
            rho = nxt
    on_the_cone(rho)


def _count_calls(monkeypatch, names, coupling=None):
    """Count the calls run_batch makes to names on smestab.integrate.

    h_b state is counted wherever it is formed: moments forms it in dynamics
    when it is not handed the loop's. Given coupling, a _left_product call
    counts only if that is its left operand, so the steered density step's
    own product, (h_b rho) G, is not an h_b state product.
    """
    counts = dict.fromkeys(names, 0)
    for module in (integrate, dynamics):
        for name in names:
            # a name integrate does not hold is one run_batch cannot call
            watched = hasattr(integrate, name) if module is integrate else name == "_left_product"
            if watched:
                real = getattr(module, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    if _name != "_left_product" or coupling is None or args[0] is coupling:
                        counts[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("representation", ["sme", "sse"])
def test_each_step_reads_its_state_once(monkeypatch, representation):
    # a steered run that records every step builds one moment table and one
    # h_b state product per step and never reads <C> on its own; an open-loop
    # run of either representation builds them only at its record points,
    # steps its population lanes, reads <C> off them and assembles its state
    # only at its record points
    model, target = qubit(mu=1.0, eta=1.0)
    rho0 = 0.5 * (np.eye(2, dtype=complex) + SX)
    names = ("moments", "_left_product", "mean_level", "feedback", "_population_step",
             "_assemble")
    steered = SimConfig(dt=1e-3, t_final=0.05, seed=4, representation=representation)
    counts = _count_calls(monkeypatch, names, model.coupling)
    run_batch(rho0, model, target, ControllerSpec(kind="square_of_sum"), steered, n_trajectories=3)
    n = steered.n_steps
    assert counts == {"moments": n + 1, "_left_product": n + 1, "mean_level": 0, "feedback": n + 1,
                      "_population_step": 0, "_assemble": 0}
    open_loop = SimConfig(dt=1e-3, t_final=1.0, seed=4, record_stride=200,
                          representation=representation)
    counts = _count_calls(monkeypatch, names, model.coupling)
    res = run_batch(rho0, model, target, ControllerSpec(kind="open_loop"), open_loop,
                    n_trajectories=3)
    n, points = open_loop.n_steps, len(res.times)
    assert points == 6
    assert counts == {"moments": points, "_left_product": points, "mean_level": 0,
                      "feedback": n + 1, "_population_step": n, "_assemble": points}


@pytest.mark.parametrize("n, representation",
                         [(4, "sme"), (5, "sme"), (6, "sme"), (2, "sse"), (3, "sse"), (5, "sse")])
def test_open_loop_paths_do_not_depend_on_the_record_stride(n, representation):
    # an open-loop step of either representation reads <C> off its
    # population lanes at every step, so a record point does not move the path
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
    # the elementwise sum they replace, exactly at every N (broadcast adds in
    # the same order)
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
    shared = _left_product(model.coupling, frame).diagonal(0, -2, -1).imag
    summed = dynamics.sum_last((model.coupling * frame.swapaxes(-1, -2)).imag)
    assert np.array_equal(shared, summed)


def _position_cases():
    """(name, model, target, ctrl, sim): densities steered at N = 2, 3 and 5 and
    open-loop at N = 3; kets steered at N = 8 and open-loop at N = 3."""
    model2, target2 = qubit(mu=1.0, eta=0.5)
    model3, target3 = qutrit(mu=6.0, eta=0.5)
    model5, target5 = random_model(np.random.default_rng(5), 5)
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
        ("density5_steered", model5, target5, steered,
         SimConfig(dt=0.2, t_final=6.0, seed=26, record_stride=7)),
    )


@pytest.mark.parametrize("case", range(6))
def test_rows_equal_solo_runs_at_every_batch_position(monkeypatch, case):
    # B = 1003 is no multiple of a SIMD width, so the first, a middle and the
    # last lane each sit at a different offset in their vector; coarse density
    # steps start mixed and pure, which Euler-Maruyama clipped more than B
    # times, and kets start pure. No density row clips, every stepped (or,
    # open loop, assembled) state is Hermitian bit for bit and the final ones
    # lie on the cone. Each row
    # equals its solo run bit for bit on every series, and the batch stepped
    # on a row-major stack equals the batch stepped on lanes (for kets,
    # always row-major, a rerun)
    name, model, target, ctrl, sim = _position_cases()[case]
    n, b = model.n, 1003
    rng = np.random.default_rng(60 + case)
    if sim.representation == "sse":
        rho0 = random_pure(rng, n, (b,))
    else:
        # mixed starts in rows 0..500, pure ones in rows 501..1002
        rho0 = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    hermitian = []
    # an open-loop density steps its populations and assembles its states
    kernel = "_assemble" if ctrl.kind == "open_loop" else "_sme_step"
    real = getattr(integrate, kernel)

    def watched(*args):
        nxt = real(*args)
        hermitian.append(np.array_equal(nxt, np.conj(np.swapaxes(nxt, -1, -2))))
        return nxt

    with monkeypatch.context() as patch:
        patch.setattr(integrate, kernel, watched)
        res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=b, record_states=True)
    if sim.representation == "sme":
        made = len(res.times) if ctrl.kind == "open_loop" else sim.n_steps
        assert len(hermitian) == made and all(hermitian), name
        assert not res.n_projected.any(), name
        lowest = float(np.min(np.linalg.eigvalsh(res.final_states)))
        assert lowest >= -1e-14, (name, lowest)
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


@pytest.mark.parametrize("n", range(2, 9))
def test_step_kernels_give_lanes_and_a_row_major_copy_the_same_rows(n):
    # the kernels that read the lane stack, fed its row-major copy, agree bit
    # for bit; the step hands lanes back in lanes; the product of two stacks
    # gives each row what that row alone gives
    rng = np.random.default_rng(30 + n)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=2.0, ell=0.5)
    b = 2 * ROWS + 1
    lanes = integrate._density_stack(b, n)
    lanes[...] = hermitize(model.to_eigenbasis(
        np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])))
    row_major = np.ascontiguousarray(lanes)
    assert lanes.strides[0] < min(lanes.strides[1:]) and row_major.flags.c_contiguous
    dw = rng.normal(0.0, 0.5, b)
    split = _split(model, 0.2)
    outputs = []
    for rho in (lanes, row_major):
        hr = _left_product(model.coupling, rho)
        m = moments(rho, model, target, hr)
        u = feedback(rho, model, target, ctrl, m)
        mean = m[..., dynamics.C1]
        steps = [density_step(rho, mean, law, hr, dw, split) for law in (None, u)]
        outputs.append((hr, m, mean_level(rho, model), sme_drift(rho, model, u),
                        diffusion_term(rho, mean, model), min_eigenvalue(rho),
                        _left_product(hr, rho), *steps))
    for nxt in outputs[0][-2:]:
        assert nxt.strides[0] < min(nxt.strides[1:])
    for got, want in zip(*outputs):
        assert np.array_equal(got, want)
    stacked = outputs[0][-3]
    for i in range(b):
        assert np.array_equal(_left_product(hr[i], lanes[i]), stacked[i]), i


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_density_steps_run_on_batch_last_lanes_at_every_n(monkeypatch, n):
    # every step of a steered density batch reads and returns a stack whose
    # batch axis has the smallest stride, at every N, and so does every state
    # an open-loop batch assembles, whose steps read and return contiguous
    # (N, B) population lanes. Without this check a fall back to a row-major
    # stack would keep every output, and every other test, unchanged
    rng = np.random.default_rng(50 + n)
    model, target = random_model(rng, n)
    seen, lanes = [], []

    def watch(name, out):
        real = getattr(integrate, name)

        def watched(first, *rest):
            nxt = real(first, *rest)
            out.extend([first, nxt] if name != "_assemble" else [nxt])
            return nxt

        monkeypatch.setattr(integrate, name, watched)

    watch("_sme_step", seen)
    watch("_assemble", seen)
    watch("_population_step", lanes)
    sim = SimConfig(dt=0.05, t_final=1.0, seed=n, record_stride=5)
    for kind in ("open_loop", "square_of_sum"):
        for b in (5, ROWS):
            seen.clear()
            lanes.clear()
            res = run_batch(np.eye(n) / n, model, target, ControllerSpec(kind=kind), sim,
                            n_trajectories=b)
            if kind == "open_loop":
                assert len(seen) == len(res.times) and len(lanes) == 2 * sim.n_steps
                for p in lanes:
                    assert p.shape == (n, b) and p.flags.c_contiguous, (b, p.strides)
            else:
                assert len(seen) == 2 * sim.n_steps and lanes == []
            for state in seen:
                assert state.strides[0] < min(state.strides[1:]), (kind, b, state.strides)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_split_on_random_models_is_the_dense_split_and_stays_on_the_cone(n, seed):
    # on lanes and on a row-major stack alike: one step, open loop and
    # steered, is the dense split to roundoff; 200 steered steps at dt = 0.2
    # keep every row exactly Hermitian with its smallest eigenvalue at or
    # above -1e-14, and the two layouts agree bit for bit
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    ctrl = ControllerSpec(kind="square_of_sum", k=rng.uniform(0.3, 3.0), ell=rng.uniform(0.3, 3.0))
    b, dt = 6, 0.2
    lab = np.concatenate([ginibre(rng, n, (b // 2,)), random_pure(rng, n, (b - b // 2,))])
    lanes = integrate._density_stack(b, n)
    lanes[...] = hermitize(model.to_eigenbasis(lab))
    split = _split(model, dt)
    finals = []
    for rho in (lanes, np.ascontiguousarray(lanes)):
        dw = rng.normal(0.0, np.sqrt(dt), b)
        u = feedback(rho, model, target, ctrl, moments(rho, model, target))
        for law in (None, u):
            want = model.to_eigenbasis(dense_split_step(model.from_eigenbasis(rho), model, law,
                                                        dt, dw))
            got = density_step(rho, mean_level(rho, model), law, None, dw, split)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        walk = np.random.default_rng(seed)
        for _ in range(200):
            hr = _left_product(model.coupling, rho)
            m = moments(rho, model, target, hr)
            rho = density_step(rho, m[..., dynamics.C1], feedback(rho, model, target, ctrl, m),
                               hr, walk.normal(0.0, np.sqrt(dt), b), split)
            on_the_cone(rho)
        finals.append(rho)
    assert np.array_equal(finals[0], finals[1])


@pytest.mark.parametrize("kernel", ["sme_drift", "diffusion_term"])
def test_the_step_reads_the_sme_through_both_kernels(monkeypatch, kernel):
    # the split's tables are read off sme_drift and diffusion_term on
    # smestab.integrate, so a kernel zeroed there changes every run's states
    model, target = qutrit(mu=1.0, eta=0.5)
    rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    sim = SimConfig(dt=1e-2, t_final=0.5, seed=9)
    for ctrl in (ControllerSpec(kind="open_loop"), ControllerSpec(kind="square_of_sum")):
        plain = run_batch(rho0, model, target, ctrl, sim, n_trajectories=4)
        real = getattr(integrate, kernel)
        with monkeypatch.context() as patch:
            patch.setattr(integrate, kernel, lambda *a: 0.0 * real(*a))
            zeroed = run_batch(rho0, model, target, ctrl, sim, n_trajectories=4)
        gap = np.max(np.abs(zeroed.final_states - plain.final_states))
        assert gap > 1e-2, (ctrl.kind, gap)
