"""Euler-Maruyama engine: stepping, noise streams, recording, classification."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import RHO_D2, SX, SZ, qubit, qutrit, random_pure
from smestab import (
    ControllerSpec,
    ModelSpec,
    SimConfig,
    TargetSpec,
    feedback,
    run_batch,
    simulate,
)
from smestab.dynamics import diffusion_term, sme_drift
from smestab.hermitian import hermitize, trace, validate_density
from smestab.integrate import _record_slots, _sme_step


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


def test_record_slots_include_endpoint():
    slots = _record_slots(10, 3)
    np.testing.assert_array_equal(slots, [0, 3, 6, 9, 10])
    slots = _record_slots(10, 5)
    np.testing.assert_array_equal(slots, [0, 5, 10])


def test_em_step_matches_raw_increment():
    # the density kernel on a one-row stack is the raw increment, hermitized
    # and trace-normalized, while the state stays interior
    rng = np.random.default_rng(60)
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    dt = 1e-4
    rho = 0.5 * (np.eye(2, dtype=complex) + 0.2 * SX + 0.3 * SZ)[None]
    n_rejected, n_projected = np.zeros(1, dtype=int), np.zeros(1, dtype=int)
    for _ in range(50):
        dw = np.array([rng.normal(0.0, np.sqrt(dt))])
        u = feedback(rho, model, target, ctrl)
        rho_next = _sme_step(rho, u, dw, model, dt, n_rejected, n_projected)
        raw = rho[0] + sme_drift(rho[0], model, u[0]) * dt + diffusion_term(
            rho[0], model.c, model.mu, model.eta
        ) * dw[0]
        raw = hermitize(raw)
        raw = raw / trace(raw).real
        # interior state, small step: the eigenvalue clip never engages here
        np.testing.assert_allclose(rho_next[0], raw, atol=1e-14)
        validate_density(rho_next[0])
        rho = rho_next
    assert n_rejected[0] == 0 and n_projected[0] == 0


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
    assert res.n_rejected.sum() == 0
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
        assert t.valid
        assert t.n_rejected == 0
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
    # one rejection in 500 steps exceeds the 1e-3 budget
    assert not replace(t, n_rejected=1).valid
