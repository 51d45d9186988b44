"""Two-level closed forms and the reduced integrator against the full engine."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import density_step, qubit
from smestab import (
    ControllerSpec,
    SimConfig,
    closed_loop_generator,
    feedback,
    generator_v,
    integrate_bloch,
    levelset_table,
    run_batch,
    trace_term,
    v2,
)
from smestab.bloch import (
    bloch_feedback,
    bloch_split_step,
    bloch_trace_term,
    bloch_v2,
    from_density,
    to_density,
)
from smestab.dynamics import mean_level
from smestab.integrate import _split
from smestab.lyapunov import v1


def bloch_v1(b):
    """(1 - z)/2: distance to the z = +1 target pole."""
    return 0.5 * (1.0 - np.asarray(b)[..., 2])


def bloch_generator_vtilde(b, u, ell, mu, eta):
    """L Vt = -u y (1 + 4 z/ell^2) - (4 mu eta / ell^2) (1 - z^2)^2."""
    return -np.asarray(u) * bloch_trace_term(b, ell) - (4.0 * mu * eta / ell**2) * bloch_v2(b) ** 2


def random_bloch(rng, r_max=0.95, size=None):
    n = 1 if size is None else size
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= rng.uniform(0.05, r_max, size=(n, 1))
    return v[0] if size is None else v


def test_density_round_trip():
    rng = np.random.default_rng(70)
    b = random_bloch(rng, size=20)
    np.testing.assert_allclose(from_density(to_density(b)), b, atol=1e-14)
    rho = to_density(b)
    assert rho.shape == (20, 2, 2)
    np.testing.assert_allclose(np.einsum("...ii", rho), 1.0, atol=1e-14)


def test_scalar_functions_match_general_forms():
    rng = np.random.default_rng(71)
    model, target = qubit(mu=1.3, eta=0.6)
    b = random_bloch(rng, size=30)
    rho = to_density(b)
    np.testing.assert_allclose(bloch_v1(b), v1(rho, target), atol=1e-13)
    np.testing.assert_allclose(bloch_v2(b), v2(rho, model), atol=1e-13)
    for ell in (0.7, 1.0, 3.0):
        np.testing.assert_allclose(
            bloch_trace_term(b, ell), trace_term(rho, model, target, ell), atol=1e-13
        )


def test_feedback_and_generator_match_general_forms():
    rng = np.random.default_rng(72)
    model, target = qubit(mu=1.0, eta=0.5)
    b = random_bloch(rng, size=30)
    rho = to_density(b)
    for kind in ("open_loop", "linear", "sum_of_squares", "square_of_sum"):
        ctrl = ControllerSpec(kind=kind, k=1.4, ell=0.9)
        np.testing.assert_allclose(
            bloch_feedback(b, ctrl, model.mu, model.eta),
            feedback(rho, model, target, ctrl),
            atol=1e-13,
        )
    u = np.linspace(-1, 1, 30)
    np.testing.assert_allclose(
        bloch_generator_vtilde(b, u, 0.9, model.mu, model.eta),
        generator_v(rho, model, target, u, 0.9),
        atol=1e-13,
    )
    ctrl = ControllerSpec(kind="square_of_sum", k=1.4, ell=0.9)
    np.testing.assert_allclose(
        bloch_generator_vtilde(
            b, bloch_feedback(b, ctrl, model.mu, model.eta), 0.9, model.mu, model.eta
        ),
        closed_loop_generator(rho, model, target, ctrl),
        atol=1e-13,
    )


def test_split_step_matches_the_matrix_step():
    # the closed form is the matrix engine's step, open loop and steered, at
    # fine and coarse steps
    rng = np.random.default_rng(73)
    omega, mu, eta = 1.0, 1.0, 0.5
    model, _ = qubit(mu=mu, eta=eta, omega=omega)
    for dt in (1e-4, 0.2):
        split = _split(model, dt)
        for _ in range(40):
            b = random_bloch(rng)
            u = rng.uniform(-2, 2)
            dw = rng.normal(0.0, np.sqrt(dt))
            rho = model.to_eigenbasis(to_density(b))[None]
            for law in (None, np.array([u])):
                step = density_step(rho, mean_level(rho, model), law, None, np.array([dw]),
                                    split)
                want = from_density(model.from_eigenbasis(step[0]))
                got = bloch_split_step(b, omega, 0.0 if law is None else u, mu, eta, dt, dw)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_from_density_refuses_a_matrix_that_is_not_2x2():
    with pytest.raises(ValueError, match="2x2"):
        from_density(np.eye(3, dtype=complex) / 3)


def test_reduced_integrator_refuses_what_it_cannot_run():
    ctrl = ControllerSpec(kind="square_of_sum")
    sim = SimConfig(dt=1e-3, t_final=0.01, seed=1)
    b0 = np.array([0.3, 0.2, 0.1])
    with pytest.raises(ValueError, match="density representation only"):
        integrate_bloch(b0, 1.0, ctrl, 1.0, 1.0, replace(sim, representation="sse"))
    for bad in (b0[:2], np.stack([b0, b0])):
        with pytest.raises(ValueError, match="shape \\(3,\\)"):
            integrate_bloch(bad, 1.0, ctrl, 1.0, 0.5, sim)
    with pytest.raises(ValueError, match="no trajectory indices"):
        integrate_bloch(b0, 1.0, ctrl, 1.0, 0.5, sim, indices=[])


def test_reduced_integrator_matches_matrix_engine():
    omega, mu, eta = 1.0, 1.0, 0.5
    model, target = qubit(mu=mu, eta=eta, omega=omega)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    b0 = np.array([0.3, 0.2, 0.1])
    for seed in (1, 2, 3):
        sim = SimConfig(dt=1e-3, t_final=2.0, seed=seed, record_stride=10)
        times, paths = integrate_bloch(b0, omega, ctrl, mu, eta, sim, n_trajectories=2)
        res = run_batch(
            to_density(b0), model, target, ctrl, sim, n_trajectories=2,
            record_states=True,
        )
        np.testing.assert_array_equal(times, res.times)
        gap = np.max(np.abs(paths - from_density(res.states)))
        assert gap < 1e-9, f"seed {seed}: bloch/matrix divergence {gap:.2e}"
        assert np.max(np.linalg.norm(paths, axis=-1)) <= 1.0 + 2e-9


def test_reduced_integrator_stays_in_the_ball_on_coarse_steps():
    # at dt = 0.05, where Euler-Maruyama overshot the Bloch ball and was
    # clipped, neither engine clips: every Bloch vector stays in the unit
    # ball, the matrix states stay exactly Hermitian, and the two agree
    omega, mu, eta = 1.0, 1.0, 1.0
    model, target = qubit(mu=mu, eta=eta, omega=omega)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    b0 = np.array([0.3, 0.2, 0.1])
    sim = SimConfig(dt=0.05, t_final=1.0, seed=515, record_stride=1)
    times, paths = integrate_bloch(b0, omega, ctrl, mu, eta, sim, n_trajectories=20)
    res = run_batch(
        to_density(b0), model, target, ctrl, sim, n_trajectories=20, record_states=True
    )
    assert not res.n_projected.any()
    assert np.array_equal(res.states, np.conj(np.swapaxes(res.states, -1, -2)))
    assert np.max(np.linalg.norm(paths, axis=-1)) <= 1.0 + 1e-15
    np.testing.assert_array_equal(times, res.times)
    gap = np.max(np.abs(paths - from_density(res.states)))
    assert gap < 1e-9, f"bloch/matrix divergence {gap:.2e}"


def test_levelset_table_structure():
    tab = levelset_table(1.0, 1.0, 1.0, 0.5, resolution=101)
    for key in ("y", "z", "lv", "physical"):
        assert key in tab
        assert tab[key].shape == (101 * 101,)
    inside = tab["physical"]
    assert np.all(tab["lv"][inside] <= 0.0)
    poles = (np.abs(tab["y"]) < 1e-12) & (np.abs(np.abs(tab["z"]) - 1.0) < 1e-12)
    assert poles.sum() == 2
    np.testing.assert_array_equal(tab["lv"][poles], 0.0)
    # the resolution follows the package's integer rule
    for resolution in (True, 2.5):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            levelset_table(1.0, 1.0, 1.0, 0.5, resolution=resolution)
    assert levelset_table(1.0, 1.0, 1.0, 0.5, resolution=3.0)["lv"].shape == (9,)
