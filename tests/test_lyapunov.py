"""Lyapunov functions, feedback laws, and the closed-loop generator."""
import numpy as np
import pytest

from conftest import SX, SY, SZ, ginibre, qubit, qutrit, random_pure
from smestab import (
    ControllerSpec,
    SimConfig,
    closed_loop_generator,
    feedback,
    generator_v,
    generator_v_montecarlo_check,
    simulate,
    trace_term,
    v1,
    v2,
    v_tilde,
)
from smestab.hermitian import expectation, trace, variance
from smestab.lyapunov import l0_v_tilde, lb_v1, lb_v_tilde, third_central_moment


def bloch(x, y, z):
    return 0.5 * (np.eye(2, dtype=complex) + x * SX + y * SY + z * SZ)


def test_controller_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ControllerSpec(kind="bang_bang")
    with pytest.raises(ValueError, match="k"):
        ControllerSpec(kind="linear", k=0.0)
    with pytest.raises(ValueError, match="ell"):
        ControllerSpec(kind="square_of_sum", ell=-1.0)


def test_v1_direct_formula():
    rng = np.random.default_rng(40)
    model, target = qutrit()
    rho = ginibre(rng, 3, batch=(8,))
    expected = trace(target.rho_d @ target.rho_d).real - trace(target.rho_d @ rho).real
    np.testing.assert_allclose(v1(rho, target), expected, atol=1e-13)
    assert np.all(v1(rho, target) >= -1e-13)
    np.testing.assert_allclose(v1(target.rho_d, target), 0.0, atol=1e-14)


def test_v2_is_measurement_variance():
    rng = np.random.default_rng(41)
    model, target = qutrit()
    rho = ginibre(rng, 3, batch=(8,))
    np.testing.assert_allclose(v2(rho, model), variance(model.c, rho), atol=1e-13)
    np.testing.assert_allclose(v2(target.rho_d, model), 0.0, atol=1e-14)


def test_v_tilde_combination():
    rng = np.random.default_rng(42)
    model, target = qutrit()
    rho = ginibre(rng, 3, batch=(8,))
    ell = 1.7
    np.testing.assert_allclose(
        v_tilde(rho, model, target, ell),
        v1(rho, target) + v2(rho, model) / ell**2,
        atol=1e-13,
    )


def test_third_central_moment_direct():
    rng = np.random.default_rng(43)
    model, _ = qutrit()
    rho = ginibre(rng, 3, batch=(8,))
    c = model.c
    m1 = expectation(c, rho)
    m2 = expectation(c @ c, rho)
    m3 = expectation(c @ c @ c, rho)
    expected = m3 - 3.0 * m2 * m1 + 2.0 * m1**3
    np.testing.assert_allclose(third_central_moment(c, rho), expected, atol=1e-13)


def test_trace_term_closed_form_on_bloch_states():
    model, target = qubit(mu=1.0, eta=0.5)
    rng = np.random.default_rng(44)
    for ell in (0.7, 1.0, 2.5):
        for _ in range(30):
            x, y, z = rng.uniform(-0.5, 0.5, size=3)
            rho = bloch(x, y, z)
            expected = y * (1.0 + 4.0 * z / ell**2)
            np.testing.assert_allclose(
                trace_term(rho, model, target, ell), expected, atol=1e-12
            )


def test_lb_v1_is_minus_y():
    model, target = qubit()
    rng = np.random.default_rng(45)
    for _ in range(30):
        x, y, z = rng.uniform(-0.5, 0.5, size=3)
        np.testing.assert_allclose(
            lb_v1(bloch(x, y, z), model, target), -y, atol=1e-12
        )


def test_lb_v_tilde_is_minus_trace_term():
    rng = np.random.default_rng(46)
    model, target = qutrit(mu=1.2, eta=0.7)
    rho = ginibre(rng, 3, batch=(6,))
    np.testing.assert_allclose(
        lb_v_tilde(rho, model, target, 1.3),
        -trace_term(rho, model, target, 1.3),
        atol=1e-13,
    )


def test_l0_v_tilde_closed_form():
    rng = np.random.default_rng(47)
    model, target = qutrit(mu=1.2, eta=0.7)
    rho = ginibre(rng, 3, batch=(6,))
    ell = 0.8
    expected = -4.0 * model.mu * model.eta * v2(rho, model) ** 2 / ell**2
    np.testing.assert_allclose(l0_v_tilde(rho, model, ell), expected, atol=1e-13)


def test_generator_decomposition():
    rng = np.random.default_rng(48)
    model, target = qutrit(mu=1.1, eta=0.9)
    rho = ginibre(rng, 3, batch=(6,))
    u = np.linspace(-1.0, 1.0, 6)
    ell = 1.4
    expected = -u * trace_term(rho, model, target, ell) + l0_v_tilde(rho, model, ell)
    np.testing.assert_allclose(generator_v(rho, model, target, u, ell), expected, atol=1e-13)


def test_feedback_laws():
    rng = np.random.default_rng(49)
    model, target = qutrit(mu=1.0, eta=0.5)
    rho = ginibre(rng, 3, batch=(10,))
    k, ell = 1.7, 0.9
    t = trace_term(rho, model, target, ell)
    var = v2(rho, model)

    u = feedback(rho, model, target, ControllerSpec(kind="open_loop"))
    np.testing.assert_allclose(u, 0.0, atol=0.0)

    u = feedback(rho, model, target, ControllerSpec(kind="linear", k=k))
    np.testing.assert_allclose(u, -k * lb_v1(rho, model, target), atol=1e-13)

    u = feedback(rho, model, target, ControllerSpec(kind="sum_of_squares", k=k, ell=ell))
    np.testing.assert_allclose(u, k * t, atol=1e-13)

    gain = 4.0 * k * np.sqrt(model.mu * model.eta) / ell
    for kind in ("square_of_sum", "tuned"):
        u = feedback(rho, model, target, ControllerSpec(kind=kind, k=k, ell=ell))
        np.testing.assert_allclose(u, k**2 * t - gain * var, atol=1e-13)


def test_feedback_on_diagonal_states():
    # on c-diagonal states the commutator term dies: the linear and
    # sum-of-squares laws switch off, the completed-square law keeps a
    # strictly negative variance kick away from the eigenstates
    model, target = qutrit(mu=1.0, eta=0.5)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    k, ell = 2.0, 1.5
    for kind in ("linear", "sum_of_squares"):
        u = feedback(rho, model, target, ControllerSpec(kind=kind, k=k, ell=ell))
        np.testing.assert_allclose(u, 0.0, atol=1e-14)
    u = feedback(rho, model, target, ControllerSpec(kind="square_of_sum", k=k, ell=ell))
    expected = -4.0 * k * np.sqrt(model.mu * model.eta) * v2(rho, model) / ell
    np.testing.assert_allclose(u, expected, atol=1e-13)
    assert u < 0.0


def test_square_completion_identity():
    rng = np.random.default_rng(50)
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.3, eta=0.6)
        rho = ginibre(rng, n, batch=(200,))
        for k, ell in ((0.5, 0.7), (1.0, 1.0), (3.0, 2.0)):
            ctrl = ControllerSpec(kind="square_of_sum", k=k, ell=ell)
            gen = closed_loop_generator(rho, model, target, ctrl)
            t = trace_term(rho, model, target, ell)
            root = k * t - 2.0 * np.sqrt(model.mu * model.eta) * v2(rho, model) / ell
            np.testing.assert_allclose(gen, -(root**2), atol=1e-11)
            assert np.all(gen <= 1e-12)


def test_sum_of_squares_closed_loop():
    rng = np.random.default_rng(51)
    model, target = qubit(mu=1.0, eta=1.0)
    rho = random_pure(rng, 2, batch=(200,))
    k, ell = 1.3, 1.0
    ctrl = ControllerSpec(kind="sum_of_squares", k=k, ell=ell)
    gen = closed_loop_generator(rho, model, target, ctrl)
    t = trace_term(rho, model, target, ell)
    expected = -k * t**2 - 4.0 * model.mu * model.eta * v2(rho, model) ** 2 / ell**2
    np.testing.assert_allclose(gen, expected, atol=1e-11)
    assert np.all(gen <= 1e-12)


def test_generator_against_monte_carlo():
    # frozen arbiter: a sampled one-step finite difference of v_tilde decides
    # between the closed form and its sign-flipped variant
    model, target = qubit(mu=1.0, eta=0.5)
    rho = bloch(0.3, 0.5, -0.4)
    u, ell = 1.7, 1.0
    est, se = generator_v_montecarlo_check(
        rho, model, target, u, ell, n_samples=1_000_000, dt=1e-6, seed=314
    )
    assert est == pytest.approx(-1.2701, abs=2e-3)
    assert se == pytest.approx(0.3561, abs=2e-3)
    closed = float(generator_v(rho, model, target, u, ell))
    # rival closed form with the opposite relative sign inside the trace term,
    # written out in Bloch coordinates for the state above (y = 0.5, z = -0.4)
    y_c, z_c = 0.5, -0.4
    flipped = float(-u * y_c * (1.0 - 4.0 * z_c / ell**2) + l0_v_tilde(rho, model, ell))
    assert abs(closed - est) <= 3.0 * se
    assert abs(flipped - est) > 3.0 * se


def test_montecarlo_check_argument_validation():
    model, target = qubit()
    rho = bloch(0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="n_samples"):
        generator_v_montecarlo_check(rho, model, target, 1.0, 1.0, n_samples=10)
    with pytest.raises(ValueError, match="dt"):
        generator_v_montecarlo_check(rho, model, target, 1.0, 1.0, dt=0.1)


def test_lyapunov_report_fields():
    # the certificates simulate() records equal the closed forms at its states
    rng = np.random.default_rng(52)
    model, target = qutrit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=2.0)
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=52, record_stride=10)
    traj = simulate(ginibre(rng, 3), model, target, ctrl, sim)
    assert len(traj.lyapunov) == len(traj.states) == 6
    for rho, rep in zip(traj.states, traj.lyapunov):
        np.testing.assert_allclose(rep.v1, v1(rho, target), atol=1e-14)
        np.testing.assert_allclose(rep.v2, v2(rho, model), atol=1e-14)
        np.testing.assert_allclose(rep.v_tilde, v_tilde(rho, model, target, 2.0), atol=1e-14)
        np.testing.assert_allclose(
            rep.lv_closed_loop, closed_loop_generator(rho, model, target, ctrl), atol=1e-14
        )
        np.testing.assert_allclose(rep.l0_v, l0_v_tilde(rho, model, 2.0), atol=1e-14)
        np.testing.assert_allclose(rep.lb_v, lb_v_tilde(rho, model, target, 2.0), atol=1e-14)
        np.testing.assert_allclose(
            rep.third_moment, third_central_moment(model.c, rho), atol=1e-14
        )
