"""Lyapunov functions, feedback laws, and the closed-loop generator."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SY, SZ, ginibre, qubit, qutrit, random_model, random_pure
from smestab import (
    ControllerSpec,
    ModelSpec,
    SimConfig,
    TargetSpec,
    closed_loop_generator,
    feedback,
    generator_v,
    generator_v_montecarlo_check,
    run_batch,
    simulate,
    trace_term,
    v2,
)
from smestab.hermitian import expectation, trace, variance
from smestab.dynamics import _density_stack, diffusion_term, sme_drift
from smestab.integrate import BatchResult
import smestab.lyapunov as lyapunov
from smestab.lyapunov import KINDS, certificates, moments, v1, v_tilde


def bloch(x, y, z):
    return 0.5 * (np.eye(2, dtype=complex) + x * SX + y * SY + z * SZ)


def test_controller_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ControllerSpec(kind="bang_bang")
    for bad in (0.0, np.inf):
        with pytest.raises(ValueError, match="gain k"):
            ControllerSpec(kind="linear", k=bad)
    for bad in (-1.0, np.inf):
        with pytest.raises(ValueError, match="ell"):
            ControllerSpec(kind="square_of_sum", ell=bad)


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
    model, target = qutrit()
    rho = ginibre(rng, 3, batch=(8,))
    c = model.c
    m1 = expectation(c, rho)
    m2 = expectation(c @ c, rho)
    m3 = expectation(c @ c @ c, rho)
    expected = m3 - 3.0 * m2 * m1 + 2.0 * m1**3
    m = moments(model.to_eigenbasis(rho), model, target)
    third = certificates(m, model, target, 0.0, 1.0)["third"]
    np.testing.assert_allclose(third, expected, atol=1e-13)


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
    # L_b V1 = -tr(-i[h_b, rho] rho_d), which the linear law at k = 1 negates
    model, target = qubit()
    linear = ControllerSpec(kind="linear", k=1.0)
    rng = np.random.default_rng(45)
    for _ in range(30):
        x, y, z = rng.uniform(-0.5, 0.5, size=3)
        rho = bloch(x, y, z)
        lb_v1 = -trace(-1j * (model.h_b @ rho - rho @ model.h_b) @ target.rho_d).real
        np.testing.assert_allclose(lb_v1, -y, atol=1e-12)
        np.testing.assert_allclose(-feedback(rho, model, target, linear), -y, atol=1e-12)


def test_lb_v_tilde_is_minus_trace_term():
    rng = np.random.default_rng(46)
    model, target = qutrit(mu=1.2, eta=0.7)
    rho = ginibre(rng, 3, batch=(6,))
    m = moments(model.to_eigenbasis(rho), model, target)
    np.testing.assert_allclose(
        certificates(m, model, target, 0.0, 1.3)["lb"],
        -trace_term(rho, model, target, 1.3),
        atol=1e-13,
    )


def test_l0_v_tilde_closed_form():
    rng = np.random.default_rng(47)
    model, target = qutrit(mu=1.2, eta=0.7)
    rho = ginibre(rng, 3, batch=(6,))
    ell = 0.8
    expected = -4.0 * model.mu * model.eta * v2(rho, model) ** 2 / ell**2
    m = moments(model.to_eigenbasis(rho), model, target)
    l0 = certificates(m, model, target, 0.0, ell)["l0"]
    np.testing.assert_allclose(l0, expected, atol=1e-13)


def test_generator_decomposition():
    rng = np.random.default_rng(48)
    model, target = qutrit(mu=1.1, eta=0.9)
    rho = ginibre(rng, 3, batch=(6,))
    u = np.linspace(-1.0, 1.0, 6)
    ell = 1.4
    l0 = -4.0 * model.mu * model.eta * v2(rho, model) ** 2 / ell**2
    expected = -u * trace_term(rho, model, target, ell) + l0
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
    comm = model.h_b @ rho - rho @ model.h_b
    np.testing.assert_allclose(u, k * trace(-1j * comm @ target.rho_d).real, atol=1e-13)

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


def test_every_law_reads_h_b_from_the_model_it_is_handed():
    # a target serves every model with its c: on model B (h_b = sy) the target
    # built for A (h_b = sx) reads what B's own target reads, bit for bit
    a, b = (ModelSpec(h_a=SZ, h_b=h_b, c=SZ, mu=1.0, eta=0.5) for h_b in (SX, SY))
    target_a, target_b = (TargetSpec.for_model(m, np.diag([1.0, 0.0])) for m in (a, b))
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    laws = {
        "feedback": (lambda t: feedback(rho, b, t, ctrl), -3.4353),
        "trace_term": (lambda t: trace_term(rho, b, t, 1.0), -0.72),
        "generator_v": (lambda t: generator_v(rho, b, t, 0.3, 1.0), -1.6272),
        "closed_loop_generator": (lambda t: closed_loop_generator(rho, b, t, ctrl), -4.3166),
    }
    for name, (law, value) in laws.items():
        assert np.array_equal(law(target_a), law(target_b)), name
        assert law(target_b) == pytest.approx(value, abs=1e-4), name
    sim = SimConfig(dt=1e-3, t_final=0.05, seed=1, record_stride=10)
    runs = [run_batch(rho, b, t, ctrl, sim, n_trajectories=3) for t in (target_a, target_b)]
    for f in fields(BatchResult):
        assert np.array_equal(getattr(runs[0], f.name), getattr(runs[1], f.name)), f.name


def test_closed_loop_generator_builds_one_moment_table(monkeypatch):
    # the law and L Vt read the same table, so it is built once per call
    rng = np.random.default_rng(23)
    model, target = qutrit(mu=0.8, eta=0.6)
    rho = ginibre(rng, 3, batch=(5,))
    ctrls = [ControllerSpec(kind=kind, k=1.3, ell=0.9) for kind in KINDS]
    want = [generator_v(rho, model, target, feedback(rho, model, target, c), c.ell) for c in ctrls]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return moments(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "moments", counted)
    for ctrl, expected in zip(ctrls, want):
        assert np.array_equal(closed_loop_generator(rho, model, target, ctrl), expected)
    assert len(calls) == len(ctrls)


def test_generator_against_monte_carlo():
    # the arbiter's (dW, -dW) pair estimate decides between the closed form
    # and its sign-flipped variant, which lies about 1,400 SE away
    model, target = qubit(mu=1.0, eta=0.5)
    rho = bloch(0.3, 0.5, -0.4)
    u, ell = 1.7, 1.0
    est, se = generator_v_montecarlo_check(
        rho, model, target, u, ell, n_samples=1_000_000, dt=1e-6, seed=314
    )
    assert est == pytest.approx(-0.8988, abs=1e-4)
    assert se == pytest.approx(0.00199, abs=1e-5)
    closed = float(generator_v(rho, model, target, u, ell))
    # rival closed form with the opposite relative sign inside the trace term,
    # written out in Bloch coordinates for the state above (y = 0.5, z = -0.4)
    y_c, z_c = 0.5, -0.4
    l0 = -4.0 * model.mu * model.eta * float(v2(rho, model)) ** 2 / ell**2
    flipped = float(-u * y_c * (1.0 - 4.0 * z_c / ell**2) + l0)
    assert abs(closed - est) <= 3.0 * se
    assert abs(flipped - est) > 3.0 * se


def test_montecarlo_check_argument_validation():
    model, target = qubit()
    rho = bloch(0.1, 0.2, 0.3)

    def check(**kwargs):
        return generator_v_montecarlo_check(rho, model, target, 1.0, 1.0, **kwargs)

    for bad in (10, 2000.5, True, "2000"):
        with pytest.raises(ValueError, match="n_samples"):
            check(n_samples=bad)
    for bad in (0.1, 0.0, -1e-5, np.nan, np.inf, "1e-5"):
        with pytest.raises(ValueError, match="dt"):
            check(dt=bad)
    for bad in (-1, 2**64, 1.5, None):
        with pytest.raises(ValueError, match="seed"):
            check(seed=bad)
    # an integral float or numpy scalar is a count, as in SimConfig, and both
    # seed bounds are keys
    assert check(n_samples=2000.0) == check(n_samples=np.int64(2000))
    assert check(seed=2**64 - 1) != check(seed=0)
    for bad in (np.nan, np.inf, "1.0", None):
        with pytest.raises(ValueError, match="u must be"):
            generator_v_montecarlo_check(rho, model, target, bad, 1.0)
    for bad in (0.0, -1.0, np.nan, 1e-170, 1e155):
        with pytest.raises(ValueError, match="weight ell"):
            generator_v_montecarlo_check(rho, model, target, 1.0, bad)
    for bad in (2.0 * rho, np.diag([1.5, -0.5]).astype(complex), rho + 0.1j * SX):
        with pytest.raises(ValueError, match="rho"):
            generator_v_montecarlo_check(bad, model, target, 1.0, 1.0)


def test_certificates_refuse_a_bad_state_control_or_weight():
    # generator_v returned nan at u = nan, divided by zero at ell = 0, read
    # ell = -1 as ell = 1 and gave a number for a trace-2 rho; it, trace_term
    # and closed_loop_generator now refuse what the arbiter refuses, naming it
    model, target = qubit()
    rho = bloch(0.1, 0.2, 0.3)
    law = ControllerSpec(kind="square_of_sum")
    assert np.isfinite(generator_v(rho, model, target, 1.0, 1.0))
    assert generator_v(np.stack([rho, rho]), model, target, np.array([1.0, 2.0]), 1.0).shape == (2,)
    for bad in (np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="u must be finite"):
            generator_v(rho, model, target, bad, 1.0)
    bad_states = (2.0 * rho, np.diag([1.5, -0.5]).astype(complex), rho + 0.1j * SX)
    for bad in (0.0, -1.0, np.nan, 1e-170, 1e155):
        for call in (lambda e: generator_v(rho, model, target, 1.0, e),
                     lambda e: trace_term(rho, model, target, e)):
            with pytest.raises(ValueError, match="weight ell"):
                call(bad)
    for bad in bad_states:
        for call in (lambda r: generator_v(r, model, target, 1.0, 1.0),
                     lambda r: trace_term(r, model, target, 1.0),
                     lambda r: closed_loop_generator(r, model, target, law)):
            with pytest.raises(ValueError, match="rho"):
                call(bad)


def test_antithetic_arbiter_holds_the_closed_form_at_every_seed():
    # criterion 3's arbiter at seeds 0-9 as they come: 50 random states at
    # each, 25 on each model as there, each with its own draw seed. Over
    # seeds 0-999 (50,000 states) the largest |estimate - closed| / SE read 4.59
    dt, n_samples = 1e-6, 2000
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for n, build in ((2, qubit), (3, qutrit)):
            model, target = build(mu=1.0, eta=0.5)
            rho = ginibre(rng, n, batch=(25,))
            u = rng.uniform(-2.0, 2.0, 25)
            ell = rng.choice([0.7, 1.0, 2.0], 25)
            for i in range(25):
                est, se = generator_v_montecarlo_check(
                    rho[i], model, target, u[i], ell[i],
                    n_samples=n_samples, dt=dt, seed=50 * seed + 25 * (n - 2) + i,
                )
                closed = float(generator_v(rho[i], model, target, u[i], ell[i]))
                assert abs(est - closed) <= 5.0 * se, (seed, n, i)


def test_arbiter_sees_a_missing_drift_and_a_mis_scaled_noise(monkeypatch):
    # 20 random qubit and 20 qutrit states at the arbiter's defaults. Unmutated,
    # generator_v lies within 5 SE on every state (largest |z| 2.02). With the
    # drift zeroed it lies outside on 34 of 40, and with the noise scaled by
    # 1.05 on 38 of 40 (z 4.98-8.44, as the pair's deviation over its SE
    # depends, to leading order, on the draws alone)
    def outside():
        rng = np.random.default_rng(27)
        count = 0
        for n, build in ((2, qubit), (3, qutrit)):
            model, target = build(mu=1.0, eta=0.5)
            for i in range(20):
                rho, u, ell = ginibre(rng, n), rng.uniform(-2.0, 2.0), (0.7, 1.0, 2.0)[i % 3]
                est, se = generator_v_montecarlo_check(
                    rho, model, target, u, ell, seed=20 * (n - 2) + i
                )
                count += abs(float(generator_v(rho, model, target, u, ell)) - est) > 5.0 * se
        return count

    assert outside() == 0
    with monkeypatch.context() as patch:
        patch.setattr(lyapunov, "sme_drift", lambda *a: 0.0 * sme_drift(*a))
        assert outside() >= 30
    with monkeypatch.context() as patch:
        patch.setattr(lyapunov, "diffusion_term", lambda *a: 1.05 * diffusion_term(*a))
        assert outside() >= 34


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
        l0 = -4.0 * model.mu * model.eta * v2(rho, model) ** 2 / 2.0**2
        np.testing.assert_allclose(rep.l0_v, l0, atol=1e-14)
        np.testing.assert_allclose(rep.lb_v, -trace_term(rho, model, target, 2.0), atol=1e-14)
        c = model.c
        m1, m2, m3 = expectation(c, rho), expectation(c @ c, rho), expectation(c @ c @ c, rho)
        third = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        np.testing.assert_allclose(rep.third_moment, third, atol=1e-14)


def dense_trace_term(rho, model, target, ell):
    """T_ell from its definition, one commutator per state."""
    comm = model.h_b @ rho - rho @ model.h_b
    ex = expectation(model.c, rho)[..., None, None]
    weight = target.rho_d + (2.0 * ex * model.c - model.c @ model.c) / ell**2
    return trace(-1j * comm @ weight).real


def dense_feedback(rho, model, target, ctrl):
    """Every law from its definition."""
    if ctrl.kind == "open_loop":
        return np.zeros(rho.shape[:-2])
    if ctrl.kind == "linear":
        comm = model.h_b @ rho - rho @ model.h_b
        return ctrl.k * trace(-1j * comm @ target.rho_d).real
    t = dense_trace_term(rho, model, target, ctrl.ell)
    if ctrl.kind == "sum_of_squares":
        return ctrl.k * t
    gain = 4.0 * ctrl.k * np.sqrt(model.mu * model.eta) / ctrl.ell
    return ctrl.k**2 * t - gain * variance(model.c, rho)


def dense_certificates(rho, model, target, u, ell):
    """Every recorded certificate from its definition."""
    c = model.c
    m1, m2, m3 = expectation(c, rho), expectation(c @ c, rho), expectation(c @ c @ c, rho)
    fid = trace(target.rho_d @ rho).real
    dist = trace(target.rho_d @ target.rho_d).real - fid
    var = m2 - m1**2
    t = dense_trace_term(rho, model, target, ell)
    l0 = -4.0 * model.mu * model.eta * var**2 / ell**2
    return {
        "v1": dist, "v2": var, "v_tilde": dist + var / ell**2, "lv": -u * t + l0, "l0": l0,
        "lb": -t, "third": m3 - 3.0 * m1 * m2 + 2.0 * m1**3, "fidelity": fid,
    }


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 8),
    batch=st.sampled_from([1, 3, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_forms_match_dense_definitions_and_are_row_local(n, batch, seed):
    rng = np.random.default_rng(seed)
    model, target = random_model(rng, n)
    rho = ginibre(rng, n, batch=(batch,))
    k, ell = rng.uniform(0.3, 3.0, 2)
    u = rng.normal(size=batch)

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def row_local(f, states=rho):
        # each row of the batch, bit for bit, equals that state alone
        out = f(states, u)
        for i in range(batch):
            assert np.array_equal(out[i], f(states[i], u[i]))
        return out

    close(row_local(lambda r, _: trace_term(r, model, target, ell)),
          dense_trace_term(rho, model, target, ell))
    for kind in ("open_loop", "linear", "sum_of_squares", "square_of_sum"):
        ctrl = ControllerSpec(kind=kind, k=k, ell=ell)
        close(row_local(lambda r, _: feedback(r, model, target, ctrl)),
              dense_feedback(rho, model, target, ctrl))
    expected = dense_certificates(rho, model, target, u, ell)
    for name, value in expected.items():
        close(row_local(lambda r, v: certificates(moments(model.to_eigenbasis(r), model, target),
                                                  model, target, v, ell)[name]),
              value)
    # the same batch on batch-last lanes, read with the (N, 7, B) weight lanes
    # run_batch builds: bit for bit the row-major batch's table and each row's
    frame = model.to_eigenbasis(rho)
    lanes = _density_stack(batch, n)
    lanes[...] = frame
    weights = np.repeat(target.observables.T[..., None], batch, axis=-1)
    on_lanes = row_local(lambda r, _: moments(r, model, target, None,
                                              weights if r.ndim == 3 else None), lanes)
    assert np.array_equal(on_lanes, moments(frame, model, target))

    # a ket column in C's eigenbasis reads as its density psi psi^dag
    psi = rng.normal(size=(batch, n, 1)) + 1j * rng.normal(size=(batch, n, 1))
    psi /= np.linalg.norm(psi, axis=-2, keepdims=True)
    pure = psi * np.conj(np.swapaxes(psi, -1, -2))
    lab = model.from_eigenbasis(pure)
    close(row_local(lambda p, _: moments(p, model, target), psi), moments(pure, model, target))
    for kind in ("open_loop", "linear", "sum_of_squares", "square_of_sum"):
        ctrl = ControllerSpec(kind=kind, k=k, ell=ell)
        close(row_local(lambda p, _: feedback(p, model, target, ctrl, moments(p, model, target)),
                        psi),
              dense_feedback(lab, model, target, ctrl))
    for name, value in dense_certificates(lab, model, target, u, ell).items():
        close(row_local(lambda p, v: certificates(moments(p, model, target), model, target, v,
                                                  ell)[name],
                        psi),
              value)
