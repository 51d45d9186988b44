"""Model validation and the Ito vector fields of the conditioned equation."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import C3, H_A3, H_B3, RHO_D2, RHO_D3, SX, SZ, ginibre, qubit, qutrit, random_pure
from smestab import (
    ModelSpec,
    TargetSpec,
    diffusion_term,
    hamiltonian_drift,
    lindblad_drift,
    measurement_increment,
    sme_drift,
    sse_diffusion,
    sse_drift,
)
from smestab.hermitian import dag, is_hermitian, trace


def purity_ito_drift(rho, model, u=0.0):
    """Ito drift of tr(rho^2): tr(2 rho (F + D)) + tr(G^2).

    Vanishes identically on rank-one states at eta = 1 and equals
    -2 mu (1 - eta) tr(c^2 rho^2 - c rho c rho) there for eta < 1.
    """
    a = sme_drift(rho, model, u)
    g = diffusion_term(rho, model.c, model.mu, model.eta)
    return 2.0 * np.einsum("...ij,...ji->...", rho, a).real + np.einsum(
        "...ij,...ji->...", g, g
    ).real


def test_model_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        ModelSpec(h_a=SZ, h_b=bad, c=SZ, mu=1.0, eta=1.0)


def test_model_rejects_bad_rates():
    with pytest.raises(ValueError, match="mu"):
        ModelSpec(h_a=SZ, h_b=SX, c=SZ, mu=0.0, eta=1.0)
    with pytest.raises(ValueError, match="eta"):
        ModelSpec(h_a=SZ, h_b=SX, c=SZ, mu=1.0, eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        ModelSpec(h_a=SZ, h_b=SX, c=SZ, mu=1.0, eta=1.5)


def test_model_rejects_non_commuting_h_a_c():
    with pytest.raises(ValueError, match="nondemolition"):
        ModelSpec(h_a=SX, h_b=SX, c=SZ, mu=1.0, eta=1.0)


def test_model_rejects_degenerate_observable():
    for spectrum in ([1.0, 1.0, -1.0], [0.5, 0.5 + 1e-12, 1.0]):
        c = np.diag(spectrum).astype(complex)
        with pytest.raises(ValueError, match="degenerate"):
            ModelSpec(h_a=np.zeros((3, 3), dtype=complex), h_b=H_B3, c=c, mu=1.0, eta=1.0)


def test_model_projectors_and_target_in_a_rotated_basis():
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w = np.array([-1.3, 0.2, 0.7, 2.1])
    c = q @ np.diag(w) @ dag(q)
    h_a = q @ np.diag([0.5, -1.0, 2.0, 0.0]) @ dag(q)
    model = ModelSpec(h_a=h_a, h_b=g + dag(g), c=c, mu=1.0, eta=1.0)
    p = model.projectors
    np.testing.assert_allclose(sum(lam * pj for lam, pj in zip(w, p)), c, atol=1e-12)
    for i in range(4):
        for j in range(4):
            np.testing.assert_allclose(p[i] @ p[j], p[i] if i == j else 0.0, atol=1e-12)
    rotated = [q[:, [j]] @ dag(q[:, [j]]) for j in range(4)]
    np.testing.assert_allclose(np.stack(p), np.stack(rotated), atol=1e-12)
    target = TargetSpec.for_model(model, rotated[2])
    np.testing.assert_allclose(target.rho_d, rotated[2], atol=1e-12)
    antipodal = np.stack([rotated[j] for j in (0, 1, 3)])
    np.testing.assert_allclose(np.stack(target.antipodal), antipodal, atol=1e-12)
    # replace() re-derives the projectors of the new model
    slower = replace(model, mu=0.5, eta=0.7)
    assert (slower.mu, slower.eta) == (0.5, 0.7)
    np.testing.assert_array_equal(np.stack(slower.projectors), np.stack(p))


def test_model_rejects_disconnected_coupling():
    h_b = np.diag([0.0, 0.0, 0.0]).astype(complex)
    h_b[0, 1] = h_b[1, 0] = 1.0  # level 3 unreachable
    with pytest.raises(ValueError, match="disconnected"):
        ModelSpec(h_a=H_A3, h_b=h_b, c=C3, mu=1.0, eta=1.0)


def test_model_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ModelSpec(h_a=SZ, h_b=H_B3, c=SZ, mu=1.0, eta=1.0)


def test_target_requires_rank_one():
    model, _ = qubit()
    with pytest.raises(ValueError, match="rank one"):
        TargetSpec.for_model(model, np.eye(2, dtype=complex) / 2)


def test_target_requires_joint_eigenstate():
    model, _ = qubit()
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    with pytest.raises(ValueError, match="eigenstate"):
        TargetSpec.for_model(model, plus)


def test_target_antipodal_order_and_content():
    _, target2 = qubit()
    assert len(target2.antipodal) == 1
    np.testing.assert_allclose(target2.antipodal[0], np.diag([0.0, 1.0]), atol=1e-12)

    _, target3 = qutrit()
    # ascending eigenvalue order of c = diag(1, 0, -1): eigenvalue -1 first
    assert len(target3.antipodal) == 2
    np.testing.assert_allclose(target3.antipodal[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(target3.antipodal[1], np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_hamiltonian_drift_matches_commutator():
    rng = np.random.default_rng(20)
    rho = ginibre(rng, 3, batch=(6,))
    h = H_A3 + 0.3 * H_B3
    f = hamiltonian_drift(h, rho)
    np.testing.assert_allclose(f, -1j * (h @ rho - rho @ h), atol=1e-14)
    assert is_hermitian(f)
    np.testing.assert_allclose(trace(f), 0.0, atol=1e-13)


def test_lindblad_drift_traceless_and_zero_on_diagonal_states():
    rng = np.random.default_rng(21)
    rho = ginibre(rng, 3, batch=(6,))
    d = lindblad_drift(rho, C3, mu=1.7)
    assert is_hermitian(d)
    np.testing.assert_allclose(trace(d), 0.0, atol=1e-13)
    diag = np.diag([0.2, 0.5, 0.3]).astype(complex)
    np.testing.assert_allclose(lindblad_drift(diag, C3, mu=1.7), 0.0, atol=1e-14)


def test_diffusion_term_traceless_and_zero_on_eigenstates():
    rng = np.random.default_rng(22)
    rho = ginibre(rng, 3, batch=(6,))
    g = diffusion_term(rho, C3, mu=2.0, eta=0.5)
    assert is_hermitian(g)
    np.testing.assert_allclose(trace(g), 0.0, atol=1e-13)
    np.testing.assert_allclose(diffusion_term(RHO_D3, C3, 2.0, 0.5), 0.0, atol=1e-14)


def test_sme_drift_splits_into_parts():
    rng = np.random.default_rng(23)
    model, _ = qutrit(mu=1.3, eta=0.8)
    rho = ginibre(rng, 3)
    u = 0.7
    expected = hamiltonian_drift(model.h_a + u * model.h_b, rho) + lindblad_drift(
        rho, model.c, model.mu
    )
    np.testing.assert_allclose(sme_drift(rho, model, u), expected, atol=1e-14)


def test_measurement_increment_formula():
    rng = np.random.default_rng(24)
    rho = ginibre(rng, 2)
    dt, dw, eta = 1e-3, 0.02, 0.5
    expected = np.sqrt(eta) * np.trace(SZ @ rho).real * dt + dw
    np.testing.assert_allclose(
        measurement_increment(rho, SZ, eta, dt, dw), expected, atol=1e-15
    )


def test_purity_drift_vanishes_on_pure_states_at_unit_efficiency():
    rng = np.random.default_rng(25)
    model, _ = qutrit(mu=2.0, eta=1.0)
    rho = random_pure(rng, 3, batch=(100,))
    np.testing.assert_allclose(purity_ito_drift(rho, model, u=0.4), 0.0, atol=1e-12)


def test_purity_drift_closed_form_on_pure_states_below_unit_efficiency():
    rng = np.random.default_rng(26)
    eta = 0.6
    model, _ = qutrit(mu=1.5, eta=eta)
    rho = random_pure(rng, 3, batch=(100,))
    c = model.c
    c2r2 = trace(c @ c @ rho @ rho).real
    crcr = trace((c @ rho) @ (c @ rho)).real
    expected = -2.0 * model.mu * (1.0 - eta) * (c2r2 - crcr)
    np.testing.assert_allclose(purity_ito_drift(rho, model, u=0.0), expected, atol=1e-11)


def test_purity_drift_monte_carlo_oracle():
    # one-step finite difference of tr(rho^2) over raw increments, no projection
    rng = np.random.default_rng(27)
    model, _ = qubit(mu=1.0, eta=0.7)
    rho = ginibre(rng, 2)
    u, dt, n = 0.9, 1e-6, 200_000
    dw = rng.normal(0.0, np.sqrt(dt), size=n)
    drift = sme_drift(rho, model, u)
    g = diffusion_term(rho, model.c, model.mu, model.eta)
    samples = rho + drift * dt + g * dw[:, None, None]
    p = np.einsum("...ij,...ji->...", samples, samples).real
    est = (p.mean() - np.einsum("ij,ji", rho, rho).real) / dt
    se = p.std(ddof=1) / np.sqrt(n) / dt
    closed = float(purity_ito_drift(rho, model, u))
    assert abs(est - closed) < 3.0 * se + 10.0 * dt


def test_sse_step_consistent_with_density_step():
    # one step of each kernel from the same pure state, control and noise;
    # the schemes differ at O(dt) through the dW^2 terms
    from smestab import ControllerSpec, feedback
    from smestab.integrate import _sme_step, _sse_step

    rng = np.random.default_rng(28)
    model, target = qubit(mu=1.0, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    dt = 1e-4
    counters = (np.zeros(1, dtype=int), np.zeros(1, dtype=int))
    worst = 0.0
    for _ in range(200):
        rho = random_pure(rng, 2)[None]
        dw = np.array([rng.normal(0.0, np.sqrt(dt))])
        u = feedback(rho, model, target, ctrl)
        r_next = _sme_step(rho, u, dw, model, dt, *counters)
        psi = np.linalg.eigh(rho)[1][..., :, -1]
        psi_next = _sse_step(psi, u, dw, model, dt, *counters)
        gap = np.linalg.norm(r_next[0] - np.outer(psi_next[0], psi_next[0].conj()))
        worst = max(worst, float(gap))
    assert worst < 5.0 * dt  # measured 1.4 dt over this seed set


def test_sse_fields_are_batch_aware():
    rng = np.random.default_rng(29)
    model, _ = qutrit(eta=1.0)
    psi = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    d = sse_drift(psi, model, np.full(7, 0.3))
    g = sse_diffusion(psi, model)
    assert d.shape == (7, 3)
    assert g.shape == (7, 3)
    single = sse_drift(psi[2], model, 0.3)
    np.testing.assert_allclose(d[2], single, atol=1e-14)
