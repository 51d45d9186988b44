"""Model validation and the Ito vector fields of the conditioned equation."""
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    C3,
    H_A3,
    H_B3,
    RHO_D2,
    RHO_D3,
    SX,
    SZ,
    dense_diffusion,
    dense_drift,
    density_step,
    drift_table,
    ginibre,
    qubit,
    qutrit,
    random_model,
    random_pure,
)
from smestab.dynamics import (
    ModelSpec,
    TargetSpec,
    _density_stack,
    _left_product,
    diffusion_term,
    mean_level,
    measurement_increment,
    moments,
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
    rho = model.to_eigenbasis(rho)  # tr(rho^2) and the traces below are basis-free
    a = sme_drift(rho, model, u)
    g = diffusion_term(rho, mean_level(rho, model), model)
    return 2.0 * np.einsum("...ij,...ji->...", rho, a).real + np.einsum(
        "...ij,...ji->...", g, g
    ).real


def test_model_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        ModelSpec(h_a=SZ, h_b=bad, c=SZ, mu=1.0, eta=1.0)


def test_model_rejects_bad_rates():
    for mu in (0.0, np.inf):
        with pytest.raises(ValueError, match="mu"):
            ModelSpec(h_a=SZ, h_b=SX, c=SZ, mu=mu, eta=1.0)
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
    v = model.basis
    p = [v[:, [j]] @ dag(v[:, [j]]) for j in range(4)]
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
    # in the eigenbasis c and h_a are diagonal and h_b is the rotated coupling
    np.testing.assert_allclose(model.levels, w, atol=1e-12)
    np.testing.assert_allclose(model.from_eigenbasis(np.diag(model.levels)), c, atol=1e-12)
    np.testing.assert_allclose(model.from_eigenbasis(np.diag(model.energies)), h_a, atol=1e-12)
    np.testing.assert_allclose(model.from_eigenbasis(model.coupling), model.h_b, atol=1e-12)
    np.testing.assert_allclose(model.to_eigenbasis(model.from_eigenbasis(g)), g, atol=1e-12)
    # replace() re-derives the basis and tables of the new model
    slower = replace(model, mu=0.5, eta=0.7)
    assert (slower.mu, slower.eta) == (0.5, 0.7)
    np.testing.assert_array_equal(slower.basis, v)
    gaps = w[:, None] - w[None, :]
    np.testing.assert_allclose(drift_table(slower).real, -0.25 * gaps * gaps, atol=1e-12)


def test_model_rejects_disconnected_coupling():
    h_b = np.diag([0.0, 0.0, 0.0]).astype(complex)
    h_b[0, 1] = h_b[1, 0] = 1.0  # level 3 unreachable
    with pytest.raises(ValueError, match="disconnected"):
        ModelSpec(h_a=H_A3, h_b=h_b, c=C3, mu=1.0, eta=1.0)


def test_model_checks_the_coupling_in_the_eigenbasis_of_c_in_any_basis():
    # H_b must connect C's eigenlevels: the verdict reads coupling, so a joint
    # rotation of (h_a, h_b, c) cannot change it
    cut = np.zeros((3, 3), dtype=complex)
    cut[0, 1] = cut[1, 0] = 1.0  # level 3 unreachable
    cases = [
        (H_A3, cut, C3, False),
        (H_A3, H_B3, C3, True),
        (SX, SZ, SX, True),  # sz couples the two eigenlevels of sx
        (SX, SX, SX, False),  # diagonal in c's eigenbasis: no population moves
    ]
    rng = np.random.default_rng(19)
    for _ in range(5):
        qs = {}
        for n in (2, 3):
            qs[n], _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for h_a, h_b, c, connected in cases:
            q = qs[len(c)]
            h_a, h_b, c = (q @ m @ dag(q) for m in (h_a, h_b, c))
            if connected:
                ModelSpec(h_a=h_a, h_b=h_b, c=c, mu=1.0, eta=1.0)
            else:
                with pytest.raises(ValueError, match="disconnected"):
                    ModelSpec(h_a=h_a, h_b=h_b, c=c, mu=1.0, eta=1.0)


def test_model_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ModelSpec(h_a=SZ, h_b=H_B3, c=SZ, mu=1.0, eta=1.0)
    one = np.ones((1, 1), dtype=complex)
    with pytest.raises(ValueError, match="2x2 or more"):
        ModelSpec(h_a=one, h_b=one, c=one, mu=1.0, eta=1.0)


def test_target_requires_rank_one():
    model, _ = qubit()
    with pytest.raises(ValueError, match="rank one"):
        TargetSpec.for_model(model, np.eye(2, dtype=complex) / 2)


def test_target_requires_joint_eigenstate():
    model, _ = qubit()
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    with pytest.raises(ValueError, match="eigenstate"):
        TargetSpec.for_model(model, plus)


def test_target_constructor_needs_its_model():
    # the model and rho_d are the only inputs: every table, the level and c
    # are derived from the model, so passing any of them is refused
    model, target = qutrit()
    assert list(inspect.signature(TargetSpec).parameters) == ["model", "rho_d"]
    built = TargetSpec(model, RHO_D3)
    for name in ("rho_d", "observables", "moment_weights"):
        assert np.array_equal(getattr(built, name), getattr(target, name)), name
    assert all(np.array_equal(a, b) for a, b in zip(built.antipodal, target.antipodal, strict=True))
    assert built.level == target.level == 2  # c = 1, the last of the ascending levels
    assert built.c is target.c is model.c
    assert target.observables.shape == (7, model.n)
    for name in ("antipodal", "observables", "moment_weights", "level", "c"):
        with pytest.raises(TypeError, match=f"'{name}'"):
            TargetSpec(model, RHO_D3, **{name: getattr(target, name)})
    with pytest.raises(TypeError, match="'model'"):
        TargetSpec(rho_d=RHO_D3)


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
    # in C's eigenbasis the h_a part of the drift is the imaginary part of
    # the drift table and the part linear in u is -i u [h_b, rho]
    rng = np.random.default_rng(20)
    model, _ = qutrit(mu=1.7)
    rho = model.to_eigenbasis(ginibre(rng, 3, batch=(6,)))
    h_a, h_b = model.to_eigenbasis(model.h_a), model.to_eigenbasis(model.h_b)
    f_a = 1j * drift_table(model).imag * rho
    np.testing.assert_allclose(f_a, -1j * (h_a @ rho - rho @ h_a), atol=1e-14)
    u = rng.normal(size=6)
    f_b = sme_drift(rho, model, u) - sme_drift(rho, model, 0.0 * u)
    np.testing.assert_allclose(f_b, -1j * u[:, None, None] * (h_b @ rho - rho @ h_b), atol=1e-14)
    for f in (f_a, f_b):
        assert is_hermitian(f)
        np.testing.assert_allclose(trace(f), 0.0, atol=1e-13)


def test_lindblad_drift_traceless_and_zero_on_diagonal_states():
    # the real part of the drift table is mu D[c] in C's eigenbasis
    rng = np.random.default_rng(21)
    model, _ = qutrit(mu=1.7)
    lab = ginibre(rng, 3, batch=(6,))
    d = drift_table(model).real * model.to_eigenbasis(lab)
    c, c2 = C3, C3 @ C3
    dense = 1.7 * (c @ lab @ c - 0.5 * (c2 @ lab + lab @ c2))
    np.testing.assert_allclose(model.from_eigenbasis(d), dense, atol=1e-14)
    assert is_hermitian(d)
    np.testing.assert_allclose(trace(d), 0.0, atol=1e-13)
    # h_a and D both vanish on states diagonal in C's eigenbasis
    diag = np.diag([0.2, 0.5, 0.3]).astype(complex)
    np.testing.assert_allclose(sme_drift(diag, model, 0.0), 0.0, atol=1e-14)


def test_diffusion_term_traceless_and_zero_on_eigenstates():
    rng = np.random.default_rng(22)
    model, _ = qutrit(mu=2.0, eta=0.5)
    lab = ginibre(rng, 3, batch=(6,))
    frame = model.to_eigenbasis(lab)
    g = diffusion_term(frame, mean_level(frame, model), model)
    np.testing.assert_allclose(model.from_eigenbasis(g), dense_diffusion(lab, model), atol=1e-14)
    assert is_hermitian(g)
    np.testing.assert_allclose(trace(g), 0.0, atol=1e-13)
    eigenstate = model.to_eigenbasis(RHO_D3)
    g = diffusion_term(eigenstate, mean_level(eigenstate, model), model)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_sme_drift_splits_into_parts():
    # the elementwise drift equals the dense -i[H, rho] + mu D[c] rho, on the
    # qutrit and on random bases up to N = 5
    rng = np.random.default_rng(23)
    model, _ = qutrit(mu=1.3, eta=0.8)
    rho = ginibre(rng, 3)
    u = 0.7
    got = model.from_eigenbasis(sme_drift(model.to_eigenbasis(rho), model, u))
    np.testing.assert_allclose(got, dense_drift(rho, model, u), atol=1e-14)
    for n in (2, 4, 5):
        model, _ = random_model(rng, n)
        rho = ginibre(rng, n, batch=(4,))
        u = rng.normal(size=4)
        got = model.from_eigenbasis(sme_drift(model.to_eigenbasis(rho), model, u))
        np.testing.assert_allclose(got, dense_drift(rho, model, u), atol=1e-13)


def test_measurement_increment_formula():
    rng = np.random.default_rng(24)
    model, _ = qubit(mu=1.0, eta=0.5)
    rho = ginibre(rng, 2)
    dt, dw, eta = 1e-3, 0.02, 0.5
    expected = np.sqrt(eta) * np.trace(SZ @ rho).real * dt + dw
    mean = mean_level(model.to_eigenbasis(rho), model)
    np.testing.assert_allclose(measurement_increment(mean, model, dt, dw), expected, atol=1e-15)
    # a ket column reads the same <C> as its density
    pure = random_pure(rng, 2)
    psi = np.linalg.eigh(model.to_eigenbasis(pure))[1][:, -1:]
    expected = np.sqrt(eta) * np.trace(SZ @ pure).real * dt + dw
    mean = mean_level(psi, model)
    np.testing.assert_allclose(measurement_increment(mean, model, dt, dw), expected, atol=1e-15)


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
    rho = model.to_eigenbasis(ginibre(rng, 2))
    u, dt, n = 0.9, 1e-6, 200_000
    dw = rng.normal(0.0, np.sqrt(dt), size=n)
    drift = sme_drift(rho, model, u)
    g = diffusion_term(rho, mean_level(rho, model), model)
    samples = rho + drift * dt + g * dw[:, None, None]
    p = np.einsum("...ij,...ji->...", samples, samples).real
    est = (p.mean() - np.einsum("ij,ji", rho, rho).real) / dt
    se = p.std(ddof=1) / np.sqrt(n) / dt
    closed = float(purity_ito_drift(model.from_eigenbasis(rho), model, u))
    assert abs(est - closed) < 3.0 * se + 10.0 * dt


def test_sse_step_consistent_with_density_step():
    # one step of each kernel from the same pure state, control and noise, in
    # C's eigenbasis: at eta = 1 the ket step is the density split's rank-one
    # factor, so the two agree to roundoff
    from smestab import ControllerSpec, feedback
    from smestab.integrate import _split, _sse_step
    from smestab.lyapunov import moments

    rng = np.random.default_rng(28)
    model, target = qubit(mu=1.0, eta=1.0)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    dt = 1e-4
    split = _split(model, dt)
    worst = 0.0
    for _ in range(200):
        rho = model.to_eigenbasis(random_pure(rng, 2))[None]
        dw = np.array([rng.normal(0.0, np.sqrt(dt))])
        u = feedback(rho, model, target, ctrl, moments(rho, model, target))
        r_next = density_step(rho, mean_level(rho, model), u, None, dw, split)
        psi = np.linalg.eigh(rho)[1][..., :, -1:]
        hpsi = _left_product(model.coupling, psi)
        psi_next = _sse_step(psi, mean_level(psi, model), u, hpsi, dw, split)
        gap = np.linalg.norm(r_next[0] - psi_next[0] @ psi_next[0].conj().T)
        worst = max(worst, float(gap))
    assert worst < 1e-12, worst


def test_sse_fields_are_batch_aware():
    rng = np.random.default_rng(29)
    model, _ = qutrit(eta=1.0)
    psi = rng.normal(size=(7, 3, 1)) + 1j * rng.normal(size=(7, 3, 1))
    psi /= np.linalg.norm(psi, axis=-2, keepdims=True)
    mean = mean_level(psi, model)
    d = sse_drift(psi, mean, model, np.full(7, 0.3))
    g = sse_diffusion(psi, mean, model)
    assert d.shape == (7, 3, 1)
    assert g.shape == (7, 3, 1)
    single = sse_drift(psi[2], mean_level(psi[2], model), model, 0.3)
    np.testing.assert_allclose(d[2], single, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), batch=st.sampled_from([1, 4, 50]), seed=st.integers(0, 2**32 - 1))
def test_open_loop_drift_skips_the_control_term_and_equals_the_drift_at_zeros(n, batch, seed):
    # u = None is the open-loop law: no h_b product, the same values as u = 0
    rng = np.random.default_rng(seed)
    model, _ = random_model(rng, n)
    rho = model.to_eigenbasis(ginibre(rng, n, (batch,)))
    assert np.array_equal(sme_drift(rho, model, None), sme_drift(rho, model, np.zeros(batch)))
    assert np.array_equal(sme_drift(rho, model, None), drift_table(model) * rho)


def test_a_ket_takes_one_form_at_every_n():
    # at every N a ket column's h_b psi is the stacked matmul coupling @ psi
    # and its moment table the stacked product [p, r] @ moment_weights, bit
    # for bit; three random models at each N = 2..8, 128 kets on each
    rng = np.random.default_rng(61)
    for n in range(2, 9):
        for _ in range(3):
            model, target = random_model(rng, n)
            psi = rng.normal(size=(128, n, 1)) + 1j * rng.normal(size=(128, n, 1))
            psi /= np.linalg.norm(psi, axis=-2, keepdims=True)
            hpsi = model.coupling @ psi
            assert np.array_equal(_left_product(model.coupling, psi), hpsi), n
            bra = np.conj(psi[..., 0])
            pr = np.concatenate([(bra * psi[..., 0]).real, (bra * hpsi[..., 0]).imag], axis=-1)
            table = (pr[:, None, :] @ target.moment_weights)[:, 0, :]
            assert np.array_equal(moments(psi, model, target), table), n
            assert np.array_equal(moments(psi, model, target, hpsi), table), n


@pytest.mark.parametrize("n", range(2, 7))
def test_density_kernels_fold_dt_and_dw_into_their_tables(n):
    # integrate._split folds dt into the tables it reads off sme_drift and
    # diffusion_term, so each kernel must be its unscaled formula bit for
    # bit, on batch-last lanes and on a row-major copy alike, with the
    # noise coefficient formed in rho's layout
    rng = np.random.default_rng(110 + n)
    model, _ = random_model(rng, n)
    b = 33
    row_major = model.to_eigenbasis(ginibre(rng, n, (b,)))
    lanes = _density_stack(b, n)
    lanes[...] = row_major
    u = rng.uniform(-3.0, 3.0, b)
    for rho in (lanes, row_major):
        hr = _left_product(model.coupling, rho)
        mean = mean_level(rho, model)
        control = (-1j * u)[:, None, None] * (hr - dag(hr))
        table = drift_table(model)
        drift = table * rho + control
        centered = (model.levels[:, None] + model.levels[None, :]) - 2.0 * mean[:, None, None]
        noise = math.sqrt(model.mu * model.eta) * centered * rho
        assert np.array_equal(sme_drift(rho, model, u), drift)
        assert np.array_equal(sme_drift(rho, model, None), table * rho)
        got = diffusion_term(rho, mean, model)
        assert np.array_equal(got, noise)
        assert got.strides == rho.strides
