"""Matrix kernel: traces, moments, density-cone checks."""
import numpy as np
import pytest

from conftest import H_B3, SX, SY, SZ, ginibre, random_pure
from smestab import (
    ModelSpec,
    commutator,
    expectation,
    hermitize,
    is_hermitian,
    min_eigenvalue,
    project_to_density,
    purity,
    validate_density,
    variance,
)
from smestab.hermitian import dag, trace


def test_trace_matches_numpy_on_stacks():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 5, 3, 3)) + 1j * rng.normal(size=(4, 5, 3, 3))
    expected = np.trace(m, axis1=-2, axis2=-1)
    np.testing.assert_allclose(trace(m), expected, rtol=0, atol=1e-14)


def test_hermitize_is_idempotent_and_projects():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitize(m)
    assert is_hermitian(h, tol=0.0) or is_hermitian(h)
    np.testing.assert_array_equal(hermitize(h), h)


def test_is_hermitian_rejects_asymmetry_above_tol():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-10
    assert not is_hermitian(m)
    assert is_hermitian(m, tol=1e-9)


def test_is_hermitian_requires_square():
    with pytest.raises(ValueError):
        is_hermitian(np.zeros((2, 3)))


def test_commutator_antihermitian_for_hermitian_args():
    rng = np.random.default_rng(2)
    a = hermitize(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = hermitize(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    c = commutator(a, b)
    np.testing.assert_allclose(c, -dag(c), atol=1e-13)
    np.testing.assert_allclose(trace(c), 0.0, atol=1e-13)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_expectation_and_variance_against_eigenbasis():
    rng = np.random.default_rng(3)
    rho = ginibre(rng, 3)
    c = np.diag([1.0, 0.0, -1.0]).astype(complex)
    p = np.diagonal(rho).real
    np.testing.assert_allclose(expectation(c, rho), p @ [1, 0, -1], atol=1e-12)
    ex2 = p @ [1, 0, 1]
    np.testing.assert_allclose(variance(c, rho), ex2 - (p @ [1, 0, -1]) ** 2, atol=1e-12)
    assert variance(c, rho) >= 0.0


def test_purity_bounds_on_random_densities():
    rng = np.random.default_rng(4)
    rho = ginibre(rng, 3, batch=(50,))
    p = purity(rho)
    assert np.all(p >= 1.0 / 3.0 - 1e-12)
    assert np.all(p <= 1.0 + 1e-12)
    np.testing.assert_allclose(purity(random_pure(rng, 3, batch=(50,))), 1.0, atol=1e-12)


def test_born_probabilities_resolve_identity():
    rng = np.random.default_rng(5)
    rho = ginibre(rng, 3)
    c = np.diag([2.0, -1.0, 0.5]).astype(complex)
    model = ModelSpec(h_a=np.zeros((3, 3)), h_b=H_B3, c=c, mu=1.0, eta=1.0)
    probs = [float(expectation(p, rho)) for p in model.projectors]
    assert all(q > 0 for q in probs)
    np.testing.assert_allclose(sum(probs), 1.0, atol=1e-12)


def test_project_to_density_lands_on_cone_and_fixes_members():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = project_to_density(raw + dag(raw) + 2.0 * np.eye(3))
    validate_density(out)
    rho = ginibre(rng, 3)
    np.testing.assert_allclose(project_to_density(rho), rho, atol=1e-12)


def test_project_to_density_rejects_negative_definite():
    with pytest.raises(ValueError):
        project_to_density(-np.eye(2, dtype=complex))


def test_min_eigenvalue_qubit_radical_matches_eigvalsh():
    rng = np.random.default_rng(9)
    m = hermitize(rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2)))
    np.testing.assert_allclose(
        min_eigenvalue(m), np.linalg.eigvalsh(m)[..., 0], rtol=0, atol=1e-13
    )


def test_min_eigenvalue_exact_on_degenerate_projectors():
    # regression: an arccos-based 3x3 closed form returned -5.7e-9 here, below
    # the validity floor, spuriously rejecting exact density matrices
    assert min_eigenvalue(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert min_eigenvalue(np.diag([1.0, 0.0, 0.0]).astype(complex)) == 0.0
    assert min_eigenvalue(np.diag([0.5, 0.3, 0.2]).astype(complex)) == pytest.approx(0.2)


def test_validate_density_accepts_random_and_rejects_bad():
    rng = np.random.default_rng(10)
    validate_density(ginibre(rng, 3))
    with pytest.raises(ValueError):
        validate_density(2.0 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        validate_density(np.diag([1.5, -0.5]).astype(complex))


def test_fidelity_on_pure_states_is_overlap():
    rng = np.random.default_rng(11)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    rho, sigma = np.outer(a, a.conj()), np.outer(b, b.conj())
    np.testing.assert_allclose(
        expectation(rho, sigma), abs(np.vdot(a, b)) ** 2, atol=1e-12
    )


def test_pauli_algebra_sanity():
    np.testing.assert_allclose(commutator(SX, SY), 2j * SZ, atol=0)
    np.testing.assert_allclose(SX @ SX, np.eye(2), atol=0)
