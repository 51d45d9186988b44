"""Matrix kernel: traces, moments, density-cone checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import H_B3, SX, SY, SZ, ginibre, random_pure, with_spectrum
from smestab import ModelSpec, TargetSpec
from smestab.hermitian import (
    EIG_FLOOR,
    clear_of_floor,
    commutator,
    dag,
    expectation,
    hermitize,
    is_hermitian,
    min_eigenvalue,
    project_to_density,
    purity,
    trace,
    validate_density,
    variance,
)


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
    # the target and its antipodes are the projectors onto model.basis's columns
    target = TargetSpec.for_model(model, np.diag([0.0, 1.0, 0.0]).astype(complex))
    probs = [float(expectation(p, rho)) for p in (target.rho_d, *target.antipodal)]
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


SCREEN_SIZES = (3, 4, 5, 6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), floor=st.sampled_from([EIG_FLOOR, 0.0, 0.1]))
def test_floor_screen_never_clears_a_row_at_or_below_the_floor(seed, floor):
    # one eigenvalue on, just around, or below the floor; the others above
    # both the floor and zero, from just above to one
    rng = np.random.default_rng(seed)
    smallest = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, floor + 1e-12, floor - 1e-12, floor,
                -2e-9, 1e-20]
    b = 200
    for n in SCREEN_SIZES:
        for lam in smallest:
            others = max(floor, 0.0) + np.column_stack(
                [rng.uniform(0.0, 1.0, b), rng.choice([1.0, 1e-6, 1e-12], (b, n - 2))]
            )
            m = with_spectrum(rng, np.column_stack([np.full(b, lam), others]))
            cleared = clear_of_floor(m, floor)
            lowest = np.linalg.eigvalsh(m)[:, 0]
            assert not np.any(cleared & (lowest < floor + 1e-13)), (n, lam)
            # what the integrator relies on: a cleared row is never one min_eigenvalue flags
            assert not np.any(cleared & (min_eigenvalue(m) < floor)), (n, lam)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
def test_floor_screen_clears_near_pure_and_collapsed_states(eps):
    rng = np.random.default_rng(13)
    for n in SCREEN_SIZES:
        near_pure = (1.0 - eps) * random_pure(rng, n, (2000,)) + eps * ginibre(rng, n, (2000,))
        assert np.all(clear_of_floor(near_pure, EIG_FLOOR)), n
        # collapsed onto each level of C's eigenbasis, with what is left of the others
        collapsed = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            pops = np.full(n, eps / (n - 1))
            pops[k] = 1.0 - eps
            collapsed[k] = np.diag(pops)
        assert np.all(clear_of_floor(collapsed, EIG_FLOOR)), n


def test_floor_screen_keeps_stack_shape_and_refuses_other_sizes():
    rng = np.random.default_rng(14)
    for n in SCREEN_SIZES:
        rho = ginibre(rng, n, (2, 5))
        assert clear_of_floor(rho, EIG_FLOOR).shape == (2, 5)
        assert clear_of_floor(rho[0, 0], EIG_FLOOR).shape == ()
        assert not clear_of_floor(-np.eye(n, dtype=complex), EIG_FLOOR)
        with pytest.raises(ValueError, match="square"):
            clear_of_floor(rho[..., :-1], EIG_FLOOR)
    with pytest.raises(ValueError, match="square"):
        clear_of_floor(np.ones(3), EIG_FLOOR)


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
