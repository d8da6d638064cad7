"""Symplectic linear algebra: forms, flows, logarithms."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow import (
    CanonicalTransform,
    QuadraticForm,
    QuadflowError,
    bar_inverse,
    canonical_log,
    flow,
    hamilton_matrix,
    inverse,
    is_canonical,
    quadratic_from_hamilton,
    sigma_transpose,
    standard_j,
    symplectic_form,
)
from quadflow.models import heat_generator, q_harmonic, q_theta
from quadflow.symplectic import gauss_logdet


def random_form(n: int, seed: int, scale: float = 0.6) -> QuadraticForm:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return QuadraticForm(scale * (m + m.T) / 2.0)


def test_form_orientation():
    # basis vector pairing fixes the sign convention once and for all
    e_x = np.array([1.0, 0.0])
    e_xi = np.array([0.0, 1.0])
    assert symplectic_form(e_x, e_xi) == -1.0
    assert symplectic_form(e_xi, e_x) == 1.0
    assert symplectic_form(e_x, e_x) == 0.0


def test_form_is_bilinear():
    rng = np.random.default_rng(7)
    z, w, u = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3))
    lhs = symplectic_form(z + 2.5j * u, w)
    assert lhs == pytest.approx(symplectic_form(z, w) + 2.5j * symplectic_form(u, w))
    assert symplectic_form(z, w) == pytest.approx(-symplectic_form(w, z))


def test_standard_j_squares_to_minus_one():
    for n in (1, 2, 3):
        j = standard_j(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
def test_hamilton_matrix_properties(n, seed):
    q = random_form(n, seed)
    h = hamilton_matrix(q)
    assert abs(np.trace(h)) < 1e-12
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        assert symplectic_form(z, h @ z) == pytest.approx(2.0 * q(z))


def test_hamilton_round_trip():
    q = random_form(2, 3)
    q2 = quadratic_from_hamilton(hamilton_matrix(q))
    assert np.allclose(q2.hess, q.hess, atol=1e-14)


def test_sigma_transpose_moves_across_form():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert symplectic_form(m @ z, w) == pytest.approx(symplectic_form(z, sigma_transpose(m) @ w))


def test_flow_is_canonical():
    for seed in range(4):
        k = flow(random_form(1, seed))
        assert is_canonical(k.matrix)
        j = standard_j(1)
        assert np.allclose(k.matrix.T @ j @ k.matrix, j, atol=1e-10)


def test_canonical_transform_rejects_garbage():
    with pytest.raises(ValueError):
        CanonicalTransform(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_quadratic_form_rejects_odd_dimension():
    with pytest.raises(ValueError):
        QuadraticForm(np.eye(3))


def test_quadratic_form_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        QuadraticForm(m)


@settings(max_examples=25, deadline=None)
@given(
    s=st.floats(-1.2, 1.2),
    t=st.floats(-1.2, 1.2),
    seed=st.integers(0, 50),
)
def test_flow_group_law(s, t, seed):
    q = random_form(1, seed, scale=0.4)
    left = flow(q, s + t).matrix
    right = flow(q, s).matrix @ flow(q, t).matrix
    assert np.allclose(left, right, atol=1e-10 * (1.0 + np.linalg.norm(left)))


def test_form_owns_its_time_one_flow():
    q = random_form(2, 21, scale=0.5)
    assert q.transform is q.transform
    assert np.array_equal(q.transform.matrix, flow(q, 1.0).matrix)
    with pytest.raises(ValueError):
        q.hess[0, 0] = 1.0  # read-only, so the cached flow cannot go stale


def test_inverse_and_bar_inverse():
    q = random_form(2, 9, scale=0.5)
    k = flow(q)
    assert np.allclose(inverse(k).matrix @ k.matrix, np.eye(4), atol=1e-11)
    kb = bar_inverse(k)
    assert np.allclose(kb.matrix @ np.conj(k.matrix), np.eye(4), atol=1e-11)


def test_inverse_flow_negates_time():
    q = random_form(1, 13, scale=0.5)
    assert np.allclose(inverse(flow(q, 0.7)).matrix, flow(q, -0.7).matrix, atol=1e-11)


# -- logarithms ---------------------------------------------------------------


def test_log_of_imaginary_harmonic_flow_is_exact():
    # exp(-i s H) for the harmonic generator has positive real spectrum,
    # so the principal branch must come back with hessian -i s times identity
    for s in (0.5, 1.5, 3.0):
        k = flow(q_harmonic(1), -1j * s)
        q = canonical_log(k)
        assert np.allclose(q.hess, -1j * s * np.eye(2), atol=1e-12)


def test_log_round_trip_generic():
    for seed in range(6):
        q = random_form(1, seed + 40, scale=0.5)
        k = flow(q)
        q2 = canonical_log(k)
        assert np.allclose(flow(q2).matrix, k.matrix, atol=1e-9 * (1 + np.linalg.norm(k.matrix)))


def test_log_round_trip_two_modes():
    q = random_form(2, 77, scale=0.4)
    k = flow(q)
    q2 = canonical_log(k)
    assert np.allclose(flow(q2).matrix, k.matrix, atol=1e-9 * (1 + np.linalg.norm(k.matrix)))


def test_log_handles_spectrum_near_negative_axis():
    # eigenvalue angles sit 0.14 rad away from the cut; the branch scan has
    # to keep the ray between them and the negative reals
    q = QuadraticForm((3.0 - 0.4j) * np.eye(2))
    k = flow(q)
    angles = np.angle(np.linalg.eigvals(k.matrix))
    assert np.max(np.abs(angles)) > 2.9
    q2 = canonical_log(k)
    assert np.allclose(q2.hess, q.hess, atol=1e-9)


def test_log_of_doubled_heat_flow():
    k1 = flow(heat_generator(1.0))
    k3 = CanonicalTransform(k1.matrix @ k1.matrix)
    q = canonical_log(k3)
    assert np.allclose(q.hess, -2j * np.eye(2), atol=1e-10)


def test_log_rejects_spectrum_on_negative_axis():
    # rotation by exactly pi: both eigenvalue angles pin the cut, and no
    # scalar branch can split the pair
    k = flow(q_theta(0.0), np.pi - 1.0j)
    with pytest.raises(QuadflowError):
        canonical_log(k)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_gauss_logdet_matches_logm_trace(n):
    # reference route: trace of the principal matrix logarithm; X = H + i S with
    # H positive definite, so at n >= 4 the eigenvalue angles sum past pi and
    # log(det X) would land on another branch
    rng = np.random.default_rng(n)
    for _ in range(4):
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        x = a @ a.conj().T / n + 0.1 * np.eye(n) + 4j * b @ b.conj().T / n
        ref = np.trace(scipy.linalg.logm(x))
        assert abs(gauss_logdet(x) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_scaled_form():
    q = random_form(1, 5)
    assert np.allclose(q.scaled(2.0).hess, 2.0 * q.hess)
    z = np.array([0.3, -0.7])
    assert q.scaled(-1.5)(z) == pytest.approx(-1.5 * q(z))
