"""Symplectic linear algebra: forms, flows, logarithms."""
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow import (
    TOLERANCES,
    CanonicalTransform,
    GaussianKernel,
    GaussianSymbol,
    PolynomialSymbol,
    QuadraticForm,
    QuadflowError,
    SymbolConvergenceError,
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
from quadflow import symplectic
from quadflow.symplectic import _EXPM_THETA, _j_times, _times_j, expm, gauss_integrate, gauss_logdet, logm


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


@pytest.mark.parametrize("shape", [(2, 2), (7, 2, 2), (5, 4, 4), (3, 2, 6, 6)], ids=["2d", "n1", "n2", "n3"])
def test_products_with_j_are_the_matmuls_bitwise(shape):
    """The signed gathers give the bits of the standard_j matmuls on finite input, in C order."""
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j = standard_j(shape[-1] // 2)
    for view in (x, np.swapaxes(x, -1, -2)):
        for got, want in (
            (_times_j(view), view @ j),
            (_j_times(view), j @ view),
            (sigma_transpose(view), -j @ np.swapaxes(view, -1, -2) @ j),
        ):
            assert got.flags.c_contiguous
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(sigma_transpose(sigma_transpose(x)), x)
    v = x.reshape(-1, shape[-1])[0]
    assert np.array_equal(-_times_j(v), j @ v)  # J v = -(v J), as the vector callers take it


def test_sigma_transpose_promotes_integers_to_floats():
    got = sigma_transpose([[1, 2], [3, 4]])
    assert got.dtype == np.float64 and np.array_equal(got, [[4.0, -2.0], [-3.0, 1.0]])


@pytest.mark.parametrize("s", [400.0, 800.0])
def test_overflowing_flow_is_refused_by_name(s):
    """No RuntimeWarning (tier-1 makes one an error), and the message says why.

    At s = 400 the flow is finite but |K|_F^2 overflows; at s = 800 the flow itself overflows.
    """
    why = "scale .* overflows a float" if s == 400.0 else "non-finite entries"
    with pytest.raises(ValueError, match=f"matrix is not canonical: .*{why}"):
        flow(QuadraticForm(np.diag([-1j * s, -1j * s])))


def test_flow_is_canonical():
    for seed in range(4):
        k = flow(random_form(1, seed))
        assert is_canonical(k.matrix)
        j = standard_j(1)
        assert np.allclose(k.matrix.T @ j @ k.matrix, j, atol=1e-10)


def test_canonical_transform_rejects_garbage():
    with pytest.raises(ValueError):
        CanonicalTransform(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_canonical_transform_refuses_overflowing_scale():
    # det diag(1e160, 1) = 1e160; |K|_F^2 overflows the relative scale to inf,
    # and against it any finite residual would pass
    m = np.diag([1e160, 1.0])
    assert not is_canonical(m)
    with pytest.raises(ValueError, match="not canonical"):
        CanonicalTransform(m)


def test_quadratic_form_rejects_odd_dimension():
    with pytest.raises(ValueError):
        QuadraticForm(np.eye(3))


def test_quadratic_form_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        QuadraticForm(m)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetry_check_threshold(n, scale):
    """|M - M^T|_F just under TOLERANCES["sym"] * max(|M|_F, 1) passes; just over is refused."""
    rng = np.random.default_rng(20 + n)
    m = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    h = scale * (m + m.T)
    e = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    e = (e - e.T) / np.linalg.norm(e - e.T)  # antisymmetric, unit Frobenius norm
    bound = TOLERANCES["sym"] * max(np.linalg.norm(h), 1.0)
    # M = h + c e has M - M^T = 2 c e
    QuadraticForm(h + 0.99 * bound / 2.0 * e)
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticForm(h + 1.01 * bound / 2.0 * e)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_symmetry_check_threshold_where_the_frobenius_square_overflows(scale):
    """Past |M|_F ~ 1.3e154 the same relative threshold holds, and no entry of the result overflows."""
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticForm(np.array([[1e160, 1e159], [0.0, 1.0]]))
    rng = np.random.default_rng(30)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = scale * (m + m.T)
    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e = (e - e.T) / np.linalg.norm(e - e.T)
    bound = TOLERANCES["sym"] * scale * np.linalg.norm(m + m.T)
    QuadraticForm(h + 0.99 * bound / 2.0 * e)
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticForm(h + 1.01 * bound / 2.0 * e)
    big = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.0]])
    assert np.array_equal(QuadraticForm(big).hess, big)
    # a modulus past the largest float: 1.5e308 (1 + i) has |z| = 2.1e308
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticForm(np.array([[1.5e308 + 1.5e308j, 1e307], [0.0, 1.0]]))
    big = np.array([[1.5e308 + 1.5e308j, 1e290j], [1e290j, 1.0]])
    assert np.array_equal(QuadraticForm(big).hess, big)


def _kernel(pxx, pyy):
    z = np.zeros(len(pxx))
    return GaussianKernel(1.0, pxx, np.zeros_like(pxx), pyy, z, z)


# the matrix that each constructor checking outside input stores for a matrix h given to it
_CHECKED = {
    "QuadraticForm": lambda h: QuadraticForm(h).hess,
    "GaussianSymbol": lambda h: GaussianSymbol(1.0, h, np.zeros(len(h))).g,
    "PolynomialSymbol": lambda h: PolynomialSymbol(0.0, np.zeros(len(h)), h).s,
    "GaussianKernel pxx": lambda h: _kernel(h, -np.eye(len(h))).pxx,
    "GaussianKernel pyy": lambda h: _kernel(-np.eye(len(h)), h).pyy,
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetrized_hessian_bits(n):
    """Every checked constructor stores the symmetrized h to the last bit, signed zeros included.

    A near-symmetric h (the tolerance test) is stored as (h + h^T) / 2. An h equal to h^T bit
    for bit (the finiteness check alone) is stored as given: with mirrored zeros of either sign,
    in Fortran order, subnormal, and with |h|_F^2 just below the float maximum. Just above it
    the stored matrix is h / 2 + h^T / 2. The stored matrix is C-contiguous; the caller's array
    stays writable and shares no memory with it.
    """
    rng = np.random.default_rng(40 + n)
    shape = (2 * n, 2 * n)
    upper = np.triu(np.ones(shape, dtype=bool))
    top = np.sqrt(np.finfo(float).max)  # |h|_F = 1.34e154: past it |h|_F^2 overflows
    for _ in range(20):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        near = m + m.T + 1e-12 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        exact = m + m.T
        # zeros of either sign in either part, next to parts of either sign: mirrored in exact
        zeros = rng.random((2,) + shape) < 0.3
        zeros |= np.swapaxes(zeros, 1, 2)
        signs = rng.choice([0.0, -0.0], size=(2,) + shape)
        mirrored = np.where(upper, signs, np.swapaxes(signs, 1, 2))
        for h, zs in ((near, signs), (exact, mirrored)):
            h.real[zeros[0]] = zs[0][zeros[0]]
            h.imag[zeros[1]] = zs[1][zeros[1]]
        cases = [near, exact, np.asfortranarray(exact), 1e-310 * exact]
        cases += [c * top / np.linalg.norm(exact) * exact for c in (0.999, 1.001)]
        assert np.vdot(cases[-1], cases[-1]).real == np.inf > np.vdot(cases[-2], cases[-2]).real
        for h in cases:
            if np.vdot(h, h).real == np.inf:
                want = h / 2 + h.T / 2
            else:  # near is equal to near^T bit for bit where the zeros happen to mirror
                want = h if h.tobytes() == h.T.tobytes() else (h + h.T) / 2
            for name, build in _CHECKED.items():
                stored = build(h)
                assert stored.tobytes() == want.tobytes() and stored.flags.c_contiguous, name
                assert h.flags.writeable and not np.shares_memory(h, stored), name
        assert all(h.tobytes() == h.T.tobytes() for h in cases[1:])
        assert np.any(np.abs(cases[3]) < np.finfo(float).tiny)
    for value in (np.nan, np.inf):
        h = -1j * np.eye(2 * n)
        h[0, 1] = h[1, 0] = value
        for name, build in _CHECKED.items():
            with pytest.raises(ValueError, match=r"non-finite entries at \[\(0, 1\), \(1, 0\)\]"):
                build(h)


def test_exactly_symmetric_input_keeps_its_signed_zeros():
    """Halving h + h would store +0.0 for the -0.0 real parts off the diagonal; h is kept as given."""
    h = np.array([[-2.46, complex(-0.0, 1.2)], [complex(-0.0, 1.2), complex(0.0, -0.0)]])
    for name, build in _CHECKED.items():
        stored = build(h)
        assert stored.tobytes() == h.tobytes(), name
        assert np.signbit(stored.real).tolist() == [[True, True], [True, False]], name
        assert np.signbit(stored.imag).tolist() == [[False, False], [False, True]], name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 2)])
@pytest.mark.parametrize("imag", [False, True])
def test_quadratic_form_refuses_non_finite(value, entry, imag):
    h = -1j * np.eye(4)
    h[entry] = h[entry[::-1]] = complex(0.0, value) if imag else value
    with pytest.raises(ValueError, match=r"non-finite entries at \[.*" + re.escape(str(entry))):
        QuadraticForm(h)


@settings(max_examples=25, deadline=None, derandomize=True)
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


def test_canonical_transform_owns_a_read_only_matrix():
    m = flow(random_form(1, 22, scale=0.5)).matrix.copy()
    k = CanonicalTransform(m)
    m[0, 0] = 5.0
    assert k.matrix[0, 0] != 5.0
    q = random_form(1, 23, scale=0.5)
    with pytest.raises(ValueError, match="read-only"):
        q.transform.matrix[0, 0] = 5.0  # the symbols and kernels stored on q cannot go stale


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
    # eigenvalue angles sit 0.14 rad away from the negative real axis, the cut
    # of the principal logarithm, which still returns the generator itself
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


@pytest.mark.parametrize("s", [1.0, 4.0, 6.0, 8.0, 10.0])
def test_log_of_heat_flow(s):
    # K = cosh(s) I + i sinh(s) J is diagonalizable by a unitary V, so the
    # eigendecomposition route holds where inverse scaling and squaring lost
    # the generator (s = 10) to its square roots
    q = canonical_log(flow(heat_generator(s)))
    assert np.linalg.norm(q.hess + 1j * s * np.eye(2)) <= 1e-10 * np.linalg.norm(s * np.eye(2))


@pytest.mark.parametrize("s", np.arange(0.5, 30.25, 0.5))
def test_log_of_heat_flow_meets_its_round_trip_bound_or_refuses(s):
    # past s = 8 the heat flow's logarithm loses the Hamiltonian class or its round trip to
    # rounding, and canonical_log refuses it; a logarithm it returns always meets its own bound
    k = flow(heat_generator(s))
    try:
        q = canonical_log(k)
    except QuadflowError:
        return
    resid = np.linalg.norm(q.transform.matrix - k.matrix)
    assert resid <= TOLERANCES["log"] * (1.0 + np.linalg.norm(k.matrix))


def test_log_rejects_spectrum_on_negative_axis():
    # rotation by exactly pi: both eigenvalue angles sit on the negative real
    # axis, the cut of the principal logarithm
    k = flow(q_theta(0.0), np.pi - 1.0j)
    with pytest.raises(QuadflowError):
        canonical_log(k)


@pytest.mark.parametrize("delta", [1e-7, 5e-7, 2e-6, 1e-3])
def test_log_refusal_boundary(delta):
    # eigenvalue angles +-(pi - delta): refused below the 1e-6 rad gap floor,
    # the principal generator itself above it
    t = (np.pi - delta) - 0.5j
    k = flow(q_theta(0.0), t)
    if delta < 1e-6:
        with pytest.raises(QuadflowError):
            canonical_log(k)
    else:
        assert np.allclose(canonical_log(k).hess, t * q_theta(0.0).hess, rtol=0, atol=1e-12)


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


def gaussian_exponent(m: int, k: int, seed: int):
    """Seeded complex symmetric blocks and complex linear terms, Re A_uu <= -I/2."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((m + k, m + k)) + 1j * rng.standard_normal((m + k, m + k))
    a = (r + r.T) / 2.0
    a[m:, m:] -= (np.max(np.linalg.eigvalsh(a[m:, m:].real)) + 0.5) * np.eye(k)
    l = rng.standard_normal(m + k) + 1j * rng.standard_normal(m + k)
    return a[:m, :m], a[:m, m:], a[m:, m:], l[:m], l[m:]


@pytest.mark.parametrize("m", [1, 2])
def test_gauss_integrate_matches_quadrature(m):
    a_zz, a_zu, a_uu, l_z, l_u = gaussian_exponent(m, 1, seed=40 + m)
    u = np.linspace(-16.0, 16.0, 3201)
    s, lin, const, log_pref = gauss_integrate(a_zz, a_zu, a_uu, l_z, l_u, "test integral")
    for z in np.random.default_rng(m).standard_normal((3, m)):
        vals = np.exp(z @ a_zz @ z + 2.0 * (z @ a_zu)[0] * u + a_uu[0, 0] * u**2 + l_z @ z + l_u[0] * u)
        # the quadrature's rounding scales with the integral of |f|, which cancellation can leave far above |ref|
        ref = np.trapezoid(vals, u)
        got = np.exp(z @ s @ z + lin @ z + const + log_pref)
        assert abs(got - ref) <= 1e-14 * np.trapezoid(np.abs(vals), u)


@pytest.mark.parametrize("m", [1, 2])
def test_gauss_integrate_in_one_step_equals_one_coordinate_after_the_other(m):
    a_zz, a_zu, a_uu, l_z, l_u = gaussian_exponent(m, 2, seed=50 + m)
    s, lin, const, log_pref = gauss_integrate(a_zz, a_zu, a_uu, l_z, l_u, "joint integral")
    # u2 first, with (z, u1) outer, then u1
    s1, lin1, const1, log1 = gauss_integrate(
        np.block([[a_zz, a_zu[:, :1]], [a_zu[:, :1].T, a_uu[:1, :1]]]), np.vstack([a_zu[:, 1:], a_uu[:1, 1:]]),
        a_uu[1:, 1:], np.append(l_z, l_u[0]), l_u[1:], "inner integral")
    s2, lin2, const2, log2 = gauss_integrate(s1[:m, :m], s1[:m, m:], s1[m:, m:], lin1[:m], lin1[m:], "outer integral")
    assert np.allclose(s2, s, rtol=0.0, atol=1e-12 * np.abs(s).max())
    assert np.allclose(lin2, lin, rtol=0.0, atol=1e-12 * np.abs(lin).max())
    total = const + log_pref
    assert abs(const1 + const2 + log1 + log2 - total) <= 1e-12 * (1.0 + abs(total))


def test_gauss_integrate_over_every_variable_returns_only_the_constant():
    _, _, a_uu, _, l_u = gaussian_exponent(0, 2, seed=60)
    s, lin, const, log_pref = gauss_integrate(np.zeros((0, 0)), np.zeros((0, 2)), a_uu, np.zeros(0), l_u, "trace")
    assert s.shape == (0, 0) and lin.shape == (0,)
    u = np.linspace(-12.0, 12.0, 801)
    uu = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    vals = np.exp(np.einsum("...i,ij,...j->...", uu, a_uu, uu) + uu @ l_u)
    ref = np.trapezoid(np.trapezoid(vals, u), u)
    assert abs(np.exp(const + log_pref) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a_uu", [[[0.1 + 1.0j]], [[-1.0 + 0.5j, 0.3j], [0.3j, 0.2 - 1.0j]], [[-1e-10]]])
def test_gauss_integrate_refuses_a_divergent_inner_block(a_uu):
    a_uu = np.array(a_uu, dtype=complex)
    k = a_uu.shape[0]
    with pytest.raises(SymbolConvergenceError, match="test integral diverges"):
        gauss_integrate(np.zeros((1, 1)), np.zeros((1, k)), a_uu, np.zeros(1), np.zeros(k), "test integral")


def test_scaled_form():
    q = random_form(1, 5)
    assert np.allclose(q.scaled(2.0).hess, 2.0 * q.hess)
    z = np.array([0.3, -0.7])
    assert q.scaled(-1.5)(z) == pytest.approx(-1.5 * q(z))


def random_hamilton(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hamilton matrix of a strictly dissipative generator: real symmetric part
    plus -i times a positive definite one, as the workloads draw them."""
    r, a = rng.standard_normal((2, 2 * n, 2 * n))
    return -standard_j(n) @ ((r + r.T) / 2.0 - 1j * (a @ a.T / (2 * n) + 0.2 * np.eye(2 * n)))


# 1-norms of the exponential's inputs: five below the degree-13 bound 5.4 (s = 0),
# then scalings s = 3, 5, 6
EXPM_NORMS = (0.01, 0.2, 0.9, 2.0, 5.0, 40.0, 100.0, 200.0)


def test_expm_matches_scipy():
    rng = np.random.default_rng(17)
    errors = []
    for n in (1, 2):
        for target in EXPM_NORMS:
            for _ in range(10):
                h = random_hamilton(n, rng)
                h *= target / np.max(np.sum(np.abs(h), axis=0))
                ref = scipy.linalg.expm(h)
                errors.append(np.linalg.norm(expm(h[None])[0] - ref) / np.linalg.norm(ref))
    assert max(errors) <= 1e-13


def test_expm_stack_is_bitwise_batch_of_one():
    # the scaling is chosen per member, so a member's bits do not depend on
    # its stack mates
    rng = np.random.default_rng(18)
    stack = np.array([t * random_hamilton(2, rng) for t in (3.0, 0.002, 0.1, 60.0, 0.5, 1.2, 9.0, 0.05)])
    norms = np.max(np.sum(np.abs(stack), axis=1), axis=1)
    assert norms.min() < 0.015 and norms.max() > 100.0
    single = np.array([expm(h[None])[0] for h in stack])
    assert np.array_equal(expm(stack), single)
    assert np.array_equal(expm(stack[::-1]), single[::-1])
    # two members of every scaling s = 0 ... 6, shuffled, so that each
    # squaring takes a scattered sub-stack
    stack = scaled_stack(rng)
    single = np.array([expm(h[None])[0] for h in stack])
    assert np.array_equal(expm(stack), single)
    order = rng.permutation(len(stack))
    assert np.array_equal(expm(stack[order]), single[order])


def scaled_stack(rng: np.random.Generator) -> np.ndarray:
    """Two-mode Hamilton matrices, two at each scaling s = 0 ... 6 of expm, shuffled."""
    mids = np.concatenate([[_EXPM_THETA[0] / 2.0], (_EXPM_THETA[:6] + _EXPM_THETA[1:7]) / 2.0])
    members = [random_hamilton(2, rng) for _ in range(2 * len(mids))]
    stack = np.array([h * (mid / np.max(np.sum(np.abs(h), axis=0)))
                      for h, mid in zip(members, np.repeat(mids, 2))])
    stack = stack[rng.permutation(len(stack))]
    scalings = np.searchsorted(_EXPM_THETA, np.max(np.sum(np.abs(stack), axis=1), axis=1))
    assert np.array_equal(np.bincount(scalings), np.full(7, 2))
    return stack


def test_expm_makes_one_pade_call_per_stack(monkeypatch):
    pade_exp, calls = symplectic._pade_exp, []

    def counted(a):
        calls.append(len(a))
        return pade_exp(a)

    monkeypatch.setattr(symplectic, "_pade_exp", counted)
    expm(scaled_stack(np.random.default_rng(20)))
    assert calls == [14]


def test_logm_matches_scipy():
    rng = np.random.default_rng(19)
    errors = []
    for n in (1, 2):
        for scale in (0.1, 0.3, 1.0):
            for _ in range(50):
                k = scipy.linalg.expm(scale * random_hamilton(n, rng))
                ref = scipy.linalg.logm(k)
                errors.append(np.linalg.norm(logm(k) - ref) / np.linalg.norm(ref))
    assert max(errors) <= 1e-12


def test_canonical_log_matches_scipy(monkeypatch):
    # the flows of test_logm_matches_scipy have well-conditioned eigenvectors,
    # so canonical_log reads each logarithm off the eigendecomposition
    calls = []

    def counted(x):
        calls.append(x.shape)
        return logm(x)

    monkeypatch.setattr("quadflow.symplectic.logm", counted)
    rng = np.random.default_rng(19)
    errors = []
    for n in (1, 2):
        for scale in (0.1, 0.3, 1.0):
            for _ in range(50):
                k = scipy.linalg.expm(scale * random_hamilton(n, rng))
                ref = scipy.linalg.logm(k)
                gen = -standard_j(n) @ canonical_log(CanonicalTransform(k)).hess
                errors.append(np.linalg.norm(gen - ref) / np.linalg.norm(ref))
    assert max(errors) <= 1e-12
    assert calls == []
