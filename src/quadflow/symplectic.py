"""Linear symplectic algebra over complexified phase space.

Phase-space points are stacked as z = (x, xi) with n position coordinates
followed by n momentum coordinates.  The symplectic form is
sigma(z, w) = z . (J w) with J = [[0, -I], [I, 0]]; it is bilinear, with no
complex conjugation on either slot.  Quadratic forms are stored through their
(symmetric) Hessian, q(z) = z . (hess z) / 2, and generate flows through the
Hamilton matrix H_q = -J hess.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import MAX_DIM, tolerances
from .errors import QuadflowError, SymbolConvergenceError


@functools.lru_cache(maxsize=MAX_DIM)
def standard_j(n: int) -> np.ndarray:
    """Matrix of the symplectic form for n degrees of freedom; read-only, built once per n."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    j.flags.writeable = False
    return j


def symplectic_form(z: np.ndarray, w: np.ndarray) -> complex:
    """Bilinear symplectic pairing sigma(z, w) = z . (J w)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != w.shape or z.ndim != 1 or z.shape[0] % 2:
        raise ValueError("arguments must be equal-length vectors of even dimension")
    n = z.shape[0] // 2
    # sigma(z, w) = z_xi . w_x - w_xi . z_x
    return complex(z[n:] @ w[:n] - w[n:] @ z[:n])


@functools.lru_cache(maxsize=MAX_DIM)
def _j_tables(n: int) -> tuple[np.ndarray, ...]:
    """Gathers and signs of the products with the signed permutation J; read-only, built once per n.

    Returns (perm, sign, col, flat, signs).  With perm the swap of the two halves of range(2n)
    and sign = (1,..., 1, -1,..., -1): (x J)[..., j] = sign[j] x[..., perm[j]],
    (J x)[..., i, :] = col[i] x[..., perm[i], :] with col = -sign as a column, and
    sigma_transpose(M)[..., i, j] = signs[i, j] M[..., perm[j], perm[i]] with
    signs[i, j] = sign[i] sign[j], one gather at flat[i, j] from the 4n^2 entries of M.
    """
    perm = np.roll(np.arange(2 * n), n)
    sign = np.repeat([1.0, -1.0], n)
    tables = (perm, sign, -sign[:, None], 2 * n * perm + perm[:, None], np.outer(sign, sign))
    for t in tables:
        t.flags.writeable = False
    return tables


# The products with J are gathers times signs, exact for finite entries, with
# no BLAS call per stack member.  np.take returns C-contiguous arrays: the BLAS
# and LAPACK calls that read these products round by memory layout, so the
# layout keeps the bits of the matrix products they replace.
def _times_j(x: np.ndarray) -> np.ndarray:
    """x @ J over the last axis: per stack member, or for a vector (v @ J = -(J v))."""
    perm, sign, _, _, _ = _j_tables(x.shape[-1] // 2)
    return np.take(x, perm, axis=-1) * sign


def _j_times(x: np.ndarray) -> np.ndarray:
    """J @ x per member of a stack of matrices with 2n rows."""
    perm, _, col, _, _ = _j_tables(x.shape[-2] // 2)
    return np.take(x, perm, axis=-2) * col


def sigma_transpose(m: np.ndarray) -> np.ndarray:
    """Adjoint with respect to sigma: sigma(M z, w) = sigma(z, sigma_transpose(M) w), per stack member.

    It is -J M^T J, as one gather and a sign table; an integer M gives floats.
    """
    m = np.asarray(m)
    d = m.shape[-1]
    _, _, _, flat, signs = _j_tables(d // 2)
    return np.take(m.reshape(m.shape[:-2] + (d * d,)), flat, axis=-1) * signs


def _check_square_even(m: np.ndarray, what: str) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"{what} must be a square matrix of even size, got {m.shape}")
    n = m.shape[0] // 2
    if n > MAX_DIM:
        raise ValueError(f"dimension n={n} exceeds the cap n<={MAX_DIM}")
    return n


def symmetrize(m: np.ndarray, what: str) -> np.ndarray:
    """(M + M^T) / 2, rejecting non-finite M and M whose asymmetry exceeds TOLERANCES["sym"].

    The test is |M - M^T|_F <= tol * max(|M|_F, 1), taken in squares, on M scaled by
    its largest real or imaginary part (a modulus may overflow) when |M|_F^2 overflows.
    A finite M equal to M^T bit for bit is accepted after the finiteness check alone and
    stored as a C-ordered copy of itself, every bit as given, signed zeros included
    (halving M + M would flip the sign of some zero parts: a complex division by 2 + 0j).
    """
    t, mm = m, np.vdot(m, m).real  # |M|_F^2: NaN or inf for a non-finite M
    if mm < np.inf and m.tobytes() == m.T.tobytes():
        return m.copy()
    if not (mm < np.inf):
        if not np.isfinite(m).all():
            bad = [tuple(i.tolist()) for i in np.argwhere(~np.isfinite(m))]
            raise ValueError(f"{what} has non-finite entries at {bad}")
        t = m / max(np.abs(m.real).max(), np.abs(m.imag).max())
        mm = np.vdot(t, t).real
    d = t - t.T
    if not (np.vdot(d, d).real <= tolerances()["sym"] ** 2 * max(mm, 1.0)):
        raise ValueError(f"{what} is not symmetric within tolerance")
    return (m + m.T) / 2.0 if t is m else m / 2.0 + m.T / 2.0  # the sum may overflow


def require_finite(**values) -> None:
    """Raise ValueError naming the first of the arrays or scalars in values with a non-finite entry."""
    for name, x in values.items():
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")


def shift_vector(v, n: int) -> np.ndarray:
    """An outside phase-space shift as 2n complex entries; ValueError for another size or a non-finite entry."""
    v = np.asarray(v, dtype=complex).reshape(2 * n)
    require_finite(v=v)
    return v


def herm_max_eig(m: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part (M + M^*) / 2; eigvalsh sorts, and halving is exact."""
    return float(np.linalg.eigvalsh(m + m.conj().T)[-1]) / 2.0


def gauss_logdet(x: np.ndarray) -> complex:
    """log det X as the sum of principal logs of the eigenvalues, = trace(logm(X)).

    X has positive definite Hermitian part in every Gaussian integral here, so
    Spec X stays in the right half-plane, where this branch is continuous in X.
    """
    return complex(np.sum(np.log(np.linalg.eigvals(x))))


def gauss_integrate(a_zz, a_zu, a_uu, l_z, l_u, what: str):
    """Integral over u in R^k of exp(z.A_zz z + 2 z.A_zu u + u.A_uu u + l_z.z + l_u.u).

    The A blocks are complex symmetric where square.  Completing the square
    gives pi^{k/2} det(-A_uu)^{-1/2} exp(z.S z + l.z + const) with the Schur
    complement S = A_zz - A_zu A_uu^{-1} A_zu^T, l = l_z - A_zu A_uu^{-1} l_u and
    const = -l_u.A_uu^{-1} l_u / 4.  Returns (S, l, const, log of the prefactor).
    The integral converges when the Hermitian part of A_uu is negative definite;
    the one check, to TOLERANCES["definite"], raises SymbolConvergenceError.
    """
    if herm_max_eig(a_uu) >= -tolerances()["definite"]:
        raise SymbolConvergenceError(f"{what} diverges")
    return gauss_reduce(a_zz, a_zu, a_uu, l_z, l_u)


def gauss_reduce(a_zz, a_zu, a_uu, l_z, l_u):
    """gauss_integrate's reduction without its convergence check: for a caller that has
    already certified a negative definite Hermitian part of A_uu."""
    w = np.linalg.inv(a_uu)
    t, w_l = a_zu @ w, w @ l_u
    log_pref = 0.5 * a_uu.shape[0] * np.log(np.pi) - 0.5 * gauss_logdet(-a_uu)
    return a_zz - t @ a_zu.T, l_z - a_zu @ w_l, -0.25 * (l_u @ w_l), log_pref


def block2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Complex [[a, b], [c, d]] for four square blocks of one size: np.block's bits, built in place."""
    n = a.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = a, b, c, d
    return out


def set_frozen(obj, **values) -> None:
    """Set fields of a frozen dataclass in its __post_init__; arrays, which it must own, become read-only."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def cayley(m: np.ndarray) -> np.ndarray:
    """Cayley transform (1 + M)^{-1} (1 - M); for M = exp(H) it is -tanh(H/2)."""
    eye = np.eye(m.shape[0])
    return np.linalg.solve(eye + m, eye - m)


def _norm1(m: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest column sum of moduli), per stack member."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


# Higham, SIMAX 26 (2005), table 2.3: the largest 1-norm at which the degree-13
# Padé approximant of exp is accurate to unit roundoff, doubled s = 1, 2, ...
# times.  The number of entries below a 1-norm is the scaling s.
_EXPM_THETA = 5.371920351148152 * 2.0 ** np.arange(1022)  # the last one below the float maximum
# Degree-13 Padé coefficients b_0..b_13 as rows over the powers (I, A^2, A^4, A^6):
# the odd part U/A and the even part V up to A^6, then the parts multiplied by A^6 once more.
_PADE_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE_ROWS = np.array([  # broadcast over the (B, d, d) of a stack
    _PADE_B[1:9:2], _PADE_B[0:8:2], (0.0,) + _PADE_B[9::2], (0.0,) + _PADE_B[8:13:2],
])[:, :, None, None, None]


def _pade_exp(a: np.ndarray) -> np.ndarray:
    """Degree-13 Padé approximant (V - U)^{-1} (V + U) of exp, per member of a stack."""
    powers = np.empty((4,) + a.shape, dtype=complex)  # I, A^2, A^4, A^6
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    # elementwise sums, not a matrix product over the stack, so that each
    # member's bits do not depend on the size of its stack
    parts = (_PADE_ROWS * powers).sum(axis=1)
    parts = powers[3] @ parts[2:] + parts[:2]
    u = a @ parts[0]
    return np.linalg.solve(parts[1] - u, parts[1] + u)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each member of a (B, d, d) stack.

    Padé approximation with scaling and squaring (Higham, SIMAX 26, 2005): each
    member is scaled by 2^-s, s the least that brings its 1-norm to the degree-13
    bound, the stack takes one degree-13 Padé call, and each member is then
    squared s times.  A member's s and arithmetic depend on the member alone, so
    its bits do not depend on its stack mates, and a single matrix is a batch of
    one.  A flow that overflows comes back non-finite, without a warning; the
    canonical check refuses it.
    """
    a = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.searchsorted(_EXPM_THETA, _norm1(a))
        x = _pade_exp(a * 2.0 ** -s[:, None, None])
        for k in range(s.max(initial=0)):
            squared = s > k
            y = x[squared]
            x[squared] = y @ y
    return x


# 16-point Gauss-Legendre rule on [0, 1].  sum_j w_j Y (I + t_j Y)^{-1} is the
# diagonal Padé approximant of degree 16 of log(I + Y), accurate to unit
# roundoff for |Y|_1 <= _LOG_THETA (Higham, Functions of Matrices, table 11.1).
_LOG_NODES = np.array([
    0.005299532504175033, 0.02771248846338371, 0.06718439880608412, 0.12229779582249849,
    0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286137, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939158, 0.9722875115366163, 0.994700467495825,
])
_LOG_WEIGHTS = np.array([
    0.013576229705877048, 0.031126761969323947, 0.04757925584124639, 0.06231448562776694,
    0.07479799440828837, 0.08457825969750127, 0.09130170752246179, 0.09472530522753425,
    0.09472530522753425, 0.09130170752246179, 0.08457825969750127, 0.07479799440828837,
    0.06231448562776694, 0.04757925584124639, 0.031126761969323947, 0.013576229705877048,
])
_LOG_THETA = 0.724
_SQRT_MAX_STEPS = 100


def _sqrtm(x: np.ndarray) -> np.ndarray:
    """Principal square root by the product form of the Denman-Beavers iteration.

    X_k -> X^{1/2} and M_k = X_k^2 X^{-1} -> I; once |M_k - I|_1 <= 1e-8 the
    step just taken leaves an error of order 1e-16.
    """
    eye = np.eye(x.shape[-1])
    m = x
    for _ in range(_SQRT_MAX_STEPS):
        done = _norm1(m - eye) <= 1e-8
        m_inv = np.linalg.inv(m)
        x = x @ (eye + m_inv) / 2.0
        if done:
            return x
        m = (eye + (m + m_inv) / 2.0) / 2.0
    raise QuadflowError("matrix square root iteration did not converge")


def logm(x: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm, by inverse scaling and squaring.

    Cheng, Higham, Kenney, Laub, SIMAX 22 (2001): square roots are taken
    until X^{1/2^k} is within _LOG_THETA of I, then log(I + Y) is read off its
    diagonal Padé approximant and multiplied by 2^k.  X must have no
    eigenvalue on the closed negative real axis.
    """
    eye = np.eye(x.shape[-1])
    k = 0
    while _norm1(x - eye) > _LOG_THETA:
        x = _sqrtm(x)
        k += 1
    y = x - eye
    terms = np.linalg.solve(eye + _LOG_NODES[:, None, None] * y, y)
    return 2.0**k * np.tensordot(_LOG_WEIGHTS, terms, 1)


@dataclass(eq=False, frozen=True)
class QuadraticForm:
    """Complex quadratic form q(z) = z . (hess z) / 2 on 2n phase-space variables.

    The Hessian must be symmetric; small asymmetries below the relative
    tolerance TOLERANCES["sym"] are symmetrized away, larger ones rejected.
    The form is immutable (hess is read-only), so its time-1 flow is computed
    and checked once, on first use of transform.
    """

    hess: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.hess, dtype=complex)
        _check_square_even(h, "Hessian")
        set_frozen(self, hess=symmetrize(h, "Hessian"))

    @functools.cached_property
    def transform(self) -> "CanonicalTransform":
        """Time-1 flow K = exp(H_q), which norms, kernels and compositions all read."""
        return flow(self, 1.0)

    @property
    def n(self) -> int:
        return self.hess.shape[0] // 2

    def __call__(self, z: np.ndarray) -> complex:
        z = np.asarray(z, dtype=complex)
        return complex(z @ self.hess @ z) / 2.0

    def scaled(self, factor: complex) -> "QuadraticForm":
        return QuadraticForm(self.hess * factor)


def hamilton_matrix(q: QuadraticForm) -> np.ndarray:
    """Hamilton matrix H_q = -J hess(q); satisfies sigma(z, H_q z) = 2 q(z)."""
    return -_j_times(q.hess)


def quadratic_from_hamilton(h: np.ndarray) -> QuadraticForm:
    """Recover the quadratic form generating a given Hamilton matrix.

    Requires J h to be symmetric (equivalently sigma_transpose(h) = -h);
    raises ValueError otherwise.
    """
    h = np.asarray(h, dtype=complex)
    _check_square_even(h, "Hamilton matrix")
    return QuadraticForm(_j_times(h))


@dataclass(eq=False, frozen=True)
class CanonicalTransform:
    """Complex linear canonical transformation, K^T J K = J.

    The identity is verified at construction to relative tolerance
    TOLERANCES["canonical"].  matrix is a read-only copy, so the symbols and
    kernels stored on a form or spec stay true to it.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        _check_square_even(m, "canonical matrix")
        check_canonical(m[None])
        set_frozen(self, matrix=m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2


def _frobenius(m: np.ndarray) -> np.ndarray:
    """|M|_F per stack member: np.linalg.norm(m, axis=(-2, -1))'s arithmetic, without its dispatch."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


def _canonical_residuals(m: np.ndarray):
    """|K^T J K - J|, its scale 1 + |K|^2 and the failure mask, per member of a (B, 2n, 2n) stack.

    A non-finite member, such as an overflowed flow, fails, and so does one whose
    scale overflows (entries beyond about 1e154), against which anything would pass.
    """
    j = standard_j(m.shape[-1] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0 + _frobenius(m) ** 2
        resid = _frobenius(_times_j(np.swapaxes(m, -1, -2)) @ m - j)
    return resid, scale, ~(resid <= tolerances()["canonical"] * scale) | (scale == np.inf)  # NaN fails


def check_canonical(m: np.ndarray) -> None:
    """Raise ValueError for the first member of a (B, 2n, 2n) stack with K^T J K != J.

    A non-finite member, such as an overflowed flow, fails the check, and so does
    one whose scale overflows; the message names which.
    """
    resid, scale, failed = _canonical_residuals(m)
    bad = np.flatnonzero(failed)
    if not bad.size:
        return
    i = bad[0]
    if not np.isfinite(m[i]).all():
        why = "it has non-finite entries, as an overflowed flow does"
    elif scale[i] == np.inf:
        why = "its scale 1 + |K|_F^2 overflows a float"
    else:
        why = f"|K^T J K - J| = {resid[i]:.3e} exceeds {tolerances()['canonical']:.1e} * {scale[i]:.3e}"
    raise ValueError(f"matrix is not canonical: {why}")


def is_canonical(m: np.ndarray) -> bool:
    """Whether m passes the check CanonicalTransform makes at construction."""
    try:
        CanonicalTransform(m)
    except ValueError:
        return False
    return True


def flow(q: QuadraticForm, t: complex = 1.0) -> CanonicalTransform:
    """Hamilton flow exp(t H_q) of the quadratic form q at complex time t.

    The exponential is expm's Padé scaling and squaring, as a batch of one.
    """
    return CanonicalTransform(expm((t * hamilton_matrix(q))[None])[0])


def inverse(k: CanonicalTransform) -> CanonicalTransform:
    # for canonical K the sigma-transpose is the inverse; cheaper and more
    # structure-preserving than a linear solve
    return CanonicalTransform(sigma_transpose(k.matrix))


def bar_inverse(k: CanonicalTransform) -> CanonicalTransform:
    """Inverse of the entrywise conjugate, conj(K)^{-1}."""
    return CanonicalTransform(sigma_transpose(np.conj(k.matrix)))


# Minimal angular gap (radians) between Spec K and the negative real axis, the
# cut of the principal logarithm, below which the logarithm is refused.
_CUT_GAP_FLOOR = 1e-6
# Largest 1-norm condition number of K's eigenvector matrix V at which the
# logarithm is read off the eigendecomposition, V diag(log lambda) V^{-1}.
_EIG_COND_CAP = 1e3


def canonical_log(k: CanonicalTransform) -> QuadraticForm:
    """Quadratic form q with flow(q, 1) = K.

    The generator is the principal matrix logarithm of K, refused when an
    eigenvalue of K sits within _CUT_GAP_FLOOR of the negative real axis.  It
    is V diag(log lambda) V^{-1} from the eigendecomposition K = V diag(lambda)
    V^{-1} when cond_1(V) <= _EIG_COND_CAP, and otherwise (defective or
    ill-conditioned K) logm, by inverse scaling and squaring (Higham,
    Functions of Matrices, ch. 11).  It is then projected back onto the
    Hamiltonian class and verified to reproduce K within TOLERANCES["log"].
    """
    m = k.matrix
    eigs, v = np.linalg.eig(m)
    if np.min(np.abs(eigs)) < 1e-14:
        raise QuadflowError("singular transform has no logarithm")
    gap = np.pi - np.max(np.abs(np.angle(eigs)))
    if gap < _CUT_GAP_FLOOR:
        raise QuadflowError(f"spectrum within {gap:.2e} rad of the negative real axis")
    v_inv = np.linalg.inv(v)
    if _norm1(v) * _norm1(v_inv) <= _EIG_COND_CAP:
        h = (v * np.log(eigs)) @ v_inv
    else:
        h = logm(m)
    # project onto the Hamiltonian class sigma_transpose(H) = -H
    h_proj = (h - sigma_transpose(h)) / 2.0
    scale = 1.0 + np.linalg.norm(h)
    if np.linalg.norm(h - h_proj) > 1e-9 * scale:
        raise QuadflowError("matrix logarithm strays from the Hamiltonian class")
    q = quadratic_from_hamilton(h_proj)
    resid = np.linalg.norm(q.transform.matrix - m)
    if resid > tolerances()["log"] * (1.0 + np.linalg.norm(m)):
        raise QuadflowError(f"logarithm verification failed, |exp(H)-K| = {resid:.3e}")
    return q
