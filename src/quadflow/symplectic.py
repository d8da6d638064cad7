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
import scipy.linalg

from .config import MAX_DIM, TOLERANCES
from .errors import QuadflowError


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


def sigma_transpose(m: np.ndarray) -> np.ndarray:
    """Adjoint with respect to sigma: sigma(M z, w) = sigma(z, sigma_transpose(M) w), per stack member."""
    m = np.asarray(m)
    j = standard_j(m.shape[-1] // 2)
    return -j @ np.swapaxes(m, -1, -2) @ j


def _check_square_even(m: np.ndarray, what: str) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"{what} must be a square matrix of even size, got {m.shape}")
    n = m.shape[0] // 2
    if n > MAX_DIM:
        raise ValueError(f"dimension n={n} exceeds the cap n<={MAX_DIM}")
    return n


def symmetrize(m: np.ndarray, what: str) -> np.ndarray:
    """(M + M^T) / 2, rejecting M whose asymmetry exceeds TOLERANCES["sym"], relative."""
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.T) > TOLERANCES["sym"] * scale:
        raise ValueError(f"{what} is not symmetric within tolerance")
    return (m + m.T) / 2.0


def herm_max_eig(m: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part (M + M^*) / 2."""
    return float(np.max(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))


def gauss_logdet(x: np.ndarray) -> complex:
    """log det X as the sum of principal logs of the eigenvalues, = trace(logm(X)).

    X has positive definite Hermitian part in every Gaussian integral here, so
    Spec X stays in the right half-plane, where this branch is continuous in X.
    """
    return complex(np.sum(np.log(np.linalg.eigvals(x))))


def cayley(m: np.ndarray) -> np.ndarray:
    """Cayley transform (1 + M)^{-1} (1 - M); for M = exp(H) it is -tanh(H/2)."""
    eye = np.eye(m.shape[0])
    return np.linalg.solve(eye + m, eye - m)


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
        h = symmetrize(h, "Hessian")
        h.flags.writeable = False
        object.__setattr__(self, "hess", h)

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
    return -standard_j(q.n) @ q.hess


def quadratic_from_hamilton(h: np.ndarray) -> QuadraticForm:
    """Recover the quadratic form generating a given Hamilton matrix.

    Requires J h to be symmetric (equivalently sigma_transpose(h) = -h);
    raises ValueError otherwise.
    """
    h = np.asarray(h, dtype=complex)
    n = _check_square_even(h, "Hamilton matrix")
    hess = standard_j(n) @ h
    return QuadraticForm(hess)


@dataclass(eq=False, frozen=True)
class CanonicalTransform:
    """Complex linear canonical transformation, K^T J K = J.

    The identity is verified at construction to relative tolerance
    TOLERANCES["canonical"].
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_square_even(m, "canonical matrix")
        check_canonical(m[None])
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2


def check_canonical(m: np.ndarray) -> None:
    """Raise ValueError for the first member of a (B, 2n, 2n) stack with K^T J K != J."""
    j = standard_j(m.shape[-1] // 2)
    scale = 1.0 + np.linalg.norm(m, axis=(-2, -1)) ** 2
    resid = np.linalg.norm(np.swapaxes(m, -1, -2) @ j @ m - j, axis=(-2, -1))
    bad = np.flatnonzero(resid > TOLERANCES["canonical"] * scale)
    if bad.size:
        raise ValueError(
            f"matrix is not canonical: |K^T J K - J| = {resid[bad[0]]:.3e} "
            f"exceeds {TOLERANCES['canonical']:.1e} * {scale[bad[0]]:.3e}"
        )


def is_canonical(m: np.ndarray) -> bool:
    """Whether m passes the check CanonicalTransform makes at construction."""
    try:
        CanonicalTransform(m)
    except ValueError:
        return False
    return True


def flow(q: QuadraticForm, t: complex = 1.0) -> CanonicalTransform:
    """Hamilton flow exp(t H_q) of the quadratic form q at complex time t."""
    return CanonicalTransform(scipy.linalg.expm(t * hamilton_matrix(q)))


def inverse(k: CanonicalTransform) -> CanonicalTransform:
    # for canonical K the sigma-transpose is the inverse; cheaper and more
    # structure-preserving than a linear solve
    return CanonicalTransform(sigma_transpose(k.matrix))


def bar_inverse(k: CanonicalTransform) -> CanonicalTransform:
    """Inverse of the entrywise conjugate, conj(K)^{-1}."""
    return CanonicalTransform(sigma_transpose(np.conj(k.matrix)))


# Minimal angular gap (radians) between the branch-cut ray and Spec K below
# which the logarithm is refused.
_RAY_GAP_FLOOR = 1e-6


def canonical_log(k: CanonicalTransform) -> QuadraticForm:
    """Quadratic form q with flow(q, 1) = K.

    The branch is chosen by scanning 64 candidate cut rays and keeping the
    one whose angle stays farthest from the spectrum of K; the matrix
    logarithm is taken with the cut rotated onto that ray, then projected
    back onto the Hamiltonian class.  The result is verified to reproduce K
    within TOLERANCES["log"].
    """
    m = k.matrix
    dim = m.shape[0]
    eigs = np.linalg.eigvals(m)
    if np.min(np.abs(eigs)) < 1e-14:
        raise QuadflowError("singular transform has no logarithm")
    angles = np.angle(eigs)
    candidates = np.linspace(-np.pi, np.pi, 65)[1:]
    # circular distance of each candidate ray to the nearest eigenvalue angle
    diff = np.abs((angles[None, :] - candidates[:, None] + np.pi) % (2 * np.pi) - np.pi)
    gaps = diff.min(axis=1)
    if np.max(gaps) < _RAY_GAP_FLOOR:
        raise QuadflowError(
            f"spectrum crowds every candidate branch ray (best gap {np.max(gaps):.2e} rad)"
        )
    alpha = None
    for idx in np.argsort(-gaps):
        if gaps[idx] < _RAY_GAP_FLOOR:
            break
        cand = float(candidates[idx])
        # branch angles in the window (cand - 2*pi, cand]; the log can only
        # be Hamiltonian when paired eigenvalues pick up opposite angles,
        # otherwise the representative sums land on multiples of 2*pi
        reps = cand - np.remainder(cand - angles, 2.0 * np.pi)
        reps_neg = cand - np.remainder(cand + angles, 2.0 * np.pi)
        if np.max(np.abs(reps + reps_neg)) < 1.0:
            alpha = cand
            break
    if alpha is None:
        raise QuadflowError(
            "no branch ray splits the spectrum compatibly with the eigenvalue pairing"
        )
    # rotate so the chosen ray lands on the principal cut, log, rotate back
    rot = np.exp(-1j * (alpha - np.pi))
    h = scipy.linalg.logm(m * rot) + 1j * (alpha - np.pi) * np.eye(dim)
    # project onto the Hamiltonian class sigma_transpose(H) = -H
    h_proj = (h - sigma_transpose(h)) / 2.0
    scale = 1.0 + np.linalg.norm(h)
    if np.linalg.norm(h - h_proj) > 1e-9 * scale:
        raise QuadflowError("matrix logarithm strays from the Hamiltonian class")
    q = quadratic_from_hamilton(h_proj)
    resid = np.linalg.norm(q.transform.matrix - m)
    if resid > TOLERANCES["log"] * (1.0 + np.linalg.norm(m)):
        raise QuadflowError(f"logarithm verification failed, |exp(H)-K| = {resid:.3e}")
    return q
