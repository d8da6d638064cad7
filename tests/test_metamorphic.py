"""Metamorphic relations of the closed-form norm at n = 1 ... 4.

The paper's objects obey exact symmetries, so these check norms at any mode
count without a second derivation: the norm of a direct sum is the product
of the norms, and the norm of -conj(q) is that of q (the adjoint of the
evolution of q is the evolution of -conj(q)).  Each bound is the rounding
bound of the members themselves (rounding_bound), not a tuned constant.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadflow import QuadraticForm, norm_quadratic, sigma_transpose

EPS = np.finfo(float).eps
# derandomized: tier-1 and CI draw the same examples on every run
RELATION = settings(max_examples=40, deadline=None, derandomize=True)
rates = st.floats(0.3, 2.5)
seeds = st.integers(0, 2**32 - 1)


def compact_member(n: int, s: float, seed: int) -> np.ndarray:
    """Hessian -i s I plus a random complex symmetric perturbation of spectral norm 0.2.

    With s >= 0.3, Im H stays negative definite, so the flow is strictly
    positive; s sets the distance from the compactness boundary.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    a += a.T
    return -1j * s * np.eye(2 * n) + 0.2 * a / np.linalg.norm(a, 2)


def rounding_bound(h: np.ndarray) -> float:
    """Bound on the rounding error of norm_quadratic, relative to the norm, from the member's conditioning.

    The norm is prod mu_j^(1/4) over the n smallest eigenvalues mu_j of
    P = conj(K)^{-1} K, K the time-1 flow.  expm has backward error of order
    eps |H|, and the product and eigvals backward errors of order eps times
    their operands, with |conj(K)^{-1}| = |K| for canonical K; so P is
    perturbed by about dP = eps |K|^2 (1 + |H|) (1 + |P|).  By Bauer-Fike each
    mu_j moves by at most kappa(V) dP, V the eigenvectors of P, and the
    norm's relative error is a quarter of the sum of the mu_j's relative
    errors.  The bound takes n kappa(V) dP / min mu_j, four times that sum,
    for the small multiples of eps in each backward error.
    """
    n = len(h) // 2
    k = QuadraticForm(h).transform.matrix
    p = sigma_transpose(np.conj(k)) @ k
    eigs, vecs = np.linalg.eig(p)
    perturbation = EPS * np.linalg.norm(k, 2) ** 2 * (1.0 + np.linalg.norm(h, 2)) * (1.0 + np.linalg.norm(p, 2))
    return float(n * np.linalg.cond(vecs) * perturbation / np.min(np.abs(eigs)))


def direct_sum(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Hessian of q1 + q2 on separate modes, interleaved in the (x, xi) order: q1 on the first n1 of each."""
    n1, n2 = len(h1) // 2, len(h2) // 2
    n = n1 + n2
    first = np.r_[0:n1, n:n + n1]
    second = np.r_[n1:n, n + n1:2 * n]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[np.ix_(first, first)] = h1
    h[np.ix_(second, second)] = h2
    return h


@RELATION
@given(n=st.integers(1, 4), s=rates, seed=seeds)
def test_norm_of_minus_conjugate_generator_is_the_norm(n, s, seed):
    h = compact_member(n, s, seed)
    norm = norm_quadratic(QuadraticForm(h))
    gap = abs(norm_quadratic(QuadraticForm(-np.conj(h))) - norm)
    assert gap <= (rounding_bound(h) + rounding_bound(-np.conj(h))) * norm


@RELATION
@given(n1=st.integers(1, 3), n2=st.integers(1, 3), s1=rates, s2=rates, seed=seeds)
def test_norm_of_direct_sum_is_the_product_of_norms(n1, n2, s1, s2, seed):
    assume(n1 + n2 <= 4)
    h1, h2 = compact_member(n1, s1, seed), compact_member(n2, s2, seed + 1)
    h = direct_sum(h1, h2)
    product = norm_quadratic(QuadraticForm(h1)) * norm_quadratic(QuadraticForm(h2))
    gap = abs(norm_quadratic(QuadraticForm(h)) - product)
    assert gap <= (rounding_bound(h) + rounding_bound(h1) + rounding_bound(h2)) * product
