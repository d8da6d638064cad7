"""Exact operator norms and shift decompositions for quantized quadratic flows.

The operator obtained by quantizing a strictly positive flow K = flow(q, 1)
is compact, and its norm is determined by the spectrum of conj(K)^{-1} K:
eigenvalues come in pairs (mu, 1/mu) with mu in (0, 1), and the norm equals
the product of mu_j^{1/4}.  Adding a phase-space shift v to the generator
multiplies the norm by an explicitly computable growth factor; decompose()
returns the two real shift centers, the scalar phase, and the norm of the
shifted evolution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import tolerances
from .errors import (
    BoundarySpectrumError,
    CompositionClassError,
    PositivityError,
    QuadflowError,
)
from .positivity import PositivityReport, positivity_verdicts, strict_positivity
from .symbols import mehler_symbol, weyl_sharp
from .symplectic import (
    CanonicalTransform,
    QuadraticForm,
    _canonical_residuals,
    _j_times,
    canonical_log,
    cayley,
    expm,
    set_frozen,
    shift_vector,
    sigma_transpose,
    symplectic_form,
)


@dataclass(eq=False, frozen=True)
class EvolutionSpec:
    """Quadratic generator plus complex phase-space shift, q(z - v).

    Construction runs the strict positivity certificate on the time-1 flow
    and rejects generators outside the compact class.  The spec is
    immutable and v is a read-only copy of the shift given, so the kernel
    that kernels.evolution_to_kernel stores on it, once, stays its kernel.
    """

    q: QuadraticForm
    v: np.ndarray | None = None
    transform: CanonicalTransform = field(init=False)
    report: PositivityReport = field(init=False)

    def __post_init__(self):
        n = self.q.n
        v = shift_vector(np.zeros(2 * n) if self.v is None else self.v, n)
        report = strict_positivity(self.q.transform)
        set_frozen(self, v=v.copy(), transform=self.q.transform, report=report)
        if not report.is_strict:
            raise PositivityError(f"flow is not strictly positive: {report}", margin=report.margin)

    @property
    def n(self) -> int:
        return self.q.n


def _pairing(km: np.ndarray, kbm: np.ndarray):
    """Contraction rates, pair product residuals and eigenvalue_pairing's failure masks of a stack.

    kbm holds conj(K)^{-1} = sigma_transpose(conj(K)) of each member.
    """
    n = km.shape[-1] // 2
    eigs = np.linalg.eigvals(kbm @ km)
    mod = np.abs(eigs)
    eigs = eigs[np.arange(len(eigs))[:, None], mod.argsort(axis=-1)]
    small, large = eigs[:, :n], eigs[:, 2 * n - 1 : n - 1 : -1]
    resid = np.abs(small * large - 1.0).max(axis=-1)
    mu = np.sort(small.real, axis=-1)
    # a zero eigenvalue fails the pairing mask; keep it out of the log
    log_mod = np.log(np.where(mod > 0.0, mod, np.inf))
    return mu, resid, (
        (np.abs(log_mod) < tolerances()["boundary"]).any(axis=-1),
        resid > tolerances()["pairing"],
        np.abs(small.imag).max(axis=-1) > 1e-8 * np.abs(small).max(axis=-1),
        (mu <= 0.0).any(axis=-1),
    )


def eigenvalue_pairing(k: CanonicalTransform) -> np.ndarray:
    """Contraction rates mu_j in (0, 1) from the spectrum of conj(K)^{-1} K.

    Eigenvalues are sorted by modulus and the k-th smallest is paired with
    the k-th largest; each pair must multiply to 1 within
    TOLERANCES["pairing"].  Eigenvalues whose modulus sits within
    TOLERANCES["boundary"] of the unit circle cannot be assigned to a pair
    side and raise BoundarySpectrumError.
    """
    km = k.matrix[None]
    mu, resid, (boundary, unpaired, unreal, nonpositive) = _pairing(km, sigma_transpose(np.conj(km)))
    if boundary[0]:
        raise BoundarySpectrumError(
            "eigenvalue within boundary tolerance of the unit circle; "
            "pairing is unreliable"
        )
    if unpaired[0]:
        raise QuadflowError(f"eigenvalue pairing failed: worst product residual {resid[0]:.3e}")
    if unreal[0]:
        raise QuadflowError("contraction rates are not numerically real")
    if nonpositive[0]:
        raise QuadflowError("contraction rates must be positive")
    return mu[0]


def norm_quadratic(q: QuadraticForm) -> float:
    """Exact operator norm of the quantized time-1 flow of q: decompose's norm with no shift.

    Raises PositivityError when the flow is not strictly positive.
    """
    return decompose(EvolutionSpec(q)).norm


def a_matrix(k: CanonicalTransform) -> np.ndarray:
    """Real matrix A mapping Im v to the gap a2 - a1 between shift centers.

    A = (Im K2)^{-1} (1 - Re K2) + (Im K1)^{-1} (1 - Re K1) with
    K1 = K and K2 = conj(K)^{-1}.
    """
    out = np.zeros((2 * k.n, 2 * k.n))
    for mat in (k.matrix, sigma_transpose(np.conj(k.matrix))):
        out += np.linalg.solve(mat.imag, np.eye(2 * k.n) - mat.real)
    return out


@dataclass(eq=False)
class DecompositionData:
    """Singular-type decomposition of a shifted evolution.

    The quantized evolution factors as phase * (shift by a2) * (quantized
    unshifted flow) * (adjoint shift by a1), with real centers a1, a2 and
    |phase| carrying the norm growth caused by Im v.
    """

    mu: np.ndarray       # contraction rates, ascending, in (0, 1)
    a1: np.ndarray       # real right shift center
    a2: np.ndarray       # real left shift center
    phase: complex       # scalar factor; |phase| = growth factor
    norm: float          # operator norm of the shifted evolution


def _centers(km: np.ndarray, kbm: np.ndarray, v: np.ndarray):
    """Shift centers and decompose's failure mask (non-finite centers) of a stack.

    kbm holds conj(K)^{-1} of each member, as for _pairing.
    """
    eye = np.eye(km.shape[-1])
    vi = v.imag[..., None]
    # the systems are real, but real solves round differently (last digits, in
    # about two thirds of sweep members); test_center_path_matches_loop_reference
    # and the CLI's 17-digit output pin the digits of these complex solves
    a1 = v.real + np.linalg.solve(km.imag.astype(complex), (km.real - eye) @ vi)[..., 0].real
    a2 = v.real - np.linalg.solve(kbm.imag.astype(complex), (kbm.real - eye) @ vi)[..., 0].real
    return a1, a2, ~np.all(np.isfinite(a1) & np.isfinite(a2), axis=-1)


def decompose(spec: EvolutionSpec) -> DecompositionData:
    """Compute centers, phase, contraction rates, and norm for q(z - v)."""
    km = spec.transform.matrix[None]
    a1, a2, failed = _centers(km, sigma_transpose(np.conj(km)), spec.v[None])
    if failed[0]:
        raise QuadflowError("shift centers are not finite")
    a1, a2 = a1[0], a2[0]
    # a pairing past the float range overflows to inf, or to inf - inf = nan, which refuses too
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = 0.5j * symplectic_form(spec.v, (a2 - a1).astype(complex))
    if not (np.isfinite(exponent) and exponent.real <= np.log(np.finfo(float).max)):
        raise QuadflowError(f"log growth factor {exponent.real:.6g} overflows a float")
    phase = np.exp(exponent)
    mu = eigenvalue_pairing(spec.transform)
    norm = float(abs(phase) * np.prod(mu**0.25))
    return DecompositionData(mu=mu, a1=a1, a2=a2, phase=complex(phase), norm=norm)


def norm_shifted(spec: EvolutionSpec) -> float:
    """Exact operator norm of the quantized flow with generator q(z - v)."""
    return decompose(spec).norm


@dataclass(eq=False, frozen=True)
class CenterSample:
    """One record of a center sweep; ok=False marks a failed certificate.

    a1 and a2 are read-only rows of center_path's own stacks, frozen once
    per stack rather than once per record.
    """

    param: float
    a1: np.ndarray | None
    a2: np.ndarray | None
    ok: bool


def center_path(
    items: Iterable[tuple[float, QuadraticForm, Sequence[complex]]]
) -> list[CenterSample]:
    """Decompose a parametrized family, flagging members that lose positivity.

    Each item is (parameter, generator, shift).  Failures are recorded, not
    dropped, so a sweep keeps its full index structure; a member whose flow
    is not canonical (an overflowed flow, say) fails alone.  Members of equal
    mode count run through flow, certificate and decomposition as one stack,
    with no BLAS call per member for a product with J (a signed block swap);
    the flows come from one call of expm (one degree-13 Padé call, then each
    member's own squarings).
    """
    items = list(items)
    modes = [q.n for _, q, _ in items]
    a1s, a2s = [None] * len(items), [None] * len(items)
    for n in sorted(set(modes)):
        idx = [i for i, m in enumerate(modes) if m == n]
        v = np.array([items[i][2] for i in idx], dtype=complex).reshape(len(idx), 2 * n)
        km = expm(-_j_times(np.array([items[i][1].hess for i in idx])))
        canonical = np.flatnonzero(~_canonical_residuals(km)[2])  # an overflowed flow fails here
        strict = canonical[positivity_verdicts(km[canonical])[1]]
        km = km[strict]
        kbm = sigma_transpose(np.conj(km))  # conj(K)^{-1}
        a1, a2, failed = _centers(km, kbm, v[strict])
        a1.flags.writeable = a2.flags.writeable = False  # so the rows the samples keep are read-only views
        for row in np.flatnonzero(~(failed | np.any(_pairing(km, kbm)[2], axis=0))):
            i = idx[strict[row]]
            a1s[i], a2s[i] = a1[row], a2[row]
    return [CenterSample(p, a1, a2, a1 is not None) for (p, _, _), a1, a2 in zip(items, a1s, a2s)]


def critical_time(theta: float) -> float:
    """Largest imaginary time magnitude below which rotated-oscillator flows
    stay compact for every real time.

    Returns the negative critical value t2_c(theta) = -arctanh(|sin theta|);
    requires |theta| < pi/2.
    """
    if abs(theta) >= np.pi / 2:
        raise ValueError("critical time requires |theta| < pi/2")
    s = abs(np.sin(theta))
    return float(-np.arctanh(s))


@dataclass(eq=False)
class CompositionResult:
    """Composite of two shifted evolutions as a single shifted evolution.

    The product of the quantized evolutions equals
    factor * (quantized evolution of spec), sign included.
    """

    spec: EvolutionSpec
    factor: complex


def compose_evolutions(s1: EvolutionSpec, s2: EvolutionSpec) -> CompositionResult:
    """Composition law: generator, shift, and scalar factor of a product.

    The composed flow is K3 = K1 K2.  Raises CompositionClassError when the
    product leaves the strictly positive class (the composite then has no
    certified generator here).
    The shifts contribute the cocycle exponential, which has no sign freedom.
    The sign is the branch of the Mehler square root: the principal log of K3
    flips it at each 2 pi wrap.  The unshifted sharp product's constant over
    mehler_symbol(q3).c is exactly that sign, +-1, and it is folded into factor.
    """
    if s1.n != s2.n:
        raise ValueError("evolution dimensions differ")
    k1, k2 = s1.transform, s2.transform
    k3m = k1.matrix @ k2.matrix
    eye = np.eye(2 * s1.n)
    k3 = CanonicalTransform(k3m)
    report = strict_positivity(k3)
    if not report.is_strict:
        raise CompositionClassError(
            f"composed flow leaves the strictly positive class: {report}"
        )
    w1 = (eye - k1.matrix) @ s1.v
    u2 = (eye - sigma_transpose(k2.matrix)) @ s2.v
    v3 = np.linalg.solve(eye - k3m, w1) + np.linalg.solve(eye - sigma_transpose(k3m), u2)
    factor = np.exp(
        0.5j * (symplectic_form(s1.v - v3, w1) + symplectic_form(u2, s2.v - v3))
    )
    q3 = canonical_log(k3)
    probe = weyl_sharp(mehler_symbol(s1.q), mehler_symbol(s2.q)).c / mehler_symbol(q3).c
    if probe.real < 0.0:
        factor = -factor
    return CompositionResult(spec=EvolutionSpec(q3, v3), factor=complex(factor))


def _mehler_williamson(k: CanonicalTransform) -> np.ndarray:
    """Williamson invariants of the real positive form behind a self-paired K.

    For strictly positive K with conj(K)^{-1} = K the quadratic form
    q1(z) = sigma(z, -i (1+K)^{-1} (1-K) z) is real positive definite; its
    Hamilton matrix is 2 (-i) (1+K)^{-1} (1-K) with spectrum {+-i mu_j}.
    Returns the mu_j, ascending.
    """
    h1 = -2j * cayley(k.matrix)
    eigs = np.linalg.eigvals(h1)
    if np.max(np.abs(eigs.real)) > 1e-8 * (1.0 + np.max(np.abs(eigs))):
        raise QuadflowError("reduced spectrum is not purely imaginary")
    mu = np.sort(eigs.imag[eigs.imag > 0])
    if mu.shape[0] != k.n:
        raise QuadflowError("reduced spectrum does not split into +-i mu pairs")
    return mu


def real_log_exists(k: CanonicalTransform) -> bool:
    """Whether K admits a generator q with -i q real valued.

    Such a generator exists exactly when the quantized evolution can be
    written as the exponential of a real symmetric operator, i.e. when the
    quadratic expectation values of the evolution are sign definite.
    Preconditions: K strictly positive and conj(K)^{-1} = K.

    The test reduces K by a real canonical transform to oscillator blocks
    with invariants mu_j > 0; the block generators are real multiples of the
    harmonic oscillator exactly when arctanh(mu_j / 2) is real, that is,
    mu_j in (0, 2).  Branch shifts of the logarithm flip the sign of the
    evolution but never restore realness for mu_j > 2.
    """
    report = strict_positivity(k)
    if not report.is_strict:
        raise PositivityError(f"precondition failed: {report}", margin=report.margin)
    sym_gap = np.linalg.norm(sigma_transpose(np.conj(k.matrix)) - k.matrix)
    if sym_gap > 1e-8 * (1.0 + np.linalg.norm(k.matrix)):
        raise ValueError("precondition failed: conj(K)^{-1} != K")
    mu = _mehler_williamson(k)
    return bool(np.all(mu > 0.0) and np.all(mu < 2.0))
