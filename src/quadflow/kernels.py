"""Gaussian integral kernels of quantized quadratic flows.

A Gaussian kernel is K(x, y) = amplitude * exp(i phi(x, y)) with phi a
complex quadratic polynomial whose Hessian has positive definite imaginary
part in the nondegenerate case.  The module quantizes Gaussian symbols into
kernels, recovers the generating flow and shift from a kernel (graph
relation of the phase), composes kernels, conjugates them by phase-space
shifts, and applies exact degree-2 polynomial Weyl operators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import DegenerateKernelError, QuadflowError, SymbolConvergenceError
from .evolution import EvolutionSpec
from .symbols import GaussianSymbol, PolynomialSymbol, ShiftOp, mehler_symbol, two_sided_shift
from .symplectic import (CanonicalTransform, block2, canonical_log, gauss_integrate,
                         gauss_reduce, herm_max_eig, require_finite, set_frozen, symmetrize)

# scale of the linear phase terms drawn by random_nondegenerate
_SHIFT_SCALE = 0.5


@dataclass(eq=False, frozen=True)
class GaussianKernel:
    """Kernel amplitude * exp(i phi(x, y)) with quadratic phase.

    phi(x, y) = x.(pxx x)/2 + x.(pxy y) + y.(pyy y)/2 + lx.x + ly.y + c0.
    pxx and pyy are symmetric; the y-x cross block is pxy transposed.
    Immutable, every array read-only and written by no one, so one kernel can
    be shared.  The constructor checks outside input (shapes, symmetry,
    finiteness); the kernels the package builds get _trusted's finiteness check.
    """

    amplitude: complex
    pxx: np.ndarray
    pxy: np.ndarray
    pyy: np.ndarray
    lx: np.ndarray
    ly: np.ndarray
    c0: complex = 0.0 + 0.0j

    def __post_init__(self):
        pxx, pxy, pyy = (np.asarray(m, dtype=complex) for m in (self.pxx, self.pxy, self.pyy))
        if pxx.ndim != 2:
            raise ValueError(f"pxx must be a square matrix, got shape {pxx.shape}")
        n = pxx.shape[0]
        for name, m in (("pxx", pxx), ("pyy", pyy), ("pxy", pxy)):
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n} x {n}")
        lx, ly = (np.asarray(l, dtype=complex).reshape(n).copy() for l in (self.lx, self.ly))
        amplitude, c0 = complex(self.amplitude), complex(self.c0)
        require_finite(amplitude=amplitude, pxy=pxy, lx=lx, ly=ly, c0=c0)
        set_frozen(self, amplitude=amplitude, pxx=symmetrize(pxx, "pxx"), pxy=pxy.copy(),
                   pyy=symmetrize(pyy, "pyy"), lx=lx, ly=ly, c0=c0)

    @classmethod
    def _trusted(cls, amplitude, pxx, pxy, pyy, lx, ly, c0) -> "GaussianKernel":
        """A kernel of complex arrays no one else writes, pxx and pyy exactly symmetric; finite, or ValueError."""
        k, amplitude, c0 = object.__new__(cls), complex(amplitude), complex(c0)
        if not np.isfinite(np.concatenate([pxx.ravel(), pxy.ravel(), pyy.ravel(), lx, ly, [amplitude, c0]])).all():
            raise ValueError("the kernel has non-finite entries: it overflows a float")
        set_frozen(k, amplitude=amplitude, pxx=pxx, pxy=pxy, pyy=pyy, lx=lx, ly=ly, c0=c0)
        return k

    @property
    def n(self) -> int:
        return self.pxx.shape[0]

    def phase_hessian(self) -> np.ndarray:
        return block2(self.pxx, self.pxy, self.pxy.T, self.pyy)

    def nondegeneracy_margin(self) -> float:
        """Smallest eigenvalue of Im phi''; positive for compact smoothing kernels."""
        return float(np.min(np.linalg.eigvalsh(self.phase_hessian().imag)))

    @property
    def nondegenerate(self) -> bool:
        return self.nondegeneracy_margin() > 0.0

    def phase(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return (
            0.5 * np.einsum("...i,ij,...j->...", x, self.pxx, x)
            + np.einsum("...i,ij,...j->...", x, self.pxy, y)
            + 0.5 * np.einsum("...i,ij,...j->...", y, self.pyy, y)
            + x @ self.lx
            + y @ self.ly
            + self.c0
        )

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate on points; x, y have shape (..., n)."""
        return self.amplitude * np.exp(1j * self.phase(x, y))


@np.errstate(over="ignore", invalid="ignore")  # a result past the float range is refused by _trusted
def quantize(sym: GaussianSymbol, formal: bool = False) -> GaussianKernel:
    """Integral kernel of the Weyl operator of a Gaussian symbol.

    This is where a symbol's integrability is checked.  The kernel is
    (2 pi)^{-n} int exp(i (x-y).xi) a((x+y)/2, xi) dxi, a Gaussian integral
    over the inner variable xi with the outer variables (x, y); it converges
    only when the momentum block of the symbol exponent has negative definite
    real part, which gauss_integrate checks when formal=True.  Certified mode
    demands full Gaussian decay of the symbol instead, which implies the block
    condition (Cauchy interlacing), so it solves one Hermitian eigenproblem.
    """
    n = sym.n
    if not formal and herm_max_eig(sym.g) >= -tolerances()["definite"]:
        raise SymbolConvergenceError("symbol lacks Gaussian decay; pass formal=True to quantize anyway")
    g_ww, g_wxi, l_w = 0.25 * sym.g[:n, :n], 0.5 * sym.g[:n, n:], 0.5 * sym.l[:n]
    turn = 0.5j * np.eye(n)  # a at w = (x+y)/2, and 2 (x, y).[[turn], [-turn]] xi = i (x-y).xi
    blocks = (block2(g_ww, g_ww, g_ww, g_ww), np.vstack([g_wxi + turn, g_wxi - turn]), sym.g[n:, n:],
              np.concatenate([l_w, l_w]), sym.l[n:])
    s, lin, const, log_pref = (gauss_integrate(*blocks, "momentum-block integral") if formal
                               else gauss_reduce(*blocks))
    return _kernel_of_exponent(sym.c * (2.0 * np.pi) ** -n * np.exp(log_pref), s, lin, const)


def _kernel_of_exponent(amplitude, s: np.ndarray, lin: np.ndarray, const) -> GaussianKernel:
    """The kernel amplitude * exp(z.S z + lin.z + const), z = (x, y): i phi is the exponent.

    S, a Schur complement, is symmetric up to rounding; its diagonal blocks are
    symmetrized as GaussianKernel does.
    """
    n, p = s.shape[0] // 2, -2j * s
    pxx, pyy = p[:n, :n], p[n:, n:]
    return GaussianKernel._trusted(amplitude, (pxx + pxx.T) / 2.0, p[:n, n:].copy(), (pyy + pyy.T) / 2.0,
                                   -1j * lin[:n], -1j * lin[n:], -1j * const)


def evolution_to_kernel(spec: EvolutionSpec) -> GaussianKernel:
    """Integral kernel of the quantized flow of a (possibly shifted) generator.

    The spec is certified at construction; the symbol's integrability is
    checked once, by quantize.  The amplitude carries the sign of the Mehler
    prefactor c = prod_j sech(lambda_j/2), with no sign freedom.
    The first call for a spec stores the kernel on it (the spec and the kernel
    are immutable), and every later call returns that kernel.  A symbol or
    kernel that overflows a float, as for a shift past about 1e154, is
    refused where it is built (ValueError), with no warning.  The
    formal kernel of a bare form is quantize(mehler_symbol(q), formal=True).
    """
    stored = vars(spec)
    if "_kernel" not in stored:
        sym = mehler_symbol(spec.q)
        stored["_kernel"] = quantize(two_sided_shift(spec.v, sym) if np.any(spec.v != 0) else sym)
    return stored["_kernel"]


def _cross_block_inverse(k: GaussianKernel) -> np.ndarray:
    """The inverse of pyx; DegenerateKernelError when its smallest singular value is below
    TOLERANCES["degenerate"] times max(|phi''|_F, 1), a norm taken past the overflow of its square."""
    pyx, hess = k.pxy.T, k.phase_hessian()
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(hess)
    if scale == np.inf:  # scaled by its largest real or imaginary part, phi'' has a finite |.|_F^2
        top = max(np.abs(hess.real).max(), np.abs(hess.imag).max())
        scale = top * np.linalg.norm(hess / top)
    smin = float(np.min(np.linalg.svd(pyx, compute_uv=False)))
    if smin <= tolerances()["degenerate"] * max(scale, 1.0):
        raise DegenerateKernelError(
            f"cross block of the phase is singular (smallest singular value {smin:.3e})"
        )
    return np.linalg.inv(pyx)


def kernel_transform(k: GaussianKernel) -> tuple[CanonicalTransform, np.ndarray]:
    """Canonical transform and affine shift generated by a kernel phase.

    The phase generates the graph relation (y, -phi'_y) -> (x, phi'_x);
    solving it for (x, xi) in terms of (y, eta) yields (x, xi) = K (y, eta)
    + w.  Returns (K, w).
    """
    n = k.n
    pyx_inv = _cross_block_inverse(k)
    mat = block2(-pyx_inv @ k.pyy, -pyx_inv, k.pxy - k.pxx @ pyx_inv @ k.pyy, -k.pxx @ pyx_inv)
    w = np.concatenate([-pyx_inv @ k.ly, k.lx - k.pxx @ pyx_inv @ k.ly])
    return CanonicalTransform(mat), w


def kernel_shift_vector(k: GaussianKernel) -> np.ndarray:
    """Centered shift v with affine part w = (1 - K) v."""
    return _centered_shift(*kernel_transform(k))


def _centered_shift(trans: CanonicalTransform, w: np.ndarray) -> np.ndarray:
    """The v of (1 - K) v = w; QuadflowError when K has eigenvalue 1."""
    try:
        return np.linalg.solve(np.eye(len(w)) - trans.matrix, w)
    except np.linalg.LinAlgError as exc:
        raise QuadflowError("flow has eigenvalue 1; kernel has no centered shift") from exc


def kernel_to_evolution(k: GaussianKernel) -> tuple[EvolutionSpec, complex]:
    """Recover generator, shift, and scalar factor from a nondegenerate kernel.

    Returns (spec, c) with K = c * kernel(evolution_to_kernel(spec))
    pointwise.  For the kernel of a quantized flow c = +-1: the generator
    is the principal logarithm, which reduces the rotated family's t1 mod
    2 pi into (-pi, pi], and each 2 pi wrap flips the Mehler prefactor.
    Requires Im phi'' positive definite, checked here; the recovered flow is
    certified by EvolutionSpec.  c is the ratio of the two kernels at the
    origin, taken from amplitudes and constant phases so it cannot underflow;
    QuadflowError when it overflows.
    The kernel of spec built for c stays stored on spec, so a later
    evolution_to_kernel(spec) returns it without quantizing again.
    """
    margin = k.nondegeneracy_margin()
    if margin <= 0.0:
        raise QuadflowError(f"kernel is degenerate: Im phi'' has eigenvalues down to {margin:.6g}")
    trans, w = kernel_transform(k)
    spec = EvolutionSpec(canonical_log(trans), _centered_shift(trans, w))
    p = evolution_to_kernel(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a factor past the float range refuses below
        c = (k.amplitude / p.amplitude) * np.exp(1j * (k.c0 - p.c0)) if p.amplitude else np.inf
    if not np.isfinite(c):
        raise QuadflowError("the scalar factor c overflows a float: the rebuilt kernel underflows at the origin")
    return spec, c


def kernel_adjoint(k: GaussianKernel) -> GaussianKernel:
    """Kernel of the adjoint operator, conj(K(y, x))."""
    pxy = np.ascontiguousarray(-np.conj(k.pxy.T))
    return GaussianKernel._trusted(np.conj(k.amplitude), -np.conj(k.pyy), pxy, -np.conj(k.pxx),
                                   -np.conj(k.ly), -np.conj(k.lx), -np.conj(k.c0))


@np.errstate(over="ignore", invalid="ignore")
def kernel_compose(k1: GaussianKernel, k2: GaussianKernel) -> GaussianKernel:
    """Kernel of the operator product, integrating out the middle variable.

    int K1(x, m) K2(m, y) dm is a Gaussian integral over the inner variable m
    with the outer variables (x, y), its exponent (i/2) times the phase
    Hessian.  gauss_integrate requires Im(p1yy + p2xx) positive definite, to
    twice TOLERANCES["definite"], so the middle integral converges.
    """
    if k1.n != k2.n:
        raise ValueError("kernel dimensions differ")
    zero = np.zeros((k1.n, k1.n))
    s, lin, const, log_pref = gauss_integrate(
        0.5j * block2(k1.pxx, zero, zero, k2.pyy), 0.5j * np.vstack([k1.pxy, k2.pxy.T]),
        0.5j * (k1.pyy + k2.pxx), 1j * np.concatenate([k1.lx, k2.ly]), 1j * (k1.ly + k2.lx),
        "middle integral of the composition")
    amplitude = k1.amplitude * k2.amplitude * np.exp(log_pref)
    return _kernel_of_exponent(amplitude, s, lin, const + 1j * (k1.c0 + k2.c0))


@np.errstate(over="ignore", invalid="ignore")
def kernel_left_shift(s: ShiftOp, k: GaussianKernel) -> GaussianKernel:
    """Kernel of (phase * S_v) composed after the operator of k.

    Valid pointwise for complex v by analytic continuation of the phase.
    """
    n = k.n
    vx, vxi = s.v[:n], s.v[n:]
    return GaussianKernel._trusted(
        amplitude=k.amplitude * s.phase,
        pxx=k.pxx,
        pxy=k.pxy,
        pyy=k.pyy,
        lx=k.lx - k.pxx @ vx + vxi,
        ly=k.ly - k.pxy.T @ vx,
        c0=k.c0 + 0.5 * vx @ k.pxx @ vx - k.lx @ vx - 0.5 * vx @ vxi,
    )


def kernel_right_shift(s: ShiftOp, k: GaussianKernel) -> GaussianKernel:
    """Kernel of the operator of k composed after (phase * S_v).

    (T S_v)^T = S_v^T T^T with S_v^T = S_v' for v' = (-v_x, v_xi), and T^T
    has the kernel K(y, x); so this is the left shift by v' of the
    exchanged kernel, exchanged back.
    """
    n = k.n
    flipped = ShiftOp(np.concatenate([-s.v[:n], s.v[n:]]), s.phase)
    return _exchanged(kernel_left_shift(flipped, _exchanged(k)))


def _exchanged(k: GaussianKernel) -> GaussianKernel:
    """The kernel K(y, x): x and y exchanged."""
    return GaussianKernel._trusted(k.amplitude, k.pyy, k.pxy.T, k.pxx, k.ly, k.lx, k.c0)


def real_shift_conjugate(a2: np.ndarray, k: GaussianKernel, a1: np.ndarray) -> GaussianKernel:
    """Kernel of S_{a2} T S_{a1}^* for real shift vectors a1, a2."""
    a1 = np.asarray(a1, dtype=float).reshape(2 * k.n)
    a2 = np.asarray(a2, dtype=float).reshape(2 * k.n)
    # S_{a1}^* = S_{-a1} for real a1
    shifted = kernel_right_shift(ShiftOp(-a1.astype(complex)), k)
    return kernel_left_shift(ShiftOp(a2.astype(complex)), shifted)


def random_nondegenerate(n: int, rng: np.random.Generator) -> GaussianKernel:
    """Random nondegenerate Gaussian kernel with well-conditioned cross block."""
    for _ in range(64):
        r = rng.standard_normal((2 * n, 2 * n))
        im = r @ r.T / (2 * n) + 0.3 * np.eye(2 * n)
        re = rng.standard_normal((2 * n, 2 * n))
        re = (re + re.T) / 2.0
        hess = re + 1j * im
        pxy = hess[:n, n:]
        if np.min(np.linalg.svd(pxy, compute_uv=False)) > 0.05:
            break
    else:
        raise QuadflowError("failed to draw a well-conditioned kernel")
    l = _SHIFT_SCALE * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))
    amp = np.exp(0.3 * (rng.standard_normal() + 1j * rng.standard_normal()))
    return GaussianKernel(
        amplitude=amp,
        pxx=hess[:n, :n],
        pxy=pxy,
        pyy=hess[n:, n:],
        lx=l[:n],
        ly=l[n:],
        c0=0.0,
    )


@dataclass(eq=False, frozen=True)
class PolynomialKernel:
    """Kernel of a degree-2 Weyl operator multiplied against a Gaussian kernel.

    side="left" is a^w T (polynomial acts on the outgoing variable),
    side="right" is T a^w (polynomial acts on the incoming variable).
    The kernel is the Gaussian kernel times an explicit quadratic bracket.
    Immutable, as its base kernel and polynomial are.
    """

    base: GaussianKernel
    poly: PolynomialSymbol
    side: str

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The quadratic bracket at (x, y).

        The right side is the left formula taken at y, with -phi'_y in place
        of phi'_x and the sign of tr S_xxi flipped.
        """
        n, k, p = self.base.n, self.base, self.poly
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        sxx, sxxi, sxixi = p.s[:n, :n], p.s[:n, n:], p.s[n:, n:]
        if self.side == "left":
            z, g, pzz, tr_sxxi = x, x @ k.pxx.T + y @ k.pxy.T + k.lx, k.pxx, np.trace(sxxi)
        else:
            z, g, pzz, tr_sxxi = y, -(x @ k.pxy + y @ k.pyy.T + k.ly), k.pyy, -np.trace(sxxi)
        return (
            p.c0
            + z @ p.lam[:n]
            + g @ p.lam[n:]
            + np.einsum("...i,ij,...j->...", z, sxx, z)
            + 2.0 * np.einsum("...i,ij,...j->...", z, sxxi, g)
            + np.einsum("...i,ij,...j->...", g, sxixi, g)
            - 1j * (tr_sxxi + np.trace(sxixi @ pzz))
        )

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.base(x, y) * self.bracket(x, y)


def apply_polynomial(poly: PolynomialSymbol, k: GaussianKernel, side: str) -> PolynomialKernel:
    """Kernel of a^w T (side="left") or T a^w (side="right"), exactly."""
    if poly.n != k.n:
        raise ValueError("dimension mismatch between polynomial and kernel")
    return PolynomialKernel(base=k, poly=poly, side=side)
