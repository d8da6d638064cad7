"""Weyl symbol calculus for Gaussian and degree-2 polynomial symbols.

A Gaussian symbol is a(z) = c * exp(z . (G z) + l . z) with G complex
symmetric; the quantized flow of a strictly positive generator has a symbol
of this shape.  The module provides the closed-form symbol of a quantized
flow, the sharp product of two Gaussian symbols, the action of phase-space
shifts on symbols, the crossing relations that move a shift from one side
of an evolution to the other, and exact degree-2 polynomial symbols.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES
from .errors import SymbolConvergenceError
from .positivity import mehler_integrable
from .symplectic import (
    CanonicalTransform,
    QuadraticForm,
    cayley,
    gauss_logdet,
    hamilton_matrix,
    herm_max_eig,
    sigma_transpose,
    standard_j,
    symplectic_form,
)


@dataclass(eq=False)
class GaussianSymbol:
    """Symbol a(z) = c * exp(z . (G z) + l . z), G complex symmetric (2n x 2n)."""

    c: complex
    g: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=complex)
        self.g = (self.g + self.g.T) / 2.0
        self.l = np.asarray(self.l, dtype=complex).reshape(self.g.shape[0])
        self.c = complex(self.c)

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    def __call__(self, z: np.ndarray):
        # accepts a single point (2n,) or a batch (..., 2n)
        z = np.asarray(z, dtype=complex)
        quad = np.einsum("...i,ij,...j->...", z, self.g, z)
        return self.c * np.exp(quad + z @ self.l)


def mehler_symbol(q: QuadraticForm, formal: bool = False) -> GaussianSymbol:
    """Closed-form Weyl symbol of the quantized time-1 flow of q.

    c = prod_j sech(lambda_j/2) over the eigenvalue pairs +-lambda_j of H_q,
    the square root of det cosh(H_q/2)^{-1} continuous in time, with no sign
    freedom; G = -i J tanh(H_q/2), l = 0.
    Certified mode requires the symbol to be integrable (flow spectrum away
    from -1 and Gaussian decay); formal=True skips only that certification
    and still demands the cosh factor be invertible.
    """
    h = hamilton_matrix(q)
    k = q.transform
    n = q.n
    eigs_h = np.linalg.eigvals(h / 2.0)
    if np.min(np.abs(np.cosh(eigs_h))) < 1e-12:
        raise SymbolConvergenceError("cosh factor vanishes; no closed-form symbol")
    if not formal and not mehler_integrable(k):
        raise SymbolConvergenceError(
            "symbol is not integrable for this flow; pass formal=True to "
            "compute it anyway"
        )
    g = 1j * standard_j(n) @ cayley(k.matrix)
    # one eigenvalue of each +-lambda_j pair, matched to the nearest negative; no
    # log, whose cut the two rounded cosh values of a pair could straddle
    rest, half = list(eigs_h), []
    while rest:
        half.append(rest.pop())
        rest.pop(int(np.argmin(np.abs(np.add(rest, half[-1])))))
    c = 1.0 / np.prod(np.cosh(half))
    return GaussianSymbol(c=complex(c), g=g, l=np.zeros(2 * n))


def symbol_transform(sym: GaussianSymbol) -> np.ndarray:
    """Recover tanh(H_q/2) from a centered symbol: T = -i J^{-1} ... = i J G."""
    # G = -i J T  =>  T = -i J G  (J^2 = -1)
    return -1j * standard_j(sym.n) @ sym.g


def weyl_sharp(a: GaussianSymbol, b: GaussianSymbol) -> GaussianSymbol:
    """Sharp (Moyal) product of two Gaussian symbols, closed form.

    c(z) = pi^{-2n} iint a(z+u) b(z+w) exp(-2 i sigma(u, w)) du dw, evaluated
    by completing the square in the joint (u, w) variables.  Requires both
    symbols to have negative definite real exponent parts; otherwise the
    integral diverges and SymbolConvergenceError is raised.
    """
    if a.n != b.n:
        raise ValueError("symbol dimensions differ")
    n = a.n
    tol = TOLERANCES["definite"]
    for sym, name in ((a, "left"), (b, "right")):
        if herm_max_eig(sym.g) >= -tol:
            raise SymbolConvergenceError(
                f"{name} symbol lacks Gaussian decay; sharp product integral diverges"
            )
    j = standard_j(n)
    m = np.block([[a.g, -1j * j], [1j * j, b.g]])
    p = np.vstack([2.0 * a.g, 2.0 * b.g])
    l0 = np.concatenate([a.l, b.l])
    m_inv = np.linalg.inv(m)
    # integral of exp(zeta.M zeta + L.zeta) over R^{4n}:
    #   pi^{2n} det(-M)^{-1/2} exp(-L.(M^{-1} L)/4)
    logdet = gauss_logdet(-m)
    g = a.g + b.g - 0.25 * p.T @ m_inv @ p
    l = a.l + b.l - 0.5 * p.T @ m_inv @ l0
    c = a.c * b.c * np.exp(-0.5 * logdet) * np.exp(-0.25 * l0 @ m_inv @ l0)
    return GaussianSymbol(c=complex(c), g=g, l=l)


def two_sided_shift(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of (shift by v) . a^w . (shift by v)^{-1}, i.e. a(z - v)."""
    v = np.asarray(v, dtype=complex).reshape(2 * a.n)
    c = a.c * np.exp(v @ a.g @ v - a.l @ v)
    return GaussianSymbol(c=c, g=a.g, l=a.l - 2.0 * a.g @ v)


def shift_left(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of (shift by v) . a^w: a(z - v/2) exp(-i sigma(z, v))."""
    v = np.asarray(v, dtype=complex).reshape(2 * a.n)
    j = standard_j(a.n)
    c = a.c * np.exp(0.25 * (v @ a.g @ v) - 0.5 * (a.l @ v))
    l = a.l - a.g @ v - 1j * (j @ v)
    return GaussianSymbol(c=c, g=a.g, l=l)


def shift_right(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of a^w . (shift by v)^{-1}: a(z - v/2) exp(+i sigma(z, v))."""
    v = np.asarray(v, dtype=complex).reshape(2 * a.n)
    j = standard_j(a.n)
    c = a.c * np.exp(0.25 * (v @ a.g @ v) - 0.5 * (a.l @ v))
    l = a.l - a.g @ v + 1j * (j @ v)
    return GaussianSymbol(c=c, g=a.g, l=l)


@dataclass(eq=False)
class ShiftOp:
    """Phase-space shift operator with a scalar prefactor.

    Acts as phase * exp(i v_xi . x - i v_x . v_xi / 2) u(x - v_x); the
    composition law below tracks the symplectic cocycle.
    """

    v: np.ndarray
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex).reshape(-1)
        if self.v.shape[0] % 2:
            raise ValueError("shift vector must have even length")
        self.phase = complex(self.phase)

    @property
    def n(self) -> int:
        return self.v.shape[0] // 2


def shift_compose(s1: ShiftOp, s2: ShiftOp) -> ShiftOp:
    """Product S_{v1} S_{v2} = exp(i sigma(v1, v2) / 2) S_{v1 + v2}."""
    factor = np.exp(0.5j * symplectic_form(s1.v, s2.v))
    return ShiftOp(v=s1.v + s2.v, phase=s1.phase * s2.phase * factor)


def shift_inverse(s: ShiftOp) -> ShiftOp:
    return ShiftOp(v=-s.v, phase=1.0 / s.phase)


def shift_adjoint(s: ShiftOp) -> ShiftOp:
    """Adjoint: S_v^* = S_{-conj(v)} (equals S_v^{-1} exactly for real v)."""
    return ShiftOp(v=-np.conj(s.v), phase=np.conj(s.phase))


def shift_symbol(s: ShiftOp) -> GaussianSymbol:
    """Weyl symbol of a real shift: phase * exp(-i sigma(z, v)); real v only."""
    if np.max(np.abs(s.v.imag)) > 1e-12 * (1.0 + np.max(np.abs(s.v))):
        raise ValueError("only real shifts have bounded Weyl symbols")
    j = standard_j(s.n)
    return GaussianSymbol(c=s.phase, g=np.zeros((2 * s.n, 2 * s.n)),
                          l=-1j * (j @ s.v.real))


@dataclass(frozen=True)
class CrossingData:
    """Shift vectors and scalar factors moving a shift across an evolution.

    With K the time-1 flow of q, conjugation of the quantized flow by the
    shift S_v satisfies
      S_v E S_v^{-1} = factor_u * E S_u^{-1} = factor_w * S_w E,
    u = (1 - K^{-1}) v,  w = (1 - K) v.
    """

    u: np.ndarray
    w: np.ndarray
    factor_u: complex
    factor_w: complex


def crossing(k: CanonicalTransform, v: np.ndarray) -> CrossingData:
    v = np.asarray(v, dtype=complex).reshape(2 * k.n)
    eye = np.eye(2 * k.n)
    u = (eye - sigma_transpose(k.matrix)) @ v
    w = (eye - k.matrix) @ v
    return CrossingData(
        u=u,
        w=w,
        factor_u=complex(np.exp(0.5j * symplectic_form(u, v))),
        factor_w=complex(np.exp(0.5j * symplectic_form(v, w))),
    )


@dataclass(eq=False)
class PolynomialSymbol:
    """Exact degree-2 polynomial symbol a(z) = c0 + lam . z + z . (S z)."""

    c0: complex
    lam: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=complex)
        self.s = (self.s + self.s.T) / 2.0
        self.lam = np.asarray(self.lam, dtype=complex).reshape(self.s.shape[0])
        self.c0 = complex(self.c0)

    @property
    def n(self) -> int:
        return self.s.shape[0] // 2

    def __call__(self, z: np.ndarray) -> complex:
        z = np.asarray(z, dtype=complex)
        return self.c0 + self.lam @ z + z @ self.s @ z


def polynomial_pullback(poly: PolynomialSymbol, k: CanonicalTransform) -> PolynomialSymbol:
    """Composition a(K^{-1} z) as an exact polynomial symbol."""
    kinv = sigma_transpose(k.matrix)
    return PolynomialSymbol(
        c0=poly.c0,
        lam=kinv.T @ poly.lam,
        s=kinv.T @ poly.s @ kinv,
    )
