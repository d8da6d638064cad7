"""Weyl symbol calculus for Gaussian and degree-2 polynomial symbols.

A Gaussian symbol is a(z) = c * exp(z . (G z) + l . z) with G complex
symmetric; the quantized flow of a strictly positive generator has a symbol
of this shape.  The module provides the closed-form symbol of a quantized
flow, the sharp product of two Gaussian symbols, the action of phase-space
shifts on symbols, the crossing relations that move a shift from one side
of an evolution to the other, and exact degree-2 polynomial symbols.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SymbolConvergenceError
from .symplectic import (
    CanonicalTransform,
    QuadraticForm,
    _check_square_even,
    _j_times,
    _times_j,
    block2,
    cayley,
    gauss_integrate,
    hamilton_matrix,
    require_finite,
    set_frozen,
    shift_vector,
    sigma_transpose,
    standard_j,
    symmetrize,
    symplectic_form,
)


@dataclass(eq=False, frozen=True)
class GaussianSymbol:
    """Symbol a(z) = c * exp(z . (G z) + l . z), G complex symmetric (2n x 2n).

    Immutable, g and l read-only and written by no one, so one symbol can be
    shared.  The constructor checks outside input (shapes, symmetry of g,
    finiteness); the symbols the package builds get _trusted's finiteness check.
    """

    c: complex
    g: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        _check_square_even(g, "g")
        c, l = complex(self.c), np.asarray(self.l, dtype=complex).reshape(g.shape[0]).copy()
        require_finite(c=c, l=l)
        set_frozen(self, c=c, g=symmetrize(g, "g"), l=l)

    @classmethod
    def _trusted(cls, c, g, l) -> "GaussianSymbol":
        """A symbol of complex arrays no one else writes, g exactly symmetric; finite, or ValueError."""
        sym, c = object.__new__(cls), complex(c)
        if not np.isfinite(np.concatenate([g.ravel(), l, [c]])).all():
            raise ValueError("the symbol has non-finite entries: it overflows a float")
        set_frozen(sym, c=c, g=g, l=l)
        return sym

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    def __call__(self, z: np.ndarray):
        # accepts a single point (2n,) or a batch (..., 2n)
        z = np.asarray(z, dtype=complex)
        quad = np.einsum("...i,ij,...j->...", z, self.g, z)
        return self.c * np.exp(quad + z @ self.l)


def mehler_symbol(q: QuadraticForm) -> GaussianSymbol:
    """Closed-form Weyl symbol of the quantized time-1 flow of q.

    c = prod_j sech(lambda_j/2) over the eigenvalue pairs +-lambda_j of H_q,
    the square root of det cosh(H_q/2)^{-1} continuous in time, with no sign
    freedom; G = -i J tanh(H_q/2), l = 0.
    Only the cosh factor is checked here: the formula for c needs it
    invertible.  Integrability of the symbol (Gaussian decay) is checked
    where an integral over it is taken, in quantize and weyl_sharp; for a
    strictly positive flow it always holds.
    The symbol is computed on the first call for a form and stored on it, as
    q.transform is; later calls return that same immutable symbol.  A call
    that raises stores nothing.
    """
    stored = vars(q)  # where functools.cached_property keeps q.transform
    if "_mehler_symbol" not in stored:
        stored["_mehler_symbol"] = _mehler(q)
    return stored["_mehler_symbol"]


def _mehler(q: QuadraticForm) -> GaussianSymbol:
    """The formula of mehler_symbol, run once per form."""
    eigs_h = np.linalg.eigvals(hamilton_matrix(q) / 2.0)
    if np.min(np.abs(np.cosh(eigs_h))) < 1e-12:
        raise SymbolConvergenceError("cosh factor vanishes; no closed-form symbol")
    g = 1j * _j_times(cayley(q.transform.matrix))  # symmetric up to rounding
    # one eigenvalue of each +-lambda_j pair, matched to the nearest negative; no
    # log, whose cut the two rounded cosh values of a pair could straddle
    rest, half = list(eigs_h), []
    while rest:
        half.append(rest.pop())
        rest.pop(int(np.argmin(np.abs(np.add(rest, half[-1])))))
    c = 1.0 / np.prod(np.cosh(half))
    return GaussianSymbol._trusted(c, (g + g.T) / 2.0, np.zeros(2 * q.n, dtype=complex))


def symbol_transform(sym: GaussianSymbol) -> np.ndarray:
    """Recover tanh(H_q/2) from a centered symbol: T = -i J^{-1} ... = i J G."""
    # G = -i J T  =>  T = -i J G  (J^2 = -1)
    return -1j * _j_times(sym.g)


@np.errstate(over="ignore", invalid="ignore")  # a result past the float range is refused by _trusted
def weyl_sharp(a: GaussianSymbol, b: GaussianSymbol) -> GaussianSymbol:
    """Sharp (Moyal) product of two Gaussian symbols, closed form.

    c(z) = pi^{-2n} iint a(z+u) b(z+w) exp(-2 i sigma(u, w)) du dw, a Gaussian
    integral over the inner variables (u, w) with the outer variable z.  It
    converges when the Hermitian part of block2(a.g, -iJ, iJ, b.g), which is
    blockdiag(Re a.g, Re b.g), is negative definite, that is when both
    symbols have Gaussian decay; gauss_integrate checks it and raises
    SymbolConvergenceError otherwise.
    """
    if a.n != b.n:
        raise ValueError("symbol dimensions differ")
    j = standard_j(a.n)
    g, l, const, log_pref = gauss_integrate(
        a.g + b.g, np.hstack([a.g, b.g]), block2(a.g, -1j * j, 1j * j, b.g),
        a.l + b.l, np.concatenate([a.l, b.l]), "sharp product integral")
    c = a.c * b.c * np.pi ** (-2 * a.n) * np.exp(log_pref) * np.exp(const)
    return GaussianSymbol._trusted(c, (g + g.T) / 2.0, l)


@np.errstate(over="ignore", invalid="ignore")
def two_sided_shift(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of (shift by v) . a^w . (shift by v)^{-1}, i.e. a(z - v)."""
    v = shift_vector(v, a.n)
    c = a.c * np.exp(v @ a.g @ v - a.l @ v)
    return GaussianSymbol._trusted(c, a.g, a.l - 2.0 * a.g @ v)


def shift_left(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of (shift by v) . a^w: a(z - v/2) exp(-i sigma(z, v))."""
    return _shifted(v, a, left=True)


def shift_right(v: np.ndarray, a: GaussianSymbol) -> GaussianSymbol:
    """Symbol of a^w . (shift by v)^{-1}: a(z - v/2) exp(+i sigma(z, v))."""
    return _shifted(v, a, left=False)


@np.errstate(over="ignore", invalid="ignore")
def _shifted(v: np.ndarray, a: GaussianSymbol, left: bool) -> GaussianSymbol:
    """a(z - v/2) exp(-+i sigma(z, v)), the minus sign for a shift on the left."""
    v = shift_vector(v, a.n)
    c = a.c * np.exp(0.25 * (v @ a.g @ v) - 0.5 * (a.l @ v))
    l, turn = a.l - a.g @ v, -1j * _times_j(v)  # i J v
    return GaussianSymbol._trusted(c, a.g, l - turn if left else l + turn)


@dataclass(eq=False, frozen=True)
class ShiftOp:
    """Phase-space shift operator with a scalar prefactor.

    Acts as phase * exp(i v_xi . x - i v_x . v_xi / 2) u(x - v_x); the
    composition law below tracks the symplectic cocycle.  Immutable, v a
    read-only copy of the shift given; v and phase must be finite.
    """

    v: np.ndarray
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if np.size(self.v) % 2:
            raise ValueError("shift vector must have even length")
        v, phase = shift_vector(self.v, np.size(self.v) // 2), complex(self.phase)
        require_finite(phase=phase)
        set_frozen(self, v=v.copy(), phase=phase)

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
    return GaussianSymbol(c=s.phase, g=np.zeros((2 * s.n, 2 * s.n)),
                          l=1j * _times_j(s.v.real))  # -i J v


@dataclass(eq=False, frozen=True)
class CrossingData:
    """Shift vectors and scalar factors moving a shift across an evolution.

    With K the time-1 flow of q, conjugation of the quantized flow by the
    shift S_v satisfies
      S_v E S_v^{-1} = factor_u * E S_u^{-1} = factor_w * S_w E,
    u = (1 - K^{-1}) v,  w = (1 - K) v.  Immutable, u and w read-only copies.
    """

    u: np.ndarray
    w: np.ndarray
    factor_u: complex
    factor_w: complex

    def __post_init__(self):
        set_frozen(self, u=np.array(self.u), w=np.array(self.w))


def crossing(k: CanonicalTransform, v: np.ndarray) -> CrossingData:
    v = shift_vector(v, k.n)
    eye = np.eye(2 * k.n)
    u = (eye - sigma_transpose(k.matrix)) @ v
    w = (eye - k.matrix) @ v
    return CrossingData(
        u=u,
        w=w,
        factor_u=complex(np.exp(0.5j * symplectic_form(u, v))),
        factor_w=complex(np.exp(0.5j * symplectic_form(v, w))),
    )


@dataclass(eq=False, frozen=True)
class PolynomialSymbol:
    """Exact degree-2 polynomial symbol a(z) = c0 + lam . z + z . (S z).

    Immutable, lam and s read-only copies of the arrays given.
    """

    c0: complex
    lam: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        _check_square_even(s, "s")
        s = symmetrize(s, "s")
        c0, lam = complex(self.c0), np.asarray(self.lam, dtype=complex).reshape(s.shape[0]).copy()
        require_finite(c0=c0, lam=lam)
        set_frozen(self, c0=c0, lam=lam, s=s)

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
