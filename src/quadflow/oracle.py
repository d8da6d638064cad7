"""Brute-force grid oracle: midpoint discretization of Gaussian kernels.

The oracle turns a kernel into a matrix on a symmetric box grid and extracts
operator norms and traces directly, with no knowledge of the closed-form
theory.  It exists to cross-check every analytic claim in the package; keep
it simple and independent.

It reads only the kernel's quadratic phase.  Each build certifies the tail
of its own kernel on the grid before it allocates.  At n = 1 the matrix is
dense, built in place in one complex buffer of 16 N^2 bytes for N points
(5.5 MiB at N = 600).  At n = 2 it is never formed: the kernel is first
taken in its own y axes, K'(x, y) = K(S x, S y) with S the eigenvectors of
Im pyy, which keeps norms and traces.  Its phase blocks then pick one of two
layouts.  When pxx, pxy and pyy are all diagonal the kernel is separable,
K(x, y) = K1(x1, y1) K2(x2, y2): two one-mode builds, each certified on the
axis from O(N) maxima, give the N x N matrices of a KroneckerGridMatrix,
32 N^2 bytes (0.3 MiB at N = 101), which is read through them and never
applied to a vector.  Every other kernel takes a FactoredGridMatrix: two
per-axis Gaussian factors of modulus at most 1, N^2 x N each, and two
diagonals, 32 N^3 bytes (33 MiB at N = 101), with products of N^4 flops.
An off-diagonal Im pxx or Im pyy makes the tail certificate take about
40 N^3 bytes of temporaries.  The dense matrix at N = 101 would take
1.55 GiB.

The one-mode matrix takes N^2 real exponentials for its modulus and only
4N - 1 complex ones for its phase.  Entries below the smallest normal float
become exact zeros, as in the two-mode factors, since a subnormal entry
slows every product it enters; both builds run one flush certificate as
they exponentiate, which refuses a flushed entry not below _EPS_TAIL times
the peak.  The operator norm is one Golub-Kahan bidiagonalization for dense
and factored matrices alike: products with M and M* (the latter without a
conjugated copy), no reorthogonalization, one preallocated bidiagonal, and
a stop when the residual of the top Ritz pair certifies the estimate.  It
starts from the row of M where M c peaks, c a fixed chirp, plus 1e-6 c: the
row lies close to the top singular vector of a smooth kernel matrix, and
the chirp term finds a top vector that the row misses but c does not.  The
norm of A1 kron A2 is |A1| |A2|, two such runs on N x N matrices, each
stopped at a third of the relative residual so that the product's Ritz pair
is certified to the same bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError
from .kernels import GaussianKernel

# grid size caps per dimension, on automatic and user grids alike: a dense
# matrix of 16 N^2 bytes at n = 1; at n = 2, factors of 32 N^2 bytes for a
# separable kernel or 32 N^3 bytes for any other (53 MiB at the cap).  The tail
# certificate of a kernel whose Im pxx or Im pyy has an off-diagonal entry
# takes about 40 N^3 bytes of temporaries (40 MiB at N = 101, 67 MiB at the cap)
_MAX_POINTS = {1: 600, 2: 120}
_MIN_POINTS = 64
_EPS_TAIL = 1e-12
_MIN_DECAY = 1e-4
_NORM_REL_TOL = 1e-10  # residual, relative to the estimate, at which the norm stops
_NORM_MAX_STEPS = 200  # Golub-Kahan steps before ConvergenceError
_NORM_START_GUARD = 1e-6  # weight of the chirp in the Golub-Kahan start vector
_BLOCK_ENTRIES = 1 << 14  # entries per block of the one-mode modulus: N = 101 in one block
# exp(x) overflows above _LOG_MAX, is subnormal (loses precision) below
# _LOG_NORMAL and leaves no nonzero float below _LOG_TINY
_LOG_MAX = float(np.log(np.finfo(float).max))
_LOG_NORMAL = float(np.log(np.finfo(float).tiny))
_LOG_TINY = float(np.log(np.finfo(float).smallest_subnormal))


@dataclass(frozen=True)
class GridSpec:
    """Symmetric box grid [-L, L]^n with N points per axis."""

    n: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise GridError("grid oracle supports n = 1 and n = 2 only")
        if not _MIN_POINTS <= self.points <= _MAX_POINTS[self.n]:
            raise GridError(f"need {_MIN_POINTS} to {_MAX_POINTS[self.n]} points per axis at n = {self.n}, "
                            f"got {self.points}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise GridError(f"half width must be positive and finite, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def axis(self) -> np.ndarray:
        """The N points of one axis; read-only, built once per grid."""
        return self._axis

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (N^n, n) array, axis-major order; read-only, built once per grid."""
        return self._nodes

    @functools.cached_property
    def _axis(self) -> np.ndarray:
        ax = np.linspace(-self.half_width, self.half_width, self.points)
        ax.flags.writeable = False
        return ax

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        ax = self.axis()
        if self.n == 1:
            return ax[:, None]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        nodes = np.column_stack([xx.ravel(), yy.ravel()])
        nodes.flags.writeable = False
        return nodes


def _envelope(k: GaussianKernel) -> tuple[np.ndarray, float]:
    """Phase Hessian and smallest decay rate of the kernel's Gaussian envelope.

    Raises GridError for a mode count the oracle does not support and for an
    envelope that decays more slowly than _MIN_DECAY.  Computed on the first
    call for a kernel and stored on it (the kernel is immutable, the stored
    Hessian read-only), so auto_grid and _check_range share it; a refusal
    stores nothing.
    """
    stored = vars(k)
    if "_envelope" not in stored:
        if k.n not in _MAX_POINTS:
            raise GridError("grid oracle supports n = 1 and n = 2 only")
        hess = k.phase_hessian()
        lam_min = float(np.min(np.linalg.eigvalsh(hess.imag)))
        if lam_min < _MIN_DECAY:
            raise GridError(
                f"kernel envelope decays too slowly for the oracle "
                f"(smallest Im phi'' eigenvalue {lam_min:.3e} < {_MIN_DECAY:.0e})"
            )
        hess.flags.writeable = False
        stored["_envelope"] = hess, lam_min
    return stored["_envelope"]


def auto_grid(k: GaussianKernel) -> GridSpec:
    """Choose a grid from the kernel's Gaussian envelope and phase frequency.

    L covers the envelope down to _EPS_TAIL.  h = min(0.02 L, max(h_grad, h_env)), where
    h_grad = pi / (4 f), f the phase gradient at the box corner, and h_env = 2 pi / k_max
    each resolve the real phase: no grid is finer than h_grad gives, and Re phi'' = 0 = Re l
    keeps h = 0.02 L.  k_max bounds, to _EPS_TAIL, the x and y frequencies of K relative to
    their peak (rotation invariants of the n x n blocks of its _fourier_envelope) and those
    of the diagonal K(x, x) relative to |f^(0)|, the integral that grid_trace takes.  N is
    clamped to the caps; discretize() certifies the tail on the grid.  Raises GridError when
    f or k_max is not a finite float, as when the linear terms are too large to square.
    """
    hess, lam_min = _envelope(k)
    n, log_tail = k.n, np.log(1.0 / _EPS_TAIL)
    half_width = max(6.0, float(np.sqrt(2.0 * log_tail / lam_min)))
    lin = np.concatenate([k.lx, k.ly])
    with np.errstate(over="ignore", invalid="ignore"):
        max_freq = float(
            np.linalg.norm(hess.real, 2) * np.sqrt(2 * n) * half_width + np.linalg.norm(lin.real)
        )
        cov, k_c = _fourier_envelope(hess, lin)
        k_max = max(np.linalg.norm(k_c[b]) + np.sqrt(2.0 * log_tail * np.linalg.eigvalsh(cov[b, b])[-1])
                    for b in (slice(0, n), slice(n, None)))
        cov, k_c = _fourier_envelope(k.pxx + k.pxy + k.pxy.T + k.pyy, k.lx + k.ly)  # of K(x, x)
        decay = 2.0 * log_tail + k_c @ np.linalg.solve(cov, k_c)  # |f^| < _EPS_TAIL |f^(0)| past k_max
        k_diag = np.linalg.norm(k_c) + np.sqrt(decay * np.linalg.eigvalsh(cov)[-1])
    if not np.isfinite([max_freq, k_max, k_diag]).all():
        raise GridError("the phase frequencies of this kernel overflow a float: no grid resolves it")
    k_max = max(k_max, k_diag)
    h_grad = np.pi / (4.0 * max_freq) if max_freq > 0.0 else np.inf
    h_bound = min(0.02 * half_width, max(h_grad, 2.0 * np.pi / k_max))
    points = int(np.ceil(2.0 * half_width / h_bound)) + 1
    points = min(max(points, _MIN_POINTS), _MAX_POINTS[n])
    return GridSpec(n=n, half_width=half_width, points=points)


def _fourier_envelope(phi: np.ndarray, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For f(z) = exp(i z.phi z / 2 + i lin.z), phi = R + iA, |f^| is a Gaussian: its
    covariance A + R A^-1 R and its centre Re lin - R A^-1 Im lin."""
    sol = np.linalg.solve(phi.imag, np.column_stack([phi.real, lin.imag]))
    return phi.imag + phi.real @ sol[:, :-1], lin.real - phi.real @ sol[:, -1]


class FactoredGridMatrix:
    """Two-mode grid matrix M[m, j] = dx[m] g1[m, j1] g2[m, j2] dy[j], never formed.

    The grid lives in the kernel's own y axes: node x_m stands for the point
    ``rotation @ x_m``, and M is the matrix of K'(x, y) = K(S x, S y) with
    S = ``rotation``, an orthogonal matrix taken on both sides, so norms,
    singular values and the trace are those of K's matrix on the rotated
    grid.  m = (m1, m2) is an output node and j = (j1, j2) an input node,
    both in axis-major order.  The factor g_b, of shape (N^2, N), carries
    axis b's decay as a complete square and its coupling to the output
    node, and has modulus at most 1; dx carries the terms in x alone and
    the scale, dy the phases in y.  The two factors take 32 N^3 bytes, and
    M v and w M each cost one (N^2 x N)(N x N) matrix product.  A separable
    kernel takes KroneckerGridMatrix instead.  ``diagonal`` gives the
    trace.  That is all operator_norm and grid_trace use.
    """

    __array_ufunc__ = None  # ndarray @ FactoredGridMatrix defers to __rmatmul__

    def __init__(self, dx, g1, g2, dy, rotation):
        self.dx, self.g1, self.g2, self.dy, self.rotation = dx, g1, g2, dy, rotation
        self.shape = (dx.size, dy.size)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector v of N^2 entries."""
        points = self.g2.shape[1]
        u = (self.dy * v).reshape(points, points)  # u[j1, j2]
        return self.dx * np.einsum("mk,mk->m", self.g1, self.g2 @ u.T)

    def __rmatmul__(self, w: np.ndarray) -> np.ndarray:
        """w M for a vector w of N^2 entries."""
        return ((self.g1 * (w * self.dx)[:, None]).T @ self.g2).ravel() * self.dy

    def diagonal(self) -> np.ndarray:
        m = np.arange(self.dx.size)
        j1, j2 = np.divmod(m, self.g1.shape[1])
        return self.dx * self.g1[m, j1] * self.g2[m, j2] * self.dy


class KroneckerGridMatrix:
    """Two-mode grid matrix M = A1 kron A2 of a separable kernel, read through its factors.

    K(x, y) = K1(x1, y1) K2(x2, y2), so M[m, j] = a1[m1, j1] a2[m2, j2] for
    the output node m = (m1, m2) and the input node j = (j1, j2), both in
    axis-major order, with a_b the N x N one-mode matrix of K_b.  The two
    take 32 N^2 bytes.  M is never applied: operator_norm takes
    |M| = |a1| |a2| from the factors and grid_trace reads ``diagonal``.
    ``rotation`` is that of FactoredGridMatrix.
    """

    def __init__(self, a1: np.ndarray, a2: np.ndarray, rotation: np.ndarray):
        self.a1, self.a2, self.rotation = a1, a2, rotation
        self.shape = (a1.shape[0] * a2.shape[0], a1.shape[1] * a2.shape[1])

    def diagonal(self) -> np.ndarray:
        return np.multiply.outer(np.diagonal(self.a1), np.diagonal(self.a2)).ravel()


def discretize(k: GaussianKernel,
               grid: GridSpec | None = None) -> np.ndarray | FactoredGridMatrix | KroneckerGridMatrix:
    """Midpoint-rule matrix of the kernel: M[i, j] = K(x_i, x_j) h^n.

    Refuses an envelope that decays too slowly and a half width at which the
    terms of the phase would overflow (see _check_range).  Each build then
    certifies its own kernel on the grid before it allocates (see
    _certify_tail), and runs the flush certificate as it exponentiates:
    entries below the smallest normal float are exact zeros, and one that is
    not below _EPS_TAIL times the peak refuses.  Every refusal is a GridError.

    At n = 1 the matrix is dense, one (N, N) complex buffer: a modulus from
    real exponentials in blocks of rows times a phase from 4N - 1 complex
    exponentials (row, column and Toeplitz factors).  At n = 2 the kernel is
    first taken in its own y axes, K'(x, y) = K(S x, S y) with S the
    eigenvectors of Im pyy (S = I when Im pyy is diagonal), and the
    certificate and the matrix are those of K'.  The same S on both sides
    keeps norms and traces, and the automatic grid, which reads only
    rotation invariants, is chosen from K.  When pxx, pxy and pyy of K' are
    all diagonal, with exact zeros off the diagonal, K' is separable and the
    result is a KroneckerGridMatrix of two one-mode builds on
    GridSpec(1, L, N) (see _kronecker).  Otherwise it is a
    FactoredGridMatrix with (N^2, N) factors of modulus at most 1, 32 N^3
    bytes (33 MiB at N = 101; the dense matrix would take 16 N^4 bytes,
    1.55 GiB), whose certificate takes about 40 N^3 bytes when Im pxx or
    Im pyy has an off-diagonal entry.
    """
    if grid is not None and grid.n != k.n:
        raise GridError("grid dimension does not match the kernel")
    if grid is None:
        grid = auto_grid(k)
    _check_range(k, grid)
    if k.amplitude == 0:
        raise GridError("kernel vanishes identically on the grid")
    if grid.n == 1:
        return _one_mode(k, grid)
    k, rotation = _in_y_axes(k)
    if all(m[0, 1] == 0 and m[1, 0] == 0 for m in (k.pxx, k.pxy, k.pyy)):
        return _kronecker(k, grid, rotation)
    return _factored(k, grid, rotation)


def _check_range(k: GaussianKernel, grid: GridSpec) -> None:
    """Refuse a half width L at which a number formed from the phase overflows.

    On the box the builds and the certificate form sums of at most (2n)^2
    products x_i phi''_ij y_j, linear terms l.x with l = (lx, ly), c0,
    squared coordinate differences, and complete squares (y_b + u_b)^2 with
    u_b = ((Im pxy^T x)_b + Im ly_b) / c_b, where |u_b| <= n L
    sqrt(sum |phi''_ij| / lam_min) + |ly_b| / lam_min because Im phi'' is
    positive definite.  In any orthogonal frame each is below (2n)^2
    (sum |phi''_ij| + 1) W^2 / m + |c0|, m = min(1, lam_min), W = L +
    sum |l_i| / m, and that bound must be a finite float.  It is taken with
    sum |l_i| <= 4n max(|Re l_i|, |Im l_i|) and |c0| <= 2 max(|Re c0|, |Im c0|).
    Reads phi'' and lam_min from _envelope, so refuses what it refuses.
    """
    hess, lam_min = _envelope(k)
    lin, floor, half = np.concatenate([k.lx, k.ly]).view(float), min(1.0, lam_min), float(grid.half_width)
    width = half + lin.size * float(np.abs(lin).max()) / floor
    scale = (2 * grid.n) ** 2 * (float(np.abs(hess).sum()) + 1.0) / floor
    if not math.isfinite(scale * width * width + 2.0 * max(abs(k.c0.real), abs(k.c0.imag))):
        which = "quadratic terms" if not math.isfinite(scale * half * half) else "linear terms and constant"
        raise GridError(f"half width {grid.half_width:.6g} too large for this kernel: "
                        f"the {which} of its phase overflow on the grid")


def _in_y_axes(k: GaussianKernel) -> tuple[GaussianKernel, np.ndarray]:
    """The two-mode kernel K'(x, y) = K(S x, S y), with S the eigenvectors of Im pyy, and S.

    Im pyy' = S^T Im pyy S is diagonal up to rounding.  S = I, and K' is K,
    when Im pyy is diagonal already.  K' is built without the input checks,
    which K has passed; its diagonal blocks are made exactly symmetric as
    (M + M^T) / 2.
    """
    if k.pyy[0, 1].imag == 0:
        return k, np.eye(2)
    s = np.linalg.eigh(k.pyy.imag)[1]
    pxx, pyy = s.T @ k.pxx @ s, s.T @ k.pyy @ s
    return GaussianKernel._trusted(k.amplitude, (pxx + pxx.T) / 2.0, s.T @ k.pxy @ s, (pyy + pyy.T) / 2.0,
                                   k.lx @ s, k.ly @ s, k.c0), s


def _one_mode(k: GaussianKernel, grid: GridSpec) -> np.ndarray:
    """The one-mode matrix as modulus times phase, with 4N - 1 complex exponentials.

    The tail certificate runs first, before any buffer is allocated.
    The modulus exp(-Im phi + log|amplitude h|) is taken with real
    exponentials in blocks of about _BLOCK_ENTRIES entries, and is an exact
    zero where it would be subnormal.  With x y = (x^2 + y^2)/2 - (x - y)^2/2,
    the phase exp(i Re phi + i arg(amplitude)) is r_i t_{i-j} c_j: a row
    vector, a column vector and a Toeplitz factor, read as a view of its
    2N - 1 values.  Every factor has modulus 1 and cannot overflow.
    """
    peak = _certify_tail(k, grid)
    x, points = grid.axis(), grid.points
    (a,), (b,), (c,) = k.pxx[0], k.pxy[0], k.pyy[0]
    lx, ly, c0, scale = k.lx[0], k.ly[0], k.c0, k.amplitude * grid.h
    row_log = np.log(abs(scale)) - (0.5 * a.imag * x**2 + lx.imag * x + c0.imag)
    col_log = -(0.5 * c.imag * x**2 + ly.imag * x)
    row = np.exp(1j * (0.5 * (a.real + b.real) * x**2 + lx.real * x + c0.real + np.angle(scale)))
    col = np.exp(1j * (0.5 * (c.real + b.real) * x**2 + ly.real * x))
    # lag[m] = t_{N-1-m}, so row i of the Toeplitz factor is lag[N-1-i:2N-1-i]
    lag = np.exp(-0.5j * b.real * (grid.h * np.arange(points - 1, -points, -1)) ** 2)
    step = lag.strides[0]
    toeplitz = np.lib.stride_tricks.as_strided(lag[points - 1:], (points, points), (-step, step),
                                               writeable=False)
    mat = np.empty((points, points), dtype=complex)
    block_rows = max(1, _BLOCK_ENTRIES // points)
    for start in range(0, points, block_rows):
        rows = slice(start, start + block_rows)
        modulus = np.multiply.outer(-b.imag * x[rows], x)
        modulus += row_log[rows, None]
        modulus += col_log
        _exp_certified([modulus], [peak], peak)
        block = mat[rows]
        np.multiply(toeplitz[rows], col, out=block)
        block *= row[rows, None]
        block *= modulus
    return mat


def _kronecker(k: GaussianKernel, grid: GridSpec, rotation: np.ndarray) -> KroneckerGridMatrix:
    """The two-mode matrix of a separable kernel in its own y axes as A1 kron A2.

    Mode b's kernel K_b takes the b-th diagonal entries of pxx, pxy and pyy
    and the b-th entries of lx and ly, and A_b is its one-mode matrix on the
    axis grid, built and certified as at n = 1.  K_2 takes the constant that
    puts the largest entry of A_2 at 1, and K_1 the amplitude and the rest of
    c0, so that the peak of A_1 is the largest entry of the product.  An
    edge row or column of A1 kron A2 is one of a factor times the other
    factor's peak, so the two one-mode tail certificates give the joint
    verdict, and each flush certificate bounds a flushed entry through the
    other factor's peak.  A tail refusal quotes the ratio of the first mode
    that fails, A_2 before A_1, which need not be the larger of the two.
    """
    axis = GridSpec(1, grid.half_width, grid.points)

    def mode(b: int, amplitude: complex, c0: complex) -> GaussianKernel:
        d = slice(b, b + 1)
        return GaussianKernel._trusted(amplitude, k.pxx[d, d], k.pxy[d, d], k.pyy[d, d], k.lx[d], k.ly[d], c0)

    c2 = 1j * (float(_log_maxima(mode(1, 1.0, 0.0), axis)[0].max()) + np.log(axis.h))
    # A_2 first: peaking at 1, it can fail only the tail test, which goes
    # before the overflow and flush tests that A_1 can fail
    a2 = _one_mode(mode(1, 1.0, c2), axis)
    return KroneckerGridMatrix(_one_mode(mode(0, k.amplitude, k.c0 - c2), axis), a2, rotation)


def _factored(k: GaussianKernel, grid: GridSpec, rotation: np.ndarray) -> FactoredGridMatrix:
    """The two-mode matrix of a kernel in its own y axes as bounded axis factors.

    The tail certificate runs first and gives the peak, the log-modulus of
    the largest matrix entry.  With
    c_b = Im pyy_bb and u_b(x) = ((Im pxy^T x)_b + Im ly_b) / c_b, factor b
    takes the y_b decay as the complete square -(c_b/2) (y_b + u_b)^2, so
    |g_b| <= 1, and dx takes min over y of Im phi, every other term in x
    alone and the scale.  dy holds the phases in y and keeps the
    rounding-level Im pyy_12 that the rotation leaves.
    """
    peak = _certify_tail(k, grid)
    ax, xs = grid.axis(), grid.nodes()
    decay = np.diagonal(k.pyy).imag
    centre = (xs @ k.pxy.imag + k.ly.imag) / decay  # u_b for each output node
    coupling = xs @ k.pxy.real
    lift = (0.5 * decay * centre**2).sum(axis=1)  # -min over y of the y terms of Im phi
    scale = np.log(k.amplitude) + 2.0 * np.log(grid.h)
    quad_x = 0.5 * np.einsum("mi,ij,mj->m", xs, k.pxx, xs)
    factors = [1j * (quad_x + xs @ k.lx + k.c0) + lift + scale]
    for b in range(2):
        g = np.multiply.outer(1j * coupling[:, b], ax)
        g += 0.5j * k.pyy[b, b].real * ax**2
        square = np.add.outer(centre[:, b], ax)
        square *= square
        square *= 0.5 * decay[b]
        g -= square
        factors.append(g)
    factors.append(1j * (k.pyy[0, 1] * xs[:, 0] * xs[:, 1] + xs @ k.ly.real))
    _exp_certified(factors, [float(f.real.max()) for f in factors], peak)
    return FactoredGridMatrix(*factors, rotation)


def _exp_certified(logs: list[np.ndarray], tops: list[float], peak: float) -> None:
    """exp in place of log-factors whose products are the matrix entries, once certified.

    ``tops`` are the factors' largest real parts and ``peak`` the log-modulus of
    the largest entry.  GridError when a product of tops overflows, or when an
    entry below the smallest normal float in one factor, bounded through the
    other tops, is not below _EPS_TAIL times the peak (entries are scanned only
    when that float, so bounded, is not).  Those entries become exact zeros, as
    a subnormal slows every product; zeroed before np.exp too, off its slow path.
    """
    if not sum(max(top, 0.0) for top in tops) < _LOG_MAX:
        raise GridError("grid matrix factors overflow")
    bound, total = peak + np.log(_EPS_TAIL), sum(tops)
    for lg, top in zip(logs, tops):
        others = total - top
        low = lg.real < _LOG_NORMAL
        if _LOG_NORMAL + others > bound and float(lg.real.max(initial=-np.inf, where=low)) + others > bound:
            raise GridError("grid matrix entries underflow where the kernel is not negligible")
        lg[low] = 0.0
        np.exp(lg, out=lg)
        lg[low] = 0.0


def _log_maxima(k: GaussianKernel, grid: GridSpec):
    """Row and column maxima of the unscaled log-modulus -Im phi(x_m, y_j)."""
    n, im = k.n, k.phase_hessian().imag
    rows = _log_row_max(grid, im[:n, :n], im[:n, n:], im[n:, n:], k.lx.imag, k.ly.imag, k.c0.imag)
    # a column of phi is a row of phi with x and y swapped
    cols = _log_row_max(grid, im[n:, n:], im[n:, :n], im[:n, :n], k.ly.imag, k.lx.imag, k.c0.imag)
    return rows, cols


def _log_row_max(grid: GridSpec, a, b, c, la, lb, c0) -> np.ndarray:
    """max over the nodes y of -(x.a x/2 + x.b y + y.c y/2 + la.x + lb.y + c0), per node x.

    Real a, b, c with c > 0.  For fixed x the exponent is a concave parabola
    in each axis of y on its own when c is diagonal, and at n = 2 otherwise
    in the last axis of y for fixed y1.  Its largest value on the uniform
    axis is at the node nearest the vertex, clipped to the box: exact, in
    O(N^n) work for a diagonal c and O(N^3) for a coupled one.
    """
    ax, xs = grid.axis(), grid.nodes()
    lin_y = xs @ b + lb  # (N^n, n): coefficient of y per node x
    coupled = grid.n == 2 and c[0, 1] != 0
    if coupled:
        lin, curv = lin_y[:, 1:] + c[0, 1] * ax, c[1, 1]  # (N^2, N): per (x, y1)
    else:
        lin, curv = lin_y, np.diagonal(c)
    near = np.rint((-lin / curv + grid.half_width) / grid.h)
    y = ax[np.clip(near, 0, grid.points - 1).astype(int)]
    lin += 0.5 * curv * y
    lin *= y
    if coupled:
        lin += lin_y[:, :1] * ax + 0.5 * c[0, 0] * ax**2
        low = lin.min(axis=1)
    else:
        low = lin.sum(axis=1)
    return -(0.5 * np.einsum("mi,ij,mj->m", xs, a, xs) + xs @ la + c0) - low


def _certify_tail(k: GaussianKernel, grid: GridSpec) -> float:
    """Log-modulus of the largest entry of the kernel's matrix on the grid, once certified.

    Reads the exact row and column maxima of -Im phi on the grid's nodes
    and the scale log|amplitude| + n log h of the entries.  Refuses a kernel
    that vanishes on the grid, whose boundary tail exceeds sqrt(_EPS_TAIL)
    of the peak on edge rows or edge columns, or that overflows.
    """
    rows, cols = _log_maxima(k, grid)
    log_scale = np.log(abs(k.amplitude)) + grid.n * np.log(grid.h)
    peak = float(rows.max())
    if peak + log_scale < _LOG_TINY:
        raise GridError("kernel vanishes identically on the grid")
    on_edge = np.max(np.abs(grid.nodes()), axis=1) >= grid.half_width - 1e-12
    edge = max(float(rows[on_edge].max()), float(cols[on_edge].max()))
    if edge - peak > 0.5 * np.log(_EPS_TAIL):
        raise GridError(
            f"tail bound violated at half width {grid.half_width}: "
            f"boundary/peak ratio {np.exp(edge - peak):.3e}"
        )
    # neither exp(peak) nor its scaled value may overflow; a NaN exponent refuses too
    top = peak + max(log_scale, 0.0)
    if not top < _LOG_MAX:
        raise GridError(
            f"kernel overflows on the grid: log-modulus peak {top:.6g} "
            f"exceeds log(float max) = {_LOG_MAX:.6g}"
        )
    return peak + log_scale


def operator_norm(mat) -> float:
    """Largest singular value by Golub-Kahan bidiagonalization, certified by its residual.

    ``mat`` is a dense array, a FactoredGridMatrix or a
    KroneckerGridMatrix.  The first two take one path, through ``@`` with a
    vector on either side; A1 kron A2 is read through its factors as
    |A1| |A2|, each factor on that path with the residual stop at
    _NORM_REL_TOL / 3, which bounds the residual of the product's Ritz pair
    by _NORM_REL_TOL times the product.  With c a fixed chirp and
    i = argmax |M c|, the start vector is conj(e_i M) / |e_i M| +
    _NORM_START_GUARD c, normalized; the row is nonzero since (M c)_i is.
    A row of a smooth kernel matrix lies close to the top right singular
    vector, which cuts the steps (heat kernels on their automatic grids:
    7.8 on average, against 10.2 from c alone).
    The chirp term keeps _NORM_START_GUARD times c's component along every
    right singular vector, so a row orthogonal to the top one does not hide
    it: M = u1 v1* + 0.9 e_i v2* with u1_i = 0 has row i along v2, and the
    row alone gives 0.9.  It does not cover a top vector orthogonal to c as
    well, and the residual stop (see _golub_kahan) certifies a singular
    value of M, not the largest one, so a start nearly orthogonal to the top
    vector can still stop at a lower one.  A non-finite M c raises
    ConvergenceError, and M c = 0 gives 0.0.
    """
    if isinstance(mat, KroneckerGridMatrix):
        # factor residuals r_b <= tol s_b / 3 bound the product pair's,
        # r1 (s2 + r2) + s1 r2, by tol s1 s2
        return _top_singular(mat.a1, _NORM_REL_TOL / 3) * _top_singular(mat.a2, _NORM_REL_TOL / 3)
    return _top_singular(mat, _NORM_REL_TOL)


def _top_singular(mat, rel_tol: float) -> float:
    """operator_norm of a dense or factored matrix, stopped at the residual rel_tol sigma."""
    chirp = _chirp(mat.shape[1])
    probe = mat @ chirp
    if _finite_norm(probe, "alpha") == 0.0:
        return 0.0  # M vanishes on the chirp
    pick = np.zeros(mat.shape[0])
    pick[np.argmax(np.abs(probe))] = 1.0
    row = np.conj(pick @ mat)
    start = row / _finite_norm(row, "alpha") + _NORM_START_GUARD * chirp
    start /= _finite_norm(start, "alpha")
    return _golub_kahan(mat, start, rel_tol)[0]


@functools.lru_cache(maxsize=16)
def _chirp(size: int) -> np.ndarray:
    """Unit vector exp(2 pi i sqrt(2) m^2) / sqrt(size); read-only, built once per size."""
    chirp = np.exp(2j * np.pi * np.sqrt(2.0) * np.arange(size) ** 2) / np.sqrt(size)
    chirp.flags.writeable = False
    return chirp


def _golub_kahan(mat, v: np.ndarray, rel_tol: float) -> tuple[float, float]:
    """Largest singular value of M and its residual, by Golub-Kahan bidiagonalization from the unit vector v.

    Step k multiplies by M and by M* (as conj(conj(u) M), with no conjugated
    copy of the matrix) and extends the bidiagonal B_k with M V_k = U_k B_k.
    With sigma the top singular value of B_k and p its left singular vector,
    the Ritz pair u = U_k p, v = V_k q has M v = sigma u and
    |M* u - sigma v| = beta_k |p_k|, which bounds the distance from sigma to
    a singular value of M; the iteration stops when that residual is at most
    rel_tol sigma, and returns sigma and the residual (0.0 when B_k holds
    the singular values of M exactly).  No vector is reorthogonalized, so
    memory stays at a few vectors.  Raises ConvergenceError at the first
    non-finite alpha or beta and after _NORM_MAX_STEPS steps.
    """
    u = mat @ v
    # the upper bidiagonal: alpha_k on the diagonal, beta_k above it; B_k is its leading k x k block
    b = np.zeros((_NORM_MAX_STEPS, _NORM_MAX_STEPS + 1))
    for k in range(_NORM_MAX_STEPS):
        alpha = _finite_norm(u, "alpha")
        if alpha == 0.0:
            # M v_k lies in span(U_{k-1}), whose singular values [B | beta e]
            # holds exactly; at the first step, M vanishes on the start vector
            return (float(np.linalg.norm(b[:k, :k + 1], 2)) if k else 0.0), 0.0
        u /= alpha
        b[k, k] = alpha
        w = np.conj(np.conj(u) @ mat)
        w -= alpha * v
        beta = _finite_norm(w, "beta")
        p, sigma, _ = np.linalg.svd(b[:k + 1, :k + 1])
        residual = beta * abs(p[-1, 0])
        if residual <= rel_tol * sigma[0]:
            return float(sigma[0]), float(residual)
        b[k, k + 1] = beta
        v = w / beta
        u = mat @ v - beta * u
    raise ConvergenceError(f"Golub-Kahan norm did not converge in {_NORM_MAX_STEPS} steps")


def _finite_norm(vec: np.ndarray, name: str) -> float:
    """Euclidean norm as np.linalg.norm sums a complex vector, without its dispatch; rescaled past overflow."""
    re, im = vec.real, vec.imag
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(re.dot(re) + im.dot(im)))
    top = max(float(np.abs(re).max()), float(np.abs(im).max())) if norm == np.inf else np.inf
    if top < np.inf:
        norm = top * _finite_norm(vec / top, name)
    if not np.isfinite(norm):
        raise ConvergenceError(f"Golub-Kahan norm produced a non-finite {name} {norm}")
    return norm


def kernel_norm(k: GaussianKernel, grid: GridSpec | None = None) -> float:
    """Grid-oracle operator norm of the kernel."""
    return operator_norm(discretize(k, grid))


def grid_trace(mat) -> complex:
    """Trace of the discretized operator, sum of diagonal entries."""
    return complex(mat.diagonal().sum())
