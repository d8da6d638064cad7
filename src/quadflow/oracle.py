"""Brute-force grid oracle: midpoint discretization of Gaussian kernels.

The oracle turns a kernel into a dense matrix on a symmetric box grid and
extracts operator norms and traces directly, with no knowledge of the
closed-form theory.  It exists to cross-check every analytic claim in the
package; keep it simple and independent.

It reads only the kernel's quadratic phase.  The matrix is built in place in
one complex buffer of 16 N^{2n} bytes for N points per axis (256 MiB at
n = 2, N = 64; 1.55 GiB at N = 101), with no full-size temporaries, and the
power iteration multiplies by M* without a conjugated copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError
from .kernels import GaussianKernel

# grid sizes beyond these make dense matrices impractical at each dimension
_MAX_POINTS = {1: 600, 2: 120}
_MIN_POINTS = 64
_EPS_TAIL = 1e-12
_MIN_DECAY = 1e-4
_DENSE_SVD_LIMIT = 384
_POWER_REL_TOL = 1e-10  # relative step at which power iteration stops
# exp(x) overflows above _LOG_MAX and leaves no nonzero float below _LOG_TINY
_LOG_MAX = float(np.log(np.finfo(float).max))
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
        if self.points < _MIN_POINTS:
            raise GridError(f"need at least {_MIN_POINTS} points per axis")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise GridError(f"half width must be positive and finite, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (N^n, n) array, axis-major order."""
        ax = self.axis()
        if self.n == 1:
            return ax[:, None]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


def auto_grid(k: GaussianKernel) -> GridSpec:
    """Choose a grid from the kernel's Gaussian envelope and phase frequency.

    L covers the envelope down to _EPS_TAIL; h resolves both the envelope
    (h <= 0.02 L) and the oscillation of the real phase part through a
    gradient bound.  The resulting N is clamped to the per-dimension caps;
    the frequency bound is conservative for entire Gaussian integrands, and
    discretize() still certifies the tail on the actual grid.
    """
    n = k.n
    if n not in _MAX_POINTS:
        raise GridError("grid oracle supports n = 1 and n = 2 only")
    im_hess = k.phase_hessian().imag
    lam_min = float(np.min(np.linalg.eigvalsh(im_hess)))
    if lam_min < _MIN_DECAY:
        raise GridError(
            f"kernel envelope decays too slowly for the oracle "
            f"(smallest Im phi'' eigenvalue {lam_min:.3e} < {_MIN_DECAY:.0e})"
        )
    half_width = max(6.0, float(np.sqrt(2.0 * np.log(1.0 / _EPS_TAIL) / lam_min)))
    re_hess = k.phase_hessian().real
    re_lin = np.concatenate([k.lx, k.ly]).real
    max_freq = float(
        np.linalg.norm(re_hess, 2) * np.sqrt(2 * n) * half_width + np.linalg.norm(re_lin)
    )
    h_bound = 0.02 * half_width
    if max_freq > 0.0:
        h_bound = min(h_bound, np.pi / (4.0 * max_freq))
    points = int(np.ceil(2.0 * half_width / h_bound)) + 1
    points = min(max(points, _MIN_POINTS), _MAX_POINTS[n])
    return GridSpec(n=n, half_width=half_width, points=points)


def discretize(k: GaussianKernel, grid: GridSpec | None = None) -> np.ndarray:
    """Midpoint-rule matrix of the kernel: M[i, j] = K(x_i, x_j) h^n.

    The matrix is built in one (N^n, N^n) complex buffer, 16 N^{2n} bytes
    (256 MiB at n = 2, N = 64; 1.55 GiB at N = 101): the exponent i phi is
    the cross term x_i.(i pxy) x_j as one matrix product plus the row and
    column terms, then it is exponentiated and scaled in place.

    Certifies the envelope decay rate and the boundary tail on the actual
    grid, in log space on the exponent's real part, and refuses a kernel
    that vanishes or overflows there; raises GridError when any check fails.
    """
    if grid is None:
        grid = auto_grid(k)
    if grid.n != k.n:
        raise GridError("grid dimension does not match the kernel")
    lam_min = float(np.min(np.linalg.eigvalsh(k.phase_hessian().imag)))
    if lam_min < _MIN_DECAY:
        raise GridError(f"kernel envelope decay {lam_min:.3e} below oracle floor")
    if k.amplitude == 0:
        raise GridError("kernel vanishes identically on the grid")
    xs = grid.nodes()
    mat = (xs @ (1j * k.pxy)) @ xs.T
    mat += 1j * (0.5 * np.einsum("mi,ij,mj->m", xs, k.pxx, xs) + xs @ k.lx + k.c0)[:, None]
    mat += 1j * (0.5 * np.einsum("mi,ij,mj->m", xs, k.pyy, xs) + xs @ k.ly)[None, :]
    # log|M| = Re(i phi) + log|amplitude h^n|; the tail test needs no scale
    log_scale = np.log(abs(k.amplitude)) + grid.n * np.log(grid.h)
    row_max, col_max = mat.real.max(axis=1), mat.real.max(axis=0)
    peak = float(row_max.max())
    if peak + log_scale < _LOG_TINY:
        raise GridError("kernel vanishes identically on the grid")
    # neither exp(peak) nor its scaled value may overflow; a NaN exponent refuses too
    top = peak + max(log_scale, 0.0)
    if not top < _LOG_MAX:
        raise GridError(
            f"kernel overflows on the grid: log-modulus peak {top:.6g} "
            f"exceeds log(float max) = {_LOG_MAX:.6g}"
        )
    on_edge = np.max(np.abs(xs), axis=1) >= grid.half_width - 1e-12
    edge = max(float(row_max[on_edge].max()), float(col_max[on_edge].max()))
    if edge - peak > 0.5 * np.log(_EPS_TAIL):
        raise GridError(
            f"tail bound violated at half width {grid.half_width}: "
            f"boundary/peak ratio {np.exp(edge - peak):.3e}"
        )
    np.exp(mat, out=mat)
    mat *= k.amplitude * grid.h**grid.n
    return mat


def operator_norm(mat: np.ndarray, max_iter: int = 10_000) -> float:
    """Largest singular value: dense SVD for small matrices, else power iteration.

    Power iteration multiplies by M* as conj(conj(w) M), with no conjugated
    copy of the matrix, and raises ConvergenceError at the first non-finite
    estimate.
    """
    if min(mat.shape) <= _DENSE_SVD_LIMIT:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    # power iteration on M* M with a deterministic start
    v = np.ones(mat.shape[1], dtype=complex)
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for _ in range(max_iter):
        w = mat @ v
        u = np.conj(np.conj(w) @ mat)
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return 0.0
        sigma = float(np.linalg.norm(w))  # |M v| with |v| = 1
        if not np.isfinite(sigma):
            raise ConvergenceError(f"power iteration produced a non-finite estimate {sigma}")
        v = u / norm_u
        if abs(sigma - sigma_prev) <= _POWER_REL_TOL * max(sigma, 1e-300):
            return sigma
        sigma_prev = sigma
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def kernel_norm(k: GaussianKernel, grid: GridSpec | None = None) -> float:
    """Grid-oracle operator norm of the kernel."""
    return operator_norm(discretize(k, grid))


def grid_trace(mat: np.ndarray) -> complex:
    """Trace of the discretized operator, sum of diagonal entries."""
    return complex(np.trace(mat))
