"""Closed-form model family: rotated harmonic oscillators and relatives.

The one-mode family q_theta = (e^{i theta} x^2 + e^{-i theta} xi^2) / 2 at
complex time t = t1 + i t2 admits closed forms for every quantity the
generic pipeline computes: compactness, norms, shift centers, and growth
factors under imaginary shifts.  These forms serve both as fast evaluators
for the CLI figure data and as independent cross-checks of the pipeline.
"""
from __future__ import annotations

import numpy as np

from .errors import PositivityError
from .symplectic import QuadraticForm

# rotation generator on one mode: d/dt exp(t H0) circles phase space
H0 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def q_theta(theta: float) -> QuadraticForm:
    """One-mode rotated oscillator (e^{i theta} x^2 + e^{-i theta} xi^2) / 2."""
    return QuadraticForm(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))


def q_harmonic(n: int = 1) -> QuadraticForm:
    """Standard harmonic oscillator (x^2 + xi^2)/2 in n modes."""
    return QuadraticForm(np.eye(2 * n))


def bargmann_generator() -> QuadraticForm:
    """Imaginary hyperbolic generator i (x^2 - xi^2) / 2 (one mode)."""
    return QuadraticForm(np.diag([1j, -1j]))


def heat_generator(s: float, n: int = 1) -> QuadraticForm:
    """Generator -i s (x^2 + xi^2)/2 whose time-1 quantized flow smooths."""
    return QuadraticForm(-1j * s * np.eye(2 * n))


def rho_a(theta: float, t1: float, t2: float) -> float:
    """Compactness functional a = |cos t|^2 + cos(2 theta) |sin t|^2, t = t1 + i t2."""
    t = t1 + 1j * t2
    return float(abs(np.cos(t)) ** 2 + np.cos(2 * theta) * abs(np.sin(t)) ** 2)


def rho_compact(theta: float, t1: float, t2: float) -> bool:
    """The quantized rotated flow is compact iff a > 1 and t2 < 0."""
    return rho_a(theta, t1, t2) > 1.0 and t2 < 0.0


def rho_norm(theta: float, t1: float, t2: float) -> float:
    """Closed-form operator norm (a - sqrt(a^2 - 1))^{1/4} on the compact set."""
    a = rho_a(theta, t1, t2)
    if not (a > 1.0 and t2 < 0.0):
        raise PositivityError(f"model flow not compact: a = {a}, t2 = {t2}")
    return float((a - np.sqrt(a * a - 1.0)) ** 0.25)


def rho_a1_matrix(theta: float, t1: float, t2: float) -> np.ndarray:
    """Closed-form matrix sending Im v to the right-center offset, a1 = Re v + A1 Im v."""
    ct, st = np.cos(theta), np.sin(theta)
    sh2, ch2 = np.sinh(t2), np.cosh(t2)
    s1, c1 = np.sin(t1), np.cos(t1)
    a0 = (ct * sh2) ** 2 - (st * s1) ** 2
    diag = s1 * sh2 - 0.5 * np.sin(2 * theta) * (s1 * s1 + sh2 * sh2)
    off_plus = (ct * sh2 + st * s1) * (c1 - ch2)
    off_minus = (st * s1 - ct * sh2) * (c1 - ch2)
    anti_diag = s1 * sh2 + 0.5 * np.sin(2 * theta) * (s1 * s1 + sh2 * sh2)
    return np.array([[diag, off_plus], [off_minus, anti_diag]]) / a0


def rho_a2_matrix(theta: float, t1: float, t2: float) -> np.ndarray:
    """Left-center companion, a2 = Re v - A2 Im v; A2(t1, t2, theta) = A1(-t1, t2, -theta)."""
    return rho_a1_matrix(-theta, -t1, t2)


def rho_a_matrix(theta: float, t1: float, t2: float) -> np.ndarray:
    """Center-gap matrix A = -(A1 + A2), matching the generic a_matrix."""
    return -(rho_a1_matrix(theta, t1, t2) + rho_a2_matrix(theta, t1, t2))


def rho_centers(theta: float, t1: float, t2: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form shift centers of the quantized rotated flow with shift v."""
    v = np.asarray(v, dtype=complex).reshape(2)
    a1 = v.real + rho_a1_matrix(theta, t1, t2) @ v.imag
    a2 = v.real - rho_a2_matrix(theta, t1, t2) @ v.imag
    return a1, a2


def rho_log_growth(theta: float, t1: float, t2: float, v: np.ndarray) -> float:
    """log of the norm growth factor caused by the imaginary part of the shift.

    log G = (cos t1 - cosh t2) * [ (Im v_x)^2 / (cos th sinh t2 + sin th sin t1)
                                 + (Im v_xi)^2 / (cos th sinh t2 - sin th sin t1) ].
    Valid strictly inside the compact region; the denominators vanish exactly
    on its boundary.
    """
    v = np.asarray(v, dtype=complex).reshape(2)
    num = np.cos(t1) - np.cosh(t2)
    d1 = np.cos(theta) * np.sinh(t2) + np.sin(theta) * np.sin(t1)
    d2 = np.cos(theta) * np.sinh(t2) - np.sin(theta) * np.sin(t1)
    wx, wxi = float(v.imag[0]), float(v.imag[1])
    return float(num * (wx * wx / d1 + wxi * wxi / d2))


def rho_growth_factor(theta: float, t1: float, t2: float, v: np.ndarray) -> float:
    return float(np.exp(rho_log_growth(theta, t1, t2, v)))


def rho_norm_shifted(theta: float, t1: float, t2: float, v: np.ndarray) -> float:
    """Closed-form norm of the shifted evolution: growth factor times rho_norm."""
    return rho_growth_factor(theta, t1, t2, v) * rho_norm(theta, t1, t2)


def davies_small_time(s: float) -> tuple[float, float]:
    """Norm of the 45-degree rotated flow at small time, exact and expanded.

    Exact value from rho_norm at theta = pi/4, t1 = -t2 = s/sqrt(2); the
    second entry is the small-time expansion 1 - s^2 / (4 sqrt 3).
    """
    t = s / np.sqrt(2.0)
    exact = rho_norm(np.pi / 4.0, t, -t)
    expansion = 1.0 - s * s / (4.0 * np.sqrt(3.0))
    return exact, expansion


def shifted_davies_blowup(s: float, wx: float, wxi: float) -> tuple[float, float]:
    """log-norm of the shifted 45-degree rotated flow, exact and expanded.

    The imaginary shift v = i (wx, wxi) makes the log-norm blow up like
    6 wx^2 / s as s -> 0; the second entry is the expansion
    6 wx^2 / s + s wxi^2 / 2 - s^2 / (4 sqrt 3).
    """
    t = s / np.sqrt(2.0)
    v = 1j * np.array([wx, wxi])
    exact = rho_log_growth(np.pi / 4.0, t, -t, v) + np.log(rho_norm(np.pi / 4.0, t, -t))
    expansion = 6.0 * wx * wx / s + 0.5 * s * wxi * wxi - s * s / (4.0 * np.sqrt(3.0))
    return float(exact), float(expansion)


def ho_center_geometry(t2: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Circle geometry of the harmonic-oscillator center sweep (theta = 0).

    As t1 varies, a1 circles the fixed point c1 = Re v - coth(t2) H0 Im v and
    a2 circles c2 = Re v + coth(t2) H0 Im v, both with radius |Im v / sinh t2|.
    Returns (c1, c2, radius).
    """
    if t2 >= 0.0:
        raise ValueError("center geometry requires t2 < 0")
    v = np.asarray(v, dtype=complex).reshape(2)
    swing = (H0 @ v.imag) / np.tanh(t2)
    c1 = v.real - swing
    c2 = v.real + swing
    radius = float(np.linalg.norm(v.imag) / abs(np.sinh(t2)))
    return c1, c2, radius


def heat_trace(s: float) -> float:
    """Trace of the quantized heat flow at time s: 1 / (2 sinh(s/2))."""
    if s <= 0.0:
        raise ValueError("heat trace requires s > 0")
    return float(1.0 / (2.0 * np.sinh(s / 2.0)))


def bargmann_rotation_kernel(t: float) -> GaussianKernel:
    """Formal integral kernel of the quantized imaginary-hyperbolic rotation.

    Built through the formal symbol route (the flow is not strictly
    positive); valid for 0 < t < pi where the momentum integral converges.
    It equals bargmann_reference_kernel(t), amplitude sign included.
    """
    from .kernels import quantize
    from .symbols import mehler_symbol

    return quantize(mehler_symbol(QuadraticForm(t * bargmann_generator().hess)), formal=True)


def bargmann_reference_kernel(t: float) -> GaussianKernel:
    """Independently derived closed form of the same kernel.

    amplitude (2 pi sin t)^{-1/2}, phase Hessian i cot(t) on the diagonal
    and -i csc(t) across; recorded from completing the square in the
    momentum integral (0 < t < pi).
    """
    from .kernels import GaussianKernel

    if not 0.0 < t < np.pi:
        raise ValueError("reference kernel is integrable for 0 < t < pi only")
    cot, csc = 1.0 / np.tan(t), 1.0 / np.sin(t)
    return GaussianKernel(
        amplitude=(2.0 * np.pi * np.sin(t)) ** -0.5,
        pxx=np.array([[1j * cot]]),
        pxy=np.array([[-1j * csc]]),
        pyy=np.array([[1j * cot]]),
        lx=np.zeros(1),
        ly=np.zeros(1),
        c0=0.0,
    )
