"""Grid oracle: discretization quality, norms, traces, certifications."""
import numpy as np
import pytest

from quadflow import (
    ConvergenceError,
    EvolutionSpec,
    GaussianKernel,
    GridError,
    GridSpec,
    auto_grid,
    discretize,
    evolution_to_kernel,
    grid_trace,
    kernel_compose,
    kernel_norm,
    operator_norm,
)
from quadflow.models import heat_generator, heat_trace


def heat_kernel(s: float, n: int = 1):
    return evolution_to_kernel(EvolutionSpec(heat_generator(s, n)))


# -- grid plumbing ------------------------------------------------------------


def test_grid_spec_geometry():
    g = GridSpec(n=1, half_width=8.0, points=600)
    assert g.h == pytest.approx(16.0 / 599.0)
    ax = g.axis()
    assert ax[0] == -8.0 and ax[-1] == 8.0
    assert g.nodes().shape == (600, 1)


def test_grid_spec_two_modes():
    g = GridSpec(n=2, half_width=6.0, points=64)
    nodes = g.nodes()
    assert nodes.shape == (64 * 64, 2)
    # axis-major: first axis varies slowest
    assert nodes[0, 0] == -6.0 and nodes[63, 0] == -6.0
    assert nodes[63, 1] == 6.0


def test_grid_spec_validation():
    with pytest.raises(GridError):
        GridSpec(n=3, half_width=6.0, points=100)
    with pytest.raises(GridError):
        GridSpec(n=1, half_width=6.0, points=32)
    for width in (-1.0, np.nan, np.inf):
        with pytest.raises(GridError, match="half width"):
            GridSpec(n=1, half_width=width, points=100)


def test_auto_grid_heat():
    grid = auto_grid(heat_kernel(1.0))
    lam_min = np.tanh(0.5)
    assert grid.half_width == pytest.approx(np.sqrt(2.0 * np.log(1e12) / lam_min), rel=1e-12)
    assert grid.points == 101  # pure envelope, no real phase to resolve


def test_auto_grid_resolves_oscillation():
    k = heat_kernel(1.0)
    osc = GaussianKernel(
        amplitude=k.amplitude,
        pxx=k.pxx + 3.0 * np.eye(1),  # fast real phase
        pxy=k.pxy,
        pyy=k.pyy,
        lx=k.lx,
        ly=k.ly,
    )
    assert auto_grid(osc).points > auto_grid(k).points


def test_auto_grid_rejects_flat_envelope():
    flat = GaussianKernel(
        amplitude=1.0,
        pxx=1e-5j * np.eye(1),
        pxy=0.5 * np.eye(1),
        pyy=1e-5j * np.eye(1),
        lx=np.zeros(1),
        ly=np.zeros(1),
    )
    with pytest.raises(GridError):
        auto_grid(flat)


def test_discretize_certifies_tail():
    with pytest.raises(GridError):
        discretize(heat_kernel(1.0), GridSpec(n=1, half_width=2.0, points=200))


# -- frozen reference: heat flow on a pinned grid -----------------------------


def test_heat_norm_and_trace_on_reference_grid():
    mat = discretize(heat_kernel(1.0), GridSpec(n=1, half_width=8.0, points=600))
    top = operator_norm(mat)
    assert abs(top - np.exp(-0.5)) <= 0.002 * np.exp(-0.5)
    tr = grid_trace(mat)
    expected = heat_trace(1.0)
    assert abs(tr - expected) <= 0.002 * abs(expected)


def test_norm_converges_under_doubling():
    k = heat_kernel(1.3)
    n1 = operator_norm(discretize(k, GridSpec(n=1, half_width=9.0, points=300)))
    n2 = operator_norm(discretize(k, GridSpec(n=1, half_width=9.0, points=600)))
    assert abs(n1 - n2) < 1e-3 * n2


def test_kernel_norm_wrapper():
    k = heat_kernel(0.7)
    assert kernel_norm(k) == pytest.approx(np.exp(-0.35), rel=1e-6)


# -- composition invariant ----------------------------------------------------


def test_grid_matrices_compose():
    grid = GridSpec(n=1, half_width=9.0, points=400)
    k1, k2 = heat_kernel(0.8), heat_kernel(1.1)
    m1, m2 = discretize(k1, grid), discretize(k2, grid)
    m3 = discretize(kernel_compose(k1, k2), grid)
    gap = np.linalg.norm(m1 @ m2 - m3) / np.linalg.norm(m3)
    assert gap < 1e-2  # quadrature error only; the law itself is exact


# -- two modes ----------------------------------------------------------------


def test_two_mode_heat_smoke():
    k = heat_kernel(1.0, n=2)
    grid = GridSpec(n=2, half_width=6.5, points=64)
    mat = discretize(k, grid)
    assert mat.shape == (64 * 64, 64 * 64)
    assert operator_norm(mat) == pytest.approx(np.exp(-1.0), rel=1e-4)
    assert grid_trace(mat) == pytest.approx(heat_trace(1.0) ** 2, rel=1e-4)


# -- operator_norm internals --------------------------------------------------


def test_power_iteration_matches_dense():
    rng = np.random.default_rng(9)
    qmat, _ = np.linalg.qr(rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400)))
    q2, _ = np.linalg.qr(rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400)))
    singulars = 0.7 ** np.arange(400)
    mat = qmat @ np.diag(singulars) @ q2
    assert min(mat.shape) > 384  # exercises the power-iteration branch
    got = operator_norm(mat)
    assert got == pytest.approx(1.0, rel=1e-8)
    dense = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert got == pytest.approx(dense, rel=1e-8)


def test_power_iteration_reports_non_convergence():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((400, 400))
    with pytest.raises(ConvergenceError):
        operator_norm(mat, max_iter=1)
