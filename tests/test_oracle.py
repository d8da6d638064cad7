"""Grid oracle: discretization quality, norms, traces, certifications."""
import tracemalloc

import numpy as np
import pytest

from quadflow import (
    ConvergenceError,
    EvolutionSpec,
    GaussianKernel,
    GridError,
    GridSpec,
    auto_grid,
    decompose,
    discretize,
    evolution_to_kernel,
    grid_trace,
    kernel_compose,
    kernel_norm,
    norm_quadratic,
    operator_norm,
)
from quadflow import oracle
from quadflow.oracle import FactoredGridMatrix, KroneckerGridMatrix
from quadflow.models import heat_generator, heat_trace, q_theta
from quadflow.symplectic import QuadraticForm


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


@pytest.mark.parametrize("n", [1, 2])
def test_grid_spec_arrays_are_built_once_and_read_only(n):
    g = GridSpec(n=n, half_width=6.0, points=101)
    ax, nodes = g.axis(), g.nodes()
    assert g.axis() is ax and g.nodes() is nodes
    assert np.array_equal(ax, np.linspace(-6.0, 6.0, 101))
    grids = np.meshgrid(*[np.linspace(-6.0, 6.0, 101)] * n, indexing="ij")
    assert np.array_equal(nodes, np.column_stack([x.ravel() for x in grids]))
    for arr in (ax, nodes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_grid_spec_validation():
    with pytest.raises(GridError):
        GridSpec(n=3, half_width=6.0, points=100)
    with pytest.raises(GridError):
        GridSpec(n=1, half_width=6.0, points=32)
    for width in (-1.0, np.nan, np.inf):
        with pytest.raises(GridError, match="half width"):
            GridSpec(n=1, half_width=width, points=100)
    # the automatic grid's caps bind user grids too, before any matrix is allocated
    with pytest.raises(GridError, match="64 to 600 points per axis at n = 1, got 601"):
        GridSpec(1, 8.0, 601)
    with pytest.raises(GridError, match="64 to 120 points per axis at n = 2, got 121"):
        GridSpec(2, 6.0, 121)
    assert GridSpec(1, 8.0, 600).points == 600 and GridSpec(2, 6.0, 120).points == 120


def test_auto_grid_heat():
    grid = auto_grid(heat_kernel(1.0))
    lam_min = np.tanh(0.5)
    assert grid.half_width == pytest.approx(np.sqrt(2.0 * np.log(1e12) / lam_min), rel=1e-12)
    assert grid.points == 101  # pure envelope, no real phase to resolve


def test_auto_grid_resolves_oscillation():
    # a real phase in x alone multiplies by a unimodular function: the norm stays e^{-1/2}
    k = heat_kernel(1.0)

    def twin(re_pxx):
        return GaussianKernel(k.amplitude, k.pxx + re_pxx * np.eye(1), k.pxy, k.pyy, k.lx, k.ly)

    assert kernel_norm(twin(3.0)) == pytest.approx(np.exp(-0.5), rel=1e-12, abs=0.0)
    assert auto_grid(twin(10.0)).points > 101  # a faster phase still refines the grid
    # the norm holds at any N; the trace needs the grid (4e-7 off at N = 64)
    for re_pxx in (3.0, 10.0):
        assert grid_trace(discretize(twin(re_pxx))) == pytest.approx(
            diagonal_integral(twin(re_pxx)), rel=1e-12, abs=0.0)


def diagonal_integral(k):
    """The trace in closed form: the Gaussian integral of K(x, x) over R^n."""
    phi, lin = k.pxx + k.pxy + k.pxy.T + k.pyy, k.lx + k.ly
    root_det = np.prod(np.sqrt(np.linalg.eigvals(-1j * phi)))  # Re(-i phi) > 0: principal roots
    return (k.amplitude * np.exp(1j * k.c0) * (2.0 * np.pi) ** (k.n / 2) / root_det
            * np.exp(-0.5j * lin @ np.linalg.solve(phi, lin)))


def gradient_rule_grid(k):
    """auto_grid's rule with the corner-gradient oscillation step alone, the reference for N."""
    hess = k.phase_hessian()
    lam_min = float(np.min(np.linalg.eigvalsh(hess.imag)))
    half_width = max(6.0, float(np.sqrt(2.0 * np.log(1.0 / oracle._EPS_TAIL) / lam_min)))
    re_lin = np.concatenate([k.lx, k.ly]).real
    max_freq = float(
        np.linalg.norm(hess.real, 2) * np.sqrt(2 * k.n) * half_width + np.linalg.norm(re_lin)
    )
    h_bound = 0.02 * half_width
    if max_freq > 0.0:
        h_bound = min(h_bound, np.pi / (4.0 * max_freq))
    points = int(np.ceil(2.0 * half_width / h_bound)) + 1
    points = min(max(points, oracle._MIN_POINTS), oracle._MAX_POINTS[k.n])
    return GridSpec(n=k.n, half_width=half_width, points=points)


def rotated_member(rng, shifted):
    """One-mode rotated oscillator at a compact complex time, drawn as in the oracle benchmark."""
    theta, t1, depth = rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 1.5)
    t2 = -np.arcsinh(np.abs(np.tan(theta) * np.sin(t1))) - depth
    v = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) if shifted else np.zeros(2)
    return EvolutionSpec(QuadraticForm((t1 + 1j * t2) * q_theta(theta).hess), v)


def coupled_oscillating_generator():
    """Two rotated oscillators at compact complex times, modes mixed by a rotation of 0.5."""
    hess = np.zeros((4, 4), dtype=complex)
    for axes, (theta, t1, t2) in (([0, 2], (0.4, 1.0, -1.0)), ([1, 3], (-0.7, -2.0, -1.3))):
        hess[np.ix_(axes, axes)] = (t1 + 1j * t2) * q_theta(theta).hess
    c, s = np.cos(0.5), np.sin(0.5)
    rot = np.kron(np.eye(2), np.array([[c, -s], [s, c]]))
    return QuadraticForm(rot @ hess @ rot.T)


def faster_phase(k, scale):
    """The kernel with Re phi'' scaled by ``scale``."""
    hess = k.phase_hessian()
    hess = scale * hess.real + 1j * hess.imag
    n = k.n
    return GaussianKernel(k.amplitude, hess[:n, :n], hess[:n, n:], hess[n:, n:], k.lx, k.ly, k.c0)


@pytest.mark.parametrize("n", [1, 2])
def test_auto_grid_keeps_the_heat_grids(n):
    # no real phase: the Fourier-envelope step never enters
    kernels = [heat_kernel(s, n) for s in (0.02, 0.1, 1.0, 4.0)]
    if n == 2:
        kernels.append(evolution_to_kernel(EvolutionSpec(rotated_heat_generator(0.3, 2.0))))
    for k in kernels:
        assert auto_grid(k) == gradient_rule_grid(k)


def test_auto_grid_is_never_finer_than_the_gradient_rule():
    rng = np.random.default_rng(60)
    kernels = [evolution_to_kernel(rotated_member(rng, shifted)) for shifted in (False, True) * 20]
    for n in (1, 2):
        kernels += [faster_phase(random_kernel(rng, n), scale) for scale in (0.1, 1.0, 4.0, 30.0)]
    for k in kernels:
        grid, old = auto_grid(k), gradient_rule_grid(k)
        assert grid.half_width == old.half_width and grid.points <= old.points
    # most oscillating one-mode members drop from ~500 points to the 101 of the envelope floor
    assert sum(auto_grid(k).points == 101 for k in kernels[:40]) >= 25


def test_oscillating_kernels_match_the_closed_form_on_their_automatic_grid():
    # norms against decompose(spec).norm; traces against the integral of K(x, x), whose
    # frequency k_x + k_y may be faster than K's along x or y alone
    rng = np.random.default_rng(61)
    kernels = [(faster_phase(random_kernel(rng, n), 4.0), None) for n in (1, 2) for _ in range(4)]
    kernels.append((GaussianKernel(1.0, [[5 + 1j]], [[5.0]], [[5 + 1j]], [0.0], [0.0]), None))
    specs = [rotated_member(rng, shifted) for shifted in (False, True) * 20]
    specs.append(EvolutionSpec(coupled_oscillating_generator()))
    kernels += [(evolution_to_kernel(spec), spec) for spec in specs]
    for k, spec in kernels:
        assert np.any(k.phase_hessian().real != 0)
        try:
            mat = discretize(k)
        except GridError as err:
            # an envelope centred far off the origin-centred box is refused, never mis-measured
            assert "tail bound violated" in str(err)
            continue
        if spec is not None:
            assert operator_norm(mat) == pytest.approx(decompose(spec).norm, rel=1e-10)
        if auto_grid(k).points < oracle._MAX_POINTS[k.n]:
            assert grid_trace(mat) == pytest.approx(diagonal_integral(k), rel=1e-10, abs=0.0)
        else:  # the cap limits accuracy, on the gradient rule's own grid
            assert auto_grid(k) == gradient_rule_grid(k)
    assert isinstance(mat, FactoredGridMatrix) and mat.g1.shape[0] == mat.shape[0]  # coupled modes
    # a real shift puts f^(0) in the tail of |f^|: the step keeps the trace's own accuracy,
    # 8e-13 here, where a tail taken from the peak of |f^| gives 9e-11
    shifted = GaussianKernel(1.0, [[2 + 1j]], [[1 + 0.5j]], [[2 + 1j]], [6.0], [6.0])
    assert grid_trace(discretize(shifted)) == pytest.approx(diagonal_integral(shifted), rel=1e-11, abs=0.0)


def test_auto_grid_points_are_rotation_invariant():
    # the two-mode grid lives in the kernel's own y axes: N may depend only on invariants
    rng = np.random.default_rng(62)
    points = []
    for _ in range(8):
        k = faster_phase(random_kernel(rng, 2), 4.0)
        s = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        turned = GaussianKernel(k.amplitude, s.T @ k.pxx @ s, s.T @ k.pxy @ s, s.T @ k.pyy @ s,
                                k.lx @ s, k.ly @ s, k.c0)
        points.append(auto_grid(k).points)
        assert auto_grid(turned).points == points[-1]
    assert any(101 < p < oracle._MAX_POINTS[2] for p in points)  # set by the envelope step


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
    assert "_envelope" not in vars(flat)  # a refusal stores nothing
    with pytest.raises(GridError, match="decays too slowly"):
        discretize(flat, GridSpec(1, 8.0, 101))


def test_auto_grid_refuses_three_modes():
    k = heat_kernel(0.5, 3)
    for call in (auto_grid, discretize):
        with pytest.raises(GridError, match="^grid oracle supports n = 1 and n = 2 only$"):
            call(k)
    assert "_envelope" not in vars(k)


def test_auto_grid_refuses_linear_terms_too_large_to_square():
    # |Re l|^2 overflows in the grid rule; the refusal is a GridError with no
    # RuntimeWarning (an error under pytest), before any range check
    k = GaussianKernel(1, [[1j]], [[0.5]], [[1j]], [1e155], [0])
    for call in (auto_grid, discretize):
        with pytest.raises(GridError, match="^the phase frequencies of this kernel overflow a float"):
            call(k)


@pytest.mark.parametrize("n", [1, 2])
def test_auto_grid_and_discretize_share_one_envelope(n, monkeypatch):
    """One eigvalsh of Im phi'' per kernel: auto_grid stores the envelope and discretize reads it."""
    k = heat_kernel(0.7, n)
    decay = k.phase_hessian().imag
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(m, *args, **kwargs):
        calls.append(m.shape == decay.shape and np.array_equal(m, decay))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    discretize(k, auto_grid(k))
    assert sum(calls) == 1


def test_discretize_certifies_tail():
    with pytest.raises(GridError):
        discretize(heat_kernel(1.0), GridSpec(n=1, half_width=2.0, points=200))


def random_kernel(rng, n):
    """Shifted kernel with a non-diagonal cross block, c0 != 0 and Im phi'' > 0."""
    a = rng.standard_normal((2 * n, 2 * n))
    hess = 0.3 * (a + a.T) + 1j * (a @ a.T / (2 * n) + 0.5 * np.eye(2 * n))
    lin = 0.4 * rng.standard_normal(2 * n) + 0.2j * rng.standard_normal(2 * n)
    return GaussianKernel(
        amplitude=0.7 - 0.4j,
        pxx=hess[:n, :n],
        pxy=hess[:n, n:],
        pyy=hess[n:, n:],
        lx=lin[:n],
        ly=lin[n:],
        c0=0.3 + 0.1j,
    )


@pytest.mark.parametrize("n, points", [(1, 300), (2, 64)])
def test_discretize_matches_pointwise_kernel(n, points):
    rng = np.random.default_rng(40 + n)
    k = random_kernel(rng, n)
    grid = GridSpec(n=n, half_width=auto_grid(k).half_width, points=points)
    mat = discretize(k, grid)
    xs = grid.nodes() if n == 1 else grid.nodes() @ mat.rotation.T  # two modes: in the kernel's y axes
    rows = rng.choice(len(xs), size=40, replace=False)
    ref = k(xs[rows][:, None, :], xs[None, :, :]) * grid.h**n
    got = np.array([np.eye(1, len(xs), r)[0] @ mat for r in rows])  # e_r M, dense or factored
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_mode_build_holds_one_matrix_buffer():
    # modulus and phase are built in row blocks into the output, 16 N^2 bytes
    points = 600
    k = random_kernel(np.random.default_rng(43), 1)
    grid = GridSpec(n=1, half_width=auto_grid(k).half_width, points=points)
    tracemalloc.start()
    try:
        discretize(k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * points**2


@pytest.mark.parametrize("re_pxy", [20.0, -20.0])
def test_one_mode_build_with_fast_cross_phase_matches_pointwise_kernel(re_pxy):
    # the phase factors into row, column and Toeplitz terms of larger argument
    # than pxy x y itself; the matrix must still hold to the last digits
    k = GaussianKernel(0.7 - 0.4j, pxx=[[3.0 + 1.0j]], pxy=[[re_pxy + 0.3j]], pyy=[[-5.0 + 1.2j]],
                       lx=[0.4 + 0.1j], ly=[-0.3 + 0.2j], c0=0.3 + 0.1j)
    for points in (200, auto_grid(k).points):
        grid = GridSpec(n=1, half_width=auto_grid(k).half_width, points=points)
        xs = grid.nodes()
        ref = k(xs[:, None, :], xs[None, :, :]) * grid.h
        mat = discretize(k, grid)
        assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_mode_matrices_hold_no_subnormal_entry():
    # entries below the smallest normal float are flushed to exact zeros: the
    # heat kernels at s = 0.05 and 0.3 held 118 and more subnormal entries before
    rng = np.random.default_rng(21)
    kernels = [heat_kernel(0.05), heat_kernel(0.3)]
    kernels += [evolution_to_kernel(rotated_member(rng, shifted)) for shifted in (False, True) * 4]
    for k in kernels:
        modulus = np.abs(discretize(k))
        assert not np.any((modulus > 0.0) & (modulus < np.finfo(float).tiny))
    assert np.count_nonzero(np.abs(discretize(heat_kernel(0.3))) == 0.0) > 0  # the flush happened


def test_one_mode_entries_that_underflow_where_the_kernel_matters_are_refused():
    # the scale amplitude h = 2.5e-301 leaves the whole matrix within exp(-27.6)
    # = 1e-12 of the smallest normal float, so a flushed entry is not negligible
    def kernel(amplitude):
        return GaussianKernel(amplitude, pxx=[[1j]], pxy=[[0.2]], pyy=[[1j]], lx=[0], ly=[0])

    grid = GridSpec(1, 8.0, 64)
    with pytest.raises(GridError, match="underflow where the kernel is not negligible") as one_mode:
        discretize(kernel(1e-300), grid)
    mat = discretize(kernel(1e-290), grid)
    assert isinstance(mat, np.ndarray) and np.max(np.abs(mat)) > 1e-291
    # the two-mode factors are certified by the same function, with the same message
    two_mode = GaussianKernel(1e-300, pxx=1j * np.eye(2), pxy=0.2 * np.eye(2), pyy=1j * np.eye(2),
                              lx=np.zeros(2), ly=np.zeros(2))
    with pytest.raises(GridError) as factored:
        discretize(two_mode, GridSpec(2, 8.0, 64))
    assert str(factored.value) == str(one_mode.value)


def test_one_mode_matrix_near_the_smallest_normal_float_is_built_when_its_flush_is_negligible():
    # Im phi = 150 (x^2 + y^2) drops from 3.9e-9 to 1.6e-17 of the peak between
    # neighbouring rings of nodes; with the peak 2e-299 within 1e12 of the
    # smallest normal float, every flushed entry (at most 3.1e-316) still lies
    # below 1e-12 of the peak (2e-311), so the kernel is built, not refused
    k = GaussianKernel(1e-296, pxx=[[300j]], pxy=[[0.2]], pyy=[[300j]], lx=[0], ly=[0])
    grid = GridSpec(1, 8.0, 64)
    xs = grid.nodes()
    ref = k(xs[:, None, :], xs[None, :, :]) * grid.h
    peak = np.max(np.abs(ref))
    assert peak < 1e12 * np.finfo(float).tiny
    mat = discretize(k, grid)
    assert np.count_nonzero(mat == 0.0) > 0  # the flush happened
    assert np.max(np.abs(mat - ref)) <= 1e-12 * peak


def test_discretize_refuses_overflowing_kernel():
    # |K| peaks near exp(1600) at x = -80, well inside the box; the edges are tiny
    k = GaussianKernel(1.0, pxx=0.5j * np.eye(1), pxy=0.2 * np.eye(1), pyy=0.5j * np.eye(1),
                       lx=[40j], ly=[0])
    with pytest.raises(GridError, match="overflows"):
        discretize(k, GridSpec(1, 200.0, 400))


def test_discretize_refuses_linear_terms_that_overflow_on_the_grid():
    # lx x reaches 4e308 at the box edge; the refusal comes before any grid arithmetic,
    # with no RuntimeWarning (an error under pytest)
    k = GaussianKernel(1, [[1j]], [[0.5]], [[1j]], [5e307], [5e307])
    with pytest.raises(GridError, match="linear terms and constant of its phase overflow"):
        discretize(k, GridSpec(1, 8, 64))


@pytest.mark.parametrize("layout", [np.ndarray, KroneckerGridMatrix, FactoredGridMatrix])
def test_discretize_refuses_a_kernel_that_vanishes_identically(layout):
    rng = np.random.default_rng(16)
    kernels = {np.ndarray: random_kernel(rng, 1), KroneckerGridMatrix: separable_kernel(rng),
               FactoredGridMatrix: random_kernel(rng, 2)}
    k = kernels[layout]
    zero = GaussianKernel(0.0, k.pxx, k.pxy, k.pyy, k.lx, k.ly, k.c0)
    for grid in (None, GridSpec(k.n, auto_grid(k).half_width, 64)):
        assert isinstance(discretize(k, grid), layout)  # the same kernel at amplitude 0.7 - 0.4i is built
        with pytest.raises(GridError, match="^kernel vanishes identically on the grid$"):
            discretize(zero, grid)


def test_operator_norm_of_entries_whose_squares_overflow():
    # the entries reach 1e159, so the plain sum of squares overflows; the norm is
    # 1e160 times that of the same kernel at amplitude 1, with no RuntimeWarning
    grid = GridSpec(1, 8, 64)
    big, one = (operator_norm(discretize(GaussianKernel(a, [[1j]], [[0.5]], [[1j]], [0], [0]), grid))
                for a in (1e160, 1.0))
    assert big == pytest.approx(1e160 * one, rel=1e-12)


def test_power_iteration_stops_at_first_nonfinite_estimate():
    mat = np.ones((400, 400), dtype=complex)
    mat[7, 11] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
        ConvergenceError, match="non-finite"
    ):
        operator_norm(mat)


# -- frozen reference: heat flow on a pinned grid -----------------------------


def test_heat_norm_and_trace_on_reference_grid():
    mat = discretize(heat_kernel(1.0), GridSpec(n=1, half_width=8.0, points=600))
    tracemalloc.start()
    try:
        top = operator_norm(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * mat.nbytes  # power iteration makes no copy of the matrix
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


def test_heat_norm_on_its_automatic_grid():
    # the heat kernel at s = 0.3 on its automatic grid, N = 101: the grid norm is e^{-s/2} to 1e-12
    mat = discretize(heat_kernel(0.3))
    assert mat.shape == (101, 101)
    assert abs(operator_norm(mat) - np.exp(-0.15)) <= 1e-12


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
    tracemalloc.start()
    try:
        mat = discretize(k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (64 * 64, 64 * 64)
    dense_bytes, factor_bytes = 16 * 64**4, 32 * 64**3  # 256 MiB against 8 MiB
    assert peak <= 1.5 * factor_bytes  # the two axis factors and a little more
    assert peak <= dense_bytes / 20  # no matrix-sized buffer
    assert operator_norm(mat) == pytest.approx(np.exp(-1.0), rel=1e-4)
    assert grid_trace(mat) == pytest.approx(heat_trace(1.0) ** 2, rel=1e-4)


def dense_pointwise(k, grid, rotation):
    """Reference matrix k(S x_i, S x_j) h^n from the pointwise kernel, built in row blocks."""
    xs = grid.nodes() @ rotation.T
    mat = np.empty((len(xs), len(xs)), dtype=complex)
    for start in range(0, len(xs), 512):
        mat[start:start + 512] = k(xs[start:start + 512, None, :], xs[None, :, :]) * grid.h**grid.n
    return mat


def assert_operator_matches(op, ref, rng):
    """Products on both sides, diagonal, norm and trace of op against the dense ref.

    A KroneckerGridMatrix is never applied; the entries of A1 kron A2 are
    checked against ref's instead.
    """
    assert not isinstance(op, np.ndarray) and op.shape == ref.shape
    if isinstance(op, KroneckerGridMatrix):
        assert np.max(np.abs(np.kron(op.a1, op.a2) - ref)) <= 1e-13 * np.max(np.abs(ref))
    else:
        for _ in range(3):
            v = rng.standard_normal(ref.shape[1]) + 1j * rng.standard_normal(ref.shape[1])
            assert np.max(np.abs(op @ v - ref @ v)) <= 1e-13 * np.max(np.abs(ref @ v))
            assert np.max(np.abs(v @ op - v @ ref)) <= 1e-13 * np.max(np.abs(v @ ref))
    diag = np.diagonal(ref)
    assert np.max(np.abs(op.diagonal() - diag)) <= 1e-13 * np.max(np.abs(diag))
    assert abs(operator_norm(op) - operator_norm(ref)) <= 1e-13 * operator_norm(ref)
    assert abs(grid_trace(op) - grid_trace(ref)) <= 1e-13 * np.sum(np.abs(diag))


@pytest.mark.parametrize("seed", [1, 2])
def test_factored_operator_matches_dense_pointwise_matrix(seed):
    rng = np.random.default_rng(seed)
    k = random_kernel(rng, 2)
    grid = GridSpec(n=2, half_width=auto_grid(k).half_width, points=64)
    op = discretize(k, grid)
    assert_operator_matches(op, dense_pointwise(k, grid, op.rotation), rng)


def uncoupled_kernel(rng):
    """Two-mode kernel already in its y axes with a diagonal cross block: x_b meets only y_b.

    Im pyy is diagonal, so the oracle takes the kernel as it is; Re pyy
    keeps its y1 y2 term.
    """
    k = random_kernel(rng, 2)
    pyy = k.pyy.real + 1j * np.diag(np.diagonal(k.pyy).imag)
    return GaussianKernel(k.amplitude, k.pxx, np.diag(np.diagonal(k.pxy)), pyy, k.lx, k.ly, k.c0)


@pytest.mark.parametrize("seed", [11, 12])
def test_uncoupled_operator_matches_dense_pointwise_matrix(seed):
    rng = np.random.default_rng(seed)
    k = uncoupled_kernel(rng)
    assert k.pxx[0, 1] != 0 and k.pyy[0, 1].real != 0 and np.iscomplexobj(k.lx) and k.c0.imag != 0
    assert k.nondegeneracy_margin() > 0.1
    grid = GridSpec(n=2, half_width=auto_grid(k).half_width, points=64)
    op = discretize(k, grid)
    assert np.array_equal(op.rotation, np.eye(2))
    assert op.g1.shape == op.g2.shape == (64**2, 64)  # not separable: (N^2, N) factors
    assert_operator_matches(op, dense_pointwise(k, grid, op.rotation), rng)


def separable_kernel(rng):
    """K1(x1, y1) K2(x2, y2) from two random one-mode kernels: modes that differ, oscillate and are shifted."""
    modes = [random_kernel(rng, 1) for _ in range(2)]
    diag = {name: np.diag([getattr(m, name)[0, 0] for m in modes]) for name in ("pxx", "pxy", "pyy")}
    return GaussianKernel(0.7 - 0.4j, **diag, lx=[m.lx[0] for m in modes], ly=[m.ly[0] for m in modes],
                          c0=0.3 + 0.1j)


def test_separable_kronecker_operator_matches_dense_pointwise_matrix():
    rng = np.random.default_rng(21)
    k = separable_kernel(rng)
    assert k.pxx[0, 0] != k.pxx[1, 1] and np.all(np.diagonal(k.phase_hessian()).real != 0)
    assert np.all(np.diagonal(k.pxy) != 0)
    assert np.all(k.lx.imag != 0) and np.all(k.ly.imag != 0) and k.c0.imag != 0
    grid = GridSpec(n=2, half_width=auto_grid(k).half_width, points=64)
    op = discretize(k, grid)
    assert isinstance(op, KroneckerGridMatrix) and op.a1.shape == op.a2.shape == (64, 64)
    assert_operator_matches(op, dense_pointwise(k, grid, op.rotation), rng)


def test_separable_norm_certifies_the_product_residual(monkeypatch):
    """Each factor stops at _NORM_REL_TOL / 3, so r1 (s2 + r2) + s1 r2 <= _NORM_REL_TOL s1 s2.

    That sum bounds |M* (u1 kron u2) - s1 s2 (v1 kron v2)| for the factors' Ritz pairs.
    """
    runs = []
    golub_kahan = oracle._golub_kahan
    monkeypatch.setattr(oracle, "_golub_kahan", lambda *args: runs.append(golub_kahan(*args)) or runs[-1])
    rng = np.random.default_rng(23)
    for k in (separable_kernel(rng), separable_kernel(rng), heat_kernel(0.05, n=2), heat_kernel(1.0, n=2)):
        runs.clear()
        norm = operator_norm(discretize(k))
        (s1, r1), (s2, r2) = runs
        assert norm == s1 * s2 and r1 > 0.0 and r2 > 0.0
        assert r1 * (s2 + r2) + s1 * r2 <= oracle._NORM_REL_TOL * norm


def dense_log_modulus_maxima(k, grid):
    """Row and column maxima of -Im phi(x_i, x_j) over the whole grid, in row blocks."""
    n, im, xs = k.n, k.phase_hessian().imag, grid.nodes()
    row_term = 0.5 * np.einsum("mi,ij,mj->m", xs, im[:n, :n], xs) + xs @ k.lx.imag + k.c0.imag
    col_term = 0.5 * np.einsum("mi,ij,mj->m", xs, im[n:, n:], xs) + xs @ k.ly.imag
    rows, cols = np.empty(len(xs)), np.full(len(xs), -np.inf)
    for start in range(0, len(xs), 512):
        block = slice(start, start + 512)
        ell = -((xs[block] @ im[:n, n:]) @ xs.T + row_term[block, None] + col_term[None, :])
        rows[block] = ell.max(axis=1)
        np.maximum(cols, ell.max(axis=0), out=cols)
    return rows, cols


@pytest.mark.parametrize("seed, shift", [(3, 0.0), (4, 2.0), (5, 2.0)])
def test_two_mode_tail_certificate_matches_dense_log_modulus(seed, shift):
    """Vertex elimination gives the dense maxima, so the same peak, edge and verdict.

    Two-mode kernels first, then one-mode ones.  The shift moves the
    envelope off the centre, so that vertices fall outside the box and are
    clipped to its edge.
    """
    rng = np.random.default_rng(seed)
    for n in (2, 1):
        k = random_kernel(rng, n)
        k = GaussianKernel(k.amplitude, k.pxx, k.pxy, k.pyy, k.lx + shift * np.array([1j, -1j])[:n],
                           k.ly + shift * 1j, k.c0)
        verdicts = []
        for scale in (0.3, 0.6, 0.9, 1.2):
            grid = GridSpec(n=n, half_width=scale * auto_grid(k).half_width, points=64)
            rows, cols = oracle._log_maxima(k, grid)
            ref_rows, ref_cols = dense_log_modulus_maxima(k, grid)
            size = max(1.0, np.max(np.abs(ref_rows)), np.max(np.abs(ref_cols)))
            assert np.max(np.abs(rows - ref_rows)) <= 1e-13 * size
            assert np.max(np.abs(cols - ref_cols)) <= 1e-13 * size
            on_edge = np.max(np.abs(grid.nodes()), axis=1) >= grid.half_width - 1e-12
            edge = max(ref_rows[on_edge].max(), ref_cols[on_edge].max())
            refused = edge - ref_rows.max() > 0.5 * np.log(1e-12)
            verdicts.append(refused)
            if refused:
                with pytest.raises(GridError, match="tail bound"):
                    discretize(k, grid)
            else:
                discretize(k, grid)
        assert verdicts[0] and not verdicts[-1]  # both verdicts are exercised


@pytest.mark.parametrize("seed, uncoupled", [(13, "pyy"), (14, "pxx"), (15, "both")])
def test_per_axis_tail_maxima_match_dense_log_modulus(seed, uncoupled):
    """A diagonal Im pyy (rows) or Im pxx (columns) takes each axis at its own vertex.

    The cross block pxy stays full.  The shift moves the envelope off the
    centre, so that vertices are clipped to the box edge.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    decay = 0.3 * (a + a.T)
    for block, i in (("pxx", 0), ("pyy", 2)):
        if uncoupled in (block, "both"):
            decay[i, i + 1] = decay[i + 1, i] = 0.0
    decay += (0.5 - min(0.0, np.min(np.linalg.eigvalsh(decay)))) * np.eye(4)
    hess = 0.3 * rng.standard_normal((4, 4))
    hess = hess + hess.T + 1j * decay
    lin = 0.4 * rng.standard_normal(4) + 2.0j * np.array([1.0, -1.0, 1.0, 1.0])
    k = GaussianKernel(0.7 - 0.4j, pxx=hess[:2, :2], pxy=hess[:2, 2:], pyy=hess[2:, 2:],
                       lx=lin[:2], ly=lin[2:], c0=0.3 + 0.1j)
    assert k.pxy[0, 1] != 0 and k.pxy[1, 0] != 0
    assert (k.pyy[0, 1].imag == 0) == (uncoupled != "pxx")
    assert (k.pxx[0, 1].imag == 0) == (uncoupled != "pyy")
    verdicts = []
    for scale in (0.3, 0.6, 0.9, 1.2):
        grid = GridSpec(n=2, half_width=scale * auto_grid(k).half_width, points=64)
        rows, cols = oracle._log_maxima(k, grid)
        ref_rows, ref_cols = dense_log_modulus_maxima(k, grid)
        size = max(1.0, np.max(np.abs(ref_rows)), np.max(np.abs(ref_cols)))
        assert np.max(np.abs(rows - ref_rows)) <= 1e-13 * size
        assert np.max(np.abs(cols - ref_cols)) <= 1e-13 * size
        on_edge = np.max(np.abs(grid.nodes()), axis=1) >= grid.half_width - 1e-12
        edge = max(ref_rows[on_edge].max(), ref_cols[on_edge].max())
        refused = edge - ref_rows.max() > 0.5 * np.log(1e-12)
        verdicts.append(refused)
        if refused:
            with pytest.raises(GridError, match="tail bound"):
                discretize(k, grid)
        else:
            discretize(k, grid)
    assert verdicts[0] and not verdicts[-1]  # both verdicts are exercised


@pytest.mark.parametrize("seed", [24, 25])
def test_separable_tail_certificate_matches_dense_log_modulus(seed):
    """A separable kernel's two one-mode certificates read their maxima on the axis grid, O(N) values.

    The first mode's peak is the dense peak, and the two verdicts together
    give the dense verdict.  The shift moves the envelope off the centre, so
    that vertices are clipped to the box edge.
    """
    rng = np.random.default_rng(seed)
    k = separable_kernel(rng)
    k = GaussianKernel(k.amplitude, k.pxx, k.pxy, k.pyy, k.lx + 2.0j * np.array([1.0, -1.0]), k.ly + 2.0j, k.c0)
    verdicts = []
    for scale in (0.3, 0.6, 0.9, 1.2):
        grid = GridSpec(n=2, half_width=scale * auto_grid(k).half_width, points=64)
        ref_rows, ref_cols = dense_log_modulus_maxima(k, grid)
        on_edge = np.max(np.abs(grid.nodes()), axis=1) >= grid.half_width - 1e-12
        edge = max(ref_rows[on_edge].max(), ref_cols[on_edge].max())
        refused = edge - ref_rows.max() > 0.5 * np.log(1e-12)
        verdicts.append(refused)
        if refused:
            with pytest.raises(GridError, match="tail bound"):
                discretize(k, grid)
            continue
        peaks = []
        certify = oracle._certify_tail
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_certify_tail", lambda mode, axis: peaks.append(certify(mode, axis)) or peaks[-1])
            assert isinstance(discretize(k, grid), KroneckerGridMatrix)
        # the second certificate is that of the first mode, which carries the amplitude and the joint peak
        log_scale = np.log(abs(k.amplitude)) + 2.0 * np.log(grid.h)
        assert abs(peaks[1] - (ref_rows.max() + log_scale)) <= 1e-13 * max(1.0, abs(peaks[1]))
    assert verdicts[0] and not verdicts[-1]  # both verdicts are exercised


def test_one_mode_tail_refusal_allocates_no_matrix():
    # the heat envelope is far from negligible at x = 2; the verdict comes
    # before the 16 N^2 bytes of the exponent buffer
    points = 600
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="tail bound"):
            discretize(heat_kernel(1.0), GridSpec(n=1, half_width=2.0, points=points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * points**2 / 20


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3, 0.5, 1.0])
def test_two_mode_heat_matches_dense_route(s):
    """The two-mode heat matrix is the Kronecker square of the one-mode matrix."""
    k2 = heat_kernel(s, n=2)
    half_width = auto_grid(k2).half_width
    one_mode = discretize(heat_kernel(s), GridSpec(n=1, half_width=half_width, points=64))
    dense = np.kron(one_mode, one_mode)
    op = discretize(k2, GridSpec(n=2, half_width=half_width, points=64))
    assert operator_norm(op) == pytest.approx(operator_norm(dense), rel=1e-12)
    assert grid_trace(op) == pytest.approx(grid_trace(one_mode) ** 2, rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_two_mode_heat_on_automatic_grid(s):
    k = heat_kernel(s, n=2)
    tracemalloc.start()
    try:
        mat = discretize(k)
        top, trace = operator_norm(mat), grid_trace(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (101**2, 101**2)  # 1.55 GiB as a dense matrix
    assert peak <= 64 * 2**20
    assert top == pytest.approx(np.exp(-s), rel=1e-8)
    assert trace == pytest.approx(heat_trace(s) ** 2, rel=1e-8)


def test_two_mode_heat_on_automatic_grid_stays_within_axis_factor_memory():
    # separable modes (heat): two N x N one-mode matrices, against 32 N^3 bytes
    # (33 MiB) of coupled factors
    k = heat_kernel(1.0, n=2)
    tracemalloc.start()
    try:
        mat = discretize(k)
        top, trace = operator_norm(mat), grid_trace(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(mat, KroneckerGridMatrix) and mat.a1.shape == mat.a2.shape == (101, 101)
    assert peak <= 4 * 2**20
    assert top == pytest.approx(np.exp(-1.0), rel=1e-8)
    assert trace == pytest.approx(heat_trace(1.0) ** 2, rel=1e-8)
    # uncoupled modes, not separable: (N^2, N) factors on the automatic grid
    uncoupled = discretize(uncoupled_kernel(np.random.default_rng(11)))
    points = uncoupled.g2.shape[1]
    assert isinstance(uncoupled, FactoredGridMatrix) and uncoupled.g1.shape == (points**2, points)


def rotated_heat_generator(s1: float, s2: float) -> QuadraticForm:
    """Two-mode heat flow with rates s1, s2 on modes rotated by 45 degrees."""
    rot = np.kron(np.eye(2), np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
    return QuadraticForm(rot @ (-1j * np.diag([s1, s2, s1, s2])) @ rot.T)


def test_coupled_two_mode_heat_is_verified_on_the_automatic_grid():
    # the rotation couples x1 x2 and y1 y2; in the kernel's y axes the factors
    # stay bounded, where the dense matrix would take 16 * 101^4 bytes (1.55 GiB)
    q = rotated_heat_generator(0.3, 2.0)
    mat = discretize(evolution_to_kernel(EvolutionSpec(q)))
    assert isinstance(mat, FactoredGridMatrix) and mat.shape == (101**2, 101**2)
    assert operator_norm(mat) == pytest.approx(norm_quadratic(q), rel=1e-9)
    assert grid_trace(mat) == pytest.approx(heat_trace(0.3) * heat_trace(2.0), rel=1e-12)


def test_coupled_two_mode_factors_hold_no_subnormal_entry():
    # g2 of the rotated (0.3, 2) heat flow decays past the smallest normal float
    # on its 64-point grid; the flush leaves exact zeros there
    k = evolution_to_kernel(EvolutionSpec(rotated_heat_generator(0.3, 2.0)))
    op = discretize(k, GridSpec(2, auto_grid(k).half_width, 64))
    assert op.g1.shape == (64**2, 64)  # coupled factors
    for factor in (op.dx, op.g1, op.g2, op.dy):
        modulus = np.abs(factor)
        assert not np.any((modulus > 0.0) & (modulus < np.finfo(float).tiny))
    assert np.count_nonzero(op.g2 == 0.0) > 0


COUPLED = 1j * np.array([[1.0, -0.5], [-0.5, 1.0]])


# two-mode kernels that the dense matrix once took: axis-aligned factors would
# overflow or underflow although the kernel itself stays in range
FORMER_DENSE = [
    # y1 y2 coupling in Im pyy: the y diagonal would reach exp(0.95 L^2) at the corners
    (1j * np.eye(2), 1j * np.array([[1.0, 0.95], [0.95, 1.0]]), 30.0),
    # x and y diagonals each reaching exp(0.5 L^2)
    (COUPLED, COUPLED, 25.0),
    (COUPLED, COUPLED, 28.3),
    # x1 x2 coupling in Im pxx: the x diagonal reaches exp(0.5 L^2) = exp(695)
    (COUPLED, 1j * np.eye(2), 30.0),
    (COUPLED, 1j * np.eye(2), 37.28),
]


def former_dense_kernel(pxx, pyy, half_width):
    k = GaussianKernel(1.0, pxx=pxx, pxy=np.zeros((2, 2)), pyy=pyy, lx=np.zeros(2), ly=np.zeros(2))
    return k, GridSpec(n=2, half_width=half_width, points=64)


def pointwise_gap(k, grid, op, rng):
    """Largest gap of 40 rows e_r M from k(S x_r, S x_j) h^2, relative to the largest reference entry."""
    xs = grid.nodes() @ op.rotation.T
    rows = rng.choice(len(xs), size=40, replace=False)
    ref = k(xs[rows][:, None, :], xs[None, :, :]) * grid.h**2
    got = np.array([np.eye(1, len(xs), r)[0] @ op for r in rows])
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("pxx, pyy, half_width", FORMER_DENSE)
def test_two_mode_kernels_of_the_former_dense_route_are_factored(pxx, pyy, half_width):
    k, grid = former_dense_kernel(pxx, pyy, half_width)
    op = discretize(k, grid)
    assert isinstance(op, FactoredGridMatrix)
    assert pointwise_gap(k, grid, op, np.random.default_rng(6)) <= 1e-13


def weak_strong_kernel(rng):
    """Two-mode kernel with one weak (0.05) and one strong (2) decay axis in Im pxx and in Im pyy.

    Each block is rotated at random; the cross block couples the modes.
    """
    def rotated(rates):
        turn = rng.uniform(0.0, np.pi)
        r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        return r @ np.diag(rates) @ r.T

    re = 0.3 * rng.standard_normal((4, 4))
    hess = (re + re.T).astype(complex)
    hess[:2, :2] += 1j * rotated([0.05, 2.0])
    hess[2:, 2:] += 1j * rotated([0.05, 2.0])
    hess[:2, 2:] += 0.01j * rng.standard_normal((2, 2))
    hess[2:, :2] = hess[:2, 2:].T
    lin = 0.4 * rng.standard_normal(4) + 0.02j * rng.standard_normal(4)
    return GaussianKernel(0.7 - 0.4j, pxx=hess[:2, :2], pxy=hess[:2, 2:], pyy=hess[2:, 2:],
                          lx=lin[:2], ly=lin[2:], c0=0.3 + 0.1j)


def test_two_mode_factors_are_bounded_and_match_the_rotated_kernel():
    """Factors of modulus at most 1 hold K(S x_i, S x_j) h^2 to 1e-12 of its largest entry.

    The five kernels the dense matrix once took, then 20 seeded kernels with
    one weak and one strong decay axis, on 64-point grids.  The weak axes
    (c_b = 0.05) cancel in the complete squares, hence 1e-12 rather than 1e-13.
    """
    rng = np.random.default_rng(16)
    cases = [former_dense_kernel(*case) for case in FORMER_DENSE]
    for _ in range(20):
        k = weak_strong_kernel(rng)
        cases.append((k, GridSpec(n=2, half_width=auto_grid(k).half_width, points=64)))
    for k, grid in cases:
        op = discretize(k, grid)
        assert np.max(np.abs(op.g1)) <= 1.0 and np.max(np.abs(op.g2)) <= 1.0
        assert pointwise_gap(k, grid, op, rng) <= 1e-12


def test_two_mode_factors_that_underflow_where_the_kernel_matters_are_refused():
    # the scale amplitude h^2 = 6e-302 turns the edges of the factor that carries
    # it (the first one-mode matrix of a separable kernel, dx of an uncoupled
    # one) subnormal while the entries they carry are not negligible against the peak
    grid = GridSpec(2, 8.0, 64)
    for pxx, kind in ((1j * np.eye(2), KroneckerGridMatrix),
                      (1j * np.array([[1.0, 0.3], [0.3, 1.0]]), FactoredGridMatrix)):
        def kernel(amplitude):
            return GaussianKernel(amplitude, pxx=pxx, pxy=0.2 * np.eye(2), pyy=1j * np.eye(2),
                                  lx=np.zeros(2), ly=np.zeros(2))

        with pytest.raises(GridError, match="underflow where the kernel is not negligible"):
            discretize(kernel(1e-300), grid)
        assert isinstance(discretize(kernel(1e-290), grid), kind)


def test_two_mode_overflowing_kernel_is_refused_before_any_matrix():
    # |K| peaks near exp(1600) at x1 = -80; neither factors nor a dense matrix are built
    k = GaussianKernel(1.0, pxx=0.5j * np.eye(2), pxy=0.2 * np.eye(2), pyy=0.5j * np.eye(2),
                       lx=[40j, 0], ly=[0, 0])
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="overflows"):
            discretize(k, GridSpec(2, 200.0, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 64**4 / 20  # no matrix-sized buffer


# -- operator_norm internals --------------------------------------------------


def test_golub_kahan_norm_matches_dense():
    rng = np.random.default_rng(9)
    qmat, _ = np.linalg.qr(rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400)))
    q2, _ = np.linalg.qr(rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400)))
    singulars = 0.7 ** np.arange(400)
    mat = qmat @ np.diag(singulars) @ q2
    assert min(mat.shape) > 384  # wider than 384: no matrix size takes a separate route
    got = operator_norm(mat)
    assert got == pytest.approx(1.0, rel=1e-8)
    dense = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert got == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("points", [64, 400])
def test_golub_kahan_norm_finds_top_vector_orthogonal_to_a_symmetric_start(points):
    # the top singular vector is odd and the runner-up even: a start vector
    # with a symmetry, such as all ones, never sees the top one
    x = np.linspace(-1.0, 1.0, points)
    v1, v2 = x / np.linalg.norm(x), np.exp(-x**2) / np.linalg.norm(np.exp(-x**2))
    mat = np.outer(v1, v1) + 0.9 * np.outer(v2, v2)
    assert operator_norm(mat) == pytest.approx(1.0, abs=1e-12)


def rank_two_guard_matrix(points):
    """M = u1 v1* + 0.9 e_i v2*, singular values 1 and 0.9, with i = argmax |M c| for the chirp c.

    The top left singular vector u1 is zero at row i and the second one is
    e_i, so row i of M lies along v2 alone, orthogonal to the top right
    singular vector v1; v1 is not orthogonal to c.
    """
    rng = np.random.default_rng(points)
    chirp = oracle._chirp(points)
    v2 = chirp + 0.1 * (rng.standard_normal(points) + 1j * rng.standard_normal(points)) / np.sqrt(points)
    v2 /= np.linalg.norm(v2)
    v1 = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    v1 -= np.vdot(v2, v1) * v2
    v1 /= np.linalg.norm(v1)
    i = points // 3
    u1 = np.ones(points)
    u1[i] = 0.0
    u1 /= np.linalg.norm(u1)
    mat = np.outer(u1, v1.conj()) + 0.9 * np.outer(np.eye(points)[i], v2.conj())
    assert np.argmax(np.abs(mat @ chirp)) == i and abs(np.vdot(v1, chirp)) > 1e-3
    assert np.allclose(np.linalg.svd(mat, compute_uv=False)[:3], [1.0, 0.9, 0.0], atol=1e-13)
    return mat


@pytest.mark.parametrize("points", [64, 400])
def test_golub_kahan_row_start_is_guarded_by_the_chirp(points, monkeypatch):
    mat = rank_two_guard_matrix(points)
    assert operator_norm(mat) == pytest.approx(1.0, abs=1e-12)
    # the row alone, without the chirp term, starts orthogonal to v1 and certifies 0.9
    monkeypatch.setattr(oracle, "_NORM_START_GUARD", 0.0)
    assert operator_norm(mat) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("s", [0.05, 0.3])
def test_golub_kahan_row_start_takes_fewer_steps_than_the_chirp(s, monkeypatch):
    mat = discretize(heat_kernel(s))
    assert mat.shape == (101, 101)
    top = float(np.linalg.svd(mat, compute_uv=False)[0])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    got = operator_norm(mat)
    row_steps = len(calls)
    calls.clear()
    oracle._golub_kahan(mat, oracle._chirp(101), oracle._NORM_REL_TOL)
    assert 0 < row_steps < len(calls)
    assert abs(got - top) <= 1e-13 * top


@pytest.mark.parametrize("points", [64, 400])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_golub_kahan_norm_refuses_non_finite_matrix(points, bad):
    mat = np.random.default_rng(points).standard_normal((points, points)).astype(complex)
    mat[7, 11] = bad
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        operator_norm(mat)


def one_mode_kernels():
    """Heat kernels (a nearly degenerate top pair at small s), rotated and shifted ones."""
    kernels = {f"heat {s}": heat_kernel(s) for s in (0.02, 0.1, 1.0, 4.0)}
    theta, t1 = 0.6, 1.3
    t2 = -np.arcsinh(abs(np.tan(theta) * np.sin(t1))) - 0.4  # inside the compact class
    q = QuadraticForm((t1 + 1j * t2) * q_theta(theta).hess)
    kernels["rotated"] = evolution_to_kernel(EvolutionSpec(q))
    kernels["shifted"] = evolution_to_kernel(EvolutionSpec(q, np.array([0.3 - 0.2j, 0.1 + 0.4j])))
    return kernels


@pytest.mark.parametrize("points", [64, 200, 384, 600])
def test_golub_kahan_norm_matches_numpy_svd(points):
    for name, k in one_mode_kernels().items():
        mat = discretize(k, GridSpec(n=1, half_width=auto_grid(k).half_width, points=points))
        top = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert abs(operator_norm(mat) - top) <= 1e-13 * top, name
    assert operator_norm(np.zeros((points, points), dtype=complex)) == 0.0
    rng = np.random.default_rng(points)
    a = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    b = rng.standard_normal(points) - 0.5j * rng.standard_normal(points)
    expected = np.linalg.norm(a) * np.linalg.norm(b)
    assert abs(operator_norm(np.outer(a, b)) - expected) <= 1e-13 * expected


def test_golub_kahan_exact_breakdown_returns_the_bidiagonal_norm():
    # diag(2, 0) from (1, 1) / sqrt 2: M v_1 lies in span(u_0), so alpha vanishes at
    # step 1, and [alpha_0, beta_0] = [sqrt 2, sqrt 2] holds the norm 2 with residual 0
    mat = np.diag([2.0, 0.0]).astype(complex)
    start = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert oracle._golub_kahan(mat, start, oracle._NORM_REL_TOL) == (2.0, 0.0)


def test_golub_kahan_norm_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(oracle, "_NORM_MAX_STEPS", 1)
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((400, 400))
    with pytest.raises(ConvergenceError):
        operator_norm(mat)
