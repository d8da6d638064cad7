"""Gaussian integral kernels: quantization, composition, shifts, brackets."""
import numpy as np
import pytest
import scipy.linalg

from quadflow import (
    DegenerateKernelError,
    EvolutionSpec,
    GaussianKernel,
    PolynomialSymbol,
    QuadflowError,
    QuadraticForm,
    ShiftOp,
    SymbolConvergenceError,
    apply_polynomial,
    compose_evolutions,
    decompose,
    evolution_to_kernel,
    flow,
    kernel_adjoint,
    kernel_compose,
    kernel_left_shift,
    kernel_right_shift,
    kernel_shift_vector,
    kernel_to_evolution,
    kernel_transform,
    mehler_symbol,
    polynomial_pullback,
    quantize,
    random_nondegenerate,
    real_shift_conjugate,
    two_sided_shift,
    weyl_sharp,
)
from quadflow.models import heat_generator

RNG_POINTS = [
    (np.array([0.3]), np.array([-0.5])),
    (np.array([1.1]), np.array([0.4])),
    (np.array([-0.8]), np.array([-0.2])),
]


def perturbed_heat(s, seed, eps=0.1):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return QuadraticForm(-1j * s * np.eye(2) + eps * (m + m.T) / 2.0)


def kernels_close(a: GaussianKernel, b: GaussianKernel, tol=1e-11):
    for x, y in RNG_POINTS:
        va, vb = complex(a(x, y)), complex(b(x, y))
        assert abs(va - vb) <= tol * (1.0 + abs(vb))


# -- closed forms -------------------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_heat_kernel_closed_form(s):
    k = evolution_to_kernel(EvolutionSpec(heat_generator(s)))
    sh, ch = np.sinh(s), np.cosh(s)
    assert complex(k.amplitude) == pytest.approx((2.0 * np.pi * sh) ** -0.5, rel=1e-12)
    assert np.allclose(k.pxx, 1j * ch / sh * np.eye(1), atol=1e-12)
    assert np.allclose(k.pyy, 1j * ch / sh * np.eye(1), atol=1e-12)
    assert np.allclose(k.pxy, -1j / sh * np.eye(1), atol=1e-12)
    assert np.allclose(k.lx, 0.0) and np.allclose(k.ly, 0.0)
    for x, y in RNG_POINTS:
        expected = (2 * np.pi * sh) ** -0.5 * np.exp(
            -(ch * (x[0] ** 2 + y[0] ** 2) - 2 * x[0] * y[0]) / (2 * sh)
        )
        assert complex(k(x, y)) == pytest.approx(expected, rel=1e-12)


def test_quantize_matches_quadrature():
    # independent check of the closed form: integrate the symbol against the
    # Weyl phase on a dense xi grid
    for q in (heat_generator(1.0), perturbed_heat(1.2, 17)):
        sym = mehler_symbol(q)
        kern = quantize(sym)
        xi = np.linspace(-40.0, 40.0, 8001)
        for x, y in RNG_POINTS:
            w = (x[0] + y[0]) / 2.0
            zs = np.stack([np.full_like(xi, w), xi], axis=-1)
            vals = sym(zs) * np.exp(1j * (x[0] - y[0]) * xi)
            integral = np.trapezoid(vals, xi) / (2.0 * np.pi)
            assert abs(complex(kern(x, y)) - integral) < 1e-9


def test_quantize_formal_skips_decay_gate():
    # symbol grows in position but decays in momentum: only the formal
    # route quantizes it, the certified one refuses
    sym = mehler_symbol(QuadraticForm(0.7 * np.diag([1j, -1j])), formal=True)
    assert float(np.max(np.linalg.eigvalsh((sym.g + sym.g.conj().T).real / 2))) > 0
    with pytest.raises(QuadflowError):
        quantize(sym)
    k = quantize(sym, formal=True)
    assert np.all(np.isfinite(k.pxx))


def test_quantize_refuses_divergent_momentum_block():
    # purely oscillatory symbol: no regularization makes the xi integral
    # converge, formal mode included
    sym = mehler_symbol(QuadraticForm(np.eye(2)), formal=True)
    with pytest.raises(SymbolConvergenceError):
        quantize(sym, formal=True)


# -- round trips --------------------------------------------------------------


def test_gaussian_integrals_do_not_need_logm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.logm called")

    monkeypatch.setattr(scipy.linalg, "logm", refuse)
    sym = mehler_symbol(heat_generator(0.8, n=2))
    kern = quantize(sym)
    kernel_compose(kern, kern)
    weyl_sharp(sym, sym)


@pytest.mark.parametrize("n", [1, 2])
def test_each_step_runs_one_matrix_exponential(n, monkeypatch):
    # a generator's time-1 flow is computed once; derived inverses and later
    # readers of the same form run no further matrix exponential
    calls = []
    expm = scipy.linalg.expm

    def counted(m):
        calls.append(m.shape)
        return expm(m)

    def one_expm(step):
        calls.clear()
        out = step()
        assert len(calls) == 1
        return out

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    rng = np.random.default_rng(70 + n)
    specs = []
    for _ in range(2):
        a = rng.standard_normal((2 * n, 2 * n))
        r = rng.standard_normal((2 * n, 2 * n))
        q = QuadraticForm((r + r.T) / 2.0 - 1j * (a @ a.T / (2 * n) + 0.2 * np.eye(2 * n)))
        specs.append((q, 0.3 * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))))
    kern = one_expm(lambda: evolution_to_kernel(EvolutionSpec(*specs[0])))
    one_expm(lambda: kernel_to_evolution(kern))
    s1, s2 = EvolutionSpec(*specs[0]), EvolutionSpec(*specs[1])
    one_expm(lambda: compose_evolutions(s1, s2))


def test_kernel_transform_recovers_flow():
    q = perturbed_heat(1.0, 3)
    spec = EvolutionSpec(q)
    k = evolution_to_kernel(spec)
    trans, w = kernel_transform(k)
    assert np.allclose(trans.matrix, spec.transform.matrix, atol=1e-10)
    assert np.allclose(w, 0.0, atol=1e-12)


def test_kernel_shift_vector_round_trip():
    v = np.array([0.4 + 0.2j, -0.3 + 0.6j])
    spec = EvolutionSpec(perturbed_heat(1.1, 4), v)
    k = evolution_to_kernel(spec)
    assert np.allclose(kernel_shift_vector(k), v, atol=1e-10)


def test_kernel_to_evolution_round_trip():
    v = np.array([0.4 + 0.2j, -0.3 + 0.6j])
    spec = EvolutionSpec(perturbed_heat(0.9, 5), v)
    k = evolution_to_kernel(spec)
    spec2, c = kernel_to_evolution(k)
    assert np.allclose(spec2.q.hess, spec.q.hess, atol=1e-9)
    assert np.allclose(spec2.v, v, atol=1e-9)
    assert c == pytest.approx(1.0, abs=1e-9)


def test_kernel_to_evolution_tracks_scalar():
    spec = EvolutionSpec(heat_generator(1.3))
    k = evolution_to_kernel(spec)
    scaled = GaussianKernel(
        amplitude=k.amplitude * (0.3 - 0.7j),
        pxx=k.pxx, pxy=k.pxy, pyy=k.pyy, lx=k.lx, ly=k.ly, c0=k.c0,
    )
    _, c = kernel_to_evolution(scaled)
    assert c == pytest.approx(0.3 - 0.7j, rel=1e-9)


def test_kernel_to_evolution_rejects_indefinite_phase():
    bad = GaussianKernel(
        amplitude=1.0,
        pxx=2j * np.eye(1),
        pxy=3j * np.eye(1),
        pyy=2j * np.eye(1),
        lx=np.zeros(1),
        ly=np.zeros(1),
    )
    assert bad.nondegeneracy_margin() < 0
    with pytest.raises(QuadflowError) as err:
        kernel_to_evolution(bad)
    assert "eigenvalues" in str(err.value)


def test_degenerate_cross_block_rejected():
    k = GaussianKernel(
        amplitude=1.0,
        pxx=1j * np.eye(1),
        pxy=1e-14 * np.eye(1),
        pyy=1j * np.eye(1),
        lx=np.zeros(1),
        ly=np.zeros(1),
    )
    with pytest.raises(DegenerateKernelError):
        kernel_transform(k)


# -- adjoints -----------------------------------------------------------------


def test_adjoint_pointwise():
    k = random_nondegenerate(1, np.random.default_rng(12))
    adj = kernel_adjoint(k)
    for x, y in RNG_POINTS:
        assert complex(adj(x, y)) == pytest.approx(np.conj(complex(k(y, x))), rel=1e-12)


def test_adjoint_is_involution():
    k = random_nondegenerate(1, np.random.default_rng(13))
    kernels_close(kernel_adjoint(kernel_adjoint(k)), k, tol=1e-13)


def test_heat_kernel_is_self_adjoint():
    k = evolution_to_kernel(EvolutionSpec(heat_generator(0.8)))
    kernels_close(kernel_adjoint(k), k, tol=1e-12)


# -- composition --------------------------------------------------------------


def test_compose_heat_kernels():
    k1 = evolution_to_kernel(EvolutionSpec(heat_generator(0.6)))
    k2 = evolution_to_kernel(EvolutionSpec(heat_generator(0.9)))
    k3 = evolution_to_kernel(EvolutionSpec(heat_generator(1.5)))
    kernels_close(kernel_compose(k1, k2), k3, tol=1e-11)


def test_compose_matches_quadrature():
    k1 = evolution_to_kernel(EvolutionSpec(perturbed_heat(1.0, 31)))
    k2 = evolution_to_kernel(EvolutionSpec(perturbed_heat(1.2, 32)))
    comp = kernel_compose(k1, k2)
    z = np.linspace(-15.0, 15.0, 4001)[:, None]
    for x, y in RNG_POINTS:
        vals = k1(x[None, :], z) * k2(z, y[None, :])
        integral = np.trapezoid(vals.ravel(), z.ravel())
        assert abs(complex(comp(x, y)) - integral) < 1e-9


def test_compose_divergent_middle_raises():
    k = evolution_to_kernel(EvolutionSpec(heat_generator(0.5)))
    flipped = GaussianKernel(
        amplitude=k.amplitude,
        pxx=-k.pxx, pxy=k.pxy, pyy=-k.pyy, lx=k.lx, ly=k.ly,
    )
    with pytest.raises(SymbolConvergenceError):
        kernel_compose(flipped, flipped)


def test_composition_law_matches_kernel_product():
    # product of quantized evolutions vs the composed spec, including the
    # scalar cocycle; only a global sign stays ambiguous
    v1 = np.array([0.2 + 0.1j, -0.3 + 0.2j])
    v2 = np.array([-0.1 + 0.3j, 0.2 - 0.1j])
    s1 = EvolutionSpec(perturbed_heat(0.8, 41), v1)
    s2 = EvolutionSpec(perturbed_heat(1.1, 42), v2)
    result = compose_evolutions(s1, s2)
    lhs = kernel_compose(evolution_to_kernel(s1), evolution_to_kernel(s2))
    rhs = evolution_to_kernel(result.spec)
    x0, y0 = RNG_POINTS[0]
    ratio = complex(lhs(x0, y0)) / (result.factor * complex(rhs(x0, y0)))
    assert abs(abs(ratio) - 1.0) < 1e-9
    assert min(abs(ratio - 1.0), abs(ratio + 1.0)) < 1e-9
    for x, y in RNG_POINTS:
        got = complex(lhs(x, y))
        want = ratio * result.factor * complex(rhs(x, y))
        assert got == pytest.approx(want, rel=1e-9)


# -- shifts on kernels --------------------------------------------------------


def test_left_shift_pointwise_real():
    k = random_nondegenerate(1, np.random.default_rng(21))
    v = np.array([0.7, -0.4])
    shifted = kernel_left_shift(ShiftOp(v), k)
    for x, y in RNG_POINTS:
        direct = (
            np.exp(1j * v[1] * x[0] - 0.5j * v[0] * v[1])
            * complex(k(x - v[:1], y))
        )
        assert complex(shifted(x, y)) == pytest.approx(direct, rel=1e-11)


def test_right_shift_pointwise_real():
    # T S_v picks up the shift inside the y slot of the kernel
    k = random_nondegenerate(1, np.random.default_rng(22))
    v = np.array([0.5, 0.3])
    shifted = kernel_right_shift(ShiftOp(v), k)
    for x, y in RNG_POINTS:
        # (T S_v u)(x) = int K(x, z) (S_v u)(z) dz, substitute z -> y + v_x
        direct = (
            np.exp(1j * v[1] * (y[0] + v[0]) - 0.5j * v[0] * v[1])
            * complex(k(x, y + v[:1]))
        )
        assert complex(shifted(x, y)) == pytest.approx(direct, rel=1e-11)


def test_shift_bridge_through_quantization():
    # symbol-level shifts and kernel-level shifts quantize to the same thing,
    # complex shift vectors included
    q = perturbed_heat(1.0, 23)
    sym = mehler_symbol(q)
    base = quantize(sym)
    from quadflow import shift_left, shift_right

    v = np.array([0.3 - 0.2j, 0.1 + 0.4j])
    kernels_close(quantize(shift_left(v, sym)), kernel_left_shift(ShiftOp(v), base))
    kernels_close(quantize(shift_right(v, sym)), kernel_right_shift(ShiftOp(-v), base))
    two = quantize(two_sided_shift(v, sym))
    chained = kernel_left_shift(ShiftOp(v), kernel_right_shift(ShiftOp(-v), base))
    kernels_close(two, chained)


def test_shifted_evolution_kernel_is_conjugated_base():
    q = perturbed_heat(1.1, 24)
    v = np.array([0.4, -0.6])  # real shift: conjugation is an honest operator identity
    base = evolution_to_kernel(EvolutionSpec(q))
    shifted = evolution_to_kernel(EvolutionSpec(q, v.astype(complex)))
    chained = kernel_left_shift(ShiftOp(v), kernel_right_shift(ShiftOp(-v), base))
    kernels_close(shifted, chained)


def test_decomposition_reassembles_kernel():
    # the whole point of the center decomposition: a complex shift of the
    # evolution equals real shifts around the unshifted kernel, up to phase
    q = perturbed_heat(1.2, 25)
    v = np.array([0.3 + 0.5j, -0.2 + 0.1j])
    spec = EvolutionSpec(q, v)
    d = decompose(spec)
    lhs = evolution_to_kernel(spec)
    rhs = real_shift_conjugate(d.a2, evolution_to_kernel(EvolutionSpec(q)), d.a1)
    for x, y in RNG_POINTS:
        got = complex(lhs(x, y))
        want = d.phase * complex(rhs(x, y))
        assert got == pytest.approx(want, rel=1e-9)


# -- polynomial factors -------------------------------------------------------


def linear_poly(lx, lxi):
    return PolynomialSymbol(c0=0.0, lam=np.array([lx, lxi], dtype=complex),
                            s=np.zeros((2, 2)))


def test_polynomial_linear_identities():
    k = random_nondegenerate(1, np.random.default_rng(61))
    x, y = RNG_POINTS[1]
    gx = k.pxx @ x + k.pxy @ y + k.lx  # phase x-gradient
    gy = k.pxy.T @ x + k.pyy @ y + k.ly

    # left position: kernel times x
    left_pos = apply_polynomial(linear_poly(1.0, 0.0), k, "left")
    assert complex(left_pos(x, y)) == pytest.approx(x[0] * complex(k(x, y)), rel=1e-12)
    # left momentum: -i d/dx acting on the kernel
    left_mom = apply_polynomial(linear_poly(0.0, 1.0), k, "left")
    assert complex(left_mom(x, y)) == pytest.approx(gx[0] * complex(k(x, y)), rel=1e-12)
    # right position: kernel times y
    right_pos = apply_polynomial(linear_poly(1.0, 0.0), k, "right")
    assert complex(right_pos(x, y)) == pytest.approx(y[0] * complex(k(x, y)), rel=1e-12)
    # right momentum: +i d/dy via integration by parts
    right_mom = apply_polynomial(linear_poly(0.0, 1.0), k, "right")
    assert complex(right_mom(x, y)) == pytest.approx(-gy[0] * complex(k(x, y)), rel=1e-12)


def test_polynomial_quadratic_trace_terms():
    k = random_nondegenerate(1, np.random.default_rng(62))
    x, y = RNG_POINTS[2]
    val = complex(k(x, y))
    gx = (k.pxx @ x + k.pxy @ y + k.lx)[0]

    # squared momentum on the left: second derivative brings down the hessian
    mom2 = PolynomialSymbol(c0=0.0, lam=np.zeros(2), s=np.diag([0.0, 1.0]))
    got = complex(apply_polynomial(mom2, k, "left")(x, y))
    assert got == pytest.approx((gx**2 - 1j * k.pxx[0, 0]) * val, rel=1e-11)

    # symmetrized x.xi on the left
    cross = PolynomialSymbol(c0=0.0, lam=np.zeros(2), s=np.array([[0.0, 0.5], [0.5, 0.0]]))
    got = complex(apply_polynomial(cross, k, "left")(x, y))
    assert got == pytest.approx((x[0] * gx - 0.5j) * val, rel=1e-11)


def test_polynomial_egorov_bridge():
    # moving a polynomial across the evolution matches the classical pullback
    q = perturbed_heat(1.0, 63)
    spec = EvolutionSpec(q)
    kern = evolution_to_kernel(spec)
    rng = np.random.default_rng(64)
    poly = PolynomialSymbol(
        c0=0.2 - 0.1j,
        lam=rng.standard_normal(2) + 1j * rng.standard_normal(2),
        s=(lambda m: (m + m.T) / 2)(rng.standard_normal((2, 2))),
    )
    right = apply_polynomial(poly, kern, "right")
    left = apply_polynomial(polynomial_pullback(poly, spec.transform), kern, "left")
    for x, y in RNG_POINTS:
        assert complex(right(x, y)) == pytest.approx(complex(left(x, y)), rel=1e-9)


def test_apply_polynomial_validates_side():
    k = random_nondegenerate(1, np.random.default_rng(65))
    with pytest.raises(ValueError):
        apply_polynomial(linear_poly(1.0, 0.0), k, "middle")
