"""Gaussian integral kernels: quantization, composition, shifts, brackets."""
import dataclasses
import sys

import numpy as np
import pytest

import quadflow
from quadflow import (
    DegenerateKernelError,
    EvolutionSpec,
    GaussianKernel,
    GaussianSymbol,
    PolynomialKernel,
    PolynomialSymbol,
    QuadflowError,
    QuadraticForm,
    ShiftOp,
    SymbolConvergenceError,
    apply_polynomial,
    canonical_log,
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
    shift_left,
    shift_right,
    two_sided_shift,
    weyl_sharp,
)
from quadflow.models import heat_generator
from quadflow.symplectic import block2, logm

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
    sym = mehler_symbol(QuadraticForm(0.7 * np.diag([1j, -1j])))
    assert float(np.max(np.linalg.eigvalsh((sym.g + sym.g.conj().T).real / 2))) > 0
    with pytest.raises(QuadflowError):
        quantize(sym)
    k = quantize(sym, formal=True)
    assert np.all(np.isfinite(k.pxx))


@pytest.mark.parametrize("n", [1, 2])
def test_certified_quantize_solves_one_hermitian_eigenproblem(monkeypatch, n):
    # full decay of the symbol implies the momentum-block check (Cauchy interlacing)
    sym = mehler_symbol(heat_generator(0.8, n=n))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    quantize(sym)
    assert calls == [(2 * n, 2 * n)]
    calls.clear()
    quantize(sym, formal=True)
    assert calls == [(n, n)]


def test_quantize_refuses_divergent_momentum_block():
    # purely oscillatory symbol: no regularization makes the xi integral
    # converge, formal mode included
    sym = mehler_symbol(QuadraticForm(np.eye(2)))
    with pytest.raises(SymbolConvergenceError):
        quantize(sym, formal=True)


# -- round trips --------------------------------------------------------------


def test_gaussian_integrals_do_not_need_logm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix logarithm called")

    monkeypatch.setattr(quadflow.symplectic, "logm", refuse)
    sym = mehler_symbol(heat_generator(0.8, n=2))
    kern = quantize(sym)
    kernel_compose(kern, kern)
    weyl_sharp(sym, sym)


@pytest.mark.parametrize("n", [1, 2])
def test_each_step_runs_one_matrix_exponential(n, monkeypatch):
    # a generator's time-1 flow is computed once; derived inverses and later
    # readers of the same form run no further matrix exponential
    calls = []
    expm = quadflow.symplectic.expm

    def counted(m):
        calls.append(m.shape)
        return expm(m)

    def one_expm(step):
        calls.clear()
        out = step()
        assert len(calls) == 1
        return out

    for name, mod in list(sys.modules.items()):  # every module binding of the exponential
        if name.startswith("quadflow") and getattr(mod, "expm", None) is expm:
            monkeypatch.setattr(mod, "expm", counted)
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


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_defective_flows_have_a_generator_and_a_kernel_round_trip(s, eps):
    # -i s I + eps diag(B, B) with B nilpotent: a strictly positive flow with
    # Jordan blocks, whose eigenvector matrix is too ill conditioned for
    # V diag(log lambda) V^{-1} to recover the generator to this accuracy
    b = np.array([[1.0, 1j], [1j, -1.0]])
    z = np.zeros((2, 2))
    q = QuadraticForm(-1j * s * np.eye(4) + eps * np.block([[b, z], [z, b]]))
    spec = EvolutionSpec(q, 0.3 * np.array([1.0, -1j, 0.5, 1j]))
    assert np.linalg.cond(np.linalg.eig(q.transform.matrix)[1]) > 1e6
    scale = np.linalg.norm(q.hess)
    assert np.linalg.norm(canonical_log(q.transform).hess - q.hess) <= 1e-12 * scale
    back, c = kernel_to_evolution(evolution_to_kernel(spec))
    assert np.linalg.norm(back.q.hess - q.hess) <= 1e-12 * scale
    assert np.allclose(back.v, spec.v, rtol=0, atol=1e-12)
    assert abs(c - 1.0) <= 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_defective_flows_take_inverse_scaling_and_squaring(s, eps, monkeypatch):
    # the flows of the test above: their eigenvector matrices are past the
    # condition cap, so canonical_log falls back to logm, once per call
    calls = []

    def counted(x):
        calls.append(x.shape)
        return logm(x)

    monkeypatch.setattr("quadflow.symplectic.logm", counted)
    b = np.array([[1.0, 1j], [1j, -1.0]])
    z = np.zeros((2, 2))
    q = QuadraticForm(-1j * s * np.eye(4) + eps * np.block([[b, z], [z, b]]))
    for _ in range(2):
        canonical_log(q.transform)
    assert calls == [(4, 4), (4, 4)]


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
    # the phase Hessian, assembled in place, has the bits of np.block
    assert np.array_equal(k.phase_hessian(), np.block([[k.pxx, k.pxy], [k.pxy.T, k.pyy]]))
    g, j = mehler_symbol(spec.q).g, np.array([[0.0, -1.0], [1.0, 0.0]])  # weyl_sharp's blocks
    assert np.array_equal(block2(g, -1j * j, 1j * j, 2.0 * g), np.block([[g, -1j * j], [1j * j, 2.0 * g]]))


def test_round_trip_kernel_is_quantized_once(monkeypatch):
    # kernel_to_evolution stores the kernel it builds for c on the recovered spec
    calls = []
    quantize_ = quadflow.kernels.quantize

    def counted(sym):
        calls.append(sym)
        return quantize_(sym)

    monkeypatch.setattr(quadflow.kernels, "quantize", counted)
    spec = EvolutionSpec(perturbed_heat(0.9, 5), np.array([0.4 + 0.2j, -0.3 + 0.6j]))
    back, _ = kernel_to_evolution(evolution_to_kernel(spec))
    assert len(calls) == 2
    assert evolution_to_kernel(back) is evolution_to_kernel(back)
    assert len(calls) == 2


def shifted_generators(count=20, seed=90):
    """One- and two-mode shifted generators R - i P, drawn as in the kernel_calculus benchmark."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 + i % 2
        a = rng.standard_normal((2 * n, 2 * n))
        r = rng.standard_normal((2 * n, 2 * n))
        hess = (r + r.T) / 2.0 - 1j * (a @ a.T / (2 * n) + 0.2 * np.eye(2 * n))
        yield hess, 0.5 * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))


def same_bits(a, b):
    fields = [f.name for f in dataclasses.fields(a)]
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def test_stored_symbols_and_kernels_equal_fresh_ones():
    for hess, v in shifted_generators():
        spec = EvolutionSpec(QuadraticForm(hess), v)
        kern = evolution_to_kernel(spec)
        back, _ = kernel_to_evolution(kern)
        stored = [mehler_symbol(spec.q), two_sided_shift(v, mehler_symbol(spec.q)), evolution_to_kernel(spec),
                  mehler_symbol(back.q), evolution_to_kernel(back)]
        assert stored[2] is kern
        fresh = [mehler_symbol(QuadraticForm(hess)), two_sided_shift(v, mehler_symbol(QuadraticForm(hess))),
                 evolution_to_kernel(EvolutionSpec(QuadraticForm(hess), v)),
                 mehler_symbol(QuadraticForm(back.q.hess)),
                 evolution_to_kernel(EvolutionSpec(QuadraticForm(back.q.hess), back.v))]
        assert all(same_bits(a, b) for a, b in zip(stored, fresh))


@pytest.mark.parametrize("name", ["amplitude", "pxx", "c0", "extra"])
def test_kernel_attributes_cannot_be_assigned(name):
    kern = evolution_to_kernel(EvolutionSpec(perturbed_heat(0.9, 5), np.array([0.4 + 0.2j, -0.3j])))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(kern, name, 0.0)


@pytest.mark.parametrize("name", ["pxx", "pxy", "pyy", "lx", "ly"])
def test_kernel_arrays_are_read_only_copies(name):
    # a stored kernel is shared by every later caller, and a caller's arrays
    # written after construction do not reach it
    spec = EvolutionSpec(perturbed_heat(0.9, 5), np.array([0.4 + 0.2j, -0.3j]))
    kern = evolution_to_kernel(spec)
    before = getattr(kern, name).copy()
    with pytest.raises(ValueError, match="read-only"):
        getattr(kern, name)[0] = 7.0
    assert np.array_equal(getattr(evolution_to_kernel(spec), name), before)
    parts = {f: np.array(getattr(kern, f)) for f in ("pxx", "pxy", "pyy", "lx", "ly")}
    made = GaussianKernel(amplitude=1.0, **parts)
    parts[name][0] = 7.0
    assert np.array_equal(getattr(made, name), before)


def bits(obj):
    return [np.asarray(getattr(obj, f.name)).tobytes() for f in dataclasses.fields(obj)]


def test_package_built_kernels_and_symbols_skip_the_input_checks(monkeypatch):
    # the kernels and symbols the package builds equal, bit for bit, the checked ones
    # built from their fields; they are sealed without running symmetrize, which a
    # kernel_calculus member now calls only for its two forms and two canonical logs
    calls = []
    symmetrize = quadflow.symplectic.symmetrize

    def counted(m, what):
        calls.append(what)
        return symmetrize(m, what)

    for module in (quadflow.symplectic, quadflow.kernels):
        monkeypatch.setattr(module, "symmetrize", counted)
    gens = list(shifted_generators(count=8, seed=91))  # modes 1, 2, 1, 2, ...: pair members two apart
    for (h1, v1), (h2, v2) in zip(gens[:2] + gens[4:6], gens[2:4] + gens[6:]):
        del calls[:]
        s1, s2 = EvolutionSpec(QuadraticForm(h1), v1), EvolutionSpec(QuadraticForm(h2), v2)
        k1, k2 = evolution_to_kernel(s1), evolution_to_kernel(s2)
        back, _ = kernel_to_evolution(k1)
        composed = compose_evolutions(s1, s2)
        a1, a2 = two_sided_shift(v1, mehler_symbol(s1.q)), two_sided_shift(v2, mehler_symbol(s2.q))
        kernels = [k1, k2, evolution_to_kernel(back), evolution_to_kernel(composed.spec),
                   kernel_compose(k1, k2), quantize(weyl_sharp(a1, a2))]
        assert len(calls) == 4
        shift = ShiftOp(v2, 0.3 - 0.4j)
        kernels += [kernel_adjoint(k1), kernel_left_shift(shift, k1), kernel_right_shift(shift, k1),
                    real_shift_conjugate(v1.real, k2, v2.real)]
        symbols = [mehler_symbol(s1.q), a1, a2, weyl_sharp(a1, a2), shift_left(v1, a2), shift_right(v1, a2)]
        for obj in kernels + symbols:
            fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
            assert bits(obj) == bits(type(obj)(**fields))
            assert all(type(x) is complex or x.dtype == complex and not x.flags.writeable for x in fields.values())
        for kern in kernels:
            assert np.array_equal(kern.pxx, kern.pxx.T) and np.array_equal(kern.pyy, kern.pyy.T)
            assert all(a.flags.c_contiguous for a in (kern.pxx, kern.pxy, kern.pyy))
        assert all(np.array_equal(sym.g, sym.g.T) for sym in symbols)


@pytest.mark.parametrize("c0", [0.7 + 40j, 0.7 - 40j])
def test_kernel_to_evolution_scalar_where_origin_value_is_extreme(c0):
    # exp(i c0) scales the value at the origin by e^{-40} or e^{+40}
    v = np.array([0.4 + 0.2j, -0.3 + 0.6j])
    k = evolution_to_kernel(EvolutionSpec(perturbed_heat(0.9, 5), v))
    scaled = GaussianKernel(
        amplitude=k.amplitude, pxx=k.pxx, pxy=k.pxy, pyy=k.pyy, lx=k.lx, ly=k.ly, c0=k.c0 + c0,
    )
    _, c = kernel_to_evolution(scaled)
    assert abs(c - np.exp(1j * c0)) <= 1e-12 * abs(np.exp(1j * c0))


def test_kernel_pipeline_asks_no_second_integrability_question(monkeypatch):
    # strict positivity, certified by EvolutionSpec, implies an integrable
    # symbol; the integrals check decay themselves
    def refuse(k):
        raise AssertionError("mehler_integrable called")

    monkeypatch.setattr("quadflow.positivity.mehler_integrable", refuse)
    monkeypatch.setattr("quadflow.symbols.mehler_integrable", refuse, raising=False)
    rng = np.random.default_rng(80)
    a = rng.standard_normal((4, 4))
    r = rng.standard_normal((4, 4))
    q = QuadraticForm((r + r.T) / 2.0 - 1j * (a @ a.T / 4 + 0.2 * np.eye(4)))
    spec = EvolutionSpec(q, 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    spec2, c = kernel_to_evolution(evolution_to_kernel(spec))
    assert np.allclose(spec2.v, spec.v, atol=1e-9) and abs(c - 1.0) < 1e-9
    sym = two_sided_shift(spec.v, mehler_symbol(spec.q))
    weyl_sharp(sym, sym)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["pxx", "pyy"])
def test_kernel_refuses_non_finite_phase(value, name):
    blocks = {"pxx": 1j * np.eye(2), "pyy": 1j * np.eye(2)}
    blocks[name][1, 1] = complex(0.0, value)
    with pytest.raises(ValueError, match=rf"{name} has non-finite entries at \[\(1, 1\)\]"):
        GaussianKernel(amplitude=1.0, pxy=0.5 * np.eye(2), lx=np.zeros(2), ly=np.zeros(2), **blocks)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["amplitude", "pxy", "lx", "ly", "c0"])
def test_kernel_refuses_non_finite_amplitude_cross_block_and_linear_terms(value, name):
    parts = {"amplitude": 1.0, "pxx": 1j * np.eye(2), "pxy": 0.5 * np.eye(2), "pyy": 1j * np.eye(2),
             "lx": np.zeros(2), "ly": np.zeros(2), "c0": 0.0}
    parts[name] = parts[name] + complex(0.0, value)  # a non-finite imaginary part in every entry
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GaussianKernel(**parts)


def test_composition_refuses_non_finite_phase():
    # the middle integral overflows: the Schur complement of the composition is infinite
    big = GaussianKernel(amplitude=1.0, pxx=[[1j]], pxy=[[1e200]], pyy=[[1j]], lx=[0.0], ly=[0.0])
    with pytest.raises(ValueError, match="non-finite entries"):
        kernel_compose(big, big)


def _overflowing_builds():
    """Nine builders on inputs whose result has a NaN or infinite field, each a name and a thunk."""
    big_symbol = GaussianSymbol(1, -np.eye(2), [1e155, 1e155j])
    plain = GaussianKernel(1, [[1j]], [[0.5]], [[1j]], [0], [0])
    big_linear = GaussianKernel(1, [[1j]], [[0.5]], [[1j]], [1e155], [1e155j])
    heat = mehler_symbol(heat_generator(1.0))
    return {
        "quantize": lambda: quantize(big_symbol),  # c0 = nan
        "kernel_compose": lambda: kernel_compose(big_linear, plain),  # c0 = nan
        "weyl_sharp": lambda: weyl_sharp(big_symbol, GaussianSymbol(1, -np.eye(2), [0, 0])),  # c = nan
        "two_sided_shift": lambda: two_sided_shift([1e155j, 0], heat),  # c = inf + nan i
        "shift_left": lambda: shift_left([1e200j, 1e200], heat),  # c = nan
        "shift_right": lambda: shift_right([1e200j, 1e200], heat),
        "kernel_left_shift": lambda: kernel_left_shift(ShiftOp([1e160, 1e160]), plain),  # c0 infinite
        "kernel_right_shift": lambda: kernel_right_shift(ShiftOp([1e160, 1e160]), plain),
        "real_shift_conjugate": lambda: real_shift_conjugate([1e160, 0], plain, [0, 1e160]),
    }


@pytest.mark.parametrize("name", list(_overflowing_builds()))
def test_builders_refuse_a_result_that_overflows(name):
    # a kernel or symbol the package builds is refused where it is made, never returned with
    # a NaN or infinite field, and with no RuntimeWarning first (an error under pytest)
    build = _overflowing_builds()[name]
    with pytest.raises(ValueError, match="non-finite entries"):
        build()


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
    # scalar cocycle and the sign, with no sign freedom
    v1 = np.array([0.2 + 0.1j, -0.3 + 0.2j])
    v2 = np.array([-0.1 + 0.3j, 0.2 - 0.1j])
    s1 = EvolutionSpec(perturbed_heat(0.8, 41), v1)
    s2 = EvolutionSpec(perturbed_heat(1.1, 42), v2)
    result = compose_evolutions(s1, s2)
    lhs = kernel_compose(evolution_to_kernel(s1), evolution_to_kernel(s2))
    rhs = evolution_to_kernel(result.spec)
    for x, y in RNG_POINTS:
        got = complex(lhs(x, y))
        want = result.factor * complex(rhs(x, y))
        assert got == pytest.approx(want, rel=1e-9)


def oscillator_pair(times_a, times_b, rng):
    """Shifted harmonic oscillators at complex times, one mode per entry of times_a."""
    n = len(times_a)
    return tuple(
        EvolutionSpec(QuadraticForm(np.diag(np.tile(times, 2))),
                      0.3 * (rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)))
        for times in (times_a, times_b)
    )


def composition_gap(s1, s2, rng):
    """Composed spec's factor and the largest relative gap of factor * kernel(spec3) to K1 K2."""
    result = compose_evolutions(s1, s2)
    x, y = rng.standard_normal((2, 6, s1.n))
    want = kernel_compose(evolution_to_kernel(s1), evolution_to_kernel(s2))(x, y)
    got = result.factor * evolution_to_kernel(result.spec)(x, y)
    return result.factor, float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("t1a, t1b", [(1.2, 0.8), (2.5, 2.5), (3.0, 4.0), (6.5, 5.5)])
def test_composition_sign_survives_the_wrap_of_the_log(t1a, t1b):
    # t1-sums 2, 5, 7, 12: the principal log of K3 wraps the sum at 5 and 7 by
    # an odd number of 2 pi turns, which flips the Mehler sign of kernel(spec3)
    rng = np.random.default_rng(int(10 * (t1a + t1b)))
    s1, s2 = oscillator_pair([t1a - 0.3j], [t1b - 0.4j], rng)
    _, gap = composition_gap(s1, s2, rng)
    assert gap <= 1e-9


def test_composition_sign_of_uncoupled_modes_is_the_product_of_their_signs():
    # modes at t1-sums 5 and 2: the two-mode factor is the product of the
    # one-mode factors, and one of them carries the wrap's -1
    rng = np.random.default_rng(57)
    s1, s2 = oscillator_pair([2.5 - 0.3j, 1.2 - 0.2j], [2.5 - 0.4j, 0.8 - 0.5j], rng)
    factor, gap = composition_gap(s1, s2, rng)
    assert gap <= 1e-9
    modes = []
    for j in (0, 1):
        one = [EvolutionSpec(QuadraticForm(s.q.hess[j::2, j::2]), s.v[j::2]) for s in (s1, s2)]
        mode_factor, mode_gap = composition_gap(*one, rng)
        assert mode_gap <= 1e-9
        modes.append(mode_factor)
    assert factor == pytest.approx(modes[0] * modes[1], rel=1e-12)


def test_sharp_product_and_kernel_product_agree_with_their_sign():
    # two routes to the kernel of a^w b^w, compared pointwise with no sign freedom
    rng = np.random.default_rng(95)
    for (h1, v1), (h2, v2) in zip(shifted_generators(40, seed=93), shifted_generators(40, seed=94)):
        a, b = (two_sided_shift(v, mehler_symbol(QuadraticForm(h))) for h, v in ((h1, v1), (h2, v2)))
        via_sharp = quantize(weyl_sharp(a, b))
        via_kernels = kernel_compose(quantize(a), quantize(b))
        x, y = rng.standard_normal((2, 4, a.n))
        want = via_kernels(x, y)
        assert np.all(np.abs(via_sharp(x, y) - want) <= 1e-12 * np.abs(want))


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


def test_polynomial_kernel_validates_side_at_construction():
    k = random_nondegenerate(1, np.random.default_rng(66))
    with pytest.raises(ValueError, match="side"):
        PolynomialKernel(k, linear_poly(1.0, 0.0), "middle")


@pytest.mark.parametrize("name", ["base", "poly", "side"])
def test_polynomial_kernel_fields_cannot_be_assigned(name):
    k = random_nondegenerate(1, np.random.default_rng(67))
    kern = apply_polynomial(linear_poly(1.0, 0.0), k, "left")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(kern, name, "middle" if name == "side" else None)
    assert kern.side == "left" and kern.base is k
