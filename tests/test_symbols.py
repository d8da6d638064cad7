"""Weyl symbols: closed forms, sharp products, shifts, crossings."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg

import quadflow
from quadflow import (
    EvolutionSpec,
    GaussianSymbol,
    PolynomialSymbol,
    QuadflowError,
    QuadraticForm,
    ShiftOp,
    SymbolConvergenceError,
    crossing,
    evolution_to_kernel,
    flow,
    hamilton_matrix,
    inverse,
    mehler_symbol,
    polynomial_pullback,
    quantize,
    shift_adjoint,
    shift_compose,
    shift_inverse,
    shift_left,
    shift_right,
    shift_symbol,
    symbol_transform,
    symplectic_form,
    two_sided_shift,
    weyl_sharp,
)
from quadflow.models import heat_generator, q_theta


def perturbed_heat(s, seed, eps=0.1):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return QuadraticForm(-1j * s * np.eye(2) + eps * (m + m.T) / 2.0)


def symbols_close(a: GaussianSymbol, b: GaussianSymbol, tol=1e-12):
    scale = 1.0 + abs(a.c)
    assert abs(a.c - b.c) < tol * scale
    assert np.max(np.abs(a.l - b.l)) < tol
    assert np.max(np.abs(a.g - b.g)) < tol


# -- closed forms -------------------------------------------------------------


@pytest.mark.parametrize("s", [0.4, 1.0, 2.3])
def test_heat_symbol_closed_form(s):
    sym = mehler_symbol(heat_generator(s))
    assert sym.c == pytest.approx(1.0 / np.cosh(s / 2.0), rel=1e-12)
    assert np.allclose(sym.g, -np.tanh(s / 2.0) * np.eye(2), atol=1e-12)
    assert np.allclose(sym.l, 0.0)
    z = np.array([0.7, -0.4])
    expected = np.exp(-np.tanh(s / 2.0) * (0.7**2 + 0.4**2)) / np.cosh(s / 2.0)
    assert sym(z) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t1", [1.0, 3.0, 5.0, 7.0, 9.0, 12.0])
def test_mehler_prefactor_has_no_sign_freedom(t1):
    # the oscillator at complex time t has c = 1/cos(t/2), past several 2 pi wraps of t1
    t = t1 - 0.5j
    expected = 1.0 / np.cos(t / 2.0)
    assert abs(mehler_symbol(QuadraticForm(t * np.eye(2))).c - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize(
    "theta, t",
    [(0.0, 2 * np.pi - 0.1j), (0.1, 2 * np.pi - 0.1j), (0.1, 10 * np.pi - 0.5j), (0.1, 10 * np.pi - 1.3j)],
)
def test_mehler_prefactor_sign_where_cosh_is_negative(theta, t):
    # H_q of t q_theta has eigenvalues +-lambda = +-i t, so c = 1/cosh(lambda/2) = 1/cos(t/2);
    # here cosh(lambda/2) sits next to the negative real axis, the cut of the complex log
    expected = 1.0 / np.cosh(0.5j * t)
    assert abs(mehler_symbol(QuadraticForm(t * q_theta(theta).hess)).c - expected) <= 1e-12 * abs(expected)


def test_rotation_symbol_is_oscillatory():
    # the closed form is the classical sec/tan one; integrating it refuses
    with pytest.raises(SymbolConvergenceError):
        quantize(mehler_symbol(q_theta(0.0)))
    sym = mehler_symbol(q_theta(0.0))
    assert sym.c == pytest.approx(1.0 / np.cos(0.5), rel=1e-12)
    assert np.allclose(sym.g, -1j * np.tan(0.5) * np.eye(2), atol=1e-12)


def test_mehler_symbol_refuses_a_vanishing_cosh_factor():
    # H_q of pi I has eigenvalues +-i pi, so cosh(lambda/2) = cos(pi/2) = 0 and c = 1/cosh has no value;
    # formal quantization, which checks no positivity, asks for the symbol first and gets the refusal
    with pytest.raises(SymbolConvergenceError, match="^cosh factor vanishes; no closed-form symbol$"):
        quantize(mehler_symbol(QuadraticForm(np.pi * np.eye(2))), formal=True)


def test_mehler_formula_runs_once_per_form(monkeypatch):
    # the symbol is stored on its (immutable) form: repeated calls, and the
    # kernel of a spec on the same form, reuse it; another form computes its own
    calls = []
    formula = quadflow.symbols._mehler

    def counted(q):
        calls.append(q)
        return formula(q)

    monkeypatch.setattr(quadflow.symbols, "_mehler", counted)
    q, other = perturbed_heat(1.1, 2), perturbed_heat(1.1, 2)
    sym = mehler_symbol(q)
    assert mehler_symbol(q) is sym
    evolution_to_kernel(EvolutionSpec(q, np.array([0.2 + 0.1j, -0.3j])))
    quantize(mehler_symbol(q), formal=True)
    assert calls == [q]
    assert mehler_symbol(other) is not sym
    assert calls == [q, other]


def test_formal_call_leaves_the_certified_checks_standing():
    # the symbol of 0.7 i (x^2 - xi^2)/2 decays in momentum only: a formal
    # kernel first, from the stored symbol, does not let a certified call pass
    q = QuadraticForm(0.7 * np.diag([1j, -1j]))
    kern = quantize(mehler_symbol(q), formal=True)
    assert np.all(np.isfinite(kern.pxx))
    sym = mehler_symbol(q)
    with pytest.raises(SymbolConvergenceError):
        quantize(sym)
    with pytest.raises(SymbolConvergenceError):
        weyl_sharp(sym, sym)
    with pytest.raises(QuadflowError):
        evolution_to_kernel(EvolutionSpec(q))
    assert quantize(mehler_symbol(q), formal=True).amplitude == kern.amplitude


@pytest.mark.parametrize("write", [
    lambda sym: setattr(sym, "c", 1.0),
    lambda sym: setattr(sym, "g", np.zeros((2, 2))),
    lambda sym: setattr(sym, "extra", 1.0),
    lambda sym: sym.g.__setitem__((0, 0), 1.0),
    lambda sym: sym.l.__setitem__(0, 1.0),
], ids=["c", "g", "new attribute", "g entry", "l entry"])
def test_symbols_are_immutable(write):
    # a stored symbol is shared by every later caller, so none can change it
    sym = mehler_symbol(perturbed_heat(1.1, 2))
    before = (sym.c, sym.g.copy(), sym.l.copy())
    with pytest.raises((dataclasses.FrozenInstanceError, ValueError)):
        write(sym)
    assert sym.c == before[0] and np.array_equal(sym.g, before[1]) and np.array_equal(sym.l, before[2])


def test_symbol_owns_its_arrays():
    g, l = -np.eye(2, dtype=complex), np.array([0.3, 0.1j])
    sym = GaussianSymbol(c=1.0, g=g, l=l)
    g[0, 0], l[0] = 5.0, 5.0
    assert sym.g[0, 0] == -1.0 and sym.l[0] == 0.3


@pytest.mark.parametrize("c, g, l, message", [
    (1.0, [[1, 5], [0, 1]], [0, 0], "g is not symmetric within tolerance"),
    (1.0, [[np.nan, 0], [0, 1]], [0, 0], r"g has non-finite entries at \[\(0, 0\)\]"),
    (1.0, np.eye(3), [0, 0, 0], r"g must be a square matrix of even size, got \(3, 3\)"),
    (np.nan, -np.eye(2), [0, 0], "c must be finite"),
    (1.0, -np.eye(2), [0, np.inf], "l must be finite"),
], ids=["asymmetric-g", "non-finite-g", "odd-g", "non-finite-c", "non-finite-l"])
def test_symbol_refuses_bad_outside_input(c, g, l, message):
    with pytest.raises(ValueError, match=message):
        GaussianSymbol(c=c, g=g, l=l)


def shift_takers():
    """Every public entry that takes an outside shift, as a function of the shift alone."""
    q = heat_generator(0.5)
    sym = mehler_symbol(q)
    return {
        "EvolutionSpec": lambda v: evolution_to_kernel(EvolutionSpec(q, v)),
        "ShiftOp": ShiftOp,
        "crossing": lambda v: crossing(flow(q), v),
        "two_sided_shift": lambda v: two_sided_shift(v, sym),
        "shift_left": lambda v: shift_left(v, sym),
        "shift_right": lambda v: shift_right(v, sym),
    }


@pytest.mark.parametrize("v", [[np.nan, 0], [0, np.inf]], ids=["nan", "inf"])
@pytest.mark.parametrize("taker", list(shift_takers()))
def test_non_finite_shift_is_refused(taker, v):
    # refused before any arithmetic: no NaN answer and no floating-point warning
    take = shift_takers()[taker]
    with np.errstate(all="raise"), pytest.raises(ValueError, match="v must be finite"):
        take(v)


@pytest.mark.parametrize("c0, lam, s, message", [
    (0, [0, 0], [[1, 5], [0, 1]], "s is not symmetric within tolerance"),
    (0, [0, 0], [[np.nan, 0], [0, 1]], r"s has non-finite entries at \[\(0, 0\)\]"),
    (0, [0, 0, 0], np.eye(3), r"s must be a square matrix of even size, got \(3, 3\)"),
    (np.inf, [0, 0], np.eye(2), "c0 must be finite"),
    (0, [np.nan, 0], np.eye(2), "lam must be finite"),
], ids=["asymmetric-s", "non-finite-s", "odd-s", "non-finite-c0", "non-finite-lam"])
def test_polynomial_symbol_refuses_bad_outside_input(c0, lam, s, message):
    with pytest.raises(ValueError, match=message):
        PolynomialSymbol(c0=c0, lam=lam, s=s)


@pytest.mark.parametrize("phase", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_shift_op_refuses_non_finite_phase(phase):
    # a NaN phase made kernel_left_shift return a NaN amplitude with no error
    with pytest.raises(ValueError, match="phase must be finite"):
        ShiftOp([0.1, 0.2], phase=phase)


@pytest.mark.parametrize("make, name, value", [
    (lambda v, lam, s: ShiftOp(v, 0.5j), "v", np.array([np.inf, 0.0])),
    (lambda v, lam, s: ShiftOp(v, 0.5j), "phase", np.nan),
    (lambda v, lam, s: PolynomialSymbol(0.2, lam, s), "c0", 1.0),
    (lambda v, lam, s: PolynomialSymbol(0.2, lam, s), "lam", np.zeros(2)),
    (lambda v, lam, s: PolynomialSymbol(0.2, lam, s), "s", [[1, 5], [0, 1]]),
], ids=["ShiftOp.v", "ShiftOp.phase", "PolynomialSymbol.c0", "PolynomialSymbol.lam", "PolynomialSymbol.s"])
def test_shifts_and_polynomial_symbols_are_immutable(make, name, value):
    # an assigned field would skip the constructor's checks; the caller's arrays stay writable
    v, lam, s = np.array([0.1 + 0.2j, -0.3j]), np.array([0.4, 0.1j]), np.array([[1.0, 0.5], [0.5, -1.0]])
    obj = make(v, lam, s)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)
    for mine in (v, lam, s):
        assert mine.flags.writeable
    arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, mine) for a in arrays for mine in (v, lam, s))


def test_symbol_transform_round_trip():
    q = perturbed_heat(1.1, 2)
    sym = mehler_symbol(q)
    t = symbol_transform(sym)
    k = flow(q).matrix
    eye = np.eye(2)
    assert np.allclose(t, np.linalg.solve(k + eye, k - eye), atol=1e-11)


def test_amplitude_determinant_identity():
    # det cosh(H/2) = det(1 + K) / 2^(2n) holds with no positivity at all
    rng = np.random.default_rng(8)
    for n in (1, 2):
        m = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        q = QuadraticForm(0.5 * (m + m.T))
        h = hamilton_matrix(q)
        lhs = np.linalg.det(
            (scipy.linalg.expm(h / 2.0) + scipy.linalg.expm(-h / 2.0)) / 2.0
        )
        rhs = np.linalg.det(np.eye(2 * n) + scipy.linalg.expm(h)) / 4.0**n
        assert lhs == pytest.approx(rhs, rel=1e-10)


# -- sharp products -----------------------------------------------------------


def test_sharp_heat_semigroup():
    a = mehler_symbol(heat_generator(0.7))
    b = mehler_symbol(heat_generator(1.1))
    ab = weyl_sharp(a, b)
    expected = mehler_symbol(heat_generator(1.8))
    symbols_close(ab, expected, tol=1e-12)


def test_sharp_matches_product_transform():
    qa, qb = perturbed_heat(0.9, 21), perturbed_heat(1.2, 22)
    ka, kb = flow(qa).matrix, flow(qb).matrix
    ab = weyl_sharp(mehler_symbol(qa), mehler_symbol(qb))
    eye = np.eye(2)
    k3 = ka @ kb
    t3 = np.linalg.solve(k3 + eye, k3 - eye)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(ab.g, -1j * j @ t3, atol=1e-11)
    assert np.allclose(ab.l, 0.0, atol=1e-12)


def test_sharp_amplitude_product_formula():
    qa, qb = perturbed_heat(0.8, 31), perturbed_heat(1.0, 32)
    a, b = mehler_symbol(qa), mehler_symbol(qb)
    ta, tb = symbol_transform(a), symbol_transform(b)
    ab = weyl_sharp(a, b)
    det = np.linalg.det(np.eye(2) + ta @ tb)
    expected = a.c * b.c * det**-0.5
    assert min(abs(ab.c - expected), abs(ab.c + expected)) < 1e-12 * abs(expected)
    # the determinant factor rewrites through the three transforms
    ka, kb = flow(qa).matrix, flow(qb).matrix
    eye = np.eye(2)
    rewritten = 2.0 * np.linalg.solve(eye + ka, (eye + ka @ kb) @ np.linalg.inv(eye + kb))
    assert np.allclose(eye + ta @ tb, rewritten, atol=1e-11)


def test_sharp_requires_decay():
    osc = mehler_symbol(q_theta(0.0))
    with pytest.raises(SymbolConvergenceError):
        weyl_sharp(osc, osc)


# -- shifts -------------------------------------------------------------------


def rand_symbol(seed: int) -> GaussianSymbol:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2))
    g = -(m @ m.T) / 2.0 - 0.2 * np.eye(2) + 0.05j * np.eye(2)
    l = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return GaussianSymbol(c=0.8 - 0.3j, g=g, l=l)


def test_shift_symbol_form():
    v = np.array([0.6, -1.2])
    sym = shift_symbol(ShiftOp(v))
    assert sym.c == 1.0
    assert np.allclose(sym.g, 0.0)
    # exponent is -i sigma(z, v)
    z = np.array([0.3, 0.9])
    assert sym(z) == pytest.approx(np.exp(-1j * symplectic_form(z, v)))


def test_shift_symbol_rejects_complex_shift():
    with pytest.raises(ValueError):
        shift_symbol(ShiftOp(np.array([0.5 + 0.2j, 0.0])))


def test_shift_group_law_on_symbols():
    v = np.array([0.4, -0.3])
    w = np.array([-0.8, 0.5])
    lhs = shift_left(v, shift_symbol(ShiftOp(w)))
    rhs = shift_symbol(shift_compose(ShiftOp(v), ShiftOp(w)))
    symbols_close(lhs, rhs)


def test_shift_inverse_and_adjoint():
    op = ShiftOp(np.array([0.7, 0.2]), phase=np.exp(0.3j))
    ident = shift_compose(op, shift_inverse(op))
    assert np.allclose(ident.v, 0.0)
    assert ident.phase == pytest.approx(1.0)
    adj = shift_adjoint(op)
    assert np.allclose(adj.v, -op.v)  # real shift: adjoint is the inverse shift
    assert adj.phase == pytest.approx(np.conj(op.phase))


def test_two_sided_shift_is_left_then_right():
    a = rand_symbol(3)
    v = np.array([0.5 + 0.1j, -0.2 + 0.4j])
    direct = two_sided_shift(v, a)
    chained = shift_right(v, shift_left(v, a))
    symbols_close(direct, chained, tol=1e-12)
    chained2 = shift_left(v, shift_right(v, a))
    symbols_close(direct, chained2, tol=1e-12)


def test_two_sided_shift_closed_form():
    a = rand_symbol(4)
    v = np.array([0.3 - 0.2j, 0.6 + 0.1j])
    out = two_sided_shift(v, a)
    assert out.c == pytest.approx(a.c * np.exp(v @ a.g @ v - a.l @ v), rel=1e-12)
    assert np.allclose(out.l, a.l - 2.0 * a.g @ v, atol=1e-12)
    assert np.allclose(out.g, a.g)


def test_crossing_identities():
    q = perturbed_heat(1.0, 41)
    k = flow(q)
    sym = mehler_symbol(q)
    v = np.array([0.4 + 0.2j, -0.1 + 0.5j])
    data = crossing(k, v)
    assert np.allclose(data.u, (np.eye(2) - inverse(k).matrix) @ v)
    assert np.allclose(data.w, (np.eye(2) - k.matrix) @ v)

    conjugated = shift_right(v, shift_left(v, sym))
    via_u = shift_right(data.u, sym)
    via_w = shift_left(data.w, sym)
    assert abs(conjugated.c - data.factor_u * via_u.c) < 1e-12
    assert np.allclose(conjugated.l, via_u.l, atol=1e-12)
    assert abs(conjugated.c - data.factor_w * via_w.c) < 1e-12
    assert np.allclose(conjugated.l, via_w.l, atol=1e-12)
    assert np.allclose(conjugated.g, sym.g, atol=1e-14)


# -- polynomial symbols -------------------------------------------------------


def test_polynomial_symbol_evaluation():
    poly = PolynomialSymbol(
        c0=1.5 + 0.2j,
        lam=np.array([1.0, -2.0j]),
        s=np.array([[0.5, 0.25], [0.25, -1.0]]),
    )
    z = np.array([2.0, 3.0])
    expected = 1.5 + 0.2j + (1.0 * 2.0 - 2.0j * 3.0) + (0.5 * 4 + 2 * 0.25 * 6 - 1.0 * 9)
    assert poly(z) == pytest.approx(expected)


def test_polynomial_pullback_composes_with_inverse():
    rng = np.random.default_rng(55)
    poly = PolynomialSymbol(
        c0=0.3,
        lam=rng.standard_normal(2) + 1j * rng.standard_normal(2),
        s=(lambda m: (m + m.T) / 2)(rng.standard_normal((2, 2))),
    )
    k = flow(perturbed_heat(0.8, 56))
    pulled = polynomial_pullback(poly, k)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert pulled(k.matrix @ z) == pytest.approx(poly(z), rel=1e-10)
