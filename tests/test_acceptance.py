"""Acceptance suite: eleven numbered criteria plus the figure-data checks.

Every test prints one PASS or FAIL verdict line outside the capture so the
teed test log always carries the full scoreboard.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from quadflow import (
    EvolutionSpec,
    GridSpec,
    PolynomialSymbol,
    QuadflowError,
    QuadraticForm,
    SymbolConvergenceError,
    a_matrix,
    apply_polynomial,
    compactness_check,
    compose_evolutions,
    critical_time,
    crossing,
    decompose,
    discretize,
    evolution_to_kernel,
    flow,
    grid_trace,
    kernel_compose,
    kernel_left_shift,
    kernel_right_shift,
    kernel_to_evolution,
    mehler_integrable,
    mehler_symbol,
    models,
    norm_quadratic,
    norm_shifted,
    operator_norm,
    polynomial_pullback,
    quantize,
    shift_left,
    shift_right,
    strict_positivity,
    ShiftOp,
)
from quadflow.cli import main as cli_main
from quadflow.kernels import random_nondegenerate


@pytest.fixture
def announce(capfd):
    def _announce(text):
        with capfd.disabled():
            print(text, flush=True)

    return _announce


@contextmanager
def criterion(announce, idx, desc):
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {idx}: FAIL - {desc}")
        raise
    announce(f"ACCEPTANCE {idx}: PASS - {desc}")


def random_strict(rng, n, scale=0.25):
    """Random generator whose time-1 flow is certified strictly positive."""
    for _ in range(50):
        s = rng.uniform(0.6, 1.4)
        m = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        q = QuadraticForm(-1j * s * np.eye(2 * n) + scale * (m + m.T) / 2.0)
        if compactness_check(q):
            return q
    raise AssertionError("random strict sampler exhausted its attempts")


def test_criterion_1_rotated_norm_closed_form(announce):
    with criterion(announce, 1, "rotated oscillator norm identity (rel 1e-10)"):
        start = time.perf_counter()
        checked = 0
        for theta in np.linspace(0.0, 1.5, 7):
            base = models.q_theta(theta).hess
            for t1 in np.linspace(-np.pi, np.pi, 20):
                for t2 in np.linspace(-2.5, -0.08, 20):
                    a = models.rho_a(theta, t1, t2)
                    if a <= 1.0 + 1e-6:
                        continue  # boundary band: not in the compact class
                    got = norm_quadratic(QuadraticForm((t1 + 1j * t2) * base))
                    want = (a - np.sqrt(a * a - 1.0)) ** 0.25
                    assert abs(got - want) <= 1e-10 * want, (theta, t1, t2)
                    checked += 1
        assert checked >= 1500
        assert time.perf_counter() - start < 5.0


def test_criterion_2_shifted_norm_with_oracle(announce):
    with criterion(announce, 2, "shifted oscillator growth law, oracle confirmed"):
        start = time.perf_counter()
        for t1 in (0.0, np.pi / 4, np.pi / 2):
            for t2 in (-0.5, -1.0, -2.0):
                for b in (0.5, 1.0):
                    q = QuadraticForm((t1 + 1j * t2) * np.eye(2))
                    spec = EvolutionSpec(q, np.array([1j * b, 0.0]))
                    got = norm_shifted(spec)
                    ratio = np.exp((np.cos(t1) - np.cosh(t2)) / np.sinh(t2) * b * b)
                    assert got == pytest.approx(norm_quadratic(q) * ratio, rel=1e-10)
                    oracle = operator_norm(discretize(evolution_to_kernel(spec)))
                    assert abs(oracle - got) / got < 0.005
        assert time.perf_counter() - start < 60.0


def test_criterion_3_decomposition_identities(announce):
    with criterion(announce, 3, "decomposition centers: gap law and real residues"):
        rng = np.random.default_rng(1203)
        for i in range(100):
            n = 1 + (i % 3)
            q = random_strict(rng, n)
            v = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            spec = EvolutionSpec(q, v)
            d, a = decompose(spec), a_matrix(spec.transform)
            scale = 1.0 + float(np.abs(a @ v.imag).max())
            assert np.abs((d.a2 - d.a1) - a @ v.imag).max() <= 1e-10 * scale


def test_criterion_4_kernel_round_trip(announce):
    with criterion(announce, 4, "kernel inversion round trip on random kernels"):
        rng = np.random.default_rng(404)
        for i in range(50):
            n = 1 if i % 2 == 0 else 2
            k = random_nondegenerate(n, rng)
            spec, c = kernel_to_evolution(k)
            back = evolution_to_kernel(spec)
            for name in ("pxx", "pxy", "pyy", "lx", "ly"):
                a, b = getattr(k, name), getattr(back, name)
                assert np.abs(a - b).max() <= 1e-9 * max(1.0, float(np.abs(a).max()))
            for p in rng.normal(size=(20, 2, n)):
                gap = abs(complex(k(p[0], p[1])) - c * complex(back(p[0], p[1])))
                assert gap <= 1e-9 * abs(k.amplitude)


def test_criterion_5_composition_law(announce):
    with criterion(announce, 5, "composition law, sign included"):
        rng = np.random.default_rng(505)
        gridspec = GridSpec(n=1, half_width=9.0, points=400)
        for i in range(30):
            n = 1 if i < 20 else 2
            s1 = EvolutionSpec(
                random_strict(rng, n), 0.3 * (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
            )
            s2 = EvolutionSpec(
                random_strict(rng, n), 0.3 * (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))
            )
            result = compose_evolutions(s1, s2)
            direct = kernel_compose(evolution_to_kernel(s1), evolution_to_kernel(s2))
            k3 = evolution_to_kernel(result.spec)
            for p in rng.normal(size=(5, 2, n)):
                a = complex(direct(p[0], p[1]))
                b = result.factor * complex(k3(p[0], p[1]))
                assert abs(a - b) <= 1e-9 * abs(direct.amplitude)
            if i < 5:
                m1 = discretize(evolution_to_kernel(s1), gridspec)
                m2 = discretize(evolution_to_kernel(s2), gridspec)
                m12 = discretize(direct, gridspec)
                frob = np.linalg.norm(m1 @ m2 - m12) / np.linalg.norm(m12)
                assert frob < 1e-2


def test_criterion_6_positivity_equivalences(announce):
    with criterion(announce, 6, "positivity equivalences outside the margin band"):
        rng = np.random.default_rng(606)
        samples = 0
        kernel_cases = 0

        def check(q):
            nonlocal samples, kernel_cases
            k = flow(q, 1.0)
            report = strict_positivity(k)
            if abs(report.margin) <= 1e-6:
                return
            samples += 1
            assert mehler_integrable(k) == report.is_strict
            try:
                kern = quantize(mehler_symbol(q), formal=True)
            except (SymbolConvergenceError, QuadflowError):
                return  # no kernel derivable for this sample
            kernel_cases += 1
            assert kern.nondegenerate == report.is_strict

        for i in range(200):  # strictly positive family
            check(random_strict(rng, 1 + (i % 2)))
        for i in range(100):  # expanding family, margin strongly negative
            n = 1 + (i % 2)
            m = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
            check(QuadraticForm(1j * rng.uniform(0.6, 1.4) * np.eye(2 * n) + 0.25 * (m + m.T) / 2.0))
        for _ in range(100):  # imaginary hyperbolic family, formal kernel exists
            check(QuadraticForm(rng.uniform(0.25, 2.8) * np.diag([1j, -1j])))
        assert samples >= 400
        assert kernel_cases >= 250


def test_criterion_7_crossing_relation(announce):
    with criterion(announce, 7, "shift crossing relation, symbol and kernel level"):
        rng = np.random.default_rng(707)
        for i in range(50):
            n = 1 + (i % 2)
            q = random_strict(rng, n)
            k = flow(q, 1.0)
            sym = mehler_symbol(q)
            v = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            data = crossing(k, v)
            conj = shift_right(v, shift_left(v, sym))
            via_u = shift_right(data.u, sym)
            via_w = shift_left(data.w, sym)
            scale = abs(conj.c)
            assert abs(conj.c - data.factor_u * via_u.c) <= 1e-12 * scale
            assert abs(conj.c - data.factor_w * via_w.c) <= 1e-12 * scale
            lscale = 1.0 + float(np.abs(conj.l).max())
            assert np.abs(conj.l - via_u.l).max() <= 1e-12 * lscale
            assert np.abs(conj.l - via_w.l).max() <= 1e-12 * lscale
            assert np.abs(conj.g - sym.g).max() <= 1e-12
        for i in range(10):  # kernel level, real shift
            n = 1 + (i % 2)
            q = random_strict(rng, n)
            kern = evolution_to_kernel(EvolutionSpec(q))
            v = rng.normal(size=2 * n).astype(complex)
            data = crossing(flow(q, 1.0), v)
            conj = kernel_left_shift(ShiftOp(v), kernel_right_shift(ShiftOp(-v), kern))
            via_u = kernel_right_shift(ShiftOp(-data.u, phase=data.factor_u), kern)
            via_w = kernel_left_shift(ShiftOp(data.w, phase=data.factor_w), kern)
            for p in rng.normal(size=(5, 2, n)):
                a = complex(conj(p[0], p[1]))
                assert abs(a - complex(via_u(p[0], p[1]))) <= 1e-9 * abs(kern.amplitude)
                assert abs(a - complex(via_w(p[0], p[1]))) <= 1e-9 * abs(kern.amplitude)


def test_criterion_8_davies_asymptotics(announce):
    with criterion(announce, 8, "small-time norm asymptotics, plain and shifted"):
        s = 0.01
        t = s / np.sqrt(2.0)
        norm = norm_quadratic(QuadraticForm((t - 1j * t) * models.q_theta(np.pi / 4).hess))
        lead = 1.0 / (4.0 * np.sqrt(3.0))
        assert abs((1.0 - norm) / s**2 - lead) / lead < 0.01
        s = 0.05
        t = s / np.sqrt(2.0)
        spec = EvolutionSpec(
            QuadraticForm((t - 1j * t) * models.q_theta(np.pi / 4).hess), np.array([0.1j, 0.0])
        )
        exact, expansion = models.shifted_davies_blowup(s, 0.1, 0.0)
        assert np.log(norm_shifted(spec)) == pytest.approx(exact, abs=1e-9)
        assert abs(exact - expansion) / abs(exact) < 0.01


def test_criterion_9_critical_time(announce):
    with criterion(announce, 9, "compactness boundary matches the critical time"):
        theta = np.pi / 4
        grid = np.linspace(-np.pi, np.pi, 720)

        def worst_margin(t2):
            t = grid + 1j * t2
            a = np.abs(np.cos(t)) ** 2 + np.cos(2 * theta) * np.abs(np.sin(t)) ** 2
            return float(a.min()) - 1.0

        lo, hi = -1.2, -0.6
        assert worst_margin(lo) > 0.0 > worst_margin(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if worst_margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - critical_time(theta)) < 1e-4


def test_criterion_10_heat_trace(announce):
    with criterion(announce, 10, "heat semigroup trace, analytic and on the grid"):
        for s, (half_width, points) in [
            (0.5, (12.0, 480)),
            (1.0, (9.0, 400)),
            (2.0, (7.0, 320)),
        ]:
            kern = evolution_to_kernel(EvolutionSpec(models.heat_generator(s)))
            # diagonal restriction is a one-dimensional Gaussian integral
            quad = kern.pxx[0, 0] + 2.0 * kern.pxy[0, 0] + kern.pyy[0, 0]
            analytic = kern.amplitude * np.sqrt(2.0 * np.pi / (-1j * quad))
            want = models.heat_trace(s)
            assert abs(analytic - want) <= 1e-10 * want
            grid = GridSpec(n=1, half_width=half_width, points=points)
            got = grid_trace(discretize(kern, grid))
            assert abs(got - want) / want < 0.002


def test_criterion_11_polynomial_conjugation(announce):
    with criterion(announce, 11, "polynomial symbols cross the evolution exactly"):
        rng = np.random.default_rng(1111)
        mesh = np.linspace(-3.0, 3.0, 7)
        xg, yg = np.meshgrid(mesh, mesh)
        pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
        for _ in range(10):
            spec = EvolutionSpec(random_strict(rng, 1))
            kern = evolution_to_kernel(spec)
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            poly = PolynomialSymbol(
                c0=complex(rng.normal(), rng.normal()),
                lam=rng.normal(size=2) + 1j * rng.normal(size=2),
                s=(m + m.T) / 2.0,
            )
            right = apply_polynomial(poly, kern, "right")
            left = apply_polynomial(polynomial_pullback(poly, spec.transform), kern, "left")
            va = right(pts[:, :1], pts[:, 1:])
            vb = left(pts[:, :1], pts[:, 1:])
            assert np.abs(va - vb).max() <= 1e-9 * float(np.abs(va).max())


def test_figure_data_properties(announce, tmp_path):
    with criterion(announce, "F", "figure data: center circles and contour asymmetry"):
        cent = tmp_path / "centers.csv"
        assert cli_main(["centers", "--theta", "0", "--t2=-1.2", "--t1=-3:3:41",
                         "-o", str(cent)]) == 0
        rows = cent.read_text().strip().split("\n")[1:]
        assert len(rows) == 41
        assert max(float(r.split(",")[5]) for r in rows) < 1e-10
        cont = tmp_path / "contour.csv"
        assert cli_main(["contour", "--theta", str(np.pi / 4),
                         "--t1", "0:6.283185307179586:13", "--t2=-1.05:-0.95:2",
                         "-o", str(cont)]) == 0
        table = {}
        for row in cont.read_text().strip().split("\n")[1:]:
            t1s, t2s, val = row.split(",")
            table.setdefault(round(float(t1s), 9), {})[round(float(t2s), 9)] = val
        t1_list = sorted(table)
        assert len(t1_list) == 13
        # value(t1) vs value(t1 + pi): the sweep is 2 pi periodic but not pi
        diffs = [
            abs(float(table[t1_list[i]][t2]) - float(table[t1_list[i + 6]][t2]))
            for i in range(6)
            for t2 in table[t1_list[i]]
            if table[t1_list[i]][t2] != "nan" and table[t1_list[i + 6]][t2] != "nan"
        ]
        assert diffs and max(diffs) > 1e-3
