"""Closed-form model family against the generic pipeline."""
import numpy as np
import pytest

from quadflow import (
    EvolutionSpec,
    PositivityError,
    QuadflowError,
    SymbolConvergenceError,
    QuadraticForm,
    a_matrix,
    critical_time,
    decompose,
    kernel_compose,
    kernel_to_evolution,
    models,
    norm_quadratic,
    norm_shifted,
    symplectic_form,
)

V_PROBE = np.array([0.2 + 0.5j, -0.4 + 0.3j])


def model_flow(theta, t1, t2):
    return QuadraticForm((t1 + 1j * t2) * models.q_theta(theta).hess)


def test_generator_catalog():
    assert np.array_equal(models.q_theta(0.0).hess, np.eye(2))
    assert np.array_equal(models.q_harmonic(2).hess, np.eye(4))
    assert np.allclose(models.q_theta(np.pi / 2).hess, models.bargmann_generator().hess)
    assert np.allclose(models.heat_generator(0.7).hess, -0.7j * np.eye(2))
    assert models.heat_generator(1.0, n=2).hess.shape == (4, 4)


def test_compactness_functional_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(5):
        t1, t2 = rng.uniform(-3, 3), rng.uniform(-2, 2)
        # theta = 0 collapses to a = cosh(2 t2), independent of t1
        assert models.rho_a(0.0, t1, t2) == pytest.approx(np.cosh(2 * t2), abs=1e-12)
    assert models.rho_a(np.pi / 4, np.pi / 2, -1.3) == pytest.approx(np.sinh(1.3) ** 2)
    # real time never leaves the unit level set
    assert models.rho_a(0.4, 1.1, 0.0) < 1.0
    assert models.rho_a(0.0, 1.1, 0.0) == pytest.approx(1.0)


def test_compact_requires_negative_imaginary_time():
    assert models.rho_compact(0.0, 0.7, -0.3)
    # a > 1 alone is not enough, the half-plane sign matters
    assert models.rho_a(0.0, 0.7, 0.3) > 1.0
    assert not models.rho_compact(0.0, 0.7, 0.3)
    assert not models.rho_compact(np.pi / 4, np.pi / 2, -0.5)
    assert not models.rho_compact(0.3, 0.9, 0.0)


def test_critical_time_boundary_sweep():
    tc = critical_time(np.pi / 4)
    assert tc == pytest.approx(-np.arctanh(np.sin(np.pi / 4)), abs=1e-12)
    grid = np.linspace(-np.pi, np.pi, 721)
    assert all(models.rho_compact(np.pi / 4, t1, 1.02 * tc) for t1 in grid)
    values = np.array([models.rho_a(np.pi / 4, t1, 0.98 * tc) for t1 in grid])
    assert values.min() < 1.0
    # the functional bottoms out at the quarter turns
    worst = grid[np.argmin(values)]
    assert abs(abs(worst) - np.pi / 2) < 1e-9
    assert values.min() == pytest.approx(np.sinh(0.98 * tc) ** 2, rel=1e-12)


def test_rho_norm_matches_generic_pipeline():
    checked = 0
    for theta in (0.0, 0.3, np.pi / 4):
        for t1 in (0.0, 0.7, 2.0):
            for t2 in (-0.4, -1.2):
                if not models.rho_compact(theta, t1, t2):
                    continue
                generic = norm_quadratic(model_flow(theta, t1, t2))
                assert models.rho_norm(theta, t1, t2) == pytest.approx(generic, rel=1e-10)
                checked += 1
    assert checked >= 12


def test_rho_norm_outside_compact_set_raises():
    with pytest.raises(PositivityError):
        models.rho_norm(0.0, 0.5, 0.0)
    with pytest.raises(PositivityError):
        models.rho_norm(np.pi / 4, np.pi / 2, -0.5)
    with pytest.raises(PositivityError):
        norm_quadratic(models.q_theta(0.0))


def test_center_matrices_match_generic():
    for theta, t1, t2 in [(0.3, 0.9, -0.8), (0.0, 2.0, -0.4), (np.pi / 4, -1.1, -1.5)]:
        spec = EvolutionSpec(model_flow(theta, t1, t2), V_PROBE)
        d = decompose(spec)
        a1, a2 = models.rho_centers(theta, t1, t2, V_PROBE)
        assert np.allclose(d.a1, a1, atol=1e-9)
        assert np.allclose(d.a2, a2, atol=1e-9)
        assert np.allclose(a_matrix(spec.transform), models.rho_a_matrix(theta, t1, t2), atol=1e-9)


def test_real_shift_centers_are_trivial():
    v = np.array([0.4 + 0.0j, -1.1 + 0.0j])
    a1, a2 = models.rho_centers(0.3, 0.9, -0.8, v)
    assert np.array_equal(a1, v.real)
    assert np.array_equal(a2, v.real)


def test_growth_factor_matches_phase():
    for theta, t1, t2 in [(0.3, 0.9, -0.8), (0.0, -0.6, -1.1)]:
        spec = EvolutionSpec(model_flow(theta, t1, t2), V_PROBE)
        d = decompose(spec)
        lg = models.rho_log_growth(theta, t1, t2, V_PROBE)
        assert abs(d.phase) == pytest.approx(np.exp(lg), rel=1e-10)
        assert norm_shifted(spec) == pytest.approx(
            models.rho_norm_shifted(theta, t1, t2, V_PROBE), rel=1e-10
        )


def test_log_growth_sigma_identity():
    # log G = -sigma(Im v, A Im v) / 2 ties the display formula to the
    # center-gap matrix
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 6:
        theta = rng.uniform(-np.pi / 3, np.pi / 3)
        t1, t2 = rng.uniform(-2.5, 2.5), rng.uniform(-1.8, -0.2)
        if not models.rho_compact(theta, t1, t2):
            continue
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = models.rho_a_matrix(theta, t1, t2)
        w = v.imag.astype(complex)
        expected = -0.5 * symplectic_form(w, a @ w)
        assert models.rho_log_growth(theta, t1, t2, v) == pytest.approx(
            float(expected.real), rel=1e-9, abs=1e-12
        )
        checked += 1


def test_davies_small_time_expansion():
    for s, bound in [(0.2, 1e-4), (0.1, 2e-6), (0.05, 1e-7)]:
        exact, expansion = models.davies_small_time(s)
        assert exact < 1.0
        assert abs(exact - expansion) < bound
    # remainder scales like s^4: halving s shrinks the gap about 16x
    gap_big = abs(np.subtract(*models.davies_small_time(0.1)))
    gap_small = abs(np.subtract(*models.davies_small_time(0.05)))
    assert 12.0 < gap_big / gap_small < 20.0
    exacts = [models.davies_small_time(s)[0] for s in np.linspace(0.05, 1.2, 12)]
    assert all(b < a for a, b in zip(exacts, exacts[1:]))


def test_shifted_davies_blowup():
    exact, expansion = models.shifted_davies_blowup(0.05, 0.1, 0.3)
    assert exact == pytest.approx(expansion, rel=1e-6)
    # the 6 wx^2 / s term dominates at small time
    assert abs(exact - 6.0 * 0.1**2 / 0.05) < 0.02
    assert models.shifted_davies_blowup(0.01, 0.1, 0.3)[0] > exact
    # no blowup without a position component in the shift
    tame, tame_exp = models.shifted_davies_blowup(0.05, 0.0, 0.3)
    assert abs(tame) < 0.01
    assert abs(tame - tame_exp) < 1e-5


def test_center_circle_sweep():
    v = np.array([0.1 + 0.4j, -0.2 + 0.25j])
    c1, c2, radius = models.ho_center_geometry(-0.7, v)
    assert radius == pytest.approx(np.linalg.norm(v.imag) / np.sinh(0.7), rel=1e-12)
    for t1 in np.linspace(-3.0, 3.0, 25):
        a1, a2 = models.rho_centers(0.0, t1, -0.7, v)
        assert np.linalg.norm(a1 - c1) == pytest.approx(radius, abs=1e-12)
        assert np.linalg.norm(a2 - c2) == pytest.approx(radius, abs=1e-12)


def test_center_circle_far_time_limit():
    v = np.array([0.1 + 0.4j, -0.2 + 0.25j])
    c1, _, _ = models.ho_center_geometry(-5.0, v)
    limit = v.real + models.H0 @ v.imag
    assert np.linalg.norm(c1 - limit) < 2e-4 * np.linalg.norm(v.imag)
    with pytest.raises(ValueError):
        models.ho_center_geometry(0.0, v)


def test_heat_trace_value_and_domain():
    for s in (0.3, 1.0, 4.0):
        assert models.heat_trace(s) == pytest.approx(1.0 / (2.0 * np.sinh(s / 2.0)))
    with pytest.raises(ValueError):
        models.heat_trace(0.0)


def test_bargmann_kernels_agree():
    ref = models.bargmann_reference_kernel(0.7)
    formal = models.bargmann_rotation_kernel(0.7)
    assert np.allclose(ref.pxx, formal.pxx, atol=1e-12)
    assert np.allclose(ref.pxy, formal.pxy, atol=1e-12)
    assert np.allclose(ref.pyy, formal.pyy, atol=1e-12)
    assert np.allclose(formal.lx, 0.0) and np.allclose(formal.ly, 0.0)
    assert abs(formal.amplitude / ref.amplitude - 1.0) < 1e-12


def test_bargmann_reference_semigroup_by_quadrature():
    # middle integral converges since Im(pyy + pxx) = cot(0.5) + cot(0.7) > 0
    k1 = models.bargmann_reference_kernel(0.5)
    k2 = models.bargmann_reference_kernel(0.7)
    target = models.bargmann_reference_kernel(1.2)
    z = np.linspace(-30.0, 30.0, 12001)[:, None]
    for x, y in [(0.3, -0.5), (1.1, 0.4), (-0.8, -0.2)]:
        xa, ya = np.array([x]), np.array([y])
        integrand = np.asarray(k1(xa, z)).ravel() * np.asarray(k2(z, ya)).ravel()
        got = np.trapezoid(integrand, z.ravel())
        assert got == pytest.approx(complex(target(xa, ya)), rel=1e-10)


def test_bargmann_reference_semigroup_by_composition():
    composed = kernel_compose(
        models.bargmann_reference_kernel(0.5), models.bargmann_reference_kernel(0.7)
    )
    target = models.bargmann_reference_kernel(1.2)
    ratios = []
    for x, y in [(0.3, -0.5), (1.1, 0.4), (-0.8, -0.2)]:
        xa, ya = np.array([x]), np.array([y])
        ratios.append(complex(composed(xa, ya)) / complex(target(xa, ya)))
    for r in ratios:
        assert min(abs(r - 1.0), abs(r + 1.0)) < 1e-10
        assert abs(r - ratios[0]) < 1e-10


def test_bargmann_reference_rejected_by_certified_inverse():
    # Im phi'' is indefinite, so the certified recovery must refuse
    with pytest.raises(QuadflowError, match="eigenvalues"):
        kernel_to_evolution(models.bargmann_reference_kernel(0.7))


def test_bargmann_domain_gates():
    for bad_t in (-0.3, 0.0, np.pi):
        with pytest.raises(ValueError):
            models.bargmann_reference_kernel(bad_t)
    # outside (0, pi) the momentum integral loses decay even formally
    for bad_t in (-0.3, 0.0):
        with pytest.raises(SymbolConvergenceError):
            models.bargmann_rotation_kernel(bad_t)
