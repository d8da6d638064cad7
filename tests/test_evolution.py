"""Norms, decompositions, composition, and the real-generator test."""
import numpy as np
import pytest
import scipy.linalg

from quadflow import (
    TOLERANCES,
    BoundarySpectrumError,
    EvolutionSpec,
    PositivityError,
    QuadflowError,
    QuadraticForm,
    a_matrix,
    center_path,
    compose_evolutions,
    critical_time,
    decompose,
    eigenvalue_pairing,
    flow,
    norm_quadratic,
    norm_shifted,
    real_log_exists,
    standard_j,
    symplectic_form,
)
from quadflow.models import heat_generator, q_harmonic, q_theta


def perturbed_heat(s: float, seed: int, eps: float = 0.1) -> QuadraticForm:
    """Strictly positive generator without special symmetry."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return QuadraticForm(-1j * s * np.eye(2) + eps * (m + m.T) / 2.0)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.7])
def test_heat_norm_closed_form(s):
    assert norm_quadratic(heat_generator(s)) == pytest.approx(np.exp(-s / 2.0), rel=1e-12)


def test_heat_eigenvalue_pairing():
    mu = eigenvalue_pairing(flow(heat_generator(1.0)))
    assert mu.shape == (1,)
    assert mu[0] == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_pairing_products_cancel():
    for seed in range(4):
        spec = EvolutionSpec(perturbed_heat(1.2, seed))
        k = spec.transform
        b = np.conj(np.linalg.inv(k.matrix)) @ k.matrix  # not the right pairing matrix
        mu = eigenvalue_pairing(k)
        assert np.all(mu > 0)
        assert np.all(mu < 1)
        del b


def test_pairing_rejects_unitary_flow():
    with pytest.raises(BoundarySpectrumError):
        eigenvalue_pairing(flow(q_theta(0.0), 1.0))


def test_norm_matches_pairing_product():
    q = perturbed_heat(0.9, 11)
    mu = eigenvalue_pairing(flow(q))
    assert norm_quadratic(q) == pytest.approx(float(np.prod(mu**0.25)), rel=1e-12)


# -- shifted decompositions ---------------------------------------------------


def test_decompose_unshifted_is_trivial():
    d = decompose(EvolutionSpec(heat_generator(1.0)))
    assert np.allclose(d.a1, 0.0)
    assert np.allclose(d.a2, 0.0)
    assert d.phase == pytest.approx(1.0)
    assert d.norm == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_decompose_centers_are_real():
    v = np.array([0.4 + 0.3j, -0.2 + 0.5j])
    d = decompose(EvolutionSpec(heat_generator(1.3), v))
    assert d.a1.dtype.kind == "f"
    assert d.a2.dtype.kind == "f"
    assert d.imag_residue < 1e-9


def test_decompose_center_gap_uses_a_matrix():
    v = np.array([0.4 + 0.3j, -0.2 + 0.5j])
    spec = EvolutionSpec(perturbed_heat(1.1, 21), v)
    d = decompose(spec)
    gap = a_matrix(spec.transform) @ v.imag
    assert np.allclose(d.a2 - d.a1, gap, atol=1e-10)


def test_decompose_phase_recombines():
    v = np.array([0.1 + 0.6j, 0.3 - 0.2j])
    spec = EvolutionSpec(perturbed_heat(1.4, 33), v)
    d = decompose(spec)
    expected = np.exp(0.5j * symplectic_form(spec.v, (d.a2 - d.a1).astype(complex)))
    assert d.phase == pytest.approx(expected, rel=1e-10)
    assert d.norm == pytest.approx(abs(d.phase) * float(np.prod(d.mu**0.25)), rel=1e-12)


def test_norm_ignores_real_shifts():
    q = perturbed_heat(1.0, 5)
    v = np.array([0.2 + 0.4j, -0.3 + 0.1j])
    shift = np.array([0.7, -1.1])
    n1 = norm_shifted(EvolutionSpec(q, v))
    n2 = norm_shifted(EvolutionSpec(q, v + shift))
    assert n1 == pytest.approx(n2, rel=1e-11)


def test_norm_shifted_grows_with_imaginary_shift():
    q = heat_generator(1.0)
    base = norm_quadratic(q)
    shifted = norm_shifted(EvolutionSpec(q, np.array([1.0j, 0.0])))
    assert shifted > base


def test_center_path_reports_failures():
    items = [
        (0.0, heat_generator(1.0), np.array([1.0j, 0.0])),
        (1.0, q_theta(0.0), np.array([1.0j, 0.0])),  # boundary, not compact
    ]
    samples = center_path(items)
    assert samples[0].ok
    assert not samples[1].ok
    assert samples[1].param == 1.0


def loop_center(q: QuadraticForm, v: np.ndarray):
    """One member through the per-member pipeline that center_path replaced.

    Returns (stage, a1, a2): stage is "ok" or the first check the member fails.
    """
    n, j, eye = q.n, standard_j(q.n), np.eye(2 * q.n)
    km = scipy.linalg.expm(-j @ q.hess)
    if np.linalg.norm(km.T @ j @ km - j) > TOLERANCES["canonical"] * (1.0 + np.linalg.norm(km) ** 2):
        raise ValueError("matrix is not canonical")
    pi = 1j * (km.conj().T @ j @ km - j)
    if not np.min(np.linalg.eigvalsh((pi + pi.conj().T) / 2.0)) > TOLERANCES["positivity"]:
        return "positivity", None, None
    kbm = -j @ np.conj(km).T @ j
    a1 = v.real + np.linalg.solve(km.imag.astype(complex), (km.real - eye) @ v.imag)
    a2 = v.real - np.linalg.solve(kbm.imag.astype(complex), (kbm.real - eye) @ v.imag)
    residue = max(np.max(np.abs(a1.imag)), np.max(np.abs(a2.imag)))
    if residue > 1e-9 * (1.0 + max(np.max(np.abs(a1)), np.max(np.abs(a2)))):
        return "centers", None, None
    eigs = np.linalg.eigvals(kbm @ km)
    eigs = eigs[np.argsort(np.abs(eigs))]
    if np.any(np.abs(np.log(np.abs(eigs))) < TOLERANCES["boundary"]):
        return "boundary", None, None
    small, large = eigs[:n], eigs[2 * n - 1 : n - 1 : -1]
    if np.max(np.abs(small * large - 1.0)) > TOLERANCES["pairing"]:
        return "pairing", None, None
    if np.max(np.abs(small.imag)) > 1e-8 * np.max(np.abs(small)) or np.any(small.real <= 0.0):
        return "pairing", None, None
    return "ok", a1.real, a2.real


def mixed_family(seed: int, count: int):
    """One- and two-mode members: compact, non-compact, and pairings within the boundary guard."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        kind = i % 4
        t = rng.uniform(-np.pi, np.pi) + 1j * rng.uniform(-1.5, 0.1)
        if kind == 0:  # rotated oscillator, compact or not
            hess = t * q_theta(rng.uniform(-1.3, 1.3)).hess
        elif kind == 1:  # damped rotation, margin and |log mu| near 2 s: at either guard
            s = np.exp(rng.uniform(np.log(1e-10), np.log(4e-8)))
            hess = (t.real - 1j * s) * np.eye(2)
        elif kind == 2:  # two rotated modes side by side
            hess = np.zeros((4, 4), dtype=complex)
            hess[[0, 2], [0, 2]] = t * q_theta(rng.uniform(-1.3, 1.3)).hess.diagonal()
            hess[[1, 3], [1, 3]] = rng.uniform(0.5, 2.0) * t * q_theta(rng.uniform(-1.3, 1.3)).hess.diagonal()
        else:  # generic two-mode generator near the heat flow
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            hess = -1j * rng.uniform(0.05, 1.5) * np.eye(4) + 0.2 * (m + m.T) / 2.0
        n = hess.shape[0] // 2
        v = rng.standard_normal(2 * n) + 1j * rng.uniform(0.0, 3.0) * rng.standard_normal(2 * n)
        items.append((float(i), QuadraticForm(hess), v))
    return items


def test_center_path_matches_loop_reference():
    items = mixed_family(7, 160)
    samples = center_path(items)
    reference = [loop_center(q, v) for _, q, v in items]
    stages = {stage for stage, _, _ in reference}
    assert {"ok", "positivity", "boundary"} <= stages
    for (param, _, _), sample, (stage, a1, a2) in zip(items, samples, reference):
        assert sample.param == param
        assert sample.ok == (stage == "ok")
        if sample.ok:
            assert np.array_equal(sample.a1, a1) and np.array_equal(sample.a2, a2)
        else:
            assert sample.a1 is None and sample.a2 is None


# -- composition --------------------------------------------------------------


def test_compose_heat_semigroup():
    s1 = EvolutionSpec(heat_generator(0.6))
    s2 = EvolutionSpec(heat_generator(0.9))
    result = compose_evolutions(s1, s2)
    assert np.allclose(result.spec.q.hess, heat_generator(1.5).hess, atol=1e-10)
    assert np.allclose(result.spec.v, 0.0)
    assert result.factor == pytest.approx(1.0)
    assert result.sign_ambiguous


def test_compose_transform_is_product():
    v1 = np.array([0.2 + 0.1j, -0.4 + 0.3j])
    v2 = np.array([-0.1 + 0.2j, 0.3 + 0.1j])
    s1 = EvolutionSpec(perturbed_heat(0.8, 51), v1)
    s2 = EvolutionSpec(perturbed_heat(1.1, 52), v2)
    result = compose_evolutions(s1, s2)
    assert np.allclose(
        result.spec.transform.matrix,
        s1.transform.matrix @ s2.transform.matrix,
        atol=1e-9,
    )


def test_compose_is_associative():
    specs = [
        EvolutionSpec(perturbed_heat(0.7, 61), np.array([0.1 + 0.2j, 0.0])),
        EvolutionSpec(perturbed_heat(0.9, 62), np.array([0.0, 0.3 - 0.1j])),
        EvolutionSpec(perturbed_heat(1.2, 63), np.array([-0.2j, 0.1])),
    ]
    left = compose_evolutions(compose_evolutions(specs[0], specs[1]).spec, specs[2])
    lfac = compose_evolutions(specs[0], specs[1]).factor * left.factor
    right = compose_evolutions(specs[0], compose_evolutions(specs[1], specs[2]).spec)
    rfac = right.factor * compose_evolutions(specs[1], specs[2]).factor
    assert np.allclose(left.spec.v, right.spec.v, atol=1e-9)
    assert np.allclose(left.spec.q.hess, right.spec.q.hess, atol=1e-9)
    assert lfac == pytest.approx(rfac, rel=1e-9)


# -- real generator test ------------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
def test_heat_flow_has_real_log(s):
    assert real_log_exists(flow(heat_generator(s)))


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_damped_half_turn_has_no_real_log(s):
    # strictly positive, self-paired, but the flow hides a parity factor:
    # the candidate generator is never sign definite
    k = flow(q_harmonic(1), np.pi - 1j * s)
    kb = np.linalg.inv(np.conj(k.matrix))
    assert np.allclose(kb, k.matrix, atol=1e-12)
    assert not real_log_exists(k)


def test_real_log_requires_self_pairing():
    with pytest.raises(ValueError):
        real_log_exists(flow(perturbed_heat(1.0, 71)))


def test_real_log_requires_strict_positivity():
    with pytest.raises(PositivityError):
        real_log_exists(flow(q_theta(0.0), 1.0))


def test_real_log_empirical_sign():
    # the classifier's verdict must match the sign structure of the actual
    # grid matrices: definite for the heat flow, indefinite for the half turn
    from quadflow import auto_grid, discretize, evolution_to_kernel

    s = 1.5
    spec_heat = EvolutionSpec(heat_generator(s))
    mat = discretize(evolution_to_kernel(spec_heat), auto_grid(evolution_to_kernel(spec_heat)))
    herm = 0.5 * (mat + mat.conj().T)
    skew = (mat - mat.conj().T) / 2.0j
    assert np.linalg.norm(skew) < 1e-9 * np.linalg.norm(herm)
    assert np.min(np.linalg.eigvalsh(herm)) > -1e-12
    assert real_log_exists(spec_heat.transform)

    spec_turn = EvolutionSpec(QuadraticForm((np.pi - 1j * s) * np.eye(2)))
    mat2 = discretize(evolution_to_kernel(spec_turn), auto_grid(evolution_to_kernel(spec_turn)))
    herm2 = 0.5 * (mat2 + mat2.conj().T)
    skew2 = (mat2 - mat2.conj().T) / 2.0j
    assert np.linalg.norm(herm2) < 1e-9 * np.linalg.norm(skew2)
    # alternating parity spectrum, up to one global ambiguous sign
    eigs = np.linalg.eigvalsh(skew2)
    assert eigs.min() < -0.05 and eigs.max() > 0.05
    assert np.max(np.abs(eigs)) == pytest.approx(np.exp(-s / 2.0), rel=1e-6)
    assert not real_log_exists(spec_turn.transform)


# -- critical time ------------------------------------------------------------


def test_critical_time_values():
    assert critical_time(0.0) == 0.0
    assert critical_time(np.pi / 4) == pytest.approx(-np.arctanh(np.sin(np.pi / 4)), rel=1e-14)
    assert critical_time(-np.pi / 4) == critical_time(np.pi / 4)


def test_critical_time_domain():
    with pytest.raises(ValueError):
        critical_time(np.pi / 2)


def test_decompose_refuses_overflowing_growth():
    # log growth factor 739.4 > log(float max) = 709.8: refused, never inf
    spec = EvolutionSpec(heat_generator(1.0), np.array([40j, 0.0]))
    with pytest.raises(QuadflowError, match="log growth factor 739.387"):
        decompose(spec)
