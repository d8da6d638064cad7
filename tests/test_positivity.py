"""Strict positivity certificates and integrability gates."""
import numpy as np
import pytest

from quadflow import (
    CanonicalTransform,
    PositivityError,
    QuadraticForm,
    bar_inverse,
    compactness_check,
    flow,
    mehler_integrable,
    positivity_matrix,
    standard_j,
    strict_positivity,
)
from quadflow.models import heat_generator, q_theta

B0 = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)


def test_b0_certificate_spectrum():
    # indefinite certificate: one direction expands, one contracts
    k = CanonicalTransform(B0)
    pi = positivity_matrix(k)
    eigs = np.sort(np.linalg.eigvalsh(pi))
    assert np.allclose(eigs, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-14)
    report = strict_positivity(k)
    assert not report.is_strict
    assert not report.boundary
    assert report.margin == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_b0_pair_matrix():
    k = CanonicalTransform(B0)
    j = standard_j(1)
    m = 1j * j @ (bar_inverse(k).matrix @ k.matrix - np.eye(2))
    expected = np.array([[-1.0, 1.0j], [-1.0j, 1.0]])
    assert np.allclose(m, expected, atol=1e-14)


@pytest.mark.parametrize("s", [0.25, 1.0, 2.5])
def test_heat_flow_margin_closed_form(s):
    k = flow(heat_generator(s))
    report = strict_positivity(k)
    assert report.is_strict
    assert report.margin == pytest.approx(1.0 - np.exp(-2.0 * s), abs=1e-12)


def test_real_flow_sits_on_boundary():
    # metaplectic rotations are unitary, the certificate degenerates to zero
    for t in (0.3, 1.0, 2.0):
        report = strict_positivity(flow(q_theta(0.0), t))
        assert not report.is_strict
        assert report.boundary
        assert abs(report.margin) < 1e-9


def test_tiny_margin_counts_as_boundary():
    report = strict_positivity(flow(heat_generator(1e-10)))
    assert not report.is_strict
    assert report.boundary


def test_report_str_mentions_state():
    strict = strict_positivity(flow(heat_generator(1.0)))
    assert "strict" in str(strict)
    edge = strict_positivity(flow(q_theta(0.0), 1.0))
    assert "boundary" in str(edge)


def test_mehler_integrable_heat():
    assert mehler_integrable(flow(heat_generator(1.0)))


def test_mehler_blocked_by_minus_one_eigenvalue():
    # rotation by pi sends the transform to -identity
    k = flow(q_theta(0.0), np.pi)
    assert np.allclose(k.matrix, -np.eye(2), atol=1e-12)
    assert not mehler_integrable(k)


def test_mehler_blocked_for_oscillatory_flow():
    # real rotations have purely imaginary symbol exponent, nothing decays
    assert not mehler_integrable(flow(q_theta(0.0), 0.7))


def test_compactness_check_matches_flow_certificate():
    assert compactness_check(heat_generator(1.0))
    assert not compactness_check(q_theta(0.0))
    assert compactness_check(heat_generator(0.4)) == strict_positivity(
        flow(heat_generator(0.4))
    ).is_strict


def test_positivity_matrix_is_hermitian():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = QuadraticForm(0.5 * (m + m.T))
    pi = positivity_matrix(flow(q))
    assert np.allclose(pi, pi.conj().T, atol=1e-14)


def test_evolution_requires_strict_positivity():
    from quadflow import EvolutionSpec

    with pytest.raises(PositivityError) as err:
        EvolutionSpec(q_theta(0.0))
    assert err.value.margin is not None
