"""Strict positivity certificates for complex canonical transformations.

A transform K is strictly positive when the Hermitian matrix
Pi(K) = i (K^* J K - J) is positive definite.  The smallest eigenvalue of
Pi(K) is the certificate margin; flows of this kind quantize to compact
smoothing operators, and every numerical claim downstream (norms, kernels,
compositions) is gated on this margin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .symplectic import (
    CanonicalTransform,
    QuadraticForm,
    _j_times,
    _times_j,
    cayley,
    herm_max_eig,
    standard_j,
)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the strict positivity certificate."""

    margin: float
    is_strict: bool
    boundary: bool  # margin within tolerance of zero: do not trust the verdict

    def __str__(self) -> str:
        state = "strict" if self.is_strict else ("boundary" if self.boundary else "not strict")
        return f"positivity margin {self.margin:.6e} ({state})"


def positivity_matrix(k: CanonicalTransform) -> np.ndarray:
    """Hermitian certificate matrix Pi(K) = i (K^* J K - J)."""
    return _certificates(k.matrix[None])[0]


def _certificates(m: np.ndarray) -> np.ndarray:
    """Pi(K) of each member of a (B, 2n, 2n) stack of transforms."""
    pi = 1j * (_times_j(np.conj(np.swapaxes(m, -1, -2))) @ m - standard_j(m.shape[-1] // 2))
    # exactly Hermitian in exact arithmetic; symmetrize the float residue
    return (pi + np.conj(np.swapaxes(pi, -1, -2))) / 2.0


def positivity_verdicts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Margins (the smallest eigenvalue of Pi(K)), strict and boundary masks of a stack of transforms.

    The one verdict of strict_positivity and evolution.center_path.
    """
    bound = tolerances()["positivity"]
    margins = np.min(np.linalg.eigvalsh(_certificates(m)), axis=-1)
    return margins, margins > bound, np.abs(margins) <= bound


def strict_positivity(k: CanonicalTransform) -> PositivityReport:
    """Certify strict positivity of K."""
    (margin,), (strict,), (boundary,) = positivity_verdicts(k.matrix[None])
    return PositivityReport(margin=float(margin), is_strict=bool(strict), boundary=bool(boundary))


def mehler_integrable(k: CanonicalTransform) -> bool:
    """Whether the closed-form symbol of the quantized flow is integrable.

    Requires -1 to stay away from Spec K (the cosh factor must not vanish)
    and the Hermitian part of i J (1+K)^{-1} (1-K) to be negative definite,
    to the "definite" tolerance that quantize applies (Gaussian decay of the symbol).
    """
    m = k.matrix
    eigs = np.linalg.eigvals(m)
    if np.min(np.abs(eigs + 1.0)) <= tolerances()["spectral"]:
        return False
    g = 1j * _j_times(cayley(m))
    return herm_max_eig(g) < -tolerances()["definite"]


def compactness_check(q: QuadraticForm) -> bool:
    """True when the time-1 flow of q is strictly positive."""
    return strict_positivity(q.transform).is_strict
