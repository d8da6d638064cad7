"""Numerics for quantized complex quadratic Hamiltonian flows.

Exact operator norms, strict positivity certificates, Gaussian integral
kernels, and symbol composition for degree-2 Schrodinger evolutions, with
a brute-force grid oracle for cross-checks.

Names resolve on first use (PEP 562): ``import quadflow`` imports no
submodule, and ``quadflow.X`` or ``from quadflow import X`` imports the
submodule that defines X and keeps X in this namespace, so a later access
is a plain attribute lookup.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the names it exports; models exports none and is public itself
_EXPORTS = {
    "errors": """BoundarySpectrumError CompositionClassError ConvergenceError DegenerateKernelError
        GridError PositivityError QuadflowError SymbolConvergenceError""",
    "config": "TOLERANCES",
    "symplectic": """CanonicalTransform QuadraticForm bar_inverse canonical_log flow hamilton_matrix
        inverse is_canonical quadratic_from_hamilton sigma_transpose standard_j symplectic_form""",
    "positivity": "PositivityReport compactness_check mehler_integrable positivity_matrix strict_positivity",
    "evolution": """CenterSample CompositionResult DecompositionData EvolutionSpec a_matrix center_path
        compose_evolutions critical_time decompose eigenvalue_pairing norm_quadratic norm_shifted
        real_log_exists""",
    "symbols": """CrossingData GaussianSymbol PolynomialSymbol ShiftOp crossing mehler_symbol
        polynomial_pullback shift_adjoint shift_compose shift_inverse shift_left shift_right
        shift_symbol symbol_transform two_sided_shift weyl_sharp""",
    "kernels": """GaussianKernel PolynomialKernel apply_polynomial evolution_to_kernel kernel_adjoint
        kernel_compose kernel_left_shift kernel_right_shift kernel_shift_vector kernel_to_evolution
        kernel_transform quantize random_nondegenerate real_shift_conjugate""",
    "oracle": "GridSpec auto_grid discretize grid_trace kernel_norm operator_norm",
    "models": "",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_OWNER, "models", "__version__"]


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that exports it, and keep the result here."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
