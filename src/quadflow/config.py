"""Numerical tolerances, adjustable through the QUADFLOW_TOL environment variable."""
from __future__ import annotations

import os

# Central tolerance table. Every threshold used by the certification code
# lives here so the CLI can rebind them in one place.
TOLERANCES: dict[str, float] = {
    "sym": 1e-10,         # Hessian symmetry residual, relative
    "canonical": 1e-10,   # K^T J K - J residual, relative
    "positivity": 1e-9,   # strict positivity margin, absolute
    "spectral": 1e-8,     # distance of Spec K from -1 for symbol integrability
    "log": 1e-9,          # flow(canonical_log(K), 1) vs K, relative
    "boundary": 1e-7,     # |log|lambda|| unit-circle guard in eigenvalue pairing
    "pairing": 1e-8,      # pairing product residual |mu * mu' - 1|
    "degenerate": 1e-10,  # kernel cross-block singularity, scaled by ||phi''||
    "definite": 1e-9,     # definiteness margin for Gaussian integral convergence
}

# Dimension cap: phase-space constructions reject n above this.
MAX_DIM = 16


def parse_tol_overrides(raw: str) -> dict[str, float]:
    """Parse a "key=value,key=value" override string.

    Unknown keys and malformed entries raise ValueError; an empty string
    yields no overrides.
    """
    out: dict[str, float] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"malformed tolerance override {chunk!r}, expected key=value")
        key, _, val = chunk.partition("=")
        key = key.strip()
        if key not in TOLERANCES:
            raise ValueError(f"unknown tolerance key {key!r}; known: {sorted(TOLERANCES)}")
        out[key] = float(val)
    return out


def apply_env_overrides() -> dict[str, float]:
    """Fold QUADFLOW_TOL overrides into TOLERANCES in place, returning them."""
    overrides = parse_tol_overrides(os.environ.get("QUADFLOW_TOL", ""))
    TOLERANCES.update(overrides)
    return overrides
