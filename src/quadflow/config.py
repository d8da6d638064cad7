"""Numerical tolerances: one read-only table, rebound for one CLI call through QUADFLOW_TOL."""
from __future__ import annotations

import contextvars
import os
from types import MappingProxyType
from typing import Mapping

# The tolerances of the certificates.  Not every threshold lives here: fixed
# ones, which no QUADFLOW_TOL key rebinds, remain in evolution (_pairing,
# _mehler_williamson, real_log_exists), symbols (_mehler, shift_symbol) and
# symplectic.canonical_log.
TOLERANCES: Mapping[str, float] = MappingProxyType({
    "sym": 1e-10,         # Hessian symmetry residual, relative
    "canonical": 1e-10,   # K^T J K - J residual, relative
    "positivity": 1e-9,   # strict positivity margin, absolute
    "spectral": 1e-8,     # distance of Spec K from -1 for symbol integrability
    "log": 1e-9,          # flow(canonical_log(K), 1) vs K, relative
    "boundary": 1e-7,     # |log|lambda|| unit-circle guard in eigenvalue pairing
    "pairing": 1e-8,      # pairing product residual |mu * mu' - 1|
    "degenerate": 1e-10,  # kernel cross-block singularity, scaled by ||phi''||
    "definite": 1e-9,     # definiteness margin for Gaussian integral convergence
})

# Dimension cap: phase-space constructions reject n above this.
MAX_DIM = 16

# The table in force: TOLERANCES, unless quadflow.cli.main bound another for its call
_IN_FORCE = contextvars.ContextVar("quadflow_tolerances", default=TOLERANCES)
tolerances = _IN_FORCE.get  # tolerances() is the table in force in the current context


def tolerances_from_env() -> Mapping[str, float]:
    """A new table: TOLERANCES with QUADFLOW_TOL's "key=value,key=value" overrides; writes nothing.

    Unknown keys, malformed entries and negative or non-finite values raise ValueError.
    """
    out = dict(TOLERANCES)
    for chunk in os.environ.get("QUADFLOW_TOL", "").split(","):
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
        if not 0.0 <= out[key] < float("inf"):
            raise ValueError(f"tolerance {key}={val.strip()} must be finite and non-negative")
    return MappingProxyType(out)
