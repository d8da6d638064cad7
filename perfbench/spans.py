"""Per-layer spans recorded from outside the package.

Each listed public function is wrapped at every module binding of its name
inside ``quadflow`` (``quadflow.evolution.flow`` and ``quadflow.symbols.flow``
are two bindings of one function), so spans nest the way the calls do.  A
span's self time is its duration minus the durations of its child spans.
Spans are aggregated in memory per function: calls, self time, the number
of calls that raised and, for ``oracle.discretize``, the bytes of the
matrices it builds, computed from the grid as N^(2n) * 16.

Which end-to-end metrics each layer should move, and on which workload:

- symplectic, positivity, evolution: items_per_s and item_p50_ms on sweep
  (canonical_log and compose_evolutions on kernel_calculus);
- symbols, kernels: the same on kernel_calculus, nothing on sweep;
- kernels.GaussianKernel.__call__ and oracle: items_per_s, peak_rss_mb and
  ok_ratio on oracle, nothing on sweep or kernel_calculus;
- ext: expm on sweep, logm on kernel_calculus (items_per_s);
- cli: item_p50_ms on cli, and setup_s on every workload.

symplectic.CanonicalTransform calls per sweep member and ext.logm calls per
kernel_calculus member count redundant work that a batched pipeline removes.
"""
from __future__ import annotations

import functools
import sys
import time

# (layer, name, attribute path inside quadflow, whether it can raise for a member)
FUNCTIONS = [
    ("symplectic", "flow", "symplectic.flow", False),
    ("symplectic", "canonical_log", "symplectic.canonical_log", True),
    ("symplectic", "inverse", "symplectic.inverse", False),
    ("symplectic", "bar_inverse", "symplectic.bar_inverse", False),
    ("symplectic", "CanonicalTransform", "symplectic.CanonicalTransform.__post_init__", True),
    ("positivity", "strict_positivity", "positivity.strict_positivity", False),
    ("positivity", "mehler_integrable", "positivity.mehler_integrable", False),
    ("evolution", "center_path", "evolution.center_path", False),
    ("evolution", "EvolutionSpec", "evolution.EvolutionSpec.__post_init__", True),
    ("evolution", "eigenvalue_pairing", "evolution.eigenvalue_pairing", True),
    ("evolution", "a_matrix", "evolution.a_matrix", False),
    ("evolution", "decompose", "evolution.decompose", True),
    ("evolution", "compose_evolutions", "evolution.compose_evolutions", True),
    ("symbols", "mehler_symbol", "symbols.mehler_symbol", True),
    ("symbols", "two_sided_shift", "symbols.two_sided_shift", False),
    ("symbols", "weyl_sharp", "symbols.weyl_sharp", True),
    ("kernels", "quantize", "kernels.quantize", True),
    ("kernels", "evolution_to_kernel", "kernels.evolution_to_kernel", True),
    ("kernels", "kernel_to_evolution", "kernels.kernel_to_evolution", True),
    ("kernels", "kernel_compose", "kernels.kernel_compose", True),
    ("kernels", "GaussianKernel.__call__", "kernels.GaussianKernel.__call__", True),
    ("oracle", "auto_grid", "oracle.auto_grid", True),
    ("oracle", "discretize", "oracle.discretize", True),
    ("oracle", "operator_norm", "oracle.operator_norm", True),
    ("oracle", "grid_trace", "oracle.grid_trace", False),
    ("ext", "expm", None, False),
    ("ext", "logm", None, False),
    ("cli", "main", "cli.main", False),
]


def matrix_bytes(kernel, grid=None):
    """Bytes of the complex matrix discretize builds on ``grid`` (computed)."""
    return 0 if grid is None else 16 * grid.points ** (2 * grid.n)


class Tracer:
    """Aggregating span recorder; spans are recorded only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, raised, bytes]
        self._stack: list[int] = []  # child time accumulated by each open span

    def wrap(self, name: str, fn, measure=None):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if measure is not None:
                stats[3] += measure(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return span

    def install(self) -> None:
        """Wrap every function in FUNCTIONS at each of its bindings."""
        import scipy.linalg

        import quadflow
        import quadflow.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for k, m in sys.modules.items() if k == "quadflow" or k.startswith("quadflow.")]
        for layer, name, path, _ in FUNCTIONS:
            label = f"{layer}.{name}"
            if path is None:  # the SciPy calls the package makes through scipy.linalg
                setattr(scipy.linalg, name, self.wrap(label, getattr(scipy.linalg, name)))
                continue
            owner = quadflow
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            wrapped = self.wrap(label, target, matrix_bytes if label == "oracle.discretize" else None)
            if isinstance(owner, type):  # a method: one binding, on the class
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapped)
