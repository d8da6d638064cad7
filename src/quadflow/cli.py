"""Command line interface.

Subcommands: norm, compose, kernel, contour, centers, check.  Inputs are
JSON files (complex values as {"re": ..., "im": ...} pairs); outputs are
JSON reports or CSV tables with floats printed at 17 significant digits,
byte-identical across runs of the same input.

Each subcommand imports the modules it uses when it runs, so a cold start
of ``check`` or ``contour`` does not compile the kernel calculus and only
``norm --verify`` or ``--grid`` loads the grid oracle.

Exit codes: 0 success, 2 positivity certificate failure, 3 composition
leaves the certified class, 4 input or validation error.
"""
from __future__ import annotations

import argparse
import contextvars
import json
import math
import sys

import numpy as np

from .config import _IN_FORCE, tolerances_from_env
from .errors import CompositionClassError, PositivityError, QuadflowError


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits


def _fmt_float(x: float) -> str:
    x = float(x)
    if np.isnan(x):
        return "null"
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex) or (isinstance(obj, np.ndarray) and obj.dtype.kind == "c"):
        return _dump_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, np.ndarray):
        return _dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _dump_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dump_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv(header: str, rows) -> str:
    """CSV text: strings as they are, numbers at 17 significant digits."""
    cell = lambda x: x if isinstance(x, str) else f"{float(x):.17g}"
    return "\n".join([header] + [",".join(map(cell, row)) for row in rows]) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# input parsing


def _complex_array(node, shape_hint: str):
    if not isinstance(node, dict) or "re" not in node:
        raise ValueError(f"{shape_hint} must be an object with 're' (and optional 'im')")
    try:
        re = np.asarray(node["re"], dtype=float)
        im = np.asarray(node.get("im", np.zeros_like(re)), dtype=float)
    except TypeError as exc:
        raise ValueError(f"{shape_hint}: 're' and 'im' must be numeric arrays") from exc
    if re.shape != im.shape:
        raise ValueError(f"{shape_hint}: 're' and 'im' shapes differ")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError(f"{shape_hint}: 're' and 'im' entries must be finite numbers")
    return re + 1j * im


def _complex_scalar(node, name: str) -> complex:
    arr = _complex_array(node, name)
    if arr.shape != ():
        raise ValueError(f"{name} must be scalar")
    return complex(arr)


def _load_json(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top level must be a JSON object")
    return data


def _parse_quadratic(data) -> tuple[QuadraticForm, np.ndarray | None]:
    from .symplectic import QuadraticForm

    if "hessian" not in data:
        raise ValueError("spec file needs a 'hessian' entry")
    hess = _complex_array(data["hessian"], "hessian")
    q = QuadraticForm(hess)
    v = None
    if "v" in data and data["v"] is not None:
        v = _complex_array(data["v"], "v").reshape(2 * q.n)
    return q, v


def _load_evolution(path: str) -> EvolutionSpec:
    from .evolution import EvolutionSpec

    q, v = _parse_quadratic(_load_json(path))
    return EvolutionSpec(q, v)


# the fields of a kernel file and of the kernel report; c0 is optional on input
_KERNEL_KEYS = ("amplitude", "pxx", "pxy", "pyy", "lx", "ly", "c0")


def _parse_kernel(data) -> GaussianKernel:
    from .kernels import GaussianKernel

    for key in _KERNEL_KEYS[:-1]:
        if key not in data:
            raise ValueError(f"kernel file needs a {key!r} entry")
    return GaussianKernel(**{
        key: (_complex_scalar if key in ("amplitude", "c0") else _complex_array)(data[key], key)
        for key in _KERNEL_KEYS if key in data
    })


def finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


# points of a contour grid (t1 count x t2 count) or of a centers sweep (t1 count); on a shared
# 2-core VM a centers run at the cap took 3.6 s and 244 MiB, a contour run about 1.2 s and 60 MiB
_MAX_RANGE_POINTS = 10**5


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must be start:stop:count")
    start, stop, count = finite(parts[0]), finite(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"{name}: count must be positive")
    return start, stop, count


def _range_points(*ranges: tuple[float, float, int]) -> list[np.ndarray]:
    """The points of each parsed range, refused before any is allocated when the grid they span exceeds the cap."""
    points = math.prod(count for _, _, count in ranges)
    if points > _MAX_RANGE_POINTS:
        raise ValueError(f"{points} points requested, above the cap of {_MAX_RANGE_POINTS}")
    return [np.linspace(*r) for r in ranges]


def _parse_shift(text: str) -> np.ndarray:
    vals = [finite(p) for p in text.split(",")]
    if len(vals) != 4:
        raise ValueError("shift must be re_x,im_x,re_xi,im_xi (one mode)")
    return np.array([vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]])


def _parse_grid(text: str | None, kern: GaussianKernel) -> GridSpec:
    from .oracle import GridSpec, auto_grid

    if text is None:
        return auto_grid(kern)
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--grid must be L,N")
    return GridSpec(n=kern.n, half_width=float(parts[0]), points=int(parts[1]))


# ---------------------------------------------------------------------------
# subcommands: each returns its report (a JSON object or CSV text), which main writes, and its exit code


def _spec_report(spec: EvolutionSpec, key: str, scalar) -> dict:
    """The report of a spec with one scalar beside it: hessian, v, the scalar under key, margin."""
    return {"hessian": spec.q.hess, "v": spec.v, key: scalar, "margin": spec.report.margin}


def _cmd_norm(args) -> tuple[dict, int]:
    from .evolution import decompose

    spec = _load_evolution(args.spec)
    data = decompose(spec)
    report = {
        "norm": data.norm,
        "mu": data.mu,
        "a1": data.a1,
        "a2": data.a2,
        "phase": data.phase,
        "margin": spec.report.margin,
    }
    if args.verify or args.grid is not None:  # a grid is asked for only to verify on it
        from .kernels import evolution_to_kernel
        from .oracle import discretize, operator_norm

        kern = evolution_to_kernel(spec)
        grid = _parse_grid(args.grid, kern)
        oracle_norm = operator_norm(discretize(kern, grid))
        report["oracle"] = {
            "norm": oracle_norm,
            "rel_gap": abs(oracle_norm - data.norm) / data.norm,
            "half_width": grid.half_width,
            "points": grid.points,
        }
    return report, 0


def _cmd_check(args) -> tuple[dict, int]:
    from .positivity import strict_positivity

    q, _ = _parse_quadratic(_load_json(args.spec))
    report = strict_positivity(q.transform)
    out = {
        "margin": report.margin,
        "is_strict": report.is_strict,
        "boundary": report.boundary,
    }
    return out, 0 if report.is_strict else 2


def _cmd_compose(args) -> tuple[dict, int]:
    from .evolution import compose_evolutions

    result = compose_evolutions(_load_evolution(args.spec1), _load_evolution(args.spec2))
    return _spec_report(result.spec, "factor", result.factor), 0


def _cmd_kernel(args) -> tuple[dict, int]:
    from .evolution import EvolutionSpec
    from .kernels import evolution_to_kernel, kernel_to_evolution, quantize
    from .symbols import mehler_symbol

    data = _load_json(args.spec)
    if "hessian" in data:  # a spec goes to its kernel, any other file is read as a kernel
        q, v = _parse_quadratic(data)
        if args.formal:
            if v is not None and np.any(v != 0):
                raise ValueError("formal mode supports unshifted generators only")
            kern = quantize(mehler_symbol(q), formal=True)
        else:
            kern = evolution_to_kernel(EvolutionSpec(q, v))
        return {key: getattr(kern, key) for key in _KERNEL_KEYS}, 0
    if args.formal:
        raise ValueError("--formal applies to a spec file (one with a 'hessian' entry) only")
    spec, c = kernel_to_evolution(_parse_kernel(data))
    return _spec_report(spec, "c", c), 0


def _cmd_contour(args) -> tuple[str, int]:
    from .models import rho_compact, rho_log_growth

    t1s, t2s = _range_points(_parse_range(args.t1, "--t1"), _parse_range(args.t2, "--t2"))
    if np.any(t2s >= 0.0):
        raise ValueError(
            "--t2 values must be negative (imaginary time points down into "
            "the compact region)"
        )
    v = _parse_shift(args.v)
    rows = []
    for t1 in t1s:
        for t2 in t2s:
            if rho_compact(args.theta, t1, t2):
                value = float(np.log(rho_log_growth(args.theta, t1, t2, v) + 1.0))
            else:
                value = float("nan")
            rows.append((t1, t2, value))
    return _csv("t1,t2,value", rows), 0


def _fit_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares circle through 2D points; returns (center, radius)."""
    x, y = points[:, 0], points[:, 1]
    a = np.column_stack([x, y, np.ones_like(x)])
    b = x * x + y * y
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = coef[:2] / 2.0
    radius = float(np.sqrt(coef[2] + center @ center))
    return center, radius


def _cmd_centers(args) -> tuple[str, int]:
    from .evolution import center_path
    from .models import q_theta
    from .symplectic import QuadraticForm

    t1s, = _range_points(_parse_range(args.t1, "--t1"))
    if args.t2 >= 0.0:
        raise ValueError("--t2 must be negative (compact region)")
    v = _parse_shift(args.v)
    base = q_theta(args.theta).hess
    items = [(float(t1), QuadraticForm((t1 + 1j * args.t2) * base), v) for t1 in t1s]
    samples = center_path(items)
    good = [s for s in samples if s.ok]
    nan = np.full(2, np.nan)  # the centers of a failed member
    center, radius = nan, np.nan  # no circle through fewer than three centers
    if len(good) >= 3:
        center, radius = _fit_circle(np.array([s.a1 for s in good]))
    rows = []
    for s in samples:
        a1, a2 = (s.a1, s.a2) if s.ok else (nan, nan)
        resid = abs(float(np.linalg.norm(a1 - center)) - radius)
        # solid branch covers t1 in [0, pi], dotted the negative sweep
        rows.append([s.param, *a1, *a2, resid, "solid" if s.param >= 0.0 else "dotted"])
    return _csv("t1,a1_x,a1_xi,a2_x,a2_xi,circle_residual,style", rows), 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadflow",
        description="Norms, kernels, and positivity certificates of quantized "
        "quadratic flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # every subcommand's -o
    out.add_argument("-o", "--output", default=None)
    sweep = argparse.ArgumentParser(add_help=False)  # contour's and centers' shared options
    sweep.add_argument("--theta", required=True, type=finite)
    sweep.add_argument("--t1", required=True, help="start:stop:count")
    sweep.add_argument("--v", default="0,1,0,0", help="shift re_x,im_x,re_xi,im_xi")

    p_norm = sub.add_parser("norm", parents=[out], help="operator norm and decomposition of a spec")
    p_norm.add_argument("spec")
    p_norm.add_argument("--verify", action="store_true", help="cross-check with the grid oracle")
    p_norm.add_argument("--grid", default=None, help="verify on this oracle grid, L,N")
    p_norm.set_defaults(func=_cmd_norm)

    p_check = sub.add_parser("check", parents=[out], help="strict positivity certificate of a spec")
    p_check.add_argument("spec")
    p_check.set_defaults(func=_cmd_check)

    p_comp = sub.add_parser("compose", parents=[out], help="compose two evolutions")
    p_comp.add_argument("spec1")
    p_comp.add_argument("spec2")
    p_comp.set_defaults(func=_cmd_compose)

    p_kern = sub.add_parser("kernel", parents=[out],
                            help="kernel of a spec, or spec of a kernel (a file with no 'hessian' entry)")
    p_kern.add_argument("spec")
    p_kern.add_argument("--formal", action="store_true", help="skip positivity certification (spec files only)")
    p_kern.set_defaults(func=_cmd_kernel)

    p_cont = sub.add_parser("contour", parents=[out, sweep], help="growth-factor contour data (CSV)")
    p_cont.add_argument("--t2", required=True, help="start:stop:count, negative values")
    p_cont.set_defaults(func=_cmd_contour)

    p_cent = sub.add_parser("centers", parents=[out, sweep], help="shift-center sweep data (CSV)")
    p_cent.add_argument("--t2", required=True, type=finite)
    p_cent.set_defaults(func=_cmd_centers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; remap argparse usage errors onto the input-error code
        return 0 if exc.code == 0 else 4
    call = contextvars.copy_context()  # QUADFLOW_TOL's table is bound in it, for this call only
    try:
        call.run(_IN_FORCE.set, tolerances_from_env())
        report, code = call.run(args.func, args)
        _write_output(report if isinstance(report, str) else _dump_json(report) + "\n", args.output)
        return code
    except PositivityError as exc:
        print(f"positivity failure: {exc}", file=sys.stderr)
        return 2
    except CompositionClassError as exc:
        print(f"composition failure: {exc}", file=sys.stderr)
        return 3
    except QuadflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
