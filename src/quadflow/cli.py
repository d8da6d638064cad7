"""Command line interface.

Subcommands: norm, compose, kernel, contour, centers, check.  Inputs are
JSON files (complex values as {"re": ..., "im": ...} pairs); outputs are
JSON reports or CSV tables with floats printed at 17 significant digits,
byte-identical across runs of the same input.

Exit codes: 0 success, 2 positivity certificate failure, 3 composition
leaves the certified class, 4 input or validation error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import TOLERANCES, apply_env_overrides
from .errors import (
    CompositionClassError,
    PositivityError,
    QuadflowError,
)
from .evolution import (
    EvolutionSpec,
    center_path,
    compose_evolutions,
    decompose,
)
from .kernels import GaussianKernel, evolution_to_kernel, kernel_to_evolution
from .models import q_theta, rho_compact, rho_log_growth
from .oracle import GridSpec, auto_grid, discretize, operator_norm
from .positivity import strict_positivity
from .symplectic import QuadraticForm

import json


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
    if isinstance(obj, complex):
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


def _csv_cell(x) -> str:
    if isinstance(x, str):
        return x
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
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
    if "hessian" not in data:
        raise ValueError("spec file needs a 'hessian' entry")
    hess = _complex_array(data["hessian"], "hessian")
    q = QuadraticForm(hess)
    v = None
    if "v" in data and data["v"] is not None:
        v = _complex_array(data["v"], "v").reshape(2 * q.n)
    return q, v


def _load_evolution(path: str) -> EvolutionSpec:
    q, v = _parse_quadratic(_load_json(path))
    return EvolutionSpec(q, v)


def _parse_kernel(data) -> GaussianKernel:
    need = ("amplitude", "pxx", "pxy", "pyy", "lx", "ly")
    for key in need:
        if key not in data:
            raise ValueError(f"kernel file needs a {key!r} entry")
    return GaussianKernel(
        amplitude=_complex_scalar(data["amplitude"], "amplitude"),
        pxx=_complex_array(data["pxx"], "pxx"),
        pxy=_complex_array(data["pxy"], "pxy"),
        pyy=_complex_array(data["pyy"], "pyy"),
        lx=_complex_array(data["lx"], "lx"),
        ly=_complex_array(data["ly"], "ly"),
        c0=_complex_scalar(data["c0"], "c0") if "c0" in data else 0.0,
    )


def _kernel_report(k: GaussianKernel) -> dict:
    return {
        "amplitude": complex(k.amplitude),
        "pxx": {"re": k.pxx.real, "im": k.pxx.imag},
        "pxy": {"re": k.pxy.real, "im": k.pxy.imag},
        "pyy": {"re": k.pyy.real, "im": k.pyy.imag},
        "lx": {"re": k.lx.real, "im": k.lx.imag},
        "ly": {"re": k.ly.real, "im": k.ly.imag},
        "c0": complex(k.c0),
    }


def finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must be start:stop:count")
    start, stop, count = finite(parts[0]), finite(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"{name}: count must be positive")
    return np.linspace(start, stop, count)


def _parse_shift(text: str) -> np.ndarray:
    vals = [finite(p) for p in text.split(",")]
    if len(vals) != 4:
        raise ValueError("shift must be re_x,im_x,re_xi,im_xi (one mode)")
    return np.array([vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]])


def _parse_grid(text: str | None, kern: GaussianKernel) -> GridSpec:
    if text is None:
        return auto_grid(kern)
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--grid must be L,N")
    return GridSpec(n=kern.n, half_width=float(parts[0]), points=int(parts[1]))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args) -> int:
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
    if args.verify:
        kern = evolution_to_kernel(spec)
        grid = _parse_grid(args.grid, kern)
        oracle_norm = operator_norm(discretize(kern, grid))
        report["oracle"] = {
            "norm": oracle_norm,
            "rel_gap": abs(oracle_norm - data.norm) / data.norm,
            "half_width": grid.half_width,
            "points": grid.points,
        }
    _write_output(_dump_json(report) + "\n", args.output)
    return 0


def _cmd_check(args) -> int:
    q, _ = _parse_quadratic(_load_json(args.spec))
    report = strict_positivity(q.transform)
    out = {
        "margin": report.margin,
        "is_strict": report.is_strict,
        "boundary": report.boundary,
    }
    _write_output(_dump_json(out) + "\n", args.output)
    return 0 if report.is_strict else 2


def _cmd_compose(args) -> int:
    s1 = _load_evolution(args.spec1)
    s2 = _load_evolution(args.spec2)
    result = compose_evolutions(s1, s2)
    report = {
        "hessian": {"re": result.spec.q.hess.real, "im": result.spec.q.hess.imag},
        "v": {"re": result.spec.v.real, "im": result.spec.v.imag},
        "factor": result.factor,
        "sign_ambiguous": result.sign_ambiguous,
        "margin": result.spec.report.margin,
    }
    _write_output(_dump_json(report) + "\n", args.output)
    return 0


def _cmd_kernel(args) -> int:
    data = _load_json(args.spec)
    if args.direction == "to-kernel":
        q, v = _parse_quadratic(data)
        if args.formal:
            if v is not None and np.any(v != 0):
                raise ValueError("formal mode supports unshifted generators only")
            kern = evolution_to_kernel(q, formal=True)
        else:
            kern = evolution_to_kernel(EvolutionSpec(q, v))
        report = _kernel_report(kern)
        report["sign_ambiguous"] = True
        _write_output(_dump_json(report) + "\n", args.output)
        return 0
    # from-kernel
    kern = _parse_kernel(data)
    spec, c = kernel_to_evolution(kern)
    report = {
        "hessian": {"re": spec.q.hess.real, "im": spec.q.hess.imag},
        "v": {"re": spec.v.real, "im": spec.v.imag},
        "c": complex(c),
        "margin": spec.report.margin,
    }
    _write_output(_dump_json(report) + "\n", args.output)
    return 0


def _cmd_contour(args) -> int:
    t1s = _parse_range(args.t1, "--t1")
    t2s = _parse_range(args.t2, "--t2")
    if np.any(t2s >= 0.0):
        raise ValueError(
            "--t2 values must be negative (imaginary time points down into "
            "the compact region)"
        )
    v = _parse_shift(args.v)
    theta = float(args.theta)
    lines = ["t1,t2,value"]
    for t1 in t1s:
        for t2 in t2s:
            if rho_compact(theta, t1, t2):
                value = float(np.log(rho_log_growth(theta, t1, t2, v) + 1.0))
            else:
                value = float("nan")
            lines.append(",".join(_csv_cell(x) for x in (t1, t2, value)))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _fit_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares circle through 2D points; returns (center, radius)."""
    x, y = points[:, 0], points[:, 1]
    a = np.column_stack([x, y, np.ones_like(x)])
    b = x * x + y * y
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = coef[:2] / 2.0
    radius = float(np.sqrt(coef[2] + center @ center))
    return center, radius


def _cmd_centers(args) -> int:
    t1s = _parse_range(args.t1, "--t1")
    t2 = float(args.t2)
    if t2 >= 0.0:
        raise ValueError("--t2 must be negative (compact region)")
    v = _parse_shift(args.v)
    theta = float(args.theta)
    base = q_theta(theta).hess
    items = [(float(t1), QuadraticForm((t1 + 1j * t2) * base), v) for t1 in t1s]
    samples = center_path(items)
    good = [s for s in samples if s.ok]
    if len(good) >= 3:
        center, radius = _fit_circle(np.array([s.a1 for s in good]))
    else:
        center, radius = None, float("nan")
    lines = ["t1,a1_x,a1_xi,a2_x,a2_xi,circle_residual,style"]
    for s in samples:
        # solid branch covers t1 in [0, pi], dotted the negative sweep
        style = "solid" if s.param >= 0.0 else "dotted"
        if s.ok and center is not None:
            resid = abs(float(np.linalg.norm(s.a1 - center)) - radius)
            row = [s.param, s.a1[0], s.a1[1], s.a2[0], s.a2[1], resid, style]
        elif s.ok:
            row = [s.param, s.a1[0], s.a1[1], s.a2[0], s.a2[1], float("nan"), style]
        else:
            nan = float("nan")
            row = [s.param, nan, nan, nan, nan, nan, style]
        lines.append(",".join(_csv_cell(x) for x in row))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadflow",
        description="Norms, kernels, and positivity certificates of quantized "
        "quadratic flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="operator norm and decomposition of a spec")
    p_norm.add_argument("spec")
    p_norm.add_argument("--verify", action="store_true", help="cross-check with the grid oracle")
    p_norm.add_argument("--grid", default=None, help="oracle grid as L,N (with --verify)")
    p_norm.add_argument("-o", "--output", default=None)
    p_norm.set_defaults(func=_cmd_norm)

    p_check = sub.add_parser("check", help="strict positivity certificate of a spec")
    p_check.add_argument("spec")
    p_check.add_argument("-o", "--output", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_comp = sub.add_parser("compose", help="compose two evolutions")
    p_comp.add_argument("spec1")
    p_comp.add_argument("spec2")
    p_comp.add_argument("-o", "--output", default=None)
    p_comp.set_defaults(func=_cmd_compose)

    p_kern = sub.add_parser("kernel", help="convert between specs and kernels")
    p_kern.add_argument("spec")
    p_kern.add_argument(
        "--direction", choices=("to-kernel", "from-kernel"), default="to-kernel"
    )
    p_kern.add_argument("--formal", action="store_true",
                        help="skip positivity certification (to-kernel only)")
    p_kern.add_argument("-o", "--output", default=None)
    p_kern.set_defaults(func=_cmd_kernel)

    p_cont = sub.add_parser("contour", help="growth-factor contour data (CSV)")
    p_cont.add_argument("--theta", required=True, type=finite)
    p_cont.add_argument("--t1", required=True, help="start:stop:count")
    p_cont.add_argument("--t2", required=True, help="start:stop:count, negative values")
    p_cont.add_argument("--v", default="0,1,0,0", help="shift re_x,im_x,re_xi,im_xi")
    p_cont.add_argument("-o", "--output", default=None)
    p_cont.set_defaults(func=_cmd_contour)

    p_cent = sub.add_parser("centers", help="shift-center sweep data (CSV)")
    p_cent.add_argument("--theta", required=True, type=finite)
    p_cent.add_argument("--t2", required=True, type=finite)
    p_cent.add_argument("--t1", required=True, help="start:stop:count")
    p_cent.add_argument("--v", default="0,1,0,0", help="shift re_x,im_x,re_xi,im_xi")
    p_cent.add_argument("-o", "--output", default=None)
    p_cent.set_defaults(func=_cmd_centers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; remap argparse usage errors onto the input-error code
        return 0 if exc.code == 0 else 4
    saved = dict(TOLERANCES)
    try:
        apply_env_overrides()
        return args.func(args)
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
    finally:
        TOLERANCES.update(saved)  # QUADFLOW_TOL holds for this call only


if __name__ == "__main__":
    sys.exit(main())
