"""The four benchmark workloads: seeded inputs, the timed request, the checks.

Each workload holds a list of requests built from the seed.  ``run`` is the
timed pipeline call; ``check`` compares its answer against an independent
route outside the timed region and returns one ``(ok, known)`` pair per
member.  ``known`` marks a failure that an input property explains by one
of the known oracle defects: a grid too coarse for the kernel's narrow
direction, a matrix larger than the address-space cap, or an envelope
centred too far from the origin-centred box.  Any other failure makes the
run incorrect.  ``probe`` is the calibrate.py probe that tracks the
machine's speed for this kind of request.

Requests are taken in order, wrapping round, and a run stops only at the end
of a cycle of ``cycle`` requests, once every request has been sent at least
once, so every run checks the same members.  The input sets are sized so
that one pass fits in a run of 20 seconds.

All calls into the package go through module attributes (for example
``quadflow.evolution.center_path``) so the per-layer spans of spans.py see
them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import calibrate
import quadflow
import quadflow.cli
from quadflow import models

# Address-space cap of the oracle process.  The two-mode kernels on the
# 64-point grid peak near 0.8 GiB of address space; a matrix of the two-mode
# automatic grid (at least 101^4 * 16 bytes = 1.55 GiB) cannot fit.
ORACLE_AS_CAP = 3 * 2**29  # 1.5 GiB
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def strata(rng, count, lo, hi):
    """``count`` draws from [lo, hi], one in each of ``count`` equal strata, shuffled."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def log_strata(rng, count, lo, hi):
    return np.exp(strata(rng, count, np.log(lo), np.log(hi)))


def complex_normal(rng, shape, im=1.0):
    return rng.standard_normal(shape) + 1j * im * rng.standard_normal(shape)


def near(a, ref, tol):
    """max |a - ref| <= tol * (1 + max |ref|)."""
    a, ref = np.asarray(a), np.asarray(ref)
    return a.shape == ref.shape and bool(np.max(np.abs(a - ref)) <= tol * (1.0 + np.max(np.abs(ref))))


def near_rel(a, ref, tol, sign_free=False):
    """max |a - ref| <= tol * max |ref|, optionally up to an overall sign."""
    a, ref = np.asarray(a), np.asarray(ref)
    bound = tol * np.max(np.abs(ref))
    if np.max(np.abs(a - ref)) <= bound:
        return True
    return sign_free and bool(np.max(np.abs(a + ref)) <= bound)


def rotated_hessian(theta, t1, t2):
    """Hessian of the rotated oscillator q_theta at complex time t1 + i t2."""
    return (t1 + 1j * t2) * models.q_theta(theta).hess


def compact_t2(theta, t1, depth):
    """Imaginary time ``depth`` inside the compact region of the rotated family.

    The family is compact iff cos^2(theta) sinh^2(t2) > sin^2(theta) sin^2(t1)
    with t2 < 0 (rho_a > 1).
    """
    return -np.arcsinh(np.abs(np.tan(theta) * np.sin(t1))) - depth


def last_level_cache_bytes():
    """Size of the largest CPU cache as the kernel reports it, or None."""
    sizes = [0]
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in os.listdir(base) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KM")) * scale)
    return max(sizes) or None


def oracle_defects(kern, grid):
    """Input properties under which the grid oracle is known to fail.

    Returns (under_resolved, over_cap, off_centre): the grid step exceeds
    the kernel's narrow width 1/sqrt(max eig Im phi''); the matrix is larger
    than the address-space cap; the envelope |K|, which peaks at
    -(Im phi'')^{-1} Im(lx, ly), sits more than 0.25 L from the centre of
    the box auto_grid builds around the origin, so the tail check fails.
    """
    decay = kern.phase_hessian().imag
    peak = np.linalg.solve(decay, -np.concatenate([kern.lx, kern.ly]).imag)
    return (
        bool(grid.h * np.sqrt(np.max(np.linalg.eigvalsh(decay))) > 1.0),
        16 * grid.points ** (2 * grid.n) > ORACLE_AS_CAP,
        bool(np.max(np.abs(peak)) > 0.25 * grid.half_width),
    )


class Tally:
    """Input properties of the members checked: shares, and largest values."""

    def __init__(self):
        self.members = 0
        self.counts: dict[str, int] = {}
        self.largest: dict[str, float] = {}
        self.counting = True  # off while a request is checked again

    def flag(self, **flags):
        """Count one member and which of the named properties it has."""
        if not self.counting:
            return
        self.members += 1
        for key, on in flags.items():
            self.counts[key] = self.counts.get(key, 0) + bool(on)

    def high(self, key, value):
        if self.counting:
            self.largest[key] = max(self.largest.get(key, value), float(value))

    def report(self) -> dict:
        shares = {f"{k}_share": c / self.members for k, c in self.counts.items()}
        return {"members": self.members, **shares, **self.largest}


# ---------------------------------------------------------------------------


class Sweep:
    """About 10^4 rotated-oscillator members in requests of one contour row.

    Per ten members: one near the compactness boundary, one two-mode member
    of two rotated modes side by side, eight natural draws.
    """

    name = "sweep"
    probe = calibrate.LOOP
    cycle = 1
    row = 100

    def __init__(self, rng, scale, root, workdir):
        count = 10_000 if scale == "full" else 200
        kind = np.arange(count) % 10
        n_nat = int(np.sum(kind >= 2)) + 2 * int(np.sum(kind == 1))
        th = strata(rng, n_nat, -1.3, 1.3)
        t1 = strata(rng, n_nat, -np.pi, np.pi)
        t2 = strata(rng, n_nat, -1.5, -0.01)
        natural = iter(zip(th, t1, t2))
        n_near = int(np.sum(kind == 0))
        signs = rng.choice([-1.0, 1.0], size=(2, n_near))
        nth = signs[0] * strata(rng, n_near, 0.2, 1.2)
        nt1 = signs[1] * strata(rng, n_near, 0.3, 2.8)
        # a - 1 = +-delta: half just inside the compact region, half just outside.
        # delta stays ten times above the positivity tolerance (1e-9), inside
        # which the certificate declares its verdict untrustworthy by design
        delta = log_strata(rng, n_near, 1e-8, 1e-3) * rng.permutation(np.resize([1.0, -1.0], n_near))
        sinh2 = (delta / 2.0 + (np.sin(nth) * np.sin(nt1)) ** 2) / np.cos(nth) ** 2
        boundary = iter(zip(nth, nt1, -np.arcsinh(np.sqrt(sinh2))))
        members = []
        for k in kind:
            if k == 1:
                (tha, t1a, t2a), (thb, t1b, t2b) = next(natural), next(natural)
                hess = np.zeros((4, 4), dtype=complex)
                # phase-space order (x1, x2, xi1, xi2): mode a on (0, 2), mode b on (1, 3)
                hess[[0, 2], [0, 2]] = np.diag(rotated_hessian(tha, t1a, t2a))
                hess[[1, 3], [1, 3]] = np.diag(rotated_hessian(thb, t1b, t2b))
                modes = [(tha, t1a, t2a, [0, 2]), (thb, t1b, t2b, [1, 3])]
                v = complex_normal(rng, 4)
            else:
                theta, t1_, t2_ = next(boundary) if k == 0 else next(natural)
                hess = rotated_hessian(theta, t1_, t2_)
                modes = [(theta, t1_, t2_, [0, 1])]
                v = complex_normal(rng, 2, im=3.0 if k == 0 else 1.0)
            members.append((float(modes[0][1]), hess, v, modes, k))
        self.requests = [members[i : i + self.row] for i in range(0, count, self.row)]
        self.tally = Tally()

    def run(self, req):
        form = quadflow.symplectic.QuadraticForm
        return quadflow.evolution.center_path([(p, form(h), v) for p, h, v, _, _ in req])

    def check(self, req, out, exc):
        if exc is not None or len(out) != len(req):
            return [(False, False)] * len(req)
        results = []
        for (_, _, v, modes, kind), sample in zip(req, out):
            compact = [models.rho_compact(th, t1, t2) for th, t1, t2, _ in modes]
            ok = sample.ok == all(compact)
            if ok and sample.ok:
                for th, t1, t2, idx in modes:
                    a1, a2 = models.rho_centers(th, t1, t2, v[idx])
                    ok = ok and near(sample.a1[idx], a1, 1e-5) and near(sample.a2[idx], a2, 1e-5)
            self.tally.flag(
                non_compact=not all(compact),
                near_boundary=kind == 0,
                two_mode=kind == 1,
                growth_overflow=all(compact) and any(
                    models.rho_log_growth(th, t1, t2, v[idx]) > LOG_FLOAT_MAX for th, t1, t2, idx in modes
                ),
            )
            results.append((ok, False))
        return results


class KernelCalculus:
    """Random strictly positive shifted generators, one- and two-mode.

    A generator R - i P with P real positive definite has a strictly
    positive time-1 flow.  A member's timed pipeline makes the kernel round
    trip and builds the composed kernel three ways: the composition law, the
    kernel integral (kernel_compose) and the sharp product; the check
    compares them at seeded points.  A request holds three one-mode and three
    two-mode members, so requests cost alike and the median and tail stay
    steady.
    """

    name = "kernel_calculus"
    probe = calibrate.LOOP
    cycle = 1
    batch = 6

    def __init__(self, rng, scale, root, workdir):
        count = 300 if scale == "full" else 4
        members = []
        for i in range(count):
            n = 1 + i % 2
            hess = []
            for _ in range(2):
                a = rng.standard_normal((2 * n, 2 * n))
                r = rng.standard_normal((2 * n, 2 * n))
                hess.append((r + r.T) / 2.0 - 1j * (a @ a.T / (2 * n) + 0.2 * np.eye(2 * n)))
            shifts = [0.5 * complex_normal(rng, 2 * n) for _ in range(2)]
            points = rng.standard_normal((2, 4, n))
            members.append((n, hess, shifts, points))
        self.requests = [members[i : i + self.batch] for i in range(0, count, self.batch)]
        self.tally = Tally()

    def run(self, req):
        out = []
        for member in req:
            try:
                out.append(self._run_one(member))
            except Exception as err:  # a member that raises fails alone, not its whole request
                out.append(err)
        return out

    @staticmethod
    def _run_one(member):
        _, (h1, h2), (v1, v2), _ = member
        form = quadflow.symplectic.QuadraticForm
        ev, kn, sy = quadflow.evolution, quadflow.kernels, quadflow.symbols
        s1, s2 = ev.EvolutionSpec(form(h1), v1), ev.EvolutionSpec(form(h2), v2)
        k1, k2 = kn.evolution_to_kernel(s1), kn.evolution_to_kernel(s2)
        back, c = kn.kernel_to_evolution(k1)
        composed = ev.compose_evolutions(s1, s2)
        sharp = sy.weyl_sharp(
            sy.two_sided_shift(v1, sy.mehler_symbol(s1.q)),
            sy.two_sided_shift(v2, sy.mehler_symbol(s2.q)),
        )
        return {
            "k1": k1,
            "c": c,
            "k_back": kn.evolution_to_kernel(back),
            "factor": composed.factor,
            "k3": kn.evolution_to_kernel(composed.spec),
            "k12": kn.kernel_compose(k1, k2),
            "k_sharp": kn.quantize(sharp),
        }

    def check(self, req, out, exc):
        if exc is not None:
            return [(False, False)] * len(req)
        return [self._check_one(member, result) for member, result in zip(req, out)]

    def _check_one(self, member, out):
        n, _, _, (x, y) = member
        self.tally.flag(two_mode=n == 2)
        if isinstance(out, Exception):
            return False, False
        ref = out["k12"](x, y)
        ok = (
            min(abs(out["c"] - 1.0), abs(out["c"] + 1.0)) <= 1e-8
            and near_rel(out["k1"](x, y), out["c"] * out["k_back"](x, y), 1e-8)
            # the composition sign is ambiguous until the sign work lands; +-1 holds either way
            and near_rel(out["factor"] * out["k3"](x, y), ref, 1e-8, sign_free=True)
            and near_rel(out["k_sharp"](x, y), ref, 1e-8, sign_free=True)
        )
        return ok, False


class Oracle:
    """Grid verification of closed-form norms; traces for heat members.

    A cycle is one two-mode heat kernel on the minimum 64-point grid, one
    two-mode heat kernel on the automatic grid (larger than the address-space
    cap), each a request of its own, then six requests of ten one-mode
    members on the automatic grid: six heat kernels (s down to 0.02), two
    rotated and two shifted rotated members.  Batches of ten keep the median
    and tail steady; single one-mode members vary tenfold in cost, the
    rotated ones most, and so each batch holds four of them.
    """

    name = "oracle"
    probe = calibrate.LOOP
    cycle = 8
    warm_up = 2  # one-mode members; the two-mode ones would dominate set-up time

    def __init__(self, rng, scale, root, workdir):
        cycles = 4 if scale == "full" else 1
        # each batch takes one heat draw from each sixth of the s range, so
        # every batch holds the same spread of s, under-resolved members too
        heat_s = np.sort(log_strata(rng, 36 * cycles, 0.02, 4.0)).reshape(6, -1)
        heat_s = iter(rng.permuted(heat_s, axis=1).T.ravel())
        grid64_s = strata(rng, cycles, 0.5, 2.0)
        auto_s = strata(rng, cycles, 0.5, 2.0)
        th = strata(rng, 24 * cycles, -1.2, 1.2)
        t1 = strata(rng, 24 * cycles, -3.0, 3.0)
        t2 = compact_t2(th, t1, strata(rng, 24 * cycles, 0.05, 1.5))
        rotated = iter(zip(th, t1, t2))
        self.requests = []
        for c in range(cycles):
            for kind, s in (("heat2_grid64", grid64_s[c]), ("heat2_auto", auto_s[c])):
                self.requests.append([(kind, models.heat_generator(s, 2).hess, None,
                                       np.exp(-s), models.heat_trace(s) ** 2)])
            for _ in range(6):
                batch = []
                for _ in range(6):
                    s = next(heat_s)
                    batch.append(("heat1", models.heat_generator(s).hess, None,
                                  np.exp(-s / 2.0), models.heat_trace(s)))
                for kind in ("rotated", "shifted") * 2:
                    model = next(rotated)
                    v = 0.5 * complex_normal(rng, 2) if kind == "shifted" else np.zeros(2)
                    batch.append((kind, rotated_hessian(*model), v, models.rho_norm_shifted(*model, v), None))
                self.requests.append(batch)
        self.tally = Tally()
        self.llc_bytes = last_level_cache_bytes()

    def run(self, req):
        return [self._verify(kind, hess, v) for kind, hess, v, _, _ in req]

    @staticmethod
    def _verify(kind, hess, v):
        ev, orc = quadflow.evolution, quadflow.oracle
        spec = ev.EvolutionSpec(quadflow.symplectic.QuadraticForm(hess), v)
        closed = ev.decompose(spec).norm
        kern = quadflow.kernels.evolution_to_kernel(spec)
        grid = orc.auto_grid(kern)
        if kind == "heat2_grid64":
            grid = orc.GridSpec(n=2, half_width=grid.half_width, points=64)
        out = {"closed": closed, "kernel": kern, "grid": grid}
        try:
            mat = orc.discretize(kern, grid)
        except (MemoryError, quadflow.errors.GridError) as err:
            out["refused"] = type(err).__name__
            return out
        out["norm"] = orc.operator_norm(mat)
        out["trace"] = orc.grid_trace(mat)
        return out

    def check(self, req, out, exc):
        if exc is not None:
            for kind, *_ in req:
                self.tally.flag(**{kind: True})
            return [(False, False)] * len(req)
        return [self._check_one(member, result) for member, result in zip(req, out)]

    def _check_one(self, member, out):
        kind, _, _, expected, expected_trace = member
        grid = out["grid"]
        matrix_bytes = 16 * grid.points ** (2 * grid.n)
        under_resolved, over_cap, off_centre = oracle_defects(out["kernel"], grid)
        self.tally.flag(**{kind: True}, under_resolved=under_resolved, over_cap=over_cap,
                        off_centre=off_centre, over_llc=bool(self.llc_bytes) and matrix_bytes > self.llc_bytes)
        self.tally.high("matrix_bytes_max", matrix_bytes)
        if under_resolved and kind == "heat1":
            self.tally.high("heat_s_under_resolved_max", -2.0 * np.log(expected))
        closed_ok = abs(out["closed"] - expected) <= 1e-8 * expected
        ok = (
            closed_ok
            and "refused" not in out
            and abs(out["norm"] - expected) <= 1e-6 * expected
            and (expected_trace is None or abs(out["trace"] - expected_trace) <= 1e-6 * expected_trace)
        )
        return ok, closed_ok and (under_resolved or over_cap or off_centre)


class Cli:
    """Cold-start ``python -m quadflow.cli`` runs, one at a time.

    A cycle runs each subcommand once; each subcommand has three input
    variants drawn from the seed.  The first output of each input is its
    reference: later runs must be byte-identical, and values must agree with
    the ``models`` closed forms.
    """

    name = "cli"
    cycle = 7

    @property
    def probe(self):
        return calibrate.LOOP if self.in_process else calibrate.START

    def __init__(self, rng, scale, root, workdir):
        self.root = root
        self.in_process = False
        self.reference = {}
        self.env = {k: v for k, v in os.environ.items() if k != "QUADFLOW_TOL"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

        def spec_file(name, hess, v=None):
            data = {"hessian": {"re": hess.real.tolist(), "im": hess.imag.tolist()}}
            if v is not None:
                data["v"] = {"re": v.real.tolist(), "im": v.imag.tolist()}
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            return path

        def compact_draw(t1_lo, t1_hi):
            theta = rng.uniform(-1.2, 1.2)
            t1 = rng.uniform(t1_lo, t1_hi)
            return theta, t1, compact_t2(theta, t1, rng.uniform(0.05, 1.5))

        def shift_arg(v):
            return "--v=" + ",".join(repr(float(x)) for x in (v[0].real, v[0].imag, v[1].real, v[1].imag))

        self.requests = []
        for variant in range(3):
            def spec_path(name, hess, v=None, variant=variant):
                return spec_file(f"{name}{variant}", hess, v)

            for key in ("norm", "verify"):
                model, v = compact_draw(-3.0, 3.0), 0.5 * complex_normal(rng, 2)
                argv = ["norm", spec_path(key, rotated_hessian(*model), v)]
                self.requests.append((key, argv + ["--verify"] * (key == "verify"), (model, v)))
            model = (rng.uniform(-1.3, 1.3), rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, -0.01))
            self.requests.append(("check", ["check", spec_path("check", rotated_hessian(*model))], model))
            theta = rng.uniform(-1.2, 1.2)
            times = []
            for _ in range(2):
                t1 = rng.uniform(-1.0, 1.0)
                times.append((t1, compact_t2(theta, t1, rng.uniform(0.05, 1.5))))
            paths = [spec_path("compose" + s, rotated_hessian(theta, *t), 0.5 * complex_normal(rng, 2))
                     for s, t in zip("ab", times)]
            self.requests.append(("compose", ["compose", *paths], (theta, times)))
            t = rng.uniform(0.3, 2.8)
            bargmann = t * models.bargmann_generator().hess
            self.requests.append(("kernel", ["kernel", spec_path("kernel", bargmann), "--formal"], t))
            theta, v = float(rng.uniform(-1.0, 1.0)), 0.5 * complex_normal(rng, 2)
            self.requests.append(("contour", ["contour", f"--theta={theta!r}", "--t1=0:6.28:13",
                                              "--t2=-2:-0.1:8", shift_arg(v)], (theta, v)))
            theta, t2 = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.5, -0.2))
            v = 0.5 * complex_normal(rng, 2)
            self.requests.append(("centers", ["centers", f"--theta={theta!r}", f"--t2={t2!r}",
                                              "--t1=-3:3:13", shift_arg(v)], (theta, t2, v)))
        self.tally = Tally()

    def run(self, req):
        argv = req[1]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = quadflow.cli.main(list(argv))
            return code, out.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "quadflow.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, req, out, exc):
        key, argv, model = req
        if exc is not None:
            return [(False, False)]
        code, stdout = out
        if self.reference.setdefault(tuple(argv), out) != out:
            return [(False, False)]
        try:
            ok = getattr(self, "_check_" + key)(code, stdout.decode(), model)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        known = False
        if not ok and key == "verify" and code == 4:
            # the oracle refused; find out whether a known oracle defect explains it
            (theta, t1, t2), v = model
            spec = quadflow.evolution.EvolutionSpec(quadflow.QuadraticForm(rotated_hessian(theta, t1, t2)), v)
            kern = quadflow.kernels.evolution_to_kernel(spec)
            known = any(oracle_defects(kern, quadflow.oracle.auto_grid(kern)))
        return [(ok, known)]

    @staticmethod
    def _check_norm(code, text, model):
        (theta, t1, t2), v = model
        data = json.loads(text)
        a1, a2 = models.rho_centers(theta, t1, t2, v)
        expected = models.rho_norm_shifted(theta, t1, t2, v)
        return (code == 0 and abs(data["norm"] - expected) <= 1e-8 * expected
                and near(data["a1"], a1, 1e-8) and near(data["a2"], a2, 1e-8))

    @classmethod
    def _check_verify(cls, code, text, model):
        (theta, t1, t2), v = model
        expected = models.rho_norm_shifted(theta, t1, t2, v)
        oracle = json.loads(text)["oracle"]["norm"]
        return cls._check_norm(code, text, model) and abs(oracle - expected) <= 1e-6 * expected

    @staticmethod
    def _check_check(code, text, model):
        compact = models.rho_compact(*model)
        return code == (0 if compact else 2) and json.loads(text)["is_strict"] == compact

    @staticmethod
    def _check_compose(code, text, model):
        theta, ((t1a, t2a), (t1b, t2b)) = model
        data = json.loads(text)["hessian"]
        hess = np.array(data["re"]) + 1j * np.array(data["im"])
        return code == 0 and near(hess, rotated_hessian(theta, t1a + t1b, t2a + t2b), 1e-8)

    @staticmethod
    def _check_kernel(code, text, t):
        data = json.loads(text)
        ref = models.bargmann_reference_kernel(t)

        def value(node):
            return np.array(node["re"]) + 1j * np.array(node["im"])

        return (code == 0
                and near_rel(value(data["amplitude"]), ref.amplitude, 1e-8, sign_free=True)
                and all(near(value(data[b]), getattr(ref, b), 1e-8) for b in ("pxx", "pxy", "pyy")))

    @staticmethod
    def _check_contour(code, text, model):
        theta, v = model
        rows = [line.split(",") for line in text.splitlines()[1:]]
        ok = code == 0 and len(rows) == 13 * 8
        compact_rows = []
        for t1, t2, value in ((float(a), float(b), float(c)) for a, b, c in rows):
            compact = models.rho_compact(theta, t1, t2)
            ok = ok and compact == (not np.isnan(value))
            if compact and value < np.log(LOG_FLOAT_MAX):
                compact_rows.append((t1, t2, value))
        # dual route: the contour's closed-form growth against the generic pipeline
        for t1, t2, value in compact_rows[:: max(1, len(compact_rows) // 4)]:
            spec = quadflow.evolution.EvolutionSpec(quadflow.QuadraticForm(rotated_hessian(theta, t1, t2)), v)
            log_growth = np.log(abs(quadflow.evolution.decompose(spec).phase))
            ok = ok and near(log_growth, np.expm1(value), 1e-6)
        return ok

    @staticmethod
    def _check_centers(code, text, model):
        theta, t2, v = model
        rows = [line.split(",") for line in text.splitlines()[1:]]
        ok = code == 0 and len(rows) == 13
        for row in rows:
            t1, a1x, a1xi, a2x, a2xi = (float(x) for x in row[:5])
            compact = models.rho_compact(theta, t1, t2)
            ok = ok and compact == (not np.isnan(a1x))
            if ok and compact:
                a1, a2 = models.rho_centers(theta, t1, t2, v)
                ok = near([a1x, a1xi], a1, 1e-6) and near([a2x, a2xi], a2, 1e-6)
        return ok


WORKLOADS = {cls.name: cls for cls in (Sweep, KernelCalculus, Oracle, Cli)}
