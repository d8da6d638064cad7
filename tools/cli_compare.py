"""python3 tools/cli_compare.py OLD_SRC NEW_SRC WORKDIR: one seeded CLI input set through two trees.

OLD_SRC and NEW_SRC are the src/ directories of two checkouts; WORKDIR receives the
specs and outputs.  norm/check/compose/contour/centers must match byte for byte, exit
codes too; kernel outputs (both directions) may differ only in 'amplitude' and 'c'.
Exits with status 1 when any output differs."""
import json, os, subprocess, sys
import numpy as np

RUN = """import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from quadflow.cli import main
res = []
for argv in json.load(open(sys.argv[2])):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        res.append([argv, main(argv)])
    res[-1].append(out.getvalue())
json.dump(res, open(sys.argv[3], "w"))"""

def run_both(work, argvs, tag):
    json.dump(argvs, open(f"{work}/{tag}.json", "w"))
    for side, src in (("old", OLD), ("new", NEW)):
        subprocess.run([sys.executable, "-c", RUN, src, f"{work}/{tag}.json", f"{work}/{tag}_{side}.json"], check=True)
    return [json.load(open(f"{work}/{tag}_{s}.json")) for s in ("old", "new")]

def spec(path, hess, v=None):
    d = {"hessian": {"re": hess.real.tolist(), "im": hess.imag.tolist()}}
    if v is not None:
        d["v"] = {"re": v.real.tolist(), "im": v.imag.tolist()}
    json.dump(d, open(path, "w"))
    return path

def rot(theta, t, w=(1.0,)):  # rotated oscillator(s); mode j runs at w[j] times t
    return t * np.diag([np.exp(1j * theta) * x for x in w] + [np.exp(-1j * theta) * x for x in w]).astype(complex)

OLD, NEW, WORK = sys.argv[1:4]
os.makedirs(WORK, exist_ok=True)
rng = np.random.default_rng(2024)
cn = lambda k, s: s * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
sym = lambda k: (lambda m: m + m.T)(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
one = [spec(f"{WORK}/r{i}.json", rot(rng.uniform(-.6, .6), rng.uniform(-3, 3) - 1j * rng.uniform(.3, 1.5)), cn(2, .5)) for i in range(8)]
one += [spec(f"{WORK}/h{i}.json", -1j * rng.uniform(.3, 2) * np.eye(2) + .1 * sym(2), cn(2, .4)) for i in range(4)]
two = []
for i in range(4):
    two.append(spec(f"{WORK}/H{i}.json", -1j * rng.uniform(.5, 2) * np.eye(4) + .1 * sym(4), cn(4, .3)))
    two.append(spec(f"{WORK}/R{i}.json", rot(rng.uniform(-.4, .4), rng.uniform(-2, 2) - 1j * rng.uniform(.4, 1.2), (1.0, .7)), cn(4, .3)))
bad = [spec(f"{WORK}/b0.json", rot(0.0, 1.0)), spec(f"{WORK}/b1.json", rot(0.3, 2.0 - 0.01j))]
argvs = [[c, p] for p in one + two + bad for c in ("norm", "check", "kernel")]
argvs += [["norm", p, "--verify"] for p in one] + [["norm", p, "--verify", "--grid", "10,64"] for p in two]
argvs += [["compose", a, b] for s in (one, two) for a, b in zip(s, s[1:])]
argvs += [["kernel", spec(f"{WORK}/g{i}.json", rot(np.pi / 2, t)), "--formal"] for i, t in enumerate((.4, 1.3, 2.6))]
for th in (0.0, 0.4, -0.9):
    argvs.append(["contour", f"--theta={th}", "--t1=0:6.28:25", "--t2=-2:-0.1:12", "--v=0.2,0.7,-0.1,0.3"])
    argvs.append(["centers", f"--theta={th}", "--t2=-0.8", "--t1=-3:3:25", "--v=0.1,0.6,0.2,-0.4"])
old, new = run_both(WORK, argvs, "a")
kernels = [(i, out) for i, (argv, rc, out) in enumerate(old) if argv[0] == "kernel" and rc == 0]
for i, out in kernels:  # the old tree's kernels are the from-kernel inputs of both trees
    open(f"{WORK}/k{i}.json", "w").write(out)
    tiny = json.loads(out)  # and again scaled by e^{-40}, so the value at the origin is tiny
    tiny["c0"]["im"] += 40.0
    json.dump(tiny, open(f"{WORK}/z{i}.json", "w"))
old2, new2 = run_both(WORK, [["kernel", f"{WORK}/{p}{i}.json", "--direction", "from-kernel"]
                             for i, _ in kernels for p in "kz"], "b")
runs, worst, diffs = {}, 0.0, []
for (argv, rc0, out0), (_, rc1, out1) in zip(old + old2, new + new2):
    name = " ".join(argv[:1] + [a for a in argv if a.startswith("--") and a != "--grid" and "=" not in a])
    runs[name] = runs.get(name, 0) + 1
    if (rc0, out0) == (rc1, out1):
        continue
    j0, j1 = (json.loads(o) if argv[0] == "kernel" and rc0 == rc1 else None for o in (out0, out1))
    for k in ("amplitude", "c"):
        if j0 and k in j0:
            a, b = (complex(j[k]["re"], j[k]["im"]) for j in (j0, j1))
            worst, j0[k], j1[k] = max(worst, abs(a - b) / abs(a)), None, None
    if j0 is None or j0 != j1:
        diffs.append(argv[:1] + [os.path.basename(a) for a in argv[1:]])
print("runs:", runs)
print("differing outputs:", diffs)
print(f"largest relative change of kernel amplitude or c: {worst:.2e}")
sys.exit(1 if diffs else 0)
