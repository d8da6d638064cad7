"""python3 tools/cli_compare.py OLD_SRC NEW_SRC WORKDIR: one seeded CLI input set through two trees.

OLD_SRC and NEW_SRC are the src/ directories of two checkouts; WORKDIR receives the
specs and outputs.  Every output that differs in any byte is classified:
- structural: a different exit code, key set, row count or non-numeric text;
- numeric-only: the same structure, with some numbers moved.
JSON outputs are compared as trees ({"re", "im"} pairs as complex numbers) and CSV
outputs column by column.  For numeric-only differences the script prints, per
(command, key), the number of runs in which the key moved and its largest change,
max |new - old| over the key's entries in a run, relative to their largest |old| and
absolute.
Exits with status 1 when any output differs.
"""
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

def parse(out):
    """A JSON document, a CSV table as {column: cells}, or the text itself."""
    try:
        return json.loads(out)
    except ValueError:
        pass
    lines = out.splitlines()
    if not lines or "," not in lines[0]:
        return out
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(lines[0].split(",")) for row in rows):
        return out
    return {col: [cell(row[j]) for row in rows] for j, col in enumerate(lines[0].split(","))}

def cell(text):
    try:
        return float(text)
    except ValueError:
        return text

def walk(a, b, key, numeric):
    """Collect (old, new) number pairs per key path in numeric; return a structural reason or None."""
    number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return f"key set, {key or 'top level'}: {sorted(set(a) ^ set(b))}"
        if set(a) == {"re", "im"}:
            parts = {}
            for k in ("re", "im"):
                reason = walk(a[k], b[k], k, parts)
                if reason:
                    return reason
            pairs = zip(parts.get("re", []), parts.get("im", []))
            numeric.setdefault(key, []).extend((complex(r0, i0), complex(r1, i1)) for (r0, r1), (i0, i1) in pairs)
            return None
        for k in a:
            reason = walk(a[k], b[k], f"{key}/{k}" if key else k, numeric)
            if reason:
                return reason
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"row count, {key or 'top level'}: {len(a)} -> {len(b)}"
        for x, y in zip(a, b):
            reason = walk(x, y, key, numeric)
            if reason:
                return reason
        return None
    if number(a) and number(b):
        numeric.setdefault(key, []).append((a, b))
        return None
    return None if a == b else f"non-numeric text, {key or 'top level'}: {a!r} -> {b!r}"

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
old2, new2 = run_both(WORK, [["kernel", f"{WORK}/{p}{i}.json"] for i, _ in kernels for p in "kz"], "b")
runs, differing, structural, moved = {}, 0, [], {}  # moved: (command, key) -> [runs, relative, absolute change]
for (argv, rc0, out0), (_, rc1, out1) in zip(old + old2, new + new2):
    name = " ".join(argv[:1] + [a for a in argv if a.startswith("--") and a != "--grid" and "=" not in a])
    runs[name] = runs.get(name, 0) + 1
    if (rc0, out0) == (rc1, out1):
        continue
    differing += 1
    numeric = {}
    reason = f"exit code {rc0} -> {rc1}" if rc0 != rc1 else walk(parse(out0), parse(out1), "", numeric)
    if reason:
        structural.append(argv[:1] + [os.path.basename(a) for a in argv[1:]] + [reason])
        continue
    for key, pairs in numeric.items():
        if all(repr(x) == repr(y) for x, y in pairs):
            continue
        change = max(abs(y - x) for x, y in pairs)
        scale = max(abs(x) for x, _ in pairs)
        entry = moved.setdefault((name, key or "value"), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], change / scale if scale else float("inf") if change else 0.0)
        entry[2] = max(entry[2], change)
print("runs:", runs)
print(f"outputs differing in any byte: {differing}")
print("structural differences:", structural)
print(f"numeric-only differences, per (command, key); {sum(runs.values())} runs in all:")
print(f"{'command':<20} {'key':<18} {'runs moved':>10} {'largest relative change':>24} {'largest change':>15}")
for (name, key), (count, worst, change) in sorted(moved.items()):
    print(f"{name:<20} {key:<18} {f'{count}/{runs[name]}':>10} {worst:>24.1e} {change:>15.1e}")
sys.exit(1 if differing else 0)
