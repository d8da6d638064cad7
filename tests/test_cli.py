"""End-to-end CLI tests; main() is invoked in-process."""
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import quadflow
from quadflow import (
    CompositionClassError,
    EvolutionSpec,
    QuadraticForm,
    decompose,
    evolution_to_kernel,
    kernel_compose,
    models,
)
from quadflow.cli import main

HEAT = {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-1, 0], [0, -1]]}}
SHIFTED = dict(HEAT, v={"re": [0.3, -0.1], "im": [0.2, 0.4]})
ROTATION = {"hessian": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}
THIN = {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-1e-5, 0], [0, -1e-5]]}}  # margin 2e-5


@pytest.fixture(autouse=True)
def _tolerance_guard(monkeypatch):
    monkeypatch.delenv("QUADFLOW_TOL", raising=False)


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def cplx(node):
    return np.array(node["re"]) + 1j * np.array(node["im"])


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_norm_heat_report(tmp_path, capsys):
    rc, out, _ = run(capsys, ["norm", write_spec(tmp_path, HEAT)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["norm"] == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert rep["mu"] == [pytest.approx(np.exp(-2.0), rel=1e-12)]
    assert rep["a1"] == [0.0, 0.0]
    assert rep["a2"] == [0.0, 0.0]
    assert rep["phase"]["re"] == pytest.approx(1.0)
    assert rep["phase"]["im"] == pytest.approx(0.0, abs=1e-15)
    assert rep["margin"] == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)


def test_norm_shifted_matches_library(tmp_path, capsys):
    rc, out, _ = run(capsys, ["norm", write_spec(tmp_path, SHIFTED)])
    assert rc == 0
    rep = json.loads(out)
    v = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    data = decompose(EvolutionSpec(QuadraticForm(-1j * np.eye(2)), v))
    assert rep["norm"] == pytest.approx(data.norm, rel=1e-12)
    assert np.allclose(rep["a1"], data.a1)
    assert np.allclose(rep["a2"], data.a2)
    assert rep["norm"] > np.exp(-0.5)  # imaginary shift grows the norm


def test_norm_verify_oracle_gap(tmp_path, capsys):
    rc, out, _ = run(capsys, ["norm", write_spec(tmp_path, HEAT), "--verify", "--grid", "8,200"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["oracle"]["half_width"] == 8
    assert rep["oracle"]["points"] == 200
    assert rep["oracle"]["rel_gap"] < 1e-9
    assert rep["oracle"]["norm"] == pytest.approx(np.exp(-0.5), rel=1e-9)


def test_norm_output_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    rc1, out1, _ = run(capsys, ["norm", spec])
    rc2, out2, _ = run(capsys, ["norm", spec])
    assert rc1 == rc2 == 0
    assert out1 == out2
    outfile = tmp_path / "report.json"
    assert main(["norm", spec, "-o", str(outfile)]) == 0
    capsys.readouterr()
    assert outfile.read_text() == out1


@pytest.mark.parametrize("argv, code", [
    (["norm", "heat.json"], 0),
    (["check", "heat.json"], 0),
    (["check", "rotation.json"], 2),  # a failed certificate still reports
    (["compose", "heat.json", "heat.json"], 0),
    (["kernel", "heat.json"], 0),
    (["kernel", "heat_kernel.json"], 0),
    (["contour", "--theta", "0.3", "--t1", "0:2:3", "--t2=-1:-0.4:2"], 0),
    (["centers", "--theta", "0.3", "--t2=-0.8", "--t1=-3:3:5"], 0),
], ids=["norm", "check", "check-failed", "compose", "to-kernel", "from-kernel", "contour", "centers"])
def test_output_file_holds_the_printed_report(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, HEAT, "heat.json")
    write_spec(tmp_path, ROTATION, "rotation.json")
    assert main(["kernel", "heat.json", "-o", "heat_kernel.json"]) == 0
    rc, printed, _ = run(capsys, argv)
    assert rc == code and printed
    rc, out, _ = run(capsys, argv + ["-o", "report.out"])
    assert rc == code and out == ""
    assert (tmp_path / "report.out").read_text() == printed


def test_failing_call_writes_nothing(tmp_path, capsys):
    outfile = tmp_path / "report.json"
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, ROTATION), "-o", str(outfile)])
    assert rc == 2 and out == "" and "positivity failure" in err
    assert not outfile.exists()


def test_check_strict_heat(tmp_path, capsys):
    rc, out, _ = run(capsys, ["check", write_spec(tmp_path, HEAT)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["is_strict"] is True
    assert rep["boundary"] is False
    assert rep["margin"] == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)


def test_check_boundary_rotation_exits_2(tmp_path, capsys):
    rc, out, _ = run(capsys, ["check", write_spec(tmp_path, ROTATION)])
    assert rc == 2
    rep = json.loads(out)
    assert rep["is_strict"] is False
    assert rep["boundary"] is True
    assert abs(rep["margin"]) < 1e-9


def test_norm_boundary_rotation_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, ["norm", write_spec(tmp_path, ROTATION)])
    assert rc == 2
    assert "positivity failure" in err


def test_compose_heat_semigroup(tmp_path, capsys):
    spec = write_spec(tmp_path, HEAT)
    rc, out, _ = run(capsys, ["compose", spec, spec])
    assert rc == 0
    rep = json.loads(out)
    assert np.allclose(rep["hessian"]["re"], np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(rep["hessian"]["im"], -2.0 * np.eye(2), atol=1e-12)
    assert np.allclose(rep["v"]["re"], 0.0) and np.allclose(rep["v"]["im"], 0.0)
    assert rep["factor"]["re"] == pytest.approx(1.0, rel=1e-12)
    assert rep["factor"]["im"] == pytest.approx(0.0, abs=1e-12)
    assert set(rep) == {"hessian", "v", "factor", "margin"}
    heat = evolution_to_kernel(EvolutionSpec(QuadraticForm(cplx(HEAT["hessian"]))))
    composed = evolution_to_kernel(EvolutionSpec(QuadraticForm(cplx(rep["hessian"])), cplx(rep["v"])))
    x, y = np.random.default_rng(4).standard_normal((2, 5, 1))
    want = kernel_compose(heat, heat)(x, y)
    assert np.all(np.abs(cplx(rep["factor"]) * composed(x, y) - want) <= 1e-9 * np.abs(want))
    assert rep["margin"] == pytest.approx(1.0 - np.exp(-4.0), rel=1e-10)


def test_compose_class_failure_exits_3(tmp_path, capsys, monkeypatch):
    # strict flows compose to strict flows, so the class-exit path is
    # exercised by forcing the error at the seam
    def boom(s1, s2):
        raise CompositionClassError("forced for the exit-code contract")

    monkeypatch.setattr("quadflow.evolution.compose_evolutions", boom)
    spec = write_spec(tmp_path, HEAT)
    rc, _, err = run(capsys, ["compose", spec, spec])
    assert rc == 3
    assert "composition failure" in err


def test_compose_runs_one_certificate_and_exits_3_when_it_fails(tmp_path, capsys, monkeypatch):
    # the call certifies each input spec and then the composite once, through the spec it returns;
    # failing that third certificate (rounding could, the class is closed under products) exits 3
    from quadflow import positivity

    verdicts, calls = positivity.positivity_verdicts, []

    def third_fails(m):
        margins, strict, boundary = verdicts(m)
        calls.append(margins)
        return margins, strict & (len(calls) < 3), boundary

    monkeypatch.setattr("quadflow.positivity.positivity_verdicts", third_fails)
    spec = write_spec(tmp_path, HEAT)
    rc, out, err = run(capsys, ["compose", spec, spec])
    assert len(calls) == 3 and rc == 3 and out == ""
    assert err == ("composition failure: composed flow is not strictly positive: "
                   "positivity margin 9.816844e-01 (not strict)\n")


def test_kernel_to_kernel_heat(tmp_path, capsys):
    rc, out, _ = run(capsys, ["kernel", write_spec(tmp_path, HEAT)])
    assert rc == 0
    rep = json.loads(out)
    amp = rep["amplitude"]["re"] + 1j * rep["amplitude"]["im"]
    assert abs(amp) == pytest.approx((2.0 * np.pi * np.sinh(1.0)) ** -0.5, rel=1e-12)
    assert rep["pxx"]["im"][0][0] == pytest.approx(1.0 / np.tanh(1.0), rel=1e-12)
    assert rep["pxx"]["re"][0][0] == pytest.approx(0.0, abs=1e-15)
    assert rep["pxy"]["im"][0][0] == pytest.approx(-1.0 / np.sinh(1.0), rel=1e-12)


def test_kernel_roundtrip_through_files(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    kern_file = tmp_path / "kern.json"
    assert main(["kernel", spec, "-o", str(kern_file)]) == 0
    capsys.readouterr()
    rc, out, _ = run(capsys, ["kernel", str(kern_file)])
    assert rc == 0
    rep = json.loads(out)
    assert np.allclose(rep["hessian"]["re"], np.zeros((2, 2)), atol=1e-9)
    assert np.allclose(rep["hessian"]["im"], -np.eye(2), atol=1e-9)
    assert np.allclose(rep["v"]["re"], [0.3, -0.1], atol=1e-9)
    assert np.allclose(rep["v"]["im"], [0.2, 0.4], atol=1e-9)
    c = rep["c"]["re"] + 1j * rep["c"]["im"]
    assert c == pytest.approx(1.0, rel=1e-9)


def test_kernel_formal_rejects_shift(tmp_path, capsys):
    rc, _, err = run(capsys, ["kernel", write_spec(tmp_path, SHIFTED), "--formal"])
    assert rc == 4
    assert "input error" in err


def test_kernel_from_kernel_refuses_formal(tmp_path, capsys):
    kern_file = tmp_path / "kern.json"
    assert main(["kernel", write_spec(tmp_path, HEAT), "-o", str(kern_file)]) == 0
    rc, out, err = run(capsys, ["kernel", str(kern_file), "--formal"])
    assert rc == 4 and out == ""
    assert err == "input error: --formal applies to a spec file (one with a 'hessian' entry) only\n"


def test_kernel_reads_the_direction_from_the_file(tmp_path, capsys):
    # a file with a 'hessian' entry is a spec and goes to its kernel; any other is read as a kernel;
    # no flag says which: --direction is a usage error
    spec = write_spec(tmp_path, HEAT)
    kern_file = tmp_path / "kern.json"
    assert main(["kernel", spec, "-o", str(kern_file)]) == 0
    assert "hessian" not in json.loads(kern_file.read_text())
    rc, out, _ = run(capsys, ["kernel", str(kern_file)])
    assert rc == 0 and set(json.loads(out)) == {"hessian", "v", "c", "margin"}
    for argv in (["kernel", spec, "--direction", "to-kernel"],
                 ["kernel", str(kern_file), "--direction", "from-kernel"]):
        rc, out, err = run(capsys, argv)
        assert rc == 4 and out == "" and "unrecognized arguments: --direction" in err
    rc, out, _ = run(capsys, ["kernel", "--help"])
    assert rc == 0 and "--direction" not in out


def test_kernel_from_indefinite_phase_exits_4(tmp_path, capsys):
    ref = models.bargmann_reference_kernel(0.7)
    payload = {
        "amplitude": {"re": ref.amplitude.real, "im": ref.amplitude.imag},
        "pxx": {"re": ref.pxx.real.tolist(), "im": ref.pxx.imag.tolist()},
        "pxy": {"re": ref.pxy.real.tolist(), "im": ref.pxy.imag.tolist()},
        "pyy": {"re": ref.pyy.real.tolist(), "im": ref.pyy.imag.tolist()},
        "lx": {"re": [0.0], "im": [0.0]},
        "ly": {"re": [0.0], "im": [0.0]},
    }
    rc, _, err = run(capsys, ["kernel", write_spec(tmp_path, payload)])
    assert rc == 4
    assert "degenerate" in err


def test_two_mode_kernel_round_trip(tmp_path, capsys):
    # a coupled shifted generator R - i P: its kernel gives back the Hessian, v and c = +-1
    spec = {"hessian": {"re": [[0.2, 0.1, 0, 0.05], [0.1, -0.1, 0.05, 0], [0, 0.05, 0.3, 0], [0.05, 0, 0, 0.1]],
                        "im": [[-1, -0.2, 0, -0.1], [-0.2, -0.8, -0.1, 0], [0, -0.1, -0.9, -0.2],
                               [-0.1, 0, -0.2, -1.1]]},
            "v": {"re": [0.3, -0.1, 0.2, 0.05], "im": [0.2, 0.1, -0.3, 0.4]}}
    rc, out, _ = run(capsys, ["kernel", write_spec(tmp_path, spec)])
    assert rc == 0
    kern = json.loads(out)
    # the package builds the kernel without the symmetry check, so it must keep pxx and pyy exactly symmetric
    for block in ("pxx", "pyy"):
        assert np.array_equal(cplx(kern[block]), cplx(kern[block]).T)
    rc, out, _ = run(capsys, ["kernel", write_spec(tmp_path, kern, "kernel.json")])
    assert rc == 0
    back = json.loads(out)
    for key in ("hessian", "v"):
        assert np.linalg.norm(cplx(back[key]) - cplx(spec[key])) <= 1e-12 * np.linalg.norm(cplx(spec[key]))
    c = cplx(back["c"])
    assert min(abs(c - 1), abs(c + 1)) <= 1e-12


def test_composition_sign_flips_at_the_log_wrap(tmp_path, capsys):
    # the oscillator at time 2.5 - 0.3i composed with itself: the principal log wraps 5 - 0.6i to
    # 5 - 2 pi - 0.6i, which flips the Mehler sign, so the factor is -1
    spec = write_spec(tmp_path, {"hessian": {"re": [[2.5, 0], [0, 2.5]], "im": [[-0.3, 0], [0, -0.3]]}})
    rc, out, _ = run(capsys, ["compose", spec, spec])
    assert rc == 0
    rep = json.loads(out)
    assert sorted(rep) == ["factor", "hessian", "margin", "v"]
    assert np.abs(cplx(rep["hessian"]) - (5 - 2 * np.pi - 0.6j) * np.eye(2)).max() <= 1e-12
    assert abs(cplx(rep["factor"]) + 1) <= 1e-12


def test_formal_bargmann_kernel(tmp_path, capsys):
    # the flow of 0.7 diag(i, -i) is not strictly positive, so only --formal quantizes it; its kernel is
    # (2 pi sin t)^{-1/2} exp(-(cot t (x^2 + y^2) - 2 csc t xy) / 2) at t = 0.7
    spec = write_spec(tmp_path, {"hessian": {"re": [[0, 0], [0, 0]], "im": [[0.7, 0], [0, -0.7]]}})
    rc, out, _ = run(capsys, ["kernel", spec, "--formal"])
    assert rc == 0
    kern, t = json.loads(out), 0.7
    want = {"amplitude": (2 * np.pi * np.sin(t)) ** -0.5, "pxx": 1j / np.tan(t), "pxy": -1j / np.sin(t)}
    for key, value in want.items():
        assert abs(cplx(kern[key]).ravel()[0] - value) <= 1e-12


def test_one_mode_oracle_on_an_oscillating_kernel(tmp_path, capsys):
    # a real phase that the corner-gradient step alone would resolve with 539 points
    spec = {"hessian": {"re": [[2.264815, 0], [0, 1.036527]], "im": [[0.231593, 0], [0, -2.026977]]},
            "v": {"re": [0.3, -0.1], "im": [0.2, 0.4]}}
    rc, out, _ = run(capsys, ["norm", write_spec(tmp_path, spec), "--verify"])
    assert rc == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["points"] == 101 and oracle["rel_gap"] < 1e-8


def test_two_mode_oracle_cross_check_on_a_user_grid(tmp_path, capsys):
    spec = {"hessian": {"re": np.zeros((4, 4)).tolist(), "im": (-np.eye(4)).tolist()}}
    rc, out, _ = run(capsys, ["norm", write_spec(tmp_path, spec), "--verify", "--grid", "6.5,64"])
    assert rc == 0
    assert json.loads(out)["oracle"]["rel_gap"] < 1e-8


def test_contour_csv_values(capsys):
    theta = np.pi / 4
    rc, out, _ = run(capsys, [
        "contour", "--theta", str(theta), "--t1", "0:3:7", "--t2=-1.2:-0.2:6",
    ])
    assert rc == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "t1,t2,value"
    assert len(lines) == 1 + 7 * 6
    finite, blank = 0, 0
    for line in lines[1:]:
        t1s, t2s, vals = line.split(",")
        t1, t2 = float(t1s), float(t2s)
        if vals == "nan":
            blank += 1
            assert not models.rho_compact(theta, t1, t2)
        else:
            finite += 1
            v = np.array([1j, 0.0])  # default shift
            expect = np.log(models.rho_log_growth(theta, t1, t2, v) + 1.0)
            assert float(vals) == pytest.approx(expect, rel=1e-12)
    assert finite > 0 and blank > 0


def test_contour_rejects_nonnegative_t2(capsys):
    rc, _, err = run(capsys, [
        "contour", "--theta", "0.0", "--t1", "0:3:4", "--t2", "0.5:1:3",
    ])
    assert rc == 4
    assert "input error" in err


def test_centers_circle_sweep(capsys):
    rc, out, _ = run(capsys, [
        "centers", "--theta", "0", "--t2=-1.2", "--t1=-3:3:25",
    ])
    assert rc == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "t1,a1_x,a1_xi,a2_x,a2_xi,circle_residual,style"
    assert len(lines) == 26
    c1, _, radius = models.ho_center_geometry(-1.2, np.array([1j, 0.0]))
    for line in lines[1:]:
        cells = line.split(",")
        t1 = float(cells[0])
        point = np.array([float(cells[1]), float(cells[2])])
        assert float(cells[5]) < 1e-9
        assert np.linalg.norm(point - c1) == pytest.approx(radius, abs=1e-9)
        assert cells[6] == ("solid" if t1 >= 0 else "dotted")


def test_centers_keeps_failed_rows(capsys):
    # just outside the uniform compact band some sweep members fail
    rc, out, _ = run(capsys, [
        "centers", "--theta", str(np.pi / 4), "--t2=-0.86", "--t1", "0:3.141592653589793:15",
    ])
    assert rc == 0
    rows = out.rstrip("\n").split("\n")[1:]
    assert len(rows) == 15
    failed = [r for r in rows if r.split(",")[1] == "nan"]
    good = [r for r in rows if r.split(",")[1] != "nan"]
    assert failed and good
    for r in failed:  # param and style stay in place
        cells = r.split(",")
        assert cells[6] in ("solid", "dotted")


def test_contour_deterministic(capsys):
    argv = ["contour", "--theta", "0.3", "--t1", "0:2:5", "--t2=-1:-0.4:4"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_tolerance_override_flips_verdict(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, THIN)
    rc, out, _ = run(capsys, ["check", spec])
    assert rc == 0
    assert json.loads(out)["margin"] == pytest.approx(2e-5, rel=1e-3)
    monkeypatch.setenv("QUADFLOW_TOL", "positivity=1e-3")
    rc2, out2, _ = run(capsys, ["check", spec])
    assert rc2 == 2
    assert json.loads(out2)["is_strict"] is False


def test_tolerance_override_holds_for_one_call(tmp_path, capsys, monkeypatch):
    thin = {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-1e-4, 0], [0, -1e-4]]}}
    spec = write_spec(tmp_path, thin)
    assert run(capsys, ["check", spec])[0] == 0
    monkeypatch.setenv("QUADFLOW_TOL", "positivity=1e-3")
    assert run(capsys, ["check", spec])[0] == 2
    monkeypatch.delenv("QUADFLOW_TOL")
    assert run(capsys, ["check", spec])[0] == 0


def test_tolerance_override_is_not_seen_by_another_thread(tmp_path, capsys, monkeypatch):
    # QUADFLOW_TOL binds a table for the CLI call's own context; a thread started
    # during the call runs library code under the defaults
    seen = []
    certify = quadflow.positivity.strict_positivity
    q = QuadraticForm(1j * np.array(THIN["hessian"]["im"]))

    def with_thread(k):
        worker = threading.Thread(target=lambda: seen.append(certify(q.transform)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return certify(k)

    monkeypatch.setattr("quadflow.positivity.strict_positivity", with_thread)
    monkeypatch.setenv("QUADFLOW_TOL", "positivity=1e-3")
    rc, out, _ = run(capsys, ["check", write_spec(tmp_path, THIN)])
    assert rc == 2 and json.loads(out)["is_strict"] is False
    assert len(seen) == 1 and seen[0].is_strict and seen[0].margin == pytest.approx(2e-5, rel=1e-3)


def test_tolerance_table_is_read_only():
    with pytest.raises(TypeError):
        quadflow.TOLERANCES["positivity"] = 1.0
    assert dict(quadflow.TOLERANCES) == {
        "sym": 1e-10, "canonical": 1e-10, "positivity": 1e-9, "spectral": 1e-8, "log": 1e-9,
        "boundary": 1e-7, "pairing": 1e-8, "degenerate": 1e-10, "definite": 1e-9,
    }


def test_input_error_under_tolerance_override_leaves_the_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUADFLOW_TOL", "positivity=1e-3")
    rc, out, err = run(capsys, ["norm", str(tmp_path / "missing.json")])
    assert rc == 4 and out == "" and "input error" in err
    q = QuadraticForm(1j * np.array(THIN["hessian"]["im"]))
    assert quadflow.strict_positivity(q.transform).is_strict


def test_tolerance_override_bad_key_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUADFLOW_TOL", "bogus=1")
    rc, _, err = run(capsys, ["check", write_spec(tmp_path, HEAT)])
    assert rc == 4
    assert "unknown tolerance key" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
def test_tolerance_override_refuses_negative_and_non_finite_values(tmp_path, capsys, monkeypatch, value):
    # the unitary rotation has margin 0: positivity=-1 would certify it strict
    monkeypatch.setenv("QUADFLOW_TOL", f"positivity={value}")
    rc, out, err = run(capsys, ["check", write_spec(tmp_path, ROTATION)])
    assert rc == 4 and out == ""
    assert f"input error: tolerance positivity={value} must be finite and non-negative" in err
    monkeypatch.setenv("QUADFLOW_TOL", "positivity=0")  # zero stays valid
    assert run(capsys, ["check", write_spec(tmp_path, HEAT)])[0] == 0


def test_input_error_paths_exit_4(tmp_path, capsys):
    rc, _, err = run(capsys, ["norm", str(tmp_path / "missing.json")])
    assert rc == 4 and "input error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    rc, _, err = run(capsys, ["norm", str(broken)])
    assert rc == 4 and "input error" in err
    rc, _, err = run(capsys, ["norm", write_spec(tmp_path, {"foo": 1}, "foo.json")])
    assert rc == 4 and "needs a 'hessian'" in err
    scalar_pxx = {"amplitude": {"re": 1}, "pxx": {"re": 1}, "pxy": {"re": [[1]]},
                  "pyy": {"re": [[1]]}, "lx": {"re": [0]}, "ly": {"re": [0]}}
    for payload in (5, ["hessian"], {"hessian": {"re": {"a": 1}}}, scalar_pxx):
        path = write_spec(tmp_path, payload, "malformed.json")
        for argv in (["norm", path], ["kernel", path]):
            rc, out, err = run(capsys, argv)
            assert rc == 4 and out == "" and err.startswith("input error:")
    non_finite = (
        {"hessian": {"re": [[None, 0], [0, None]]}},
        {"hessian": {"re": [[1, 0], [0, 1]], "im": [[float("nan"), 0], [0, 0]]}},
        {"hessian": {"re": [[float("inf"), 0], [0, 1]]}},
        dict(HEAT, v={"re": [0.3, float("-inf")], "im": [0.0, 0.0]}),
    )
    for payload in non_finite:
        rc, out, err = run(capsys, ["norm", write_spec(tmp_path, payload, "non_finite.json")])
        assert rc == 4 and out == "" and err.startswith("input error:")
    for argv in (
        ["contour", "--theta=0.3", "--t1=0:1:3", "--t2=-1:-0.5:2", "--v=0,nan,0,0"],
        ["contour", "--theta=0.3", "--t1=0:inf:3", "--t2=-1:-0.5:2"],
        ["contour", "--theta=0.3", "--t1=0:1:3", "--t2=-nan:-0.5:2"],
        ["centers", "--theta=0.3", "--t2=-0.8", "--t1=-3:3:5", "--v=inf,1,0,0"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 4 and out == "" and err.startswith("input error:")


def test_range_counts_are_capped_before_allocating(capsys, monkeypatch):
    # one point past the cap of 10^5, as a contour grid (t1 count x t2 count) and as a centers sweep
    def refuse(*args, **kwargs):
        raise AssertionError("linspace called past the cap")

    monkeypatch.setattr(np, "linspace", refuse)
    for argv in (
        ["contour", "--theta=0.3", "--t1=0:6.28:100001", "--t2=-2:-0.1:1"],
        ["contour", "--theta=0.3", "--t1=0:6.28:11", "--t2=-2:-0.1:9091"],
        ["centers", "--theta=0.3", "--t2=-0.8", "--t1=-3:3:100001"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("input error:") and "above the cap of 100000" in err


def test_norm_overflowing_growth_exits_4(tmp_path, capsys):
    huge = dict(HEAT, v={"re": [0, 0], "im": [40, 0]})
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, huge)])
    assert rc == 4 and out == "" and "log growth factor" in err


@pytest.mark.parametrize("v, value", [
    ({"re": [1e155, 0], "im": [1e155, 1e155]}, "nan"),  # the pairing overflows to inf - inf
    ({"re": [0, 0], "im": [0, 1e155]}, "inf"),
])
def test_norm_whose_growth_pairing_overflows_exits_4_without_a_warning(tmp_path, v, value):
    spec = write_spec(tmp_path, dict(HEAT, v=v))
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", "norm", spec],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == f"error: log growth factor {value} overflows a float\n"


def overflow_spec(tmp_path, s):
    return write_spec(tmp_path, {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-s, 0], [0, -s]]}}, f"overflow{s}.json")


def test_overflowed_flow_is_not_canonical_exits_4(tmp_path, capsys):
    # the time-1 flow of -800i I and -900i I overflows to NaN, and |K|_F^2 overflows at
    # -400i I; it must not reach the positivity verdict, nor raise a RuntimeWarning
    for s, why in ((400, "overflows a float"), (800, "non-finite entries"), (900, "non-finite entries")):
        for command in ("norm", "check"):
            rc, out, err = run(capsys, [command, overflow_spec(tmp_path, s)])
            assert rc == 4 and out == "" and err.count("\n") == 1
            assert err.startswith("input error: matrix is not canonical") and why in err


def test_overflowed_flow_writes_one_stderr_line(tmp_path):
    """Under the default warning filters, as a user runs it: the error line alone."""
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    for s in (400, 800):
        out = subprocess.run([sys.executable, "-m", "quadflow.cli", "check", overflow_spec(tmp_path, s)],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert out.returncode == 4 and out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("input error:")


def test_grid_without_verify_exits_4(tmp_path, capsys):
    # a grid can only mean "verify on it": alone, a well-formed one verifies and a malformed one exits 4
    spec = write_spec(tmp_path, HEAT)
    rc, out, err = run(capsys, ["norm", spec, "--grid", "abc"])
    assert rc == 4 and out == ""
    assert err == "input error: --grid must be L,N\n"
    rc, alone, _ = run(capsys, ["norm", spec, "--grid", "8,200"])
    rc_both, both, _ = run(capsys, ["norm", spec, "--verify", "--grid", "8,200"])
    assert rc == rc_both == 0 and alone == both
    assert json.loads(alone)["oracle"]["points"] == 200


def test_nonfinite_grid_width_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path, HEAT)
    for width in ("nan", "inf"):
        rc, out, err = run(capsys, ["norm", spec, "--verify", "--grid", f"{width},64"])
        assert rc == 4 and out == ""
        assert f"half width must be positive and finite, got {width}" in err


def test_grid_whose_quadratic_terms_overflow_exits_4_without_a_warning(tmp_path):
    # at these half widths L^2 times the scale of the heat kernel's phase Hessian overflows; the
    # grid is refused before any grid arithmetic, under -W error::RuntimeWarning as well
    spec = write_spec(tmp_path, HEAT)
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    for width in ("1e308", "1e200", "1.3e154"):
        out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", "norm", spec,
                              "--verify", "--grid", f"{width},64"],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert out.returncode == 4 and out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and "quadratic terms of its phase overflow" in out.stderr


def test_shift_whose_kernel_overflows_exits_4_without_a_warning(tmp_path):
    # the heat flow shifted by v = (0, 1e155): its norm is finite, but the shifted symbol's
    # constant overflows; the oracle and the kernel refuse it with one stderr line,
    # under -W error::RuntimeWarning as well
    spec = write_spec(tmp_path, dict(HEAT, v={"re": [0, 1e155], "im": [0, 0]}))
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    for argv in (["norm", spec, "--verify"], ["kernel", spec]):
        out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert out.returncode == 4 and out.stdout == ""
        assert out.stderr == "input error: the kernel has non-finite entries: it overflows a float\n"


@pytest.mark.parametrize("pxx, pxy, message", [
    # a dominant, well-conditioned cross block passes the degeneracy test; the flow it
    # generates is too large for the canonical check
    (1j, 1e160, "input error: matrix is not canonical: its scale 1 + |K|_F^2 overflows a float\n"),
    # a cross block 1e-160 of the phase's scale is degenerate
    (1e160j, 0.5, "error: cross block of the phase is singular (smallest singular value 5.000e-01)\n"),
])
def test_kernel_whose_phase_norm_squared_overflows_exits_4_without_a_warning(tmp_path, pxx, pxy, message):
    # |phi''|_F^2 overflows a float while |phi''|_F does not; under -W error::RuntimeWarning as well
    block = lambda z: {"re": [[complex(z).real]], "im": [[complex(z).imag]]}
    payload = {"amplitude": {"re": 1.0, "im": 0.0}, "pxx": block(pxx), "pxy": block(pxy), "pyy": block(1j),
               "lx": {"re": [0.0], "im": [0.0]}, "ly": {"re": [0.0], "im": [0.0]}}
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", "kernel",
                          write_spec(tmp_path, payload)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == "" and out.stderr == message


def shifted_kernel_payload(lx_imag):
    # GaussianKernel(1, [[1j]], [[0.5]], [[1j]], [lx_imag * 1j], [0]): its rebuilt kernel is exp(-Im c0)
    # at the origin, with Im c0 = 720 at lx_imag = 60 (c overflows) and 2e39 at 1e20 (the amplitude
    # underflows to 0 as well)
    return {"amplitude": {"re": 1.0, "im": 0.0}, "pxx": {"re": [[0.0]], "im": [[1.0]]},
            "pxy": {"re": [[0.5]], "im": [[0.0]]}, "pyy": {"re": [[0.0]], "im": [[1.0]]},
            "lx": {"re": [0.0], "im": [lx_imag]}, "ly": {"re": [0.0], "im": [0.0]}}


C_OVERFLOWS = "error: the scalar factor c overflows a float: the rebuilt kernel underflows at the origin\n"


@pytest.mark.parametrize("lx_imag", [60.0, 1e20])
def test_kernel_whose_factor_overflows_exits_4(tmp_path, capsys, lx_imag):
    spec = write_spec(tmp_path, shifted_kernel_payload(lx_imag))
    rc, out, err = run(capsys, ["kernel", spec])
    assert rc == 4 and out == "" and err == C_OVERFLOWS


@pytest.mark.parametrize("lx_imag", [60.0, 1e20])
def test_kernel_whose_factor_overflows_exits_4_without_a_warning(tmp_path, lx_imag):
    spec = write_spec(tmp_path, shifted_kernel_payload(lx_imag))
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", "kernel",
                          spec],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == "" and out.stderr == C_OVERFLOWS


def test_norm_of_a_shift_whose_centers_overflow_exits_4_without_a_warning(tmp_path):
    # Im v = 1.7e308 overflows the right-hand side of the centre solves; the non-finite centres are
    # refused with one stderr line, also under -W error::RuntimeWarning
    spec = write_spec(tmp_path, {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-2, 0], [0, -2]]},
                                 "v": {"re": [0, 0], "im": [0, 1.7e308]}})
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quadflow.cli", "norm", spec],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == "" and out.stderr == "error: shift centers are not finite\n"


def test_grid_above_the_cap_exits_4_before_discretizing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("discretize called")

    monkeypatch.setattr("quadflow.oracle.discretize", refuse)
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, HEAT), "--verify", "--grid", "8,20000"])
    assert rc == 4 and out == ""
    assert "need 64 to 600 points per axis at n = 1, got 20000" in err


def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the grid matrix")

    monkeypatch.setattr("quadflow.oracle.discretize", exhausted)
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, HEAT), "--verify"])
    assert rc == 4 and out == "" and "out of memory" in err


def test_coupled_two_mode_verify_on_the_automatic_grid_exits_0(tmp_path, capsys):
    # two heat modes, rates 0.3 and 2, rotated by 45 degrees: coupled, yet the
    # oracle's automatic grid (N = 101) takes bounded factors in the kernel's
    # y axes, where the dense matrix would take 16 N^4 bytes (1.55 GiB)
    rot = np.kron(np.eye(2), np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
    decay = -rot @ np.diag([0.3, 2.0, 0.3, 2.0]) @ rot.T
    spec = {"hessian": {"re": np.zeros((4, 4)).tolist(), "im": decay.tolist()}}
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, spec), "--verify"])
    assert rc == 0 and err == ""
    oracle = json.loads(out)["oracle"]
    assert oracle["points"] == 101 and oracle["rel_gap"] < 1e-8


def test_cold_norm_verify_loads_no_numpy_random(tmp_path):
    # the oracle norm starts from a fixed vector; numpy.random would add its import to a cold start
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from quadflow.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy.random' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, "norm", write_spec(tmp_path, SHIFTED), "--verify"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stderr.split() == ["0", "False"]


def test_usage_errors_remap_to_4(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 4
    capsys.readouterr()
    assert main(["norm"]) == 4
    capsys.readouterr()
    assert main(["contour", "--theta", "0", "--t1", "bad", "--t2=-1:-0.5:2"]) == 4
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a cold CLI start must not pay for scipy
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, quadflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["check", "SPEC"],
    ["contour", "--theta=0.3", "--t1=0:6.28:3", "--t2=-2:-0.1:3"],
    ["norm", "SPEC"],
    ["compose", "SPEC", "SPEC"],
    ["centers", "--theta=0.3", "--t2=-0.8", "--t1=-3:3:5"],
    ["kernel", "SPEC"],
    ["norm", "SPEC", "--verify"],
], ids=["check", "contour", "norm", "compose", "centers", "kernel", "norm-verify"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv):
    # a cold start compiles every module it imports; only norm --verify needs the
    # grid oracle, only kernel and norm --verify the kernel calculus
    src = os.path.dirname(os.path.dirname(quadflow.__file__))
    argv = [write_spec(tmp_path, SHIFTED) if a == "SPEC" else a for a in argv]
    code = ("import contextlib, io, sys, quadflow.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): rc = quadflow.cli.main(sys.argv[1:])\n"
            "print(rc, *sorted(m for m in sys.modules if m.startswith('quadflow.')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    rc, *loaded = out.stdout.split()
    verify = "--verify" in argv
    assert rc == "0"
    assert ("quadflow.oracle" in loaded) == verify
    assert ("quadflow.kernels" in loaded) == (argv[0] == "kernel" or verify)
    assert ("quadflow.evolution" in loaded) == (argv[0] not in ("check", "contour"))
