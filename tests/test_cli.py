"""End-to-end CLI tests; main() is invoked in-process."""
import json

import numpy as np
import pytest

from quadflow import (
    CompositionClassError,
    EvolutionSpec,
    QuadraticForm,
    decompose,
    models,
)
from quadflow.cli import main

HEAT = {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-1, 0], [0, -1]]}}
SHIFTED = dict(HEAT, v={"re": [0.3, -0.1], "im": [0.2, 0.4]})
ROTATION = {"hessian": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}


@pytest.fixture(autouse=True)
def _tolerance_guard(monkeypatch):
    monkeypatch.delenv("QUADFLOW_TOL", raising=False)


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    assert rep["sign_ambiguous"] is True
    assert rep["margin"] == pytest.approx(1.0 - np.exp(-4.0), rel=1e-10)


def test_compose_class_failure_exits_3(tmp_path, capsys, monkeypatch):
    # strict flows compose to strict flows, so the class-exit path is
    # exercised by forcing the error at the seam
    def boom(s1, s2):
        raise CompositionClassError("forced for the exit-code contract")

    monkeypatch.setattr("quadflow.cli.compose_evolutions", boom)
    spec = write_spec(tmp_path, HEAT)
    rc, _, err = run(capsys, ["compose", spec, spec])
    assert rc == 3
    assert "composition failure" in err


def test_kernel_to_kernel_heat(tmp_path, capsys):
    rc, out, _ = run(capsys, ["kernel", write_spec(tmp_path, HEAT)])
    assert rc == 0
    rep = json.loads(out)
    amp = rep["amplitude"]["re"] + 1j * rep["amplitude"]["im"]
    assert abs(amp) == pytest.approx((2.0 * np.pi * np.sinh(1.0)) ** -0.5, rel=1e-12)
    assert rep["pxx"]["im"][0][0] == pytest.approx(1.0 / np.tanh(1.0), rel=1e-12)
    assert rep["pxx"]["re"][0][0] == pytest.approx(0.0, abs=1e-15)
    assert rep["pxy"]["im"][0][0] == pytest.approx(-1.0 / np.sinh(1.0), rel=1e-12)
    assert rep["sign_ambiguous"] is True


def test_kernel_roundtrip_through_files(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    kern_file = tmp_path / "kern.json"
    assert main(["kernel", spec, "-o", str(kern_file)]) == 0
    capsys.readouterr()
    rc, out, _ = run(capsys, ["kernel", str(kern_file), "--direction", "from-kernel"])
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
    rc, _, err = run(capsys, ["kernel", write_spec(tmp_path, payload), "--direction", "from-kernel"])
    assert rc == 4
    assert "degenerate" in err


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
    thin = {"hessian": {"re": [[0, 0], [0, 0]], "im": [[-1e-5, 0], [0, -1e-5]]}}
    spec = write_spec(tmp_path, thin)
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


def test_tolerance_override_bad_key_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUADFLOW_TOL", "bogus=1")
    rc, _, err = run(capsys, ["check", write_spec(tmp_path, HEAT)])
    assert rc == 4
    assert "unknown tolerance key" in err


def test_input_error_paths_exit_4(tmp_path, capsys):
    rc, _, err = run(capsys, ["norm", str(tmp_path / "missing.json")])
    assert rc == 4 and "input error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    rc, _, err = run(capsys, ["norm", str(broken)])
    assert rc == 4 and "input error" in err
    rc, _, err = run(capsys, ["norm", write_spec(tmp_path, {"foo": 1}, "foo.json")])
    assert rc == 4 and "needs a 'hessian'" in err
    for payload in (5, ["hessian"], {"hessian": {"re": {"a": 1}}}):
        path = write_spec(tmp_path, payload, "malformed.json")
        for argv in (["norm", path], ["kernel", path, "--direction", "from-kernel"]):
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


def test_norm_overflowing_growth_exits_4(tmp_path, capsys):
    huge = dict(HEAT, v={"re": [0, 0], "im": [40, 0]})
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, huge)])
    assert rc == 4 and out == "" and "log growth factor" in err


def test_nonfinite_grid_width_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path, HEAT)
    for width in ("nan", "inf"):
        rc, out, err = run(capsys, ["norm", spec, "--verify", "--grid", f"{width},64"])
        assert rc == 4 and out == ""
        assert f"half width must be positive and finite, got {width}" in err


def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the grid matrix")

    monkeypatch.setattr("quadflow.cli.discretize", exhausted)
    rc, out, err = run(capsys, ["norm", write_spec(tmp_path, HEAT), "--verify"])
    assert rc == 4 and out == "" and "out of memory" in err


def test_usage_errors_remap_to_4(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 4
    capsys.readouterr()
    assert main(["norm"]) == 4
    capsys.readouterr()
    assert main(["contour", "--theta", "0", "--t1", "bad", "--t2=-1:-0.5:2"]) == 4
    capsys.readouterr()
