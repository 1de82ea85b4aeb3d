import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bqmi
import bqmi.cli
import bqmi.entms
from bqmi.cli import main
from bqmi.entms import ChainReport
from bqmi.optim import SolverError
from bqmi.qcore import DensityOperator
from bqmi.states import load_state, random_density, save_state


def run(argv):
    return main(argv)


def test_state_writes_valid_files(tmp_path):
    out = tmp_path / "bell.json"
    assert run(["state", "--family", "bell", "--out", str(out)]) == 0
    rho = load_state(out)
    assert rho.dim == 4
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12

    w = tmp_path / "w.json"
    assert run(["state", "--family", "werner", "--p", "0.9", "--out", str(w)]) == 0
    assert load_state(w).dim == 4


def test_state_invalid_parameter_exits_2(tmp_path):
    rc = run(["state", "--family", "werner", "--p", "1.5",
              "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize("argv, named", [
    (["--family", "random", "--rank", "0"], "rank 0"),
    (["--family", "random", "--rank", "-1"], "rank -1"),
    (["--family", "werner"], "parameter p (--p)"),
    (["--family", "isotropic"], "parameter p (--p)"),
])
def test_state_bad_or_missing_flag_exits_2_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "x.json"
    assert run(["state", *argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_measure_mi_exact(tmp_path, capsys):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    capsys.readouterr()
    assert run(["measure", "--in", str(bell), "--measure", "mi"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["result"]["value"] - 2.0) < 1e-9
    assert doc["result"]["direction"] == "exact"
    assert doc["manifest"]["seed"] == 0


def test_measure_missing_file_exits_2(tmp_path):
    assert run(["measure", "--in", str(tmp_path / "nope.json"),
                "--measure", "mi"]) == 2


def test_measure_eiclower_separable(tmp_path, capsys):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])
    capsys.readouterr()
    assert run(["measure", "--in", str(cc), "--measure", "eiclower"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["value"] <= 1e-6
    assert doc["result"]["direction"] == "lower"


def test_measure_report_deterministic(tmp_path):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    out = tmp_path / "r.json"
    argv = ["measure", "--in", str(bell), "--measure", "ecsq", "--seed", "3",
            "--restarts", "2", "--max-iters", "60", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    # wall time lives in the sidecar, not the hashed report
    side = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert "wall_time" in side
    assert b"wall_time" not in first


def test_curve_cc_constant(tmp_path, capsys):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])
    out = tmp_path / "c.csv"
    assert run(["curve", "--in", str(cc), "--max-copies", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,upper_bits,lower_bits,residual_max,classification"
    assert all(line.endswith("constant") for line in lines[1:])
    assert "constant" in capsys.readouterr().out


@pytest.mark.parametrize("eps", [2e-10, 5e-10])
def test_chain_and_curve_run_on_a_near_cutoff_eigenvalue(tmp_path, eps):
    # a valid state whose least eigenvalue, eps, is above TRACE_TOL
    rho = random_density(4, 3, seed=2)
    null = np.linalg.eigh(rho.mat)[1][:, 0]
    path = str(tmp_path / "near.json")
    save_state(path, DensityOperator(
        rho.layout, (rho.mat + eps * np.outer(null, null.conj())) / (1 + eps)))
    flags = ["--in", path, "--restarts", "1", "--max-iters", "10"]
    assert run(["chain", *flags, "--out", str(tmp_path / "chain.json")]) == 0
    assert run(["curve", *flags, "--max-copies", "2", "--out", str(tmp_path / "c.csv")]) == 0


def test_curve_cap_exits_4(tmp_path, monkeypatch):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    assert run(["curve", "--in", str(bell), "--max-copies", "2",
                "--out", str(tmp_path / "c.csv")]) == 4


@pytest.mark.parametrize("argv", [["--measure", "esq", "--dim-e", "4"],
                                  ["--measure", "cemi", "--dim-ext", "2"]])
def test_measure_extension_cap_exits_4(tmp_path, monkeypatch, argv):
    # bell is 4-dimensional, so both extensions solve at d=16 > 8
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    assert run(["measure", "--in", str(bell), *argv]) == 4


def test_measure_eiclower_cap_exits_4(tmp_path, monkeypatch):
    # the CLI's random family splits 16 as 2 x 8; this state is 4 x 4
    path = tmp_path / "r.json"
    save_state(str(path), random_density(16, 16, seed=0, dims=(4, 4)))
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    assert run(["measure", "--in", str(path), "--measure", "eiclower"]) == 4


@pytest.mark.parametrize("argv", [["--measure", "esq", "--dim-e", "0"],
                                  ["--measure", "cemi", "--dim-ext", "0"],
                                  ["--measure", "ecsq", "--members", "0"],
                                  ["--measure", "ic", "--outcomes", "0"],
                                  ["--measure", "ic", "--outcomes", "-1"]])
def test_measure_nonpositive_size_exits_2(tmp_path, argv):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    assert run(["measure", "--in", str(bell), *argv]) == 2


@pytest.mark.parametrize("outcomes", [[], ["--outcomes", "1"], ["--outcomes", "2"]])
def test_measure_ic_with_fewer_outcomes_than_the_side_needs(tmp_path, capsys, outcomes):
    # a 2 x 8 state: default_ic_povm(8) has 64 effects, more than --outcomes
    rnd = tmp_path / "rnd.json"
    run(["state", "--family", "random", "--dim", "16", "--out", str(rnd)])
    capsys.readouterr()
    assert run(["measure", "--in", str(rnd), "--measure", "ic", *outcomes,
                "--restarts", "1", "--max-iters", "10"]) == 0
    value = json.loads(capsys.readouterr().out)["result"]["value"]
    assert 0.0 <= value <= bqmi.mutual_information(load_state(rnd))


@pytest.mark.parametrize("copies", ["0", "-1"])
def test_chain_nonpositive_max_copies_exits_2(tmp_path, copies):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])
    assert run(["chain", "--in", str(cc), "--max-copies", copies]) == 2


@pytest.mark.parametrize("suite", ["thm1", "chain"])
def test_verify_suite_passes(capsys, suite):
    assert run(["verify", "--suite", suite, "--restarts", "2", "--max-iters", "40"]) == 0
    assert capsys.readouterr().out.strip().endswith("verify: all checks passed")


def test_chain_corrupted_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["chain", "--in", str(bad)]) == 2


def test_chain_cc_consistent(tmp_path, capsys):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])
    out = tmp_path / "chain.json"
    rc = run(["chain", "--in", str(cc), "--restarts", "2", "--max-iters", "80",
              "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "consistent"
    assert set(doc["entries"]) >= {"2ecsq", "2esq", "2cemi", "eic",
                                   "ib_per_copy_n1", "ib_per_copy_n2"}


def test_chain_solver_failure_exits_3(tmp_path, monkeypatch):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])

    def fail(*args, **kwargs):
        raise SolverError("dykstra_project did not converge")

    monkeypatch.setattr(bqmi.entms, "esq_upper", fail)
    out = tmp_path / "chain.json"
    assert run(["chain", "--in", str(cc), "--restarts", "1", "--max-iters", "5",
                "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert "2esq" not in doc["entries"] and "2ecsq" in doc["entries"]
    assert "esq failed: dykstra_project did not converge" in doc["notes"]
    assert "missing entries: ['2esq']" in doc["notes"]


def test_chain_bug_in_a_solver_raises(tmp_path, monkeypatch):
    # a bug is neither a note nor exit 3: it leaves bqmi as a traceback
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])

    def bug(*args, **kwargs):
        raise NotImplementedError("bug in eic")

    monkeypatch.setattr(bqmi.entms, "eic_lower", bug)
    with pytest.raises(NotImplementedError, match="bug in eic"):
        run(["chain", "--in", str(cc), "--restarts", "1", "--max-iters", "5",
             "--out", str(tmp_path / "chain.json")])
    assert not (tmp_path / "chain.json").exists()


def test_chain_note_mentioning_failed_is_not_a_failure(tmp_path, monkeypatch):
    cc = tmp_path / "cc.json"
    run(["state", "--family", "cc", "--out", str(cc)])
    rep = ChainReport(state="cc", entries={}, verdict="consistent",
                      notes=["an earlier run failed; this one did not"])
    monkeypatch.setattr(bqmi.cli, "chain_report", lambda *args, **kwargs: rep)
    assert run(["chain", "--in", str(cc), "--out", str(tmp_path / "chain.json")]) == 0


def raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_measure_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    capsys.readouterr()
    monkeypatch.setattr(bqmi.cli, "esq_upper", raise_linalg_error)
    assert run(["measure", "--in", str(bell), "--measure", "esq"]) == 3
    assert "did not converge" in json.loads(capsys.readouterr().out)["error"]


def test_curve_eigensolver_failure_exits_3(tmp_path, monkeypatch):
    # LinAlgError is a ValueError; it must not read as an input error (2)
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    monkeypatch.setattr(bqmi.cli, "growth_curve", raise_linalg_error)
    assert run(["curve", "--in", str(bell), "--out", str(tmp_path / "c.csv")]) == 3


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_cleanly(tmp_path, unbuffered):
    bell = tmp_path / "bell.json"
    run(["state", "--family", "bell", "--out", str(bell)])
    src = os.path.dirname(os.path.dirname(bqmi.__file__))
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bqmi.cli", "measure", "--in", str(bell), "--measure", "mi"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before any output arrives
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert b"BrokenPipeError" not in err


def test_import_loads_no_scipy():
    # bqmi runs on numpy alone; scipy would add to every command's start-up
    # time and memory.  A fresh interpreter, since the tests import scipy.
    src = os.path.dirname(os.path.dirname(bqmi.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, bqmi, bqmi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
