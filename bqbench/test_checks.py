"""Tests of the benchmark's own parts: the oracle, every correctness check
(each shown to fire on one doctored result), and the tracer.

    python -m pytest -q bqbench/test_checks.py
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def test_oracle_closed_forms():
    assert oracle.mutual_information(BELL, 2, 2) == pytest.approx(2.0, abs=1e-12)
    assert oracle.mutual_information(np.diag([0.5, 0, 0, 0.5]), 2, 2) == pytest.approx(1.0)
    prod = np.diag(np.kron([0.3, 0.7], [0.5, 0.5]))
    assert oracle.mutual_information(prod, 2, 2) == pytest.approx(0.0, abs=1e-12)


def test_oracle_reads_interleaved_layout(tmp_path):
    # Factors A, B, A', B': the oracle must regroup them as AA' | BB'.
    sig = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    mat = np.kron(BELL, sig)
    doc = {"format": "bq-state-v1",
           "labels": [{"name": n, "dim": 2, "side": s}
                      for n, s in (("A", "A"), ("B", "B"), ("A'", "A"), ("B'", "B"))],
           "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(doc))
    m, da, db = oracle.read_state(path)
    assert (da, db) == (4, 4)
    assert oracle.mutual_information(m, da, db) == pytest.approx(3.0, abs=1e-10)


def _chain_doc(two_ecsq, eic, ib, ic):
    entries = {k: {"value": two_ecsq, "direction": "upper"} for k in ("2ecsq", "2esq", "2cemi")}
    entries["eic"] = {"value": eic, "direction": "lower"}
    for n, v in ib.items():
        entries[f"ib_per_copy_n{n}"] = {"value": v / n, "direction": "upper",
                                        "diagnostics": {"total_bits": v}}
    return ({"entries": entries, "verdict": "consistent", "notes": []},
            {"result": {"value": ic, "direction": "lower"}})


def bell_chain():
    return ("bell", "bell", 2.0) + _chain_doc(2.0, 0.26, {1: 2.0, 2: 4.0}, 1.0)


def cc_chain():
    return ("cc", "cc", 1.0) + _chain_doc(0.0, 0.0, {1: 1.0, 2: 1.0}, 1.0)


def _set(path, value):
    def doctor(args):
        obj = args
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return args
    return doctor


E = 3  # index of the chain document in the argument list
IB2 = (E, "entries", "ib_per_copy_n2", "diagnostics", "total_bits")
CHAIN_CASES = [
    ("direction", bell_chain, _set((E, "entries", "2esq", "direction"), "lower")),
    ("verdict", bell_chain, _set((E, "verdict"), "violation")),
    ("ib1", bell_chain, _set((E, "entries", "ib_per_copy_n1", "diagnostics", "total_bits"),
                             1.9)),
    ("ib_range", bell_chain, _set(IB2, 4.5)),
    ("eic_vs_ib", bell_chain, _set((E, "entries", "eic", "value"), 2.5)),
    ("ic_range", bell_chain, _set((E + 1, "result", "value"), -0.1)),
    ("bell_ib", bell_chain, _set(IB2, 3.99)),
    ("bell_ecsq", bell_chain, _set((E, "entries", "2ecsq", "value"), 1.9)),
    ("bell_ic", bell_chain, _set((E + 1, "result", "value"), 0.99)),
    ("cc_ib", cc_chain, _set(IB2, 1.5)),
    ("cc_ecsq", cc_chain, _set((E, "entries", "2ecsq", "value"), 0.1)),
]


def bell_curve():
    return ["bell", "bell", 2.0, [(1, 2.0, 2.0), (2, 4.0, 2.0), (3, 6.0, 2.0)],
            "linear-certified", 0.26]


def pm_curve():
    return ["product-mix", "product-mix", 0.3905,
            [(1, 0.3905, 0.3905), (2, 0.69, 0.3905), (3, 0.89, 0.3905)], "bounded", 0.0]


CURVE_CASES = [
    ("classification", bell_curve, _set((4,), "bounded")),
    ("bell_ib", bell_curve, _set((3, 2), (3, 5.9, 2.0))),
    ("eic_vs_ib", bell_curve, _set((5,), 2.1)),
    ("ib1", pm_curve, _set((3, 0), (1, 0.4, 0.3905))),
    ("pm_bounded", pm_curve, _set((3, 2), (3, 1.1, 0.3905))),
]


def props():
    report = {"monotonicity": {"lhs": 0.40, "rhs": 2.011, "holds": True},
              "convexity_bound": {"lhs": 0.67, "rhs": 2.377, "holds": True},
              "subadditivity": {"lhs": 2.75, "rhs": 2.7527, "holds": True}}
    return ["props", report, 1e-3, 1.0054, 0.4954, 2]


def eic():
    return ["eic rho0", 1.0054, 0.0359, "lower"]


PROPS_CASES = [
    ("props_holds", _set((1, "convexity_bound", "holds"), False)),
    ("props_holds", _set((1, "convexity_bound", "lhs"), 2.5)),
    ("subadd_range", _set((1, "subadditivity", "lhs"), 1.4)),
    ("ib_range", _set((1, "monotonicity", "rhs"), 2.5)),
]

EIC_CASES = [
    ("eic_range", _set((2,), -0.01)),
    ("eic_range", _set((2,), 1.1)),
    ("direction", _set((3,), "upper")),
]


def _tags(failures):
    return {f.split(":", 1)[0] for f in failures}


@pytest.mark.parametrize("make", [bell_chain, cc_chain])
def test_chain_checks_pass_on_valid_reports(make):
    assert checks.check_chain(*make()) == []


@pytest.mark.parametrize("tag,make,doctor", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_chain_check_fires(tag, make, doctor):
    args = doctor(copy.deepcopy(list(make())))
    assert tag in _tags(checks.check_chain(*args))


@pytest.mark.parametrize("make", [bell_curve, pm_curve])
def test_curve_checks_pass_on_valid_runs(make):
    assert checks.check_curve(*make()) == []


@pytest.mark.parametrize("tag,make,doctor", CURVE_CASES, ids=[c[0] for c in CURVE_CASES])
def test_curve_check_fires(tag, make, doctor):
    args = doctor(copy.deepcopy(make()))
    assert tag in _tags(checks.check_curve(*args))


def test_props_and_eic_checks_pass_on_valid_results():
    assert checks.check_props(*props()) == []
    assert checks.check_eic(*eic()) == []


@pytest.mark.parametrize("tag,doctor", PROPS_CASES, ids=[c[0] for c in PROPS_CASES])
def test_props_check_fires(tag, doctor):
    assert tag in _tags(checks.check_props(*doctor(props())))


@pytest.mark.parametrize("tag,doctor", EIC_CASES, ids=[c[0] for c in EIC_CASES])
def test_eic_check_fires(tag, doctor):
    assert tag in _tags(checks.check_eic(*doctor(eic())))


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.PER_LAYER


def test_union_length_merges_overlaps():
    assert tracer._union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert tracer._union_length([(-1, 2)], 0, 1) == pytest.approx(1)


def test_tracer_counts_and_restores():
    import run
    mods = run.load_bqmi()
    bqmi, qcore, states = mods["bqmi"], mods["qcore"], mods["states"]
    original, eigh = qcore.mutual_information, np.linalg.eigh
    t = tracer.Tracer()
    t.install(mods)
    try:
        assert bqmi.mutual_information(states.bell_state()) == pytest.approx(2.0)
    finally:
        t.uninstall()
    assert qcore.mutual_information is original and bqmi.mutual_information is original
    assert np.linalg.eigh is eigh
    values = t.metrics(1.0, 0.5)
    assert values["qcore.mutual_information.calls"] == 1
    assert values["numpy.linalg.eigvalsh.le16.calls"] >= 3  # S(A), S(B), S(AB)
    assert values["trace.overhead_s"] == pytest.approx(0.5)


def test_tracer_skips_functions_a_module_lacks():
    import types
    mods = {m: types.ModuleType(m) for m in
            ("bqmi", "qcore", "states", "measures", "optim", "broadcast", "entms", "cli")}
    t = tracer.Tracer()
    t.install(mods)
    t.uninstall()
    assert t.metrics(1.0, 1.0)["optim.entropy_combo.calls"] == 0
