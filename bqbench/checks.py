"""Correctness checks on what bqmi reports, built from properties the method
must have.  Each check returns a list of failure strings that start with the
check's tag, so a test can feed one doctored result and see the right check
fire.  I(rho) always comes from the reference oracle, never from bqmi.
"""

from __future__ import annotations

# Slack for inequalities that hold exactly in theory; every reported joint
# is projected to marginal residual <= 1e-8, far inside this.
TOL = 1e-5
# (I_b)_1 is a singleton solve: it must match the oracle to this.
EXACT_TOL = 1e-6
# Closed-form anchors reached by local search.
ANCHOR_TOL = 1e-3

EXPECTED_CLASS = {
    "cc": "constant",
    "bell": "linear-certified",
    "werner": "linear-certified",
    "product-mix": "bounded",
}


def _fail(out, ok, tag, where, detail):
    if not ok:
        out.append(f"{tag}: {where}: {detail}")


def check_broadcast(out, where, mi, ib, eic=None):
    """Generic properties of the n-copy estimates ib = {n: (I_b)_n}."""
    if 1 in ib:
        _fail(out, abs(ib[1] - mi) <= EXACT_TOL, "ib1", where,
              f"(I_b)_1 {ib[1]!r} != I(rho) {mi!r}")
    for n, v in ib.items():
        _fail(out, mi - TOL <= v <= n * mi + TOL, "ib_range", where,
              f"(I_b)_{n} {v!r} outside [I, {n}I] with I={mi!r}")
        if eic is not None:
            _fail(out, n * eic <= v + TOL, "eic_vs_ib", where,
                  f"{n}*eic {n * eic!r} > (I_b)_{n} {v!r}")


def check_anchors(out, where, kind, ib, ecsq=None, ic=None):
    """Closed-form values for the bell and cc states."""
    if kind == "bell":
        for n, v in ib.items():
            _fail(out, abs(v - 2 * n) <= ANCHOR_TOL, "bell_ib", where,
                  f"(I_b)_{n} {v!r} != {2 * n}")
        if ecsq is not None:
            _fail(out, abs(2 * ecsq - 2) <= ANCHOR_TOL, "bell_ecsq", where,
                  f"2*ecsq {2 * ecsq!r} != 2")
        if ic is not None:
            _fail(out, abs(ic - 1) <= EXACT_TOL, "bell_ic", where, f"ic {ic!r} != 1")
    if kind == "cc":
        for n, v in ib.items():
            _fail(out, abs(v - 1) <= ANCHOR_TOL, "cc_ib", where, f"(I_b)_{n} {v!r} != 1")
    if kind in ("cc", "cc-product") and ecsq is not None:
        _fail(out, abs(ecsq) <= ANCHOR_TOL, "cc_ecsq", where, f"ecsq {ecsq!r} != 0")


def _check_directions(out, where, entries, want):
    for key, direction in want.items():
        got = entries[key]["direction"]
        _fail(out, got == direction, "direction", where,
              f"{key} is {got!r}, expected {direction!r}")


def check_chain(where, kind, mi, chain_doc, ic_doc):
    """One `bqmi chain` report plus one `bqmi measure --measure ic` report."""
    out = []
    entries = chain_doc["entries"]
    ns = sorted(int(k.rsplit("n", 1)[1]) for k in entries if k.startswith("ib_per_copy_n"))
    want = {k: "upper" for k in ("2ecsq", "2esq", "2cemi")}
    want.update({f"ib_per_copy_n{n}": "upper" for n in ns})
    want["eic"] = "lower"
    _check_directions(out, where, entries, want)
    _check_directions(out, where, {"ic": ic_doc["result"]}, {"ic": "lower"})
    _fail(out, chain_doc["verdict"] == "consistent", "verdict", where,
          f"verdict {chain_doc['verdict']!r}: {chain_doc['notes']}")
    ib = {n: entries[f"ib_per_copy_n{n}"]["diagnostics"]["total_bits"] for n in ns}
    eic = entries["eic"]["value"]
    ic = ic_doc["result"]["value"]
    check_broadcast(out, where, mi, ib, eic)
    _fail(out, 0.0 <= ic <= mi + TOL, "ic_range", where, f"ic {ic!r} outside [0, I={mi!r}]")
    check_anchors(out, where, kind, ib, ecsq=entries["2ecsq"]["value"] / 2, ic=ic)
    return out


def check_curve(where, kind, mi, rows, classification, certificate):
    """One `bqmi curve` run: rows are (n, upper_bits, lower_bits)."""
    out = []
    ib = {n: up for n, up, _ in rows}
    check_broadcast(out, where, mi, ib, certificate)
    check_anchors(out, where, kind, ib)
    want = EXPECTED_CLASS[kind]
    _fail(out, classification == want, "classification", where,
          f"classified {classification!r}, expected {want!r}")
    if kind == "product-mix":
        _fail(out, max(ib.values()) <= 1 + ANCHOR_TOL, "pm_bounded", where,
              f"max upper {max(ib.values())!r} > 1")
    return out


def props_estimates(report, tol):
    """(est_rho, est_sig, [est_tau, est_mix, est_prod]) read off a
    property_checks report made with slack `tol`."""
    est_rho = report["monotonicity"]["rhs"] - tol
    est_sig = report["subadditivity"]["rhs"] - tol - est_rho
    lhs = [report[k]["lhs"] for k in ("monotonicity", "convexity_bound", "subadditivity")]
    return est_rho, est_sig, lhs


def check_props(where, report, tol, mi_rho, mi_sig, n):
    """A property_checks report on (rho, sigma) with n copies."""
    out = []
    for prop, r in report.items():
        _fail(out, r["holds"] and r["lhs"] <= r["rhs"], "props_holds", where,
              f"{prop}: lhs {r['lhs']!r} > rhs {r['rhs']!r} (holds={r['holds']})")
    est_rho, est_sig, _ = props_estimates(report, tol)
    check_broadcast(out, f"{where} rho", mi_rho, {n: est_rho})
    check_broadcast(out, f"{where} sigma", mi_sig, {n: est_sig})
    total = mi_rho + mi_sig
    prod = report["subadditivity"]["lhs"]
    _fail(out, total - TOL <= prod <= n * total + TOL, "subadd_range", where,
          f"est(rho x sigma) {prod!r} outside [{total!r}, {n * total!r}]")
    return out


def check_eic(where, mi, value, direction):
    """An eic_lower result: a lower bound, so 0 <= eic <= (I_b)_1 = I(rho)."""
    out = []
    _fail(out, direction == "lower", "direction", where, f"eic is {direction!r}")
    _fail(out, 0.0 <= value <= mi + TOL, "eic_range", where,
          f"eic {value!r} outside [0, I={mi!r}]")
    return out
