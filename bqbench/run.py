"""End-to-end benchmark of bqmi.

    python3 bqbench/run.py --workload {chain,curve,props} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  bqmi is imported from ./src of the checkout
the script sits in; without it the script exits 2 and prints no result.
One process, closed loop: each bqmi call waits for the previous one.  The
workload is repeated in whole rounds until --seconds have passed, and the
last line of stdout is one JSON object with the correctness verdict, the
attempted/failed operation counts and the metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run does one untraced
and one traced round and reports the per-layer metrics (see tracer.py).
See README.md for the workloads and what each metric should move.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _seconds_since_process_start():
    """Time from process creation to now, from /proc (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_STARTUP_S = _seconds_since_process_start()

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported,
# so timings and bound values do not depend on the core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BQMI_MODULES = ("qcore", "states", "measures", "optim", "broadcast", "entms", "cli")

# Solver flags.  The CLI defaults (restarts 3-4, max-iters 150-200) make one
# round of chain or props take ~90 s, too long for a benchmark run 22 times
# per workload; these keep a round at 15-45 s.  Three restarts keep the
# random restart, which is what moves esq and the curve uppers off their
# starting points, and two keep the random restart that finds ic(bell) = 1.
CHAIN_FLAGS = ["--max-copies", "2", "--restarts", "3", "--max-iters", "40"]
IC_FLAGS = ["--restarts", "2", "--max-iters", "15"]
CURVE_FLAGS = ["--max-copies", "3", "--restarts", "3", "--max-iters", "80"]
PROPS_RESTARTS, PROPS_ITERS, PROPS_N, PROPS_TOL = 2, 15, 2, 1e-3
# Seeds of the fixed random base states (the CLI's thm2 suite uses 100/200).
CHAIN_RANDOM_BASE, PROPS_RHO_BASE, PROPS_SIGMA_BASE = 0, 100, 200


def load_bqmi():
    """Import bqmi from ./src of this checkout, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "bqmi", "__init__.py")):
        raise ImportError(f"no bqmi package under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("bqmi")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bqmi imported from {pkg.__file__}, not {SRC}")
    mods = {"bqmi": pkg}
    mods.update({m: importlib.import_module(f"bqmi.{m}") for m in BQMI_MODULES})
    return mods


def run_cli(bq, argv):
    """bqmi.cli.main(argv) with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bq["cli"].main(argv)
    return rc, buf.getvalue()


def write_states(bq, work, states):
    """Write each (name, _, `bqmi state` arguments) with the CLI; returns
    {name: path}."""
    files = {}
    for name, _, args in states:
        path = os.path.join(work, f"{name}.json")
        rc, _ = run_cli(bq, ["state", *args, "--out", path])
        if rc != 0:
            raise RuntimeError(f"bqmi state {args} exited {rc}")
        files[name] = path
    return files


def local_rotation(bq, rho, seed):
    """(U_A x U_B) rho (U_A x U_B)^dagger with Haar-random U_A, U_B from seed.

    A local unitary changes every matrix entry but no quantity bqmi bounds,
    so bound values stay comparable across seeds while the solvers see a
    different input."""
    rng = np.random.default_rng(seed)
    u = np.ones((1, 1))
    for _, d in rho.layout.factors:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    m = u @ rho.mat @ u.conj().T
    return bq["qcore"].DensityOperator(rho.layout, (m + m.conj().T) / 2)


class Outcome:
    """What one round produced: operation counts, bound sums, records to check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []  # failed operations, for stderr
        self.upper = 0.0
        self.lower = 0.0
        self.records = []  # (check function, args) evaluated after timing

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


class ChainWorkload:
    """`bqmi chain` then `bqmi measure --measure ic` on seven states."""

    STATES = [  # (name, anchor kind, `bqmi state` arguments or None)
        ("bell", "bell", ["--family", "bell"]),
        ("cc", "cc", ["--family", "cc"]),
        ("cc-product", "cc-product",
         ["--family", "cc", "--probs", "[[0.15, 0.15], [0.35, 0.35]]"]),
        ("werner-0.2", None, ["--family", "werner", "--p", "0.2"]),
        ("werner-0.5", None, ["--family", "werner", "--p", "0.5"]),
        ("werner-0.8", None, ["--family", "werner", "--p", "0.8"]),
    ]
    # Plus "random": random_density(4, 4, seed=CHAIN_RANDOM_BASE) under a
    # seeded local rotation, written with save_state (no CLI family for it).

    def __init__(self, bq, work, seed):
        self.bq, self.work = bq, work
        self.files = write_states(bq, work, self.STATES)
        base = bq["states"].random_density(4, 4, seed=CHAIN_RANDOM_BASE)
        self.files["random"] = os.path.join(work, "random.json")
        bq["states"].save_state(self.files["random"], local_rotation(bq, base, seed))

    def round(self, mi):
        out = Outcome()
        for name, kind, _ in self.STATES + [("random", None, None)]:
            path = self.files[name]
            chain_out = os.path.join(self.work, f"{name}.chain.json")
            ic_out = os.path.join(self.work, f"{name}.ic.json")
            rc, _ = run_cli(self.bq, ["chain", "--in", path, "--out", chain_out, *CHAIN_FLAGS])
            chain_ok = out.op(rc in (0, 1), f"chain {name} exited {rc}")
            rc, _ = run_cli(self.bq, ["measure", "--in", path, "--measure", "ic",
                                      "--out", ic_out, *IC_FLAGS])
            ic_ok = out.op(rc == 0, f"measure ic {name} exited {rc}")
            if not (chain_ok and ic_ok):
                continue
            with open(chain_out) as f:
                chain_doc = json.load(f)
            with open(ic_out) as f:
                ic_doc = json.load(f)
            entries = chain_doc["entries"].values()
            out.upper += sum(e["value"] for e in entries if e["direction"] == "upper")
            out.lower += sum(e["value"] for e in entries if e["direction"] == "lower")
            out.lower += ic_doc["result"]["value"]
            out.records.append((checks.check_chain, (name, kind, mi[name],
                                                     chain_doc, ic_doc)))
        return out


class CurveWorkload:
    """`bqmi curve --max-copies 3` on four fixed states.

    The curve inputs do not depend on the seed: cc(1/2,1/2) has a degenerate
    spectrum, so a rotated copy would change which spectral ensemble the
    solver starts from and with it the classification under test."""

    STATES = [  # (name, expected class key, `bqmi state` arguments)
        ("cc", "cc", ["--family", "cc"]),
        ("bell", "bell", ["--family", "bell"]),
        ("product-mix", "product-mix", ["--family", "product-mix"]),
        ("werner-0.5", "werner", ["--family", "werner", "--p", "0.5"]),
    ]

    def __init__(self, bq, work, seed):
        self.bq, self.work = bq, work
        self.files = write_states(bq, work, self.STATES)

    def round(self, mi):
        out = Outcome()
        for name, kind, _ in self.STATES:
            path = self.files[name]
            csv_out = os.path.join(self.work, f"{name}.curve.csv")
            rc, stdout = run_cli(self.bq, ["curve", "--in", path, "--out", csv_out,
                                           *CURVE_FLAGS])
            if not out.op(rc == 0, f"curve {name} exited {rc}"):
                continue
            with open(csv_out) as f:
                rows = [(int(r["n"]), float(r["upper_bits"]), float(r["lower_bits"]))
                        for r in csv.DictReader(f)]
            head = stdout.split("classification:", 1)[1].split()
            classification = head[0]
            certificate = float(head[2])  # "(certificate <value> bits/copy)"
            out.upper += sum(up for _, up, _ in rows)
            out.lower += certificate
            out.records.append((checks.check_curve, (name, kind, mi[name], rows,
                                                     classification, certificate)))
        return out


class PropsWorkload:
    """property_checks on a seed-rotated (rho, sigma), then eic_lower with
    default IC POVMs on the fixed base pair and its tensor product."""

    def __init__(self, bq, work, seed):
        self.bq = bq
        st, qc = bq["states"], bq["qcore"]
        rho0 = st.random_density(4, 2, seed=PROPS_RHO_BASE)
        sig0 = st.random_density(4, 4, seed=PROPS_SIGMA_BASE)
        factors = (("A", 2), ("B", 2), ("A'", 2), ("B'", 2))
        sides = {"A": "A", "B": "B", "A'": "A", "B'": "B"}
        prod0 = qc.DensityOperator(qc.SubsystemLayout(factors, sides),
                                   np.kron(rho0.mat, sig0.mat))
        # One rotation for both, so that their mixture is a rotated copy too.
        states = {"rho": local_rotation(bq, rho0, seed),
                  "sigma": local_rotation(bq, sig0, seed),
                  "rho0": rho0, "sigma0": sig0, "rho0_x_sigma0": prod0}
        self.files, self.states = {}, {}
        for name, state in states.items():
            path = os.path.join(work, f"{name}.json")
            st.save_state(path, state)
            self.files[name] = path
            self.states[name] = st.load_state(path)
        povm = bq["measures"].default_ic_povm
        p2, p4 = povm(2), povm(4)
        self.eic_inputs = [("rho0", p2, p2), ("sigma0", p2, p2), ("rho0_x_sigma0", p4, p4)]
        self.cfg = bq["optim"].OptimizerConfig(restarts=PROPS_RESTARTS,
                                               max_iters=PROPS_ITERS)

    def round(self, mi):
        out = Outcome()
        s = self.states
        try:
            rep = self.bq["broadcast"].property_checks(
                s["rho"], s["sigma"], cfg=self.cfg, n=PROPS_N, tol=PROPS_TOL)
        except (RuntimeError, FloatingPointError) as e:
            out.op(False, f"property_checks: {e}")
        else:
            out.op(True)
            est_rho, est_sig, lhs = checks.props_estimates(rep, PROPS_TOL)
            out.upper += est_rho + est_sig + sum(lhs)
            out.records.append((checks.check_props, (
                "props", rep, PROPS_TOL, mi["rho"], mi["sigma"], PROPS_N)))
        for name, povm_a, povm_b in self.eic_inputs:
            try:
                bv = self.bq["entms"].eic_lower(s[name], povm_a, povm_b, self.cfg)
            except (RuntimeError, FloatingPointError) as e:
                out.op(False, f"eic_lower({name}): {e}")
                continue
            out.op(True)
            out.lower += bv.value
            out.records.append((checks.check_eic, (f"eic {name}", mi[name],
                                                   bv.value, bv.direction)))
        return out


WORKLOADS = {"chain": ChainWorkload, "curve": CurveWorkload, "props": PropsWorkload}


def timed_round(wl, mi):
    t = time.perf_counter()
    res = wl.round(mi)
    return res, time.perf_counter() - t


def main(argv=None):
    ap = argparse.ArgumentParser(description="bqmi end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bq = load_bqmi()
    except ImportError as e:
        print(f"error: cannot import bqmi: {e}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](bq, work, args.seed)
        setup_s = _STARTUP_S + (time.perf_counter() - _T0)

        # The oracle (and scipy) load after set-up, so set-up is bqmi's alone.
        import oracle
        mi = {name: oracle.mutual_information(*oracle.read_state(path))
              for name, path in wl.files.items()}

        outcomes, walls = [], []
        if args.trace:
            from tracer import PER_LAYER, Tracer
            res, wall_untraced = timed_round(wl, mi)
            outcomes.append(res)
            tracer = Tracer()
            tracer.install(bq)
            try:
                res, wall_traced = timed_round(wl, mi)
            finally:
                tracer.uninstall()
            outcomes.append(res)
            tracer.write_spans(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            values = tracer.metrics(wall_traced, wall_untraced)
            units = dict(PER_LAYER)
        else:
            start = time.perf_counter()
            while True:
                res, wall = timed_round(wl, mi)
                outcomes.append(res)
                walls.append(wall)
                if time.perf_counter() - start >= args.seconds:
                    break
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = outcomes[0]
            values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                      "peak_rss_mb": rss_mb, "upper_sum_bits": first.upper,
                      "lower_sum_bits": first.lower}
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                     "upper_sum_bits": "bit", "lower_sum_bits": "bit"}

        failures = []
        for res in outcomes:
            for fn, fargs in res.records:
                failures.extend(fn(*fargs))
            if (res.upper, res.lower) != (outcomes[0].upper, outcomes[0].lower):
                failures.append(f"repeat: bound sums changed between rounds "
                                f"({res.upper!r}, {res.lower!r})")
        for msg in failures + [e for res in outcomes for e in res.errors]:
            print(msg, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, v in values.items():
        print(f"{name} {v!r} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in outcomes),
        "failed": sum(r.failed for r in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
