"""Command-line front end.

Subcommands: state, measure, curve, chain, verify.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 solver failure, 4 resource cap.
Outputs are byte-identical for identical command + seed; wall time is kept
out of the hashed content and written to a sidecar manifest file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .broadcast import growth_curve, property_checks
from .entms import cemi_upper, chain_report, ecsq_upper, eic_lower, esq_upper
from .measures import classical_mi_max, default_ic_povm
from .optim import SOLVER_FAILURES, BoundedValue, DimensionCapError, OptimizerConfig, dim_cap
from .qcore import ValidationError, mutual_information
from .states import (
    StateSpec,
    canonical_ensembles,
    load_state,
    make_state,
    random_density,
    save_state,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CAP = 4


def _drop_stdout():
    """Point stdout at os.devnull once its reader has closed it (as `| head`
    does), so that later output and the flush at interpreter shutdown do not
    raise BrokenPipeError; the command still runs to its own exit status."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(text):
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _manifest(args, cfg):
    return {
        "command": " ".join(sys.argv[1:]),
        "config": dataclasses.asdict(cfg),
        "seed": cfg.master_seed,
        "dim_cap": dim_cap(),
        "tool_version": __version__,
    }


def _write_report(doc, out_path, wall_time):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
        with open(out_path + ".manifest.json", "w") as f:
            json.dump({**doc.get("manifest", {}), "wall_time": wall_time}, f, indent=2)
    else:
        _emit(text)
        print(f"wall_time: {wall_time:.3f}s", file=sys.stderr)


def _config_from(args):
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        master_seed=args.seed,
    )


def _load(path):
    if not os.path.exists(path):
        raise ValidationError(f"state file not found: {path}")
    return load_state(path)


def cmd_state(args):
    params = {}
    if args.p is not None:
        params["p"] = args.p
    if args.weight is not None:
        params["weight"] = args.weight
    if args.probs is not None:
        params["probs"] = json.loads(args.probs)
    if args.family == "random":
        params["dim"] = args.dim
        params["rank"] = args.dim if args.rank is None else args.rank
    rho = make_state(StateSpec(args.family, params, seed=args.seed))
    save_state(args.out, rho)
    _emit(f"wrote {args.out} ({rho.dim}x{rho.dim}, "
          f"factors {'x'.join(str(d) for d in rho.layout.dims)})")
    return EXIT_OK


def cmd_measure(args):
    rho = _load(getattr(args, "in"))
    cfg = _config_from(args)
    t0 = time.perf_counter()
    status = EXIT_OK
    try:
        if args.measure == "mi":
            result = BoundedValue(mutual_information(rho), "exact",
                                  "eigendecomposition-entropies")
        elif args.measure == "ic":
            result = classical_mi_max(rho, args.outcomes, cfg)
        elif args.measure == "ecsq":
            result = ecsq_upper(rho, args.members, cfg)
        elif args.measure == "esq":
            result = esq_upper(rho, args.dim_e, cfg)
        elif args.measure == "cemi":
            result = cemi_upper(rho, args.dim_ext, cfg)
        else:  # eiclower
            da, db = rho.layout.side_dims()
            result = eic_lower(rho, default_ic_povm(da), default_ic_povm(db), cfg)
        doc = {"measure": args.measure, "state": getattr(args, "in"),
               "result": result.to_dict(), "manifest": _manifest(args, cfg)}
    except SOLVER_FAILURES as e:
        status = EXIT_SOLVER
        doc = {"measure": args.measure, "state": getattr(args, "in"),
               "error": str(e), "manifest": _manifest(args, cfg)}
    _write_report(doc, args.out, time.perf_counter() - t0)
    return status


def cmd_curve(args):
    rho = _load(getattr(args, "in"))
    cfg = _config_from(args)
    t0 = time.perf_counter()
    gc = growth_curve(rho, args.max_copies, cfg)
    wall = time.perf_counter() - t0
    gc.to_csv(args.out)
    with open(args.out + ".manifest.json", "w") as f:
        json.dump({**_manifest(args, cfg), "wall_time": wall}, f, indent=2)
    _emit(f"classification: {gc.classification} "
          f"(certificate {gc.certificate:.6g} bits/copy)")
    return EXIT_OK


def cmd_chain(args):
    rho = _load(getattr(args, "in"))
    cfg = _config_from(args)
    t0 = time.perf_counter()
    rep = chain_report(rho, cfg, ns=tuple(range(1, args.max_copies + 1)),
                       name=getattr(args, "in"))
    doc = rep.to_dict()
    doc["manifest"] = _manifest(args, cfg)
    _write_report(doc, args.out, time.perf_counter() - t0)
    if rep.failures:
        return EXIT_SOLVER
    return EXIT_OK if rep.verdict == "consistent" else EXIT_VERIFY


def _suite_thm1(cfg):
    checks = []
    cases = [
        ("cc half-half", make_state(StateSpec("cc", {})), None, "constant"),
        ("bell", make_state(StateSpec("bell", {})), None, "linear-certified"),
        ("product-mix", make_state(StateSpec("product-mix", {})),
         canonical_ensembles(StateSpec("product-mix", {})), "bounded"),
    ]
    for name, rho, ens, want in cases:
        gc = growth_curve(rho, 3, cfg, ensemble=ens)
        checks.append((f"growth[{name}]={want}", gc.classification == want,
                       f"got {gc.classification}"))
    return checks


def _suite_thm2(cfg, instances=2):
    checks = []
    for i in range(instances):
        rho = random_density(4, 2, seed=cfg.master_seed + 100 + i)
        sig = random_density(4, 4, seed=cfg.master_seed + 200 + i)
        rep = property_checks(rho, sig, cfg=cfg, n=2)
        for prop, r in rep.items():
            checks.append((f"{prop}[seedpair {i}]", r["holds"],
                           f"lhs {r['lhs']:.6f} rhs {r['rhs']:.6f}"))
    return checks


def _suite_chain(cfg):
    checks = []
    cases = [
        ("bell", make_state(StateSpec("bell", {}))),
        ("cc half-half", make_state(StateSpec("cc", {}))),
        ("random seed+1", random_density(4, 4, seed=cfg.master_seed + 1)),
    ]
    for name, rho in cases:
        rep = chain_report(rho, cfg, ns=(1, 2), name=name)
        checks.append((f"chain[{name}] consistent", rep.verdict == "consistent",
                       f"verdict {rep.verdict}; " + "; ".join(rep.notes)))
    return checks


def cmd_verify(args):
    cfg = _config_from(args)
    suites = {"thm1": _suite_thm1, "thm2": _suite_thm2, "chain": _suite_chain}
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check, ok, detail in suites[name](cfg):
            all_ok = all_ok and ok
            _emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {check} ({detail})")
    _emit("verify: " + ("all checks passed" if all_ok else "FAILURES above"))
    return EXIT_OK if all_ok else EXIT_VERIFY


def _add_solver_flags(p, default_restarts=4, default_iters=200):
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--restarts", type=int, default=default_restarts)
    p.add_argument("--max-iters", type=int, default=default_iters, dest="max_iters")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bqmi",
        description="Broadcast-MI and entanglement-measure bounds on small "
                    "bipartite states")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("state", help="construct a state file")
    p.add_argument("--family", required=True,
                   choices=["bell", "cc", "product-mix", "werner", "isotropic", "random"])
    p.add_argument("--p", type=float, default=None, help="werner/isotropic parameter")
    p.add_argument("--weight", type=float, default=None, help="product-mix weight")
    p.add_argument("--probs", type=str, default=None, help="cc table as JSON")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_state)

    p = sub.add_parser("measure", help="compute one measure on a state file")
    p.add_argument("--in", required=True)
    p.add_argument("--measure", required=True,
                   choices=["mi", "ic", "ecsq", "esq", "cemi", "eiclower"])
    p.add_argument("--outcomes", type=int, default=4, help="POVM outcomes per side (ic)")
    p.add_argument("--members", type=int, default=None, help="ensemble size (ecsq)")
    p.add_argument("--dim-e", type=int, default=2, dest="dim_e", help="extension dim (esq)")
    p.add_argument("--dim-ext", type=int, default=2, dest="dim_ext",
                   help="per-side extension dim (cemi)")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("curve", help="growth curve of the broadcast-MI estimate")
    p.add_argument("--in", required=True)
    p.add_argument("--max-copies", type=int, default=3, dest="max_copies")
    p.add_argument("--out", required=True, help="CSV path")
    _add_solver_flags(p, default_restarts=3, default_iters=150)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("chain", help="inequality-chain report")
    p.add_argument("--in", required=True)
    p.add_argument("--max-copies", type=int, default=2, dest="max_copies")
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    _add_solver_flags(p, default_restarts=3, default_iters=150)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("verify", help="run the growth/structure/chain property suites")
    p.add_argument("--suite", default="all", choices=["thm1", "thm2", "chain", "all"])
    _add_solver_flags(p, default_restarts=3, default_iters=150)
    p.set_defaults(fn=cmd_verify)
    return ap


def _run(args):
    try:
        return args.fn(args)
    except DimensionCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except SOLVER_FAILURES as e:  # ahead of ValueError: LinAlgError is one
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValidationError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    status = _run(args)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return status


if __name__ == "__main__":
    sys.exit(main())
