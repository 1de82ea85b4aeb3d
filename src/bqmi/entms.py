"""Entanglement-measure solvers: ensemble-form classical squashed
entanglement, bounded-dimension squashed entanglement and CEMI uppers, the
PPT-relaxed measured-correlation lower bound, and the inequality-chain
report.

Every solver runs on optim.minimize_penalized.  The squashed, CEMI and
ensemble uppers descend without penalties on a measures.PovmParam, which
maps onto extensions or ensembles of rho exactly; eic_lower descends on an
optim.DensityParam with one PPT penalty and reports a weak-duality
certificate read off the penalty's multiplier.

All minimizations over ensembles/extensions report direction 'upper'; the
measured-correlation bound reports 'lower' (the PPT set contains the
separable set, and the certificate lies below the PPT minimum)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .measures import Povm, PovmParam, default_ic_povm, local_statistics, measure_statistics
from .optim import (
    PENALTY_SCHEDULE,
    SOLVER_FAILURES,
    BlockIsometry,
    BoundedValue,
    DensityParam,
    DimensionCapError,
    OptimizerConfig,
    candidate_matrices,
    check_param_cap,
    entropy_combo,
    minimize_penalized,
    shared_evaluation,
)
from .qcore import (
    LOG2E,
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    mutual_information,
    partial_trace_mat,
    partial_transpose_mat,
    shannon_entropy,
    support,
    trace_distance,
)
from .states import Ensemble


@dataclass
class ChainReport:
    state: str
    entries: dict  # name -> BoundedValue
    verdict: str
    notes: list
    # entry name -> message of the solver failure that left it out
    failures: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "state": self.state,
            "entries": {k: v.to_dict() for k, v in self.entries.items()},
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Classical squashed entanglement (ensemble form).


def _ensemble_objective_terms(r_k, dims, a_idx, b_idx):
    """sum_k p_k I(rho_k) written through unnormalized members R_k = p_k rho_k,
    given as a (K, d, d) stack, plus the stack of matrix gradients
    dF = sum_k Tr[grad_k dR_k].  Members of weight below 1e-14 add nothing
    and get a zero gradient.  A stack of ensembles (..., K, d, d) gives one
    value and one gradient stack per ensemble.

    S(R_A) + S(R_B) - S(R) = p I(rho) - p log2 p, so the value is the
    entropy_combo of each member plus sum_k p_k log2 p_k, and the gradient
    entropy_combo's plus (log2 p_k + log2 e) I."""
    d = r_k.shape[-1]
    p = np.trace(r_k, axis1=-2, axis2=-1).real
    live = p >= 1e-14
    log_p = np.log2(np.where(live, p, 1.0))
    # The spectra of members below 1e-14 lie below ENTROPY_CLAMP, so their
    # entropies are 0 and each adds nothing to the sum over members.
    f, grads = entropy_combo(r_k, dims, [(1.0, a_idx), (1.0, b_idx), (-1.0, None)])
    val = f.sum(-1) + (p * log_p).sum(-1)
    grads += (log_p + LOG2E)[..., None, None] * np.eye(d)
    return val, np.where(live[..., None, None], grads, 0.0)


def ecsq_upper(rho: DensityOperator, n_members, cfg: OptimizerConfig) -> BoundedValue:
    """Upper bound on classical squashed entanglement, equal to half the
    minimal average member MI over ensembles realizing rho.

    n_members is the ensemble size K; None selects rank(rho)².

    Ensembles are parameterized by a POVM on the purifying system (every
    ensemble of rho arises this way), through measures.PovmParam: its
    effects are complete at every step, so the descent has no penalty and
    every ensemble it visits, the reported one included, averages to rho.
    Raises DimensionCapError when the 2 K r² parameters exceed those of the
    largest joint solve BQ_MAX_DIM admits.
    """
    lam, v = support(rho.mat)
    r = lam.size
    w = v * np.sqrt(lam)  # d x r; rho = w w†
    k = int(n_members) if n_members is not None else r * r
    if k < r:
        raise ValidationError(f"ensemble size {k} below rank {r}")
    dims = rho.layout.dims
    a_idx = rho.layout.indices(rho.layout.side_labels("A"))
    b_idx = rho.layout.indices(rho.layout.side_labels("B"))
    povm = PovmParam(r, k)
    check_param_cap(povm.n_params, f"ecsq_upper with {k} members of rank {r}")

    # Members R_k = w E_k w†; the objective takes a stack of parameter
    # vectors (..., n_params), as minimize_penalized evaluates its restarts.
    def objective(x):
        effs, cache = povm.effects(x)
        val, grads_r = _ensemble_objective_terms(w @ effs @ w.conj().T, dims, a_idx, b_idx)
        return 0.5 * val, 0.5 * povm.grad_x(w.conj().T @ grads_r @ w, cache)

    eye = np.eye(r, dtype=complex)
    inits = [
        povm.init_from_effects([eye]),  # trivial ensemble {rho}
        povm.init_from_effects([np.outer(e, e) for e in eye]),
    ]
    opt = minimize_penalized(objective, [], povm.n_params, cfg, inits=inits)
    kept = []
    for e in povm.effects(opt.argmin)[0]:
        rk = w @ e @ w.conj().T
        p = rk.trace().real
        if p > 1e-12:
            kept.append((p, DensityOperator(rho.layout, (rk + rk.conj().T) / 2 / p)))
    total = sum(p for p, _ in kept)
    kept = [(p / total, m) for p, m in kept]
    ens = Ensemble(tuple(kept))
    value = 0.5 * sum(p * mutual_information(m) for p, m in ens.members)
    avg_residual = trace_distance(ens.average(), rho)
    diag = opt.summary()
    diag["ensemble_size"] = len(kept)
    bv = BoundedValue(
        value=float(value),
        direction="upper",
        method=f"purification-povm-ensemble(K={k})",
        residuals={"ensemble_average": float(avg_residual)},
        diagnostics=diag,
    )
    bv.diagnostics["ensemble"] = ens
    return bv


# ---------------------------------------------------------------------------
# Bounded-dimension extensions: squashed entanglement and CEMI uppers.


def _extension_layout(rho, extra_factors):
    factors = rho.layout.factors + tuple((lab, d) for lab, d in extra_factors)
    sides = dict(rho.layout.sides)
    for lab, _ in extra_factors:
        sides[lab] = "B"
    return SubsystemLayout(factors, sides)


def _solve_extension(rho, layout, terms, cfg, warm_starts, method):
    """Minimize an entropy combination over extensions of rho to layout (rho's
    factors, then the extension's E).  With rho = V lam V† on its support,
    every extension is W sigma W† for W = V (x) I_E and sigma = (lam^{1/2} (x)
    I) E_1 (lam^{1/2} (x) I), E_1 the effect of a PovmParam(rank, 1, dim E), so
    each point the descent visits extends rho exactly.  It starts from E_1 =
    I/dim E and from each warm start, and returns the best of its optimum and
    every start."""
    d = layout.dim
    check_param_cap(2 * d * d, f"{method} on a {d}-dim joint")
    nf = len(rho.layout.factors)
    lam, v = support(rho.mat)
    dim_e = d // rho.dim
    w = BlockIsometry([rho.layout.dims, layout.dims[nf:]], [v, np.eye(dim_e)])
    par = PovmParam(lam.size, 1, dim_e)
    root = np.repeat(np.sqrt(lam), dim_e)
    scale = np.outer(root, root)  # sigma = scale * E_1, elementwise

    def objective(x):
        effs, cache = par.effects(x)
        f, fmat = entropy_combo(effs[..., 0, :, :] * scale, layout.dims, terms, w)
        return f, par.grad_x((fmat * scale)[..., None, :, :], cache)

    starts = [w.compress(c) / scale for c in candidate_matrices(warm_starts or (), d)]
    inits = [par.init_from_effects([e]) for e in [np.eye(scale.shape[0]) / dim_e] + starts]
    opt = minimize_penalized(objective, [], par.n_params, cfg, inits=inits)
    sigmas = par.effects(np.stack([opt.argmin] + inits))[0][:, 0] * scale
    values = entropy_combo(sigmas, layout.dims, terms, w)[0]
    best = int(np.argmin(values))
    joint = w.embed(sigmas[best])
    marginal = partial_trace_mat(joint, layout.dims, tuple(range(nf)))
    return BoundedValue(max(float(values[best]), 0.0), "upper", method,
                        {"ab_marginal": float(np.linalg.norm(marginal - rho.mat))},
                        {**opt.summary(), "extension": DensityOperator(layout, joint)})


def esq_upper(rho: DensityOperator, dim_e, cfg: OptimizerConfig,
              warm_starts=None) -> BoundedValue:
    """Upper bound on squashed entanglement with a dim_e extension E:
    half of I(A:BE) - I(A:E) minimized over states extending rho."""
    layout = _extension_layout(rho, (("E", dim_e),))
    a = layout.indices(rho.layout.side_labels("A"))
    e = layout.indices(("E",))
    be = layout.indices(rho.layout.side_labels("B") + ("E",))
    ae = tuple(sorted(a + e))
    # I(A:BE) - I(A:E) = S(BE) - S(ABE) - S(E) + S(AE), halved in the coefficients.
    terms = [(0.5, be), (-0.5, None), (-0.5, e), (0.5, ae)]
    return _solve_extension(rho, layout, terms, cfg, warm_starts,
                            method=f"extension-gd(dimE={dim_e})")


def cemi_upper(rho: DensityOperator, dim_ext, cfg: OptimizerConfig,
               warm_starts=None) -> BoundedValue:
    """Upper bound on the conditional entanglement of mutual information:
    half of I(AA':BB') - I(A':B') minimized over extensions of rho by
    registers A' and B' of dimension dim_ext each."""
    layout = _extension_layout(rho, (("A'", dim_ext), ("B'", dim_ext)))
    ap = layout.indices(("A'",))
    bp = layout.indices(("B'",))
    aap = tuple(sorted(layout.indices(rho.layout.side_labels("A")) + ap))
    bbp = tuple(sorted(layout.indices(rho.layout.side_labels("B")) + bp))
    apbp = tuple(sorted(ap + bp))
    # I(AA':BB') - I(A':B') = S(AA') + S(BB') - S(all) - S(A') - S(B') + S(A'B'),
    # halved in the coefficients.
    terms = [(0.5, aap), (0.5, bbp), (-0.5, None),
             (-0.5, ap), (-0.5, bp), (0.5, apbp)]
    return _solve_extension(rho, layout, terms, cfg, warm_starts,
                            method=f"cemi-extension-gd(dims=({dim_ext},{dim_ext}))")


def classical_flag_extension(ens: Ensemble, kind="squashed",
                             flag_dim=None) -> DensityOperator:
    """Flag extension used as a warm start for separable states.

    kind 'squashed': sum_k p_k rho_k x |k><k|_E, which makes I(A:B|E) the
    average member MI.  kind 'cemi': the flag is copied onto both primed
    registers, sum_k p_k rho_k x |k><k|_A' x |k><k|_B', so the primed MI
    cancels the flag correlations exactly.  flag_dim fixes the register
    dimension: a larger one pads, and a smaller one keeps the flag_dim - 1
    heaviest members on flags of their own and folds the rest into the last
    flag value; None, the default, gives every member a flag of its own.
    The folded ensemble still averages to rho, so the result is an
    extension of rho either way.
    """
    blocks = [p * mem.mat for p, mem in ens.members]  # p_k rho_k
    e = len(blocks) if flag_dim is None else int(flag_dim)
    if len(blocks) > e:
        order = np.argsort(-ens.probabilities(), kind="stable")
        heavy = sorted(order[:e - 1])
        blocks = [blocks[i] for i in heavy] + [sum(blocks[i] for i in order[e - 1:])]
    if kind == "squashed":
        extra = (("E", e),)
    elif kind == "cemi":
        extra = (("A'", e), ("B'", e))
    else:
        raise ValidationError(f"unknown extension kind {kind!r}")
    layout = _extension_layout(ens.average(), extra)
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i, block in enumerate(blocks):
        flag = np.zeros((e, e))
        flag[i, i] = 1.0
        block = np.kron(block, flag)
        if kind == "cemi":
            block = np.kron(block, flag)
        m += block
    return DensityOperator(layout, m)


# ---------------------------------------------------------------------------
# PPT-relaxed measured-correlation lower bound.


def eic_lower(rho: DensityOperator, m: Povm, n: Povm,
              cfg: OptimizerConfig) -> BoundedValue:
    """Lower bound on the measured-correlation increase E_IC (and hence on
    the per-copy broadcast MI limit): a certificate below the least
    f(sigma) = KL(p(rho) || q(sigma)) over PPT states, which contain the
    separable ones, for the fixed local POVMs.

    sigma is a DensityParam in rho's A-first coordinates (a_first_mat),
    where the effects are M_i (x) N_j (contracted one side at a time by
    measures.local_statistics) and T_B transposes factor 1.
    minimize_penalized descends from I/d and random starts under one
    penalty, "ppt": ||(sigma^T_B)_-||_F^2.  At its optimum o, with G =
    grad f(o) and Y = 2 w (-(o^T_B)_-) >= 0, w the last PENALTY_SCHEDULE
    weight, every PPT state sigma and s >= 0 give f(sigma) >= f(o) - <G, o>
    + lambda_min(G - s Y^T_B), by convexity, <Y^T_B, sigma> = <Y, sigma^T_B>
    >= 0 and Tr sigma = 1.  The value is that bound at s = 0 or at the best
    s in [0, 2] by golden section (lambda_min is concave in s), less a
    1e-12 d max(1, max|G|) rounding margin, floored at 0.
    diagnostics["objective"] is f at o mixed with I/d just until it is PPT,
    a feasible value above the certificate.  Raises DimensionCapError when
    sigma's 2 d² parameters exceed those of a joint solve at the cap.
    """
    d = rho.dim
    par = DensityParam(d)
    check_param_cap(par.n_params, f"eic_lower on a {d}-dim state")
    ic = m.gram_rank() == m.dim ** 2 and n.gram_rank() == n.dim ** 2
    if not ic:
        warnings.warn("POVMs are not informationally complete; the bound's "
                      "'zero iff PPT-reachable' reading does not apply")
    p = measure_statistics(rho, m, n).p
    effs_a, effs_b = np.array(m.effects), np.array(n.effects)
    dims = (m.dim, n.dim)
    mask = p > 1e-15
    log_p = np.log2(np.where(mask, p, 1.0))

    def kl(sig):  # per matrix of a stack; clipping q keeps f's tangent below the KL
        q = np.clip(local_statistics(sig, effs_a, effs_b)[0], 1e-15, None)
        coef = np.where(mask, p / q, 0.0) * LOG2E
        # -sum_ij coef_ij M_i (x) N_j: coef into the A effects, then against N_j
        ca = np.einsum("...ij,iac->...jac", coef, effs_a)
        return (np.where(mask, p * (log_p - np.log2(q)), 0.0).sum((-2, -1)),
                -np.einsum("...jac,jbd->...abcd", ca, effs_b).reshape(sig.shape))

    def negative_part(sig):  # the spectrum of sig^T_B, and ((sig^T_B)_-)^T_B
        lam, v = np.linalg.eigh(partial_transpose_mat(sig, dims, (1,)))
        neg = (v * np.minimum(lam, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return lam, partial_transpose_mat(neg, dims, (1,))

    def evaluate(x):
        sig, cache = par.sigma(x)
        f, fmat = kl(sig)
        lam, neg_t = negative_part(sig)
        return [(f, par.grad_x(fmat, sig, cache)),
                ((np.minimum(lam, 0.0) ** 2).sum(-1), par.grad_x(2.0 * neg_t, sig, cache))]

    objective, constraints = shared_evaluation(evaluate, ["ppt"])
    opt = minimize_penalized(objective, constraints, par.n_params, cfg,
                             inits=[par.init_from_matrix(np.eye(d) / d)])
    sig = par.sigma(opt.argmin)[0]
    f, grad = kl(sig)
    lam, neg_t = negative_part(sig)

    def lam_min(s):  # Y^T_B = -2 w neg_t
        return np.linalg.eigvalsh(grad + 2.0 * PENALTY_SCHEDULE[-1] * s * neg_t)[0]

    best, lo, hi, ratio = lam_min(0.0), 0.0, 2.0, (5 ** 0.5 - 1) / 2
    for _ in range(40):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        la, lb = lam_min(a), lam_min(b)
        best = max(best, la, lb)
        lo, hi = (a, hi) if la < lb else (lo, b)
    margin = 1e-12 * d * max(1.0, float(np.abs(grad).max()))
    value = float(max(0.0, f - np.vdot(grad, sig).real + best - margin))
    # the least t with (1 - t) lam_0 + t / d >= 0, lam_0 the least of sigma^T_B
    t = max(0.0, -lam[0] / (1.0 / d - lam[0]))
    feasible_f = float(kl((1.0 - t) * sig + t * np.eye(d) / d)[0])
    exact_note = "PPT=separable (2x2 or 2x3): relaxation exact" \
        if dims in ((2, 2), (2, 3), (3, 2)) else \
        "PPT strictly contains separable: still a valid lower bound"
    return BoundedValue(
        value, "lower", "ppt-kl-duality-certificate",
        {"duality_gap": feasible_f - value, "ppt_min_eig_slack": float(max(0.0, -lam[0]))},
        {"objective": feasible_f, "iterations": opt.iterations_used,
         "relaxation": exact_note, "informationally_complete": bool(ic)})


# ---------------------------------------------------------------------------
# Inequality-chain report.


def chain_report(rho: DensityOperator, cfg: OptimizerConfig, ns=(1, 2),
                 name="state", tol=2e-3) -> ChainReport:
    """Evaluate the inequality chain 2E^C_sq >= per-copy broadcast MI limit
    >= 2E_I >= 2E^Q_sq together with the measured-correlation lower bound,
    and check every verifiable cross-direction pair.  Each solver either
    enters its value, or its failure (optim.SOLVER_FAILURES or
    DimensionCapError) becomes a note and a failures entry, which maps the
    missing entry's name to the message; other errors raise.  ns, the copy
    counts of the broadcast entries, must be nonempty and positive."""
    from .broadcast import broadcast_mi_upper, sweep_warm_starts

    skipped = (DimensionCapError, *SOLVER_FAILURES)  # anything else is a bug
    ns = tuple(ns)
    if not ns or min(ns) < 1:
        raise ValidationError(f"copy counts must be nonempty and >= 1, got {ns}")

    entries = {}
    notes = []
    failures = {}

    def enter(key, entry, solve, copies=None):
        """Enter solve()'s value as entry: per copy with the total when
        copies is given, doubled for a "2..." entry, else as is.  Returns the
        solver's BoundedValue, or None after noting its failure under key."""
        try:
            bv = solve()
        except skipped as e:
            notes.append(f"{key} failed: {e}")
            failures[entry] = str(e)
            return None
        if copies is not None:
            entries[entry] = BoundedValue(bv.value / copies, "upper", bv.method, bv.residuals,
                                          {**bv.diagnostics, "total_bits": bv.value})
        elif entry.startswith("2"):
            entries[entry] = BoundedValue(2 * bv.value, "upper", bv.method, bv.residuals,
                                          bv.diagnostics)
        else:
            entries[entry] = bv
        return bv

    # The ensemble solver runs first: its optimal ensemble seeds the flag
    # extensions for the other upper bounds (load-bearing for separable
    # states, where the flags make those bounds vanish).
    ecsq = enter("ecsq", "2ecsq", lambda: ecsq_upper(rho, None, cfg))
    ensemble = ecsq.diagnostics.get("ensemble") if ecsq is not None else None

    # The flag registers have fixed sizes, whatever the ensemble's: E as large
    # as rho and A', B' qubits.  An ensemble of up to rank(rho)² members would
    # otherwise make esq a d·K solve and cemi's joint grow as K², past
    # BQ_MAX_DIM; classical_flag_extension folds the lightest members into
    # the last flag value instead.
    dim_e = rho.dim
    dim_p = 2
    esq_warm = []
    cemi_warm = []
    if ensemble is not None:
        esq_warm.append(classical_flag_extension(ensemble, "squashed", dim_e))
        cemi_warm.append(classical_flag_extension(ensemble, "cemi", dim_p))

    da, db = rho.layout.side_dims()
    enter("esq", "2esq", lambda: esq_upper(rho, dim_e, cfg, warm_starts=esq_warm))
    enter("cemi", "2cemi", lambda: cemi_upper(rho, dim_p, cfg, warm_starts=cemi_warm))
    eic = enter("eic", "eic",
                lambda: eic_lower(rho, default_ic_povm(da), default_ic_povm(db), cfg))

    ib = {}  # copy count -> the (I_b)_n estimate
    prev = None
    for nn in ns:
        up = enter(f"broadcast n={nn}", f"ib_per_copy_n{nn}",
                   lambda: broadcast_mi_upper(
                       rho, nn, cfg, warm_starts=sweep_warm_starts(rho, nn, prev, ensemble)),
                   copies=nn)
        if up is not None:
            prev = up.diagnostics["broadcast_state"]
            ib[nn] = up.value

    details = []
    if eic is not None and ib:
        per_copy_min = min(v / nn for nn, v in ib.items())
        if eic.value > per_copy_min + tol:
            details.append(f"eic {eic.value:.6f} > min_n est/n {per_copy_min:.6f} + {tol}")
        for nn, est in ib.items():
            if nn * eic.value > est + tol:
                details.append(f"{nn}*eic {nn * eic.value:.6f} > est(I_b)_{nn} {est:.6f} + {tol}")
    if ensemble is not None:
        s_p = shannon_entropy(ensemble.probabilities())
        for nn, est in ib.items():
            cap = 2 * nn * ecsq.value + s_p
            if est > cap + tol:
                details.append(
                    f"est(I_b)_{nn} {est:.6f} > 2n*ecsq + S(p) {cap:.6f} + {tol}")
    notes.extend(details)
    if eic is not None:
        notes.append(eic.diagnostics["relaxation"])
    if failures:
        notes.append(f"missing entries: {sorted(failures)}")
    return ChainReport(state=name, entries=entries,
                       verdict="violation" if details else "consistent",
                       notes=notes, failures=failures)
