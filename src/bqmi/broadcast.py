"""Broadcast-copy mutual information: the n-copy estimators, de Finetti
upper bounds, growth curves with classification, and structural-property
checks.

The central estimator minimizes I(A^n:B^n) over n-copy broadcast states of a
base state rho (every per-copy marginal equal to rho), posed to
optim.solve_marginal_problem as n copies whose marginals are fixed to rho.
Minimization over a nonconvex parameterization only ever certifies an upper
bound; every reported value is evaluated at a candidate projected onto the
exact feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import BoundedValue, OptimizerConfig, solve_marginal_problem
from .qcore import (
    PAULI,
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    expand_mat,
    mutual_information,
    permute_factors,
    shannon_entropy,
    trace_distance,
)
from .states import (
    Ensemble,
    broadcast_layout,
    definetti_broadcast,
    spectral_ensemble,
)


@dataclass
class BroadcastState:
    """A feasible n-copy broadcast candidate with its per-copy residuals."""

    n: int
    base: DensityOperator
    joint: DensityOperator
    marginal_residuals: list


@dataclass
class GrowthCurve:
    per_n: list  # (n, upper BoundedValue, lower BoundedValue)
    classification: str
    certificate: float

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write("n,upper_bits,lower_bits,residual_max,classification\n")
            for n, up, lo in self.per_n:
                rmax = max(up.residuals.values(), default=0.0)
                f.write(f"{n},{up.value:.12g},{lo.value:.12g},{rmax:.6g},"
                        f"{self.classification}\n")


def broadcast_mi_upper(rho: DensityOperator, n: int, cfg: OptimizerConfig,
                       warm_starts=None) -> BoundedValue:
    """Upper bound on the n-copy broadcast MI (I_b)_n of rho.

    Minimizes the cut MI over the broadcast feasible set with
    solve_marginal_problem; the reported value is the MI at the best
    Dykstra-projected feasible candidate.  Factorized copies and the
    spectral de Finetti state are always included as warm starts, so the
    value never exceeds n*I(rho) (+ tolerance); any caller-supplied
    warm starts join the candidate pool the same way.
    """
    layout = broadcast_layout(rho.layout, n)
    if n == 1:
        # The only 1-copy broadcast state is rho itself.
        value, residuals = mutual_information(rho), [0.0]
        joint = DensityOperator(layout, rho.mat)
        diag = {"note": "n=1: feasible set is the singleton {rho}"}
    else:
        def candidates():
            # A generator, so that no n-copy matrix is built before the
            # solver has checked the dimension cap.
            yield definetti_broadcast(spectral_ensemble(rho), n).mat
            yield from warm_starts or ()

        terms = [(1.0, layout.indices(layout.side_labels("A"))),
                 (1.0, layout.indices(layout.side_labels("B"))), (-1.0, None)]
        sol = solve_marginal_problem(rho.layout.dims, rho.mat, n, terms, cfg, candidates())
        value, residuals, diag = sol.value, sol.residuals, sol.diagnostics
        diag["feasible_joints"] = [DensityOperator(layout, m) for m in sol.feasible]
        # the best joint is one of the feasible ones: take it validated
        joint = next(j for j, m in zip(diag["feasible_joints"], sol.feasible)
                     if m is sol.joint)
    bv = BoundedValue(
        value=value,
        direction="upper",
        method="penalized-gd+dykstra",
        residuals={"marginal_max": max(residuals)},
        diagnostics=diag,
    )
    bv.diagnostics["broadcast_state"] = BroadcastState(n, rho, joint, residuals)
    return bv


def sweep_warm_starts(rho: DensityOperator, n: int, prev, ensemble):
    """The warm starts of the n-copy solve in a sweep over copy counts:
    prev (x) rho, when prev, the BroadcastState of the sweep's last solve,
    has n - 1 >= 2 copies (at n = 2 it would be rho (x) rho, the product
    candidate solve_marginal_problem always seeds first), and the de
    Finetti state of ensemble, when one is given and n > 1.  A generator,
    so that broadcast_mi_upper builds them only after its dimension check."""
    if prev is not None and n >= 3 and prev.n == n - 1:
        yield np.kron(prev.joint.mat, rho.mat)
    if ensemble is not None and n > 1:
        yield definetti_broadcast(ensemble, n).mat


def definetti_upper(rho: DensityOperator, ens: Ensemble, n: int):
    """De Finetti upper bound on (I_b)_n and its analytic cap.

    Returns (mi_definetti, cap) where cap = n * sum_k p_k I(rho_k) + S({p_k});
    the first never exceeds the second.
    """
    avg = ens.average()
    if trace_distance(avg, rho) > 1e-8 or avg.layout.factors != rho.layout.factors:
        raise ValidationError("ensemble does not average to the given state")
    mi = mutual_information(definetti_broadcast(ens, n))
    probs = ens.probabilities()
    cap = n * sum(p * mutual_information(m) for p, m in ens.members) + shannon_entropy(probs)
    return float(mi), float(cap)


# Classification thresholds (see GrowthCurve): a curve is "constant" when the
# estimate moves less than FLAT_TOL from n=1 to n_max; a positive measured-MI
# certificate above CERT_TOL certifies linear growth.
FLAT_TOL = 5e-3
CERT_TOL = 1e-4
# property_checks: the strength of the depolarizing channel applied to every
# factor (monotonicity) and the weights of the mixture (convexity bound).
DEPOLARIZING_Q = 0.3
MIX_WEIGHTS = (0.5, 0.5)


def growth_curve(rho: DensityOperator, n_max: int, cfg: OptimizerConfig,
                 ensemble=None) -> GrowthCurve:
    """Estimate (I_b)_n for n = 1..n_max and classify the growth behavior.

    Upper estimates are warm-started across n by sweep_warm_starts.  Lower
    values are max(I(rho), n * certificate) where the certificate is the
    measured-correlation lower bound with default IC POVMs.  ensemble, when
    given, adds de Finetti warm starts and sets the boundedness cap;
    otherwise a cap is obtained from the ensemble optimizer.
    """
    from .entms import ecsq_upper, eic_lower
    from .measures import default_ic_povm

    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    base_mi = mutual_information(rho)
    da, db = rho.layout.side_dims()
    certificate = eic_lower(rho, default_ic_povm(da), default_ic_povm(db), cfg).value
    if ensemble is None:
        ecsq = ecsq_upper(rho, None, cfg)
        ensemble = ecsq.diagnostics.get("ensemble")

    per_n = []
    prev = None
    for n in range(1, n_max + 1):
        up = broadcast_mi_upper(rho, n, cfg,
                                warm_starts=sweep_warm_starts(rho, n, prev, ensemble))
        prev = up.diagnostics["broadcast_state"]
        lo = BoundedValue(
            value=float(max(base_mi, n * certificate)),
            direction="lower",
            method="max(I(rho), n*measured-correlation-certificate)",
        )
        per_n.append((n, up, lo))

    est_1 = per_n[0][1].value
    est_top = per_n[-1][1].value
    if est_top - est_1 < FLAT_TOL:
        cls = "constant"
    elif certificate > CERT_TOL:
        cls = "linear-certified"
    else:
        cls = "inconclusive"
        if ensemble is not None:
            _, cap = definetti_upper(rho, ensemble, n_max)
            if est_top <= cap + FLAT_TOL:
                cls = "bounded"
    return GrowthCurve(per_n=per_n, classification=cls, certificate=float(certificate))


def depolarizing_kraus(q, dim=2):
    """Kraus operators of the qubit depolarizing channel with strength q."""
    if dim != 2:
        raise ValidationError("depolarizing_kraus only implemented for qubits")
    return [math.sqrt(1 - 3 * q / 4) * np.eye(2, dtype=complex)] + [
        math.sqrt(q / 4) * s for s in PAULI]


def apply_local_channels(rho: DensityOperator, kraus_by_label) -> DensityOperator:
    """Apply per-factor channels given as {label: kraus list}."""
    m = rho.mat
    dims = rho.layout.dims
    for lab, kraus in kraus_by_label.items():
        kfs = [expand_mat(k, dims, rho.layout.indices((lab,))) for k in kraus]
        m = sum(kf @ m @ kf.conj().T for kf in kfs)
    return DensityOperator(rho.layout, m)


def property_checks(rho: DensityOperator, sigma: DensityOperator,
                    cfg: OptimizerConfig, n=2, tol=1e-3) -> dict:
    """Warm-start verification of the structural inequalities of the
    broadcast-MI estimate: monotonicity under a depolarizing channel
    (strength DEPOLARIZING_Q) on every factor, the convexity-style bound
    on the MIX_WEIGHTS mixture of rho and sigma, and subadditivity.

    Each check re-runs the estimator on the transformed state with the
    transformed optimal joint as a warm start and asserts the resulting
    inequality between estimates.
    """
    channels = {lab: depolarizing_kraus(DEPOLARIZING_Q) for lab, _ in rho.layout.factors}
    report = {}

    est_rho = broadcast_mi_upper(rho, n, cfg)
    est_sig = broadcast_mi_upper(sigma, n, cfg)
    joint_rho = est_rho.diagnostics["broadcast_state"].joint
    joint_sig = est_sig.diagnostics["broadcast_state"].joint

    # Monotonicity: push the optimal joint through the per-copy channels.
    tau = apply_local_channels(rho, channels)
    per_copy = {}
    for k in range(1, n + 1):
        for lab, kraus in channels.items():
            per_copy[f"{lab}{k}"] = kraus
    warm = apply_local_channels(joint_rho, per_copy)
    est_tau = broadcast_mi_upper(tau, n, cfg, warm_starts=[warm])
    report["monotonicity"] = {
        "lhs": est_tau.value, "rhs": est_rho.value + tol,
        "holds": est_tau.value <= est_rho.value + tol,
    }

    # Convexity-style bound with Shannon-entropy slack.
    w0, w1 = MIX_WEIGHTS
    mix = DensityOperator(rho.layout, w0 * rho.mat + w1 * sigma.mat)
    warm_mix = w0 * joint_rho.mat + w1 * joint_sig.mat
    est_mix = broadcast_mi_upper(mix, n, cfg, warm_starts=[warm_mix])
    rhs = w0 * est_rho.value + w1 * est_sig.value + shannon_entropy([w0, w1]) + tol
    report["convexity_bound"] = {
        "lhs": est_mix.value, "rhs": rhs, "holds": est_mix.value <= rhs,
    }

    # Subadditivity on the tensor product (copies interleaved per pair).
    prod, warm_prod = _tensor_pair_broadcast(rho, sigma, joint_rho, joint_sig, n)
    est_prod = broadcast_mi_upper(prod, n, cfg, warm_starts=[warm_prod])
    rhs = est_rho.value + est_sig.value + tol
    report["subadditivity"] = {
        "lhs": est_prod.value, "rhs": rhs, "holds": est_prod.value <= rhs,
    }
    return report


def _tensor_pair_broadcast(rho, sigma, joint_rho, joint_sig, n):
    """Build rho (x) sigma with disambiguated labels, plus the warm-start
    joint obtained by interleaving the two optimal joints copy by copy."""
    factors = tuple((f"{lab}", d) for lab, d in rho.layout.factors) + tuple(
        (f"{lab}'", d) for lab, d in sigma.layout.factors)
    sides = {f"{lab}": rho.layout.sides[lab] for lab, _ in rho.layout.factors}
    sides.update({f"{lab}'": sigma.layout.sides[lab] for lab, _ in sigma.layout.factors})
    prod = DensityOperator(SubsystemLayout(factors, sides),
                           np.kron(rho.mat, sigma.mat))
    # joint_rho (x) joint_sig has copy blocks (rho copies) then (sigma copies);
    # the product's broadcast layout wants them interleaved per copy.
    big = np.kron(joint_rho.mat, joint_sig.mat)
    nf_r = len(rho.layout.factors)
    nf_s = len(sigma.layout.factors)
    dims = tuple(joint_rho.layout.dims) + tuple(joint_sig.layout.dims)
    perm = []
    for k in range(n):
        perm.extend(range(k * nf_r, (k + 1) * nf_r))
        perm.extend(range(n * nf_r + k * nf_s, n * nf_r + (k + 1) * nf_s))
    return prod, permute_factors(big, dims, perm)
