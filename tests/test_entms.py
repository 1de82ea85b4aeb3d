import json
import tracemalloc

import numpy as np
import pytest

import bqmi.broadcast
import bqmi.entms
from bqmi.entms import (
    ChainReport,
    _ensemble_objective_terms,
    cemi_upper,
    chain_report,
    classical_flag_extension,
    ecsq_upper,
    eic_lower,
    esq_upper,
)
from bqmi.measures import Povm, default_ic_povm, measure_statistics
from bqmi.optim import BoundedValue, DimensionCapError, OptimizerConfig, SolverError
from bqmi.qcore import (
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    binary_entropy,
    bipartite_layout,
    mutual_information,
    partial_trace_mat,
    trace_distance,
)
from bqmi.states import (
    Ensemble,
    StateSpec,
    bell_state,
    canonical_ensembles,
    cc_state,
    product_mix_state,
    random_density,
    spectral_ensemble,
    werner_state,
)

CFG = OptimizerConfig(restarts=3, max_iters=150)
# the ensemble optimizer needs a few more restarts/iterations to polish
# separable states down to the 1e-3 level
ECSQ_CFG = OptimizerConfig(restarts=4, max_iters=200)

# Frozen convex-solver reference values for the KL-over-PPT minimum with
# tetrahedral SIC POVMs on both sides (SCS exponential-cone solve, eps 1e-9).
EIC_ORACLE = {
    "bell": 0.2630344305178909,
    "werner_0.5": 0.009710974495117305,
    "werner_0.9": 0.1524216767093072,
}


def schmidt_state(lam2):
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(lam2)
    psi[3] = np.sqrt(1 - lam2)
    return DensityOperator(bipartite_layout(2, 2), np.outer(psi, psi.conj()))


def test_extension_spec_validation():
    with pytest.raises(ValidationError, match="dim"):
        esq_upper(bell_state(), 0, CFG)
    with pytest.raises(ValidationError, match="dim"):
        cemi_upper(bell_state(), 0, CFG)


def test_ecsq_bell_is_one():
    bv = ecsq_upper(bell_state(), None, CFG)
    assert bv.direction == "upper"
    assert abs(bv.value - 1.0) < 1e-4
    assert bv.residuals["ensemble_average"] < 1e-9


def test_ecsq_product_mix_vanishes():
    bv = ecsq_upper(product_mix_state(), None, ECSQ_CFG)
    assert bv.value <= 1e-3


def test_ecsq_cc_vanishes():
    assert ecsq_upper(cc_state([[0.5, 0], [0, 0.5]]), None, CFG).value <= 1e-6


@pytest.mark.parametrize("p", [0.2, 1 / 3], ids=["0.2", "1/3"])
def test_ecsq_separable_werner_vanishes(p):
    # werner p <= 1/3 is separable, so some ensemble has product members
    assert ecsq_upper(werner_state(p), None, CFG).value <= 1e-3


def test_ecsq_schmidt_matches_binary_entropy():
    lam2 = 0.8536
    bv = ecsq_upper(schmidt_state(lam2), None, ECSQ_CFG)
    assert abs(bv.value - binary_entropy(lam2)) < 1e-3


def test_ecsq_reported_ensemble_averages_to_state():
    rho = random_density(4, 4, seed=3)
    bv = ecsq_upper(rho, None, CFG)
    ens = bv.diagnostics["ensemble"]
    assert trace_distance(ens.average(), rho) < 1e-9
    # value equals the exact half average member MI of that ensemble
    direct = 0.5 * sum(p * mutual_information(m) for p, m in ens.members)
    assert abs(bv.value - direct) < 1e-12


def test_ecsq_never_exceeds_half_quantum_mi():
    rho = random_density(4, 2, seed=8)
    bv = ecsq_upper(rho, None, CFG)
    assert bv.value <= 0.5 * mutual_information(rho) + 1e-6


def test_ecsq_rejects_too_small_ensemble():
    # only None selects the default size rank²; 0 and below are sizes too
    for n_members in (1, 0, -1):
        with pytest.raises(ValidationError, match="below rank"):
            ecsq_upper(werner_state(0.5), n_members, CFG)


def test_esq_bell_equals_entanglement_entropy():
    bv = esq_upper(bell_state(), 2, CFG)
    assert abs(bv.value - 1.0) < 1e-3
    assert bv.residuals["ab_marginal"] < 1e-8


def test_esq_separable_with_flag_warm_start():
    ens = canonical_ensembles(StateSpec("product-mix"))
    flag = classical_flag_extension(ens, "squashed")
    bv = esq_upper(product_mix_state(), 2, CFG, warm_starts=[flag])
    assert bv.value <= 1e-3


@pytest.mark.parametrize("kind", ["squashed", "cemi"])
def test_flag_extension_folds_the_lightest_members(kind):
    probs = [0.1, 0.3, 0.05, 0.4, 0.15]
    ens = Ensemble(tuple((p, random_density(4, 4, seed=s))
                         for s, p in enumerate(probs)))
    rho = ens.average()
    flag_dim = 3
    ext = classical_flag_extension(ens, kind, flag_dim)
    n_reg = 1 if kind == "squashed" else 2
    assert ext.layout.dims == rho.layout.dims + (flag_dim,) * n_reg
    marginal = partial_trace_mat(ext.mat, ext.layout.dims, (0, 1))
    assert np.abs(marginal - rho.mat).max() < 1e-12
    # the p_k rho_k block on flag value i (on both primed registers for cemi)
    m = ext.mat.reshape((4,) + (flag_dim,) * n_reg + (4,) + (flag_dim,) * n_reg)
    if kind == "squashed":
        blocks = [m[:, i, :, i] for i in range(flag_dim)]
    else:
        blocks = [m[:, i, i, :, i, i] for i in range(flag_dim)]
    members = [p * mem.mat for p, mem in ens.members]
    heaviest = [1, 3]  # weights 0.3 and 0.4 keep flags of their own
    for i, k in enumerate(heaviest):
        assert np.abs(blocks[i] - members[k]).max() < 1e-15
    folded = sum(members[k] for k in (0, 2, 4))
    assert np.abs(blocks[-1] - folded).max() < 1e-15


@pytest.mark.parametrize("flag_dim", [0, -1])
def test_flag_extension_rejects_a_non_positive_flag_dim(flag_dim):
    ens = spectral_ensemble(werner_state(0.5))
    with pytest.raises(ValidationError, match="non-positive dim"):
        classical_flag_extension(ens, "squashed", flag_dim)


def test_esq_large_rank_deficient_block_stays_small():
    # rho's 2 x 64 block of rank 64 next to E: a K_k of the (B, E) marginal
    # would have 64² · 64² entries (268 MB), W_k has 128 · 64
    tracemalloc.start()
    try:
        bv = esq_upper(random_density(128, 64, seed=0), 2,
                       OptimizerConfig(restarts=1, max_iters=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bv.residuals["ab_marginal"] < 1e-8
    assert peak < 64 * 2 ** 20


def test_esq_werner_half_with_the_flag_warm_start():
    # as chain_report runs it: E as large as rho, seeded with the flag
    # extension of ecsq's ensemble
    rho = werner_state(0.5)
    ens = ecsq_upper(rho, None, CFG).diagnostics["ensemble"]
    warm = classical_flag_extension(ens, "squashed", rho.dim)
    bv = esq_upper(rho, rho.dim, CFG, warm_starts=[warm])
    assert bv.residuals["ab_marginal"] <= 1e-10
    assert bv.value <= 0.106


def test_extension_rejects_a_warm_start_of_the_wrong_shape():
    with pytest.raises(ValidationError, match="warm start has shape"):
        esq_upper(bell_state(), 2, CFG, warm_starts=[np.eye(4) / 4])


def test_esq_dimension_cap_enforced(monkeypatch):
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    with pytest.raises(DimensionCapError, match="cap"):
        esq_upper(bell_state(), 4, CFG)


def test_ecsq_dimension_cap_enforced(monkeypatch):
    # at cap 8 a joint solve has at most 2 * 8² = 128 parameters; ecsq has 2 K r²
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    with pytest.raises(DimensionCapError, match="cap"):
        ecsq_upper(random_density(16, 16, seed=0, dims=(4, 4)), None, CFG)
    with pytest.raises(DimensionCapError, match="160 parameters"):
        ecsq_upper(werner_state(0.5), 5, CFG)  # rank 4: 2 * 5 * 16


def test_cemi_bell_with_trivial_extension():
    bv = cemi_upper(bell_state(), 1, CFG)
    # trivial extension gives half the quantum MI exactly
    assert abs(bv.value - 1.0) < 1e-3


def test_cemi_product_state_vanishes():
    prod = DensityOperator(bipartite_layout(2, 2),
                           np.kron(np.diag([0.3, 0.7]), np.eye(2) / 2).astype(complex))
    bv = cemi_upper(prod, 2, CFG)
    assert bv.value <= 1e-3


def test_eic_bell_matches_convex_oracle():
    sic = default_ic_povm(2)
    bv = eic_lower(bell_state(), sic, sic, CFG)
    assert bv.direction == "lower"
    assert abs(bv.diagnostics["objective"] - EIC_ORACLE["bell"]) < 1e-5
    assert bv.value <= bv.diagnostics["objective"]
    assert bv.value > 1e-3


@pytest.mark.parametrize("p", [0.1, 0.2, 1 / 3])
def test_eic_separable_werner_vanishes(p):
    sic = default_ic_povm(2)
    assert eic_lower(werner_state(p), sic, sic, CFG).value <= 1e-4


@pytest.mark.parametrize("p,key", [(0.5, "werner_0.5"), (0.9, "werner_0.9")])
def test_eic_entangled_werner_matches_oracle(p, key):
    sic = default_ic_povm(2)
    bv = eic_lower(werner_state(p), sic, sic, CFG)
    assert abs(bv.diagnostics["objective"] - EIC_ORACLE[key]) < 1e-5
    assert bv.value > 1e-4


def kl_bits(p, q):
    live = p > 0
    return float((p[live] * np.log2(p[live] / q[live])).sum())


def random_separable(da, db, seed):
    """A seeded random mixture of four product states on A (x) B."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(4))
    mat = sum(wk * np.kron(random_density(da, 1, seed=1000 * seed + 2 * k).mat,
                           random_density(db, 1, seed=1000 * seed + 2 * k + 1).mat)
              for k, wk in enumerate(w))
    return DensityOperator(bipartite_layout(da, db), mat)


@pytest.mark.parametrize("rho", [
    werner_state(0.8),
    random_density(4, 3, seed=5),
    random_density(6, 3, seed=1, dims=(2, 3)),
    random_density(8, 2, seed=0, dims=(4, 2)),
], ids=["werner_0.8", "2x2", "2x3", "4x2"])
def test_eic_value_is_below_every_separable_objective(rho):
    # every separable state is PPT, so a certificate lies below its KL
    da, db = rho.layout.side_dims()
    m, n = default_ic_povm(da), default_ic_povm(db)
    bv = eic_lower(rho, m, n, CFG)
    assert bv.value <= bv.diagnostics["objective"]
    p = measure_statistics(rho, m, n).p
    d = da * db
    sigmas = [DensityOperator(bipartite_layout(da, db), np.eye(d, dtype=complex) / d)]
    sigmas += [random_separable(da, db, seed) for seed in range(5)]
    for sigma in sigmas:
        assert bv.value <= kl_bits(p, measure_statistics(sigma, m, n).p)


def props_product():
    """rho0 (x) sigma0 of the benchmark's props workload, a 4 (x) 4 state."""
    rho0 = random_density(4, 2, seed=100)
    sig0 = random_density(4, 4, seed=200)
    layout = SubsystemLayout((("A", 2), ("B", 2), ("A'", 2), ("B'", 2)),
                             {"A": "A", "B": "B", "A'": "A", "B'": "B"})
    return DensityOperator(layout, np.kron(rho0.mat, sig0.mat))


@pytest.mark.parametrize("rho, floor", [
    (werner_state(0.8), 0.09),
    (props_product(), 0.005),
    *[(random_density(8, r, seed=s, dims=(4, 2)), 0.005) for r in (1, 2, 3) for s in (0, 1)],
    (random_density(6, 3, seed=1, dims=(2, 3)), 0.01),
], ids=["werner_0.8", "4x4_props"] + [f"4x2_r{r}_s{s}" for r in (1, 2, 3) for s in (0, 1)]
    + ["2x3"])
def test_eic_certifies_a_value_above_its_floor(rho, floor):
    # a certificate above the floor on every shape up to 4 (x) 4; werner
    # 0.8's PPT minimum is 0.092734
    da, db = rho.layout.side_dims()
    bv = eic_lower(rho, default_ic_povm(da), default_ic_povm(db), CFG)
    assert floor < bv.value <= bv.diagnostics["objective"]


def test_eic_takes_its_step_budget_from_cfg():
    # one restart's budget: len(PENALTY_SCHEDULE) * max_iters = 8 iterations,
    # where the descent on this state stops by itself after 63
    sic = default_ic_povm(2)
    bv = eic_lower(random_density(4, 2, seed=100), sic, sic,
                   OptimizerConfig(restarts=1, max_iters=2))
    assert bv.diagnostics["iterations"] <= 8


def test_eic_dimension_cap_enforced(monkeypatch):
    # at cap 8 a joint solve has at most 2 * 8² = 128 parameters, and a
    # 16-dim sigma has 2 * 16²
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    p4 = default_ic_povm(4)
    with pytest.raises(DimensionCapError, match="512 parameters"):
        eic_lower(random_density(16, 16, seed=0, dims=(4, 4)), p4, p4, CFG)


def test_eic_warns_on_incomplete_povm():
    proj = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    with pytest.warns(UserWarning, match="informationally complete"):
        bv = eic_lower(bell_state(), proj, proj, CFG)
    assert bv.diagnostics["informationally_complete"] is False


def test_chain_report_bell_consistent_and_serializable():
    rep = chain_report(bell_state(), CFG, ns=(1, 2), name="bell")
    assert isinstance(rep, ChainReport)
    assert rep.verdict == "consistent"
    assert rep.entries["eic"].value > 1e-3
    for key in ("2ecsq", "2esq", "2cemi", "ib_per_copy_n1", "ib_per_copy_n2"):
        assert key in rep.entries
    doc = rep.to_dict()
    json.dumps(doc)  # must be serializable as-is
    assert doc["state"] == "bell"


def test_chain_report_cc_all_near_zero():
    rep = chain_report(cc_state([[0.5, 0], [0, 0.5]]), CFG, ns=(1, 2), name="cc")
    assert rep.verdict == "consistent"
    for key in ("2ecsq", "2esq", "2cemi", "eic"):
        assert rep.entries[key].value <= 2e-3


@pytest.mark.parametrize("ns", [(), (0,), (1, -1)])
def test_chain_report_rejects_empty_or_nonpositive_copy_counts(ns):
    with pytest.raises(ValidationError, match="copy counts"):
        chain_report(bell_state(), CFG, ns=ns, name="bell")


def test_chain_report_lets_bugs_raise(monkeypatch):
    # a programming error is not a solver failure: it must not become a note;
    # NotImplementedError is a RuntimeError, but not a SolverError
    for solver, error in (("esq_upper", TypeError), ("eic_lower", NotImplementedError)):
        def broken(*args, error=error, **kwargs):
            raise error("bug")

        monkeypatch.setattr(bqmi.entms, solver, broken)
        with pytest.raises(error, match="bug"):
            chain_report(cc_state([[0.5, 0], [0, 0.5]]), CFG, ns=(1,), name="cc")
        monkeypatch.undo()


CHAIN_ENTRIES = {"2ecsq", "2esq", "2cemi", "eic"}
FAST_CFG = OptimizerConfig(restarts=1, max_iters=5)


def test_chain_report_with_a_gap_in_the_copy_counts():
    # the n=3 solve has no n=2 joint to extend; the n=1 joint is no warm start
    rep = chain_report(werner_state(0.5), FAST_CFG, ns=(1, 3))
    assert set(rep.entries) == CHAIN_ENTRIES | {"ib_per_copy_n1", "ib_per_copy_n3"}
    assert rep.failures == {}


def test_chain_report_after_a_failed_copy_count(monkeypatch):
    real = bqmi.broadcast.broadcast_mi_upper

    def fail_at_two(rho, n, cfg, warm_starts=None):
        if n == 2:
            raise SolverError("no convergence at n=2")
        return real(rho, n, cfg, warm_starts=warm_starts)

    monkeypatch.setattr(bqmi.broadcast, "broadcast_mi_upper", fail_at_two)
    rep = chain_report(werner_state(0.5), FAST_CFG, ns=(1, 2, 3))
    assert set(rep.entries) == CHAIN_ENTRIES | {"ib_per_copy_n1", "ib_per_copy_n3"}
    assert rep.failures == {"ib_per_copy_n2": "no convergence at n=2"}
    assert rep.notes[-1] == "missing entries: ['ib_per_copy_n2']"


def stub_chain_solvers(monkeypatch, ecsq, eic, ib, failing=()):
    """Replace the five solvers of chain_report with stubs that return fixed
    values: ecsq (with cc's two-member spectral ensemble, S(p) = 1 bit), esq
    0.25, cemi 0.125, eic and the n-copy broadcast MI ib[n].  A solver named
    in failing raises SolverError("stub") instead."""
    ensemble = spectral_ensemble(cc_state([[0.5, 0], [0, 0.5]]))

    def stub(key, value, direction="upper", **diagnostics):
        def solve(*args, **kwargs):
            if key in failing:
                raise SolverError("stub")
            return BoundedValue(value, direction, key, {}, dict(diagnostics))
        return solve

    monkeypatch.setattr(bqmi.entms, "ecsq_upper", stub("ecsq", ecsq, ensemble=ensemble))
    monkeypatch.setattr(bqmi.entms, "esq_upper", stub("esq", 0.25))
    monkeypatch.setattr(bqmi.entms, "cemi_upper", stub("cemi", 0.125))
    monkeypatch.setattr(bqmi.entms, "eic_lower", stub("eic", eic, "lower", relaxation="stub"))
    monkeypatch.setattr(bqmi.broadcast, "broadcast_mi_upper",
                        lambda rho, n, cfg, warm_starts=None: BoundedValue(
                            ib[n], "upper", "broadcast", {}, {"broadcast_state": None}))


IB_STUB = {1: 1.0, 2: 1.6}  # per copy 1.0 and 0.8


@pytest.mark.parametrize("ecsq, eic, details", [
    (1.0, 0.5, []),
    (1.0, 0.95, ["eic 0.950000 > min_n est/n 0.800000 + 0.1",
                 "2*eic 1.900000 > est(I_b)_2 1.600000 + 0.1"]),
    (1.0, 0.86, ["2*eic 1.720000 > est(I_b)_2 1.600000 + 0.1"]),
    (0.05, 0.5, ["est(I_b)_2 1.600000 > 2n*ecsq + S(p) 1.200000 + 0.1"]),
], ids=["consistent", "eic-above-per-copy-min", "n-eic-above-ib", "ib-above-ecsq-cap"])
def test_chain_report_violation_checks(monkeypatch, ecsq, eic, details):
    stub_chain_solvers(monkeypatch, ecsq, eic, IB_STUB)
    rep = chain_report(cc_state([[0.5, 0], [0, 0.5]]), CFG, ns=(1, 2), tol=0.1)
    assert rep.verdict == ("violation" if details else "consistent")
    assert rep.notes == details + ["stub"]
    assert rep.failures == {}


def test_chain_report_enters_doubled_and_per_copy_values(monkeypatch):
    ib = {1: 1.0, 2: 1.6, 3: 2.2}
    stub_chain_solvers(monkeypatch, 0.05, 0.5, ib, failing=("cemi",))
    rep = chain_report(cc_state([[0.5, 0], [0, 0.5]]), CFG, ns=(1, 2, 3), tol=0.1)
    values = {k: bv.value for k, bv in rep.entries.items()}
    assert values == {"2ecsq": 2 * 0.05, "2esq": 2 * 0.25, "eic": 0.5,
                      "ib_per_copy_n1": 1.0, "ib_per_copy_n2": 1.6 / 2,
                      "ib_per_copy_n3": 2.2 / 3}
    for n, total in ib.items():
        assert rep.entries[f"ib_per_copy_n{n}"].diagnostics["total_bits"] == total
    assert rep.failures == {"2cemi": "stub"}
    # failures, check details, eic's relaxation, missing entries
    assert rep.notes == [
        "cemi failed: stub",
        "est(I_b)_2 1.600000 > 2n*ecsq + S(p) 1.200000 + 0.1",
        "est(I_b)_3 2.200000 > 2n*ecsq + S(p) 1.300000 + 0.1",
        "stub",
        "missing entries: ['2cemi']",
    ]


def test_chain_report_flag_registers_have_fixed_sizes(monkeypatch):
    # however many members ecsq's ensemble has, E is as large as rho and the
    # primed registers are qubits, each with the folded flag warm start
    calls = {}

    def spy(name, real):
        def wrapped(rho, dim, cfg, warm_starts=None):
            calls[name] = (dim, len(warm_starts))
            return real(rho, dim, cfg, warm_starts=warm_starts)
        return wrapped

    monkeypatch.setattr(bqmi.entms, "esq_upper", spy("esq", esq_upper))
    monkeypatch.setattr(bqmi.entms, "cemi_upper", spy("cemi", cemi_upper))
    rep = chain_report(product_mix_state(), CFG)
    assert calls == {"esq": (4, 1), "cemi": (2, 1)}
    assert rep.verdict == "consistent"


@pytest.mark.parametrize("rho", [bell_state(), random_density(4, 4, seed=5)],
                         ids=["bell", "random_4x4_seed5"])
def test_ensemble_objective_gradient_matches_central_differences(rho):
    # Members R_k = w M_k w† as ecsq_upper builds them, with rho = w w†; the
    # last member has zero weight.
    lam, v = np.linalg.eigh(rho.mat)
    keep = lam > 1e-12
    w = v[:, keep] * np.sqrt(lam[keep])
    r = w.shape[1]
    rng = np.random.default_rng(0)

    def stack(k):
        g = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
        return g.conj().swapaxes(1, 2) @ g

    ms = np.concatenate([stack(5), np.zeros((1, r, r))])
    r_k = w @ ms @ w.conj().T
    dims, a_idx, b_idx = rho.layout.dims, (0,), (1,)
    val, grads = _ensemble_objective_terms(r_k, dims, a_idx, b_idx)
    assert grads.shape == r_k.shape
    assert not grads[-1].any()
    # the value is the weighted member MI, sum_k p_k I(rho_k)
    want = 0.0
    for rk in r_k[:-1]:
        p = rk.trace().real
        want += p * mutual_information(DensityOperator(rho.layout, (rk + rk.conj().T) / 2 / p))
    assert abs(val - want) < 1e-9
    h = 1e-6
    for _ in range(4):
        delta = w @ (stack(6) - stack(6)) @ w.conj().T
        delta[-1] = 0.0  # the zero-weight member stays at weight 0
        fd = (_ensemble_objective_terms(r_k + h * delta, dims, a_idx, b_idx)[0]
              - _ensemble_objective_terms(r_k - h * delta, dims, a_idx, b_idx)[0]) / (2 * h)
        analytic = np.einsum("kij,kji->", grads, delta).real
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(analytic))
