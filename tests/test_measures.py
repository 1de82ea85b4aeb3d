import numpy as np
import pytest

from bqmi.entms import eic_lower
from bqmi.measures import (
    JointDistribution,
    Povm,
    PovmParam,
    _classical_mi_and_grads,
    classical_mi_fixed,
    classical_mi_max,
    default_ic_povm,
    local_statistics,
    measure_statistics,
)
from bqmi.optim import DimensionCapError, OptimizerConfig, finite_diff_check
from bqmi.qcore import (
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    bipartite_layout,
    mutual_information,
    partial_trace_mat,
    permute_factors,
)
from bqmi.states import bell_state, cc_state, random_density, werner_state

CFG = OptimizerConfig(restarts=3, max_iters=150)


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError, match="identity"):
        Povm((eye / 2, eye / 4))
    with pytest.raises(ValidationError, match="PSD"):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    p = Povm((eye / 2, eye / 2))
    assert len(p) == 2 and p.dim == 2


def test_sic_effects_and_gram_rank():
    sic = default_ic_povm(2)
    assert len(sic) == 4
    for e in sic.effects:
        assert abs(np.trace(e).real - 0.5) < 1e-12
        # rank-1 effects
        assert np.linalg.matrix_rank(e, tol=1e-10) == 1
    # Gram matrix of a qubit SIC has full rank 4 (informational completeness)
    assert sic.gram_rank() == 4
    # oracle: overlaps Tr[E_i E_j] = (1 + v_i.v_j)/8, i.e. 1/4 on the
    # diagonal and 1/12 off it (tetrahedron angles v_i.v_j = -1/3)
    g = np.array([[np.vdot(a, b).real for b in sic.effects] for a in sic.effects])
    assert np.allclose(np.diag(g), 1 / 4, atol=1e-12)
    off = g[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1 / 12, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_default_ic_povm_higher_dims(d):
    povm = default_ic_povm(d)
    assert len(povm) == d * d
    assert povm.gram_rank() == d * d


def test_measure_statistics_uniform_on_maximally_mixed():
    rho = DensityOperator(bipartite_layout(2, 2), np.eye(4, dtype=complex) / 4)
    sic = default_ic_povm(2)
    dist = measure_statistics(rho, sic, sic)
    assert np.allclose(dist.p, 1 / 16, atol=1e-12)


def test_measure_statistics_dim_mismatch():
    with pytest.raises(ValidationError, match="dims"):
        measure_statistics(bell_state(), default_ic_povm(3), default_ic_povm(2))


def test_classical_mi_fixed_table_oracle():
    # perfectly correlated bits: 1 bit
    assert abs(classical_mi_fixed(JointDistribution(np.diag([0.5, 0.5]))) - 1.0) < 1e-12
    # independent table: 0 bits
    p = np.outer([0.3, 0.7], [0.6, 0.4])
    assert abs(classical_mi_fixed(JointDistribution(p))) < 1e-12


def test_classical_mi_max_cc_state_reaches_shannon_mi():
    # For a CC state the computational-basis measurement is optimal and the
    # value equals the table's classical MI (here 1 bit).
    bv = classical_mi_max(cc_state([[0.5, 0], [0, 0.5]]), 4, CFG)
    assert bv.direction == "lower"
    assert abs(bv.value - 1.0) < 1e-4


def test_classical_mi_max_bell_matches_projective_oracle():
    # Measuring both Bell halves in the same basis yields exactly 1 bit; the
    # optimizer must reach at least that and stay below the quantum MI.
    proj = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    oracle = classical_mi_fixed(measure_statistics(bell_state(), proj, proj))
    assert abs(oracle - 1.0) < 1e-12
    bv = classical_mi_max(bell_state(), 4, CFG)
    assert oracle - 1e-6 <= bv.value <= 2.0
    assert abs(bv.value - 1.0) < 1e-4


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_classical_mi_max_werner_reaches_projective_value_at_small_budget(p):
    # Measuring both halves of a Werner state in one basis gives bits that
    # agree with probability (1 + p)/2, so I = 1 - h((1 + p)/2), the value the
    # descent must reach.  The budget is the benchmark's ic flags: 2 restarts
    # of 15 iterations per penalty stage.
    q = (1 + p) / 2
    oracle = 1 + q * np.log2(q) + (1 - q) * np.log2(1 - q)
    bv = classical_mi_max(werner_state(p), 4, OptimizerConfig(restarts=2, max_iters=15))
    assert abs(bv.value - oracle) < 1e-6


@pytest.mark.parametrize("k", [1, 2, 4])
def test_classical_mi_max_with_fewer_outcomes_than_the_ic_povm(k):
    # a 2 x 8 state: the 64-effect IC POVM on B is folded down to k effects
    rho = random_density(16, 4, seed=0)
    bv = classical_mi_max(rho, k, OptimizerConfig(restarts=1, max_iters=10))
    assert 0.0 <= bv.value <= mutual_information(rho)
    assert len(bv.diagnostics["povm_b"]) == k


@pytest.mark.parametrize("k", [0, -1])
def test_classical_mi_max_rejects_fewer_than_one_outcome(k):
    with pytest.raises(ValidationError, match=f"outcomes per side is {k}"):
        classical_mi_max(bell_state(), k, CFG)


def test_classical_mi_max_dimension_cap_enforced(monkeypatch):
    # at cap 8 a joint solve has at most 2 * 8² = 128 parameters; two
    # k-outcome POVMs on dA x dB have 2 k (dA² + dB²)
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    with pytest.raises(DimensionCapError, match="256 parameters"):
        classical_mi_max(random_density(16, 16, seed=0, dims=(4, 4)), 4, CFG)
    bv = classical_mi_max(bell_state(), 4, OptimizerConfig(restarts=1, max_iters=5))
    assert bv.residuals["quantum_mi_slack"] >= -1e-9  # 64 parameters still run


def test_povm_param_folds_surplus_effects_into_the_last():
    sic = default_ic_povm(2)
    effs, _ = PovmParam(2, 2).effects(PovmParam(2, 2).init_from_effects(sic.effects))
    assert np.allclose(effs[0], sic.effects[0], atol=1e-9)
    assert np.allclose(effs[1], sum(sic.effects[1:]), atol=1e-9)


@pytest.mark.parametrize("dim,k,ext", [(3, 1, 2), (2, 2, 3)])
def test_povm_param_with_extension_is_complete_and_its_gradient_exact(dim, k, ext):
    # f = sum_i Re Tr[F_i E_i] + Tr[E_i²], so that dF/dE_i = F_i + 2 E_i
    par = PovmParam(dim, k, ext)
    rng = np.random.default_rng(dim * 10 + k)
    h = rng.standard_normal((2, k, dim * ext, dim * ext))
    f_effs = h[0] + 1j * h[1]
    f_effs = f_effs + f_effs.conj().swapaxes(-1, -2)

    def fun(x):
        effs, cache = par.effects(x)
        val = (np.einsum("kij,kji->", f_effs, effs) + np.einsum("kij,kji->", effs, effs)).real
        return val, par.grad_x(f_effs + 2 * effs, cache)

    for _ in range(3):
        x = rng.standard_normal(par.n_params)
        effs, _ = par.effects(x)
        total = partial_trace_mat(effs.sum(0), (dim, ext), (0,))
        assert np.abs(total - np.eye(dim)).max() < 1e-12
        assert min(np.linalg.eigvalsh(e)[0] for e in effs) >= -1e-12
        assert finite_diff_check(fun, x) < 1e-7


def test_classical_mi_max_product_state_is_zero():
    prod = DensityOperator(bipartite_layout(2, 2),
                           np.kron(np.diag([0.3, 0.7]), np.eye(2) / 2).astype(complex))
    bv = classical_mi_max(prod, 4, CFG)
    assert bv.value < 1e-8


def _classical_mi_objective(rho, k=4):
    """I(p_ij) over the POVM parameters, with the analytic gradient that
    classical_mi_max descends on."""
    pa, pb = PovmParam(2, k), PovmParam(2, k)

    def fun(x):
        ea, ca = pa.effects(x[:pa.n_params])
        eb, cb = pb.effects(x[pa.n_params:])
        val, ga, gb = _classical_mi_and_grads(rho.mat, ea, eb)
        return val, np.concatenate([pa.grad_x(ga, ca), pb.grad_x(gb, cb)])

    return fun, pa.n_params + pb.n_params


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2)])
def test_classical_mi_terms_match_per_effect_kron_loop(da, db):
    # reference: Tr_B[(I x N_j) rho] and Tr_A[(M_i x I) rho] built effect by
    # effect with np.kron, then the same I(p_ij) and effect gradients
    rho = random_density(da * db, da * db, seed=4, dims=(da, db)).mat
    rng = np.random.default_rng(1)
    ea, _ = PovmParam(da, 3).effects(rng.standard_normal(PovmParam(da, 3).n_params))
    eb, _ = PovmParam(db, 4).effects(rng.standard_normal(PovmParam(db, 4).n_params))
    rt_b = np.array([partial_trace_mat(np.kron(np.eye(da), n) @ rho, (da, db), (0,)) for n in eb])
    rt_a = np.array([partial_trace_mat(np.kron(m, np.eye(db)) @ rho, (da, db), (1,)) for m in ea])
    p = np.clip(np.einsum("iab,jba->ij", ea, rt_b).real, 1e-15, None)
    log_ratio = np.log2(p) - np.log2(p.sum(1))[:, None] - np.log2(p.sum(0))[None, :]
    val, grad_a, grad_b = _classical_mi_and_grads(rho, ea, eb)
    assert abs(val - (p * log_ratio).sum()) < 1e-12
    assert np.abs(grad_a - np.einsum("ij,jab->iab", log_ratio, rt_b)).max() < 1e-12
    assert np.abs(grad_b - np.einsum("ij,iab->jab", log_ratio, rt_a)).max() < 1e-12
    # the shared statistics on a random Hermitian X, and measure_statistics
    # on rho, against Tr[(M_i x N_j) X] effect by effect
    g = rng.standard_normal((2, da * db, da * db))
    x = g[0] + 1j * g[1]
    x = x + x.conj().T
    p_x, rt_x = local_statistics(x, ea, eb)
    assert np.abs(p_x - np.array([[np.trace(np.kron(mi, nj) @ x).real for nj in eb]
                                  for mi in ea])).max() < 1e-12
    assert np.abs(rt_x - np.array([partial_trace_mat(np.kron(np.eye(da), nj) @ x, (da, db), (0,))
                                   for nj in eb])).max() < 1e-12
    kron_p = np.array([[np.trace(np.kron(mi, nj) @ rho).real for nj in eb] for mi in ea])
    state = DensityOperator(bipartite_layout(da, db), rho)
    stats = measure_statistics(state, Povm(tuple(ea)), Povm(tuple(eb)))
    assert np.abs(stats.p - kron_p).max() < 1e-12


def test_classical_mi_max_uses_analytic_gradient():
    rng = np.random.default_rng(0)
    for rho in (bell_state(), random_density(4, 4, seed=5)):
        fun, n = _classical_mi_objective(rho)
        for _ in range(3):
            assert finite_diff_check(fun, rng.standard_normal(n), max_coords=64) < 1e-6
    # On a product state I(p_ij) vanishes for every POVM, so the gradient is
    # ~0 and a relative error is meaningless: compare absolute errors.
    prod = DensityOperator(bipartite_layout(2, 2),
                           np.kron(np.diag([0.3, 0.7]), np.eye(2) / 2).astype(complex))
    fun, n = _classical_mi_objective(prod)
    x = rng.standard_normal(n)
    _, g = fun(x)
    h = 1e-5
    fd = np.array([(fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h) for e in np.eye(n)])
    assert np.abs(fd - g).max() < 1e-8
    # reported POVMs are valid (Povm construction re-validates)
    bv = classical_mi_max(bell_state(), 4, CFG)
    assert len(bv.diagnostics["povm_a"]) == 4


def test_side_order_of_the_layout_does_not_change_statistics():
    # B listed before A: the effects must still act on the A and B factors
    rho = random_density(4, 4, seed=3)
    swapped = DensityOperator(SubsystemLayout((("B", 2), ("A", 2)), {"A": "A", "B": "B"}),
                              permute_factors(rho.mat, (2, 2), (1, 0)))
    z = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    x = Povm(tuple(np.array([[1, s], [s, 1]]) / 2 for s in (1, -1)))
    for m, n in ((z, x), (default_ic_povm(2), default_ic_povm(2))):
        assert np.abs(measure_statistics(rho, m, n).p
                      - measure_statistics(swapped, m, n).p).max() < 1e-12


def test_interleaved_layout_agrees_with_its_a_first_permutation():
    # factors A, B, A' interleave the sides; A, A', B lists A's first
    rho = random_density(8, 1, seed=0, dims=(4, 2))
    sides = {"A": "A", "B": "B", "A'": "A"}
    a_first = DensityOperator(SubsystemLayout((("A", 2), ("A'", 2), ("B", 2)), sides), rho.mat)
    inter = DensityOperator(SubsystemLayout((("A", 2), ("B", 2), ("A'", 2)), sides),
                            permute_factors(rho.mat, (2, 2, 2), (0, 2, 1)))
    cfg = OptimizerConfig(restarts=1, max_iters=20)
    m, n = default_ic_povm(4), default_ic_povm(2)
    # 4 x 3 = 12 steps keep this quick; the KL objective they reach is already > 0
    eic_cfg = OptimizerConfig(restarts=1, max_iters=3)
    e1, e2 = eic_lower(a_first, m, n, eic_cfg), eic_lower(inter, m, n, eic_cfg)
    f1, f2 = e1.diagnostics["objective"], e2.diagnostics["objective"]
    assert f1 > 1e-3 and abs(f1 - f2) < 1e-12 and e1.value == e2.value
    c1, c2 = classical_mi_max(a_first, 4, cfg), classical_mi_max(inter, 4, cfg)
    assert c1.value > 1e-3 and abs(c1.value - c2.value) < 1e-12
