import dataclasses

import numpy as np
import pytest

from bqmi import optim
from bqmi.broadcast import (
    apply_local_channels,
    broadcast_mi_upper,
    definetti_upper,
    depolarizing_kraus,
    growth_curve,
    sweep_warm_starts,
)
from bqmi.entms import cemi_upper, ecsq_upper, esq_upper
from bqmi.optim import DimensionCapError, OptimizerConfig, dim_cap
from bqmi.qcore import (
    DensityOperator,
    mutual_information,
    partial_trace_mat,
    support,
    trace_distance,
)
from bqmi.states import (
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


def test_depolarizing_kraus_is_trace_preserving():
    kraus = depolarizing_kraus(0.3)
    total = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    # full strength sends everything to the maximally mixed state
    rho = bell_state()
    out = apply_local_channels(rho, {"A": depolarizing_kraus(1.0),
                                     "B": depolarizing_kraus(1.0)})
    assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-12)


def test_broadcast_n1_returns_base_mi():
    rho = random_density(4, 3, seed=2)
    bv = broadcast_mi_upper(rho, 1, CFG)
    assert abs(bv.value - mutual_information(rho)) < 1e-9
    assert bv.direction == "upper"


def test_broadcast_marginals_within_tolerance():
    rho = product_mix_state()
    bv = broadcast_mi_upper(rho, 2, CFG)
    joint = bv.diagnostics["broadcast_state"].joint
    for k in (1, 2):
        idx = joint.layout.indices((f"A{k}", f"B{k}"))
        red = partial_trace_mat(joint.mat, joint.layout.dims, idx)
        assert np.linalg.norm(red - rho.mat) < 1e-7


def test_broadcast_never_exceeds_factorized_warm_start():
    rho = random_density(4, 4, seed=6)
    bv = broadcast_mi_upper(rho, 2, CFG)
    assert bv.value <= 2 * mutual_information(rho) + 1e-6


def test_descent_runs_in_the_targets_support(monkeypatch):
    # a rank-2 rho at n=2 has 2 x 2 feasible dimensions out of 16
    seen = []

    class Spy(optim.DensityParam):
        def __init__(self, dim, *args, **kw):
            seen.append(dim)
            super().__init__(dim, *args, **kw)

    monkeypatch.setattr(optim, "DensityParam", Spy)
    cfg = OptimizerConfig(restarts=1, max_iters=5)
    broadcast_mi_upper(random_density(4, 2, seed=1), 2, cfg)
    broadcast_mi_upper(random_density(4, 4, seed=1), 2, cfg)
    assert seen == [4, 16]


def test_full_rank_solve_runs_through_the_block_isometry(monkeypatch):
    # a full-rank target's support basis is its eigenbasis: the solve takes
    # the same block-isometry path as a rank-deficient one
    built = []

    class Spy(optim.BlockIsometry):
        def __init__(self, block_dims, bases):
            built.append(bases)
            super().__init__(block_dims, bases)

    monkeypatch.setattr(optim, "BlockIsometry", Spy)
    rho = random_density(4, 4, seed=1)
    broadcast_mi_upper(rho, 2, OptimizerConfig(restarts=1, max_iters=5))
    assert [[np.shape(b) for b in bases] for bases in built] == [[(4, 4), (4, 4)]]
    for v in built[0]:
        compressed = v.conj().T @ rho.mat @ v
        assert np.abs(compressed - np.diag(np.diag(compressed))).max() < 1e-12


def near_cutoff_state(eps):
    """random_density(4, 3, seed=2) with eps of its null vector mixed in: a
    valid rank-4 state whose least eigenvalue, eps, is above TRACE_TOL, so a
    solve that dropped it would build joints of trace 1 - eps."""
    rho = random_density(4, 3, seed=2)
    null = np.linalg.eigh(rho.mat)[1][:, 0]
    return DensityOperator(rho.layout, (rho.mat + eps * np.outer(null, null.conj())) / (1 + eps))


@pytest.mark.parametrize("eps", [2e-10, 5e-10])
def test_rho_anchored_solves_keep_a_near_cutoff_eigenvalue(eps):
    rho = near_cutoff_state(eps)
    cfg = OptimizerConfig(restarts=1, max_iters=10)
    bv = broadcast_mi_upper(rho, 2, cfg)
    assert bv.residuals["marginal_max"] < 1e-8
    assert 0.0 <= bv.value <= 2 * mutual_information(rho) + 1e-6
    for solve in (esq_upper, cemi_upper):
        bv = solve(rho, 2, cfg)
        assert bv.residuals["ab_marginal"] < 1e-10
        assert 0.0 <= bv.value <= 0.5 * mutual_information(rho) + 1e-6


def test_rho_anchored_solves_agree_on_the_rank(monkeypatch):
    # one support decision: the spectral ensemble's members, ecsq's default
    # ensemble size rank² and the broadcast's descent dimension rank² at n=2
    rho = near_cutoff_state(2e-10)
    seen = []

    class Spy(optim.DensityParam):
        def __init__(self, dim, *args, **kw):
            seen.append(dim)
            super().__init__(dim, *args, **kw)

    monkeypatch.setattr(optim, "DensityParam", Spy)
    cfg = OptimizerConfig(restarts=1, max_iters=5)
    broadcast_mi_upper(rho, 2, cfg)
    assert len(spectral_ensemble(rho).members) == 4
    assert ecsq_upper(rho, None, cfg).method == "purification-povm-ensemble(K=16)"
    assert seen == [16]


def local_rotation(rho, seed):
    """(U_A (x) U_B) rho (U_A (x) U_B)^dagger with Haar-random U_A, U_B."""
    rng = np.random.default_rng(seed)
    u = np.ones((1, 1))
    for _, d in rho.layout.factors:
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    m = u @ rho.mat @ u.conj().T
    return DensityOperator(rho.layout, (m + m.conj().T) / 2)


def test_broadcast_upper_is_covariant_under_local_rotations():
    # Every restart starts from a candidate, and a local unitary only
    # rotates rho's eigenbasis, so the compressed solve is the same problem
    # from the same starts.  The de Finetti candidate has rank 4 of 16; a
    # factor that kept its null eigenvalues clipped to 0 could not leave
    # that rank, and where it stopped depended on the basis.
    rho = random_density(4, 4, seed=200)
    cfg = OptimizerConfig(restarts=2, max_iters=15)
    values = [broadcast_mi_upper(r, 2, cfg).value
              for r in (rho, local_rotation(rho, 1), local_rotation(rho, 2))]
    assert max(values) - min(values) < 1e-8


def test_sweep_solve_seeds_one_restart_per_distinct_candidate(monkeypatch):
    # growth_curve's n = 3 solve of werner 0.5 at curve's flags: the n = 2
    # optimum is the product, so prev (x) rho repeats the product candidate
    # of slot 0.  Its slot is dropped, so every stack has at most two rows,
    # and the value is that of the run that seeds the repeat as well.
    rho = werner_state(0.5)
    cfg = OptimizerConfig(restarts=3, max_iters=80)
    ensemble = ecsq_upper(rho, None, cfg).diagnostics["ensemble"]
    prev = broadcast_mi_upper(rho, 2, cfg).diagnostics["broadcast_state"]
    _, basis = support(rho.mat)
    w = optim.BlockIsometry([rho.layout.dims] * 3, [basis] * 3)
    repeat = optim.DensityParam(64).init_from_matrix(w.compress(np.kron(prev.joint.mat, rho.mat)))
    real, rows = optim.minimize_penalized, []

    def counted(objective, constraints, param_dim, cfg, inits):
        def spy(x):
            rows.append(len(x))
            return objective(x)
        return real(spy, constraints, param_dim, cfg, inits=inits)

    def with_repeat(objective, constraints, param_dim, cfg, inits):
        assert (cfg.restarts, len(inits)) == (2, 2)
        return real(objective, constraints, param_dim, dataclasses.replace(cfg, restarts=3),
                    inits=inits + [repeat])

    values = []
    for solve in (counted, with_repeat):
        monkeypatch.setattr(optim, "minimize_penalized", solve)
        values.append(broadcast_mi_upper(rho, 3, cfg, warm_starts=sweep_warm_starts(
            rho, 3, prev, ensemble)).value)
    assert rows and max(rows) <= 2
    assert abs(values[0] - values[1]) <= 1e-12


def test_definetti_upper_never_exceeds_cap():
    ens = canonical_ensembles(StateSpec("product-mix"))
    rho = ens.average()
    for n in (2, 3):
        mi, cap = definetti_upper(rho, ens, n)
        assert mi <= cap + 1e-9
        # cap = n * 0 + S(1/2,1/2) = 1 for this product ensemble
        assert abs(cap - 1.0) < 1e-12


def test_growth_curve_classifications():
    gc = growth_curve(cc_state([[0.5, 0], [0, 0.5]]), 2, CFG)
    assert gc.classification == "constant"
    gc = growth_curve(bell_state(), 2, CFG)
    assert gc.classification == "linear-certified"
    assert gc.certificate > 1e-4
    ens = canonical_ensembles(StateSpec("product-mix"))
    gc = growth_curve(product_mix_state(), 2, CFG, ensemble=ens)
    assert gc.classification == "bounded"


def test_growth_curve_csv_schema(tmp_path):
    gc = growth_curve(cc_state([[0.5, 0], [0, 0.5]]), 2, CFG)
    path = tmp_path / "c.csv"
    gc.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,upper_bits,lower_bits,residual_max,classification"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "constant"


def test_dimension_cap_enforced(monkeypatch):
    monkeypatch.setenv("BQ_MAX_DIM", "8")
    assert dim_cap() == 8
    with pytest.raises(DimensionCapError, match="cap"):
        broadcast_mi_upper(bell_state(), 2, CFG)


def test_sweep_warm_starts_leave_out_the_product_at_two_copies():
    # prev (x) rho at n = 2 is rho (x) rho, the product candidate that every
    # broadcast solve already seeds first
    rho = random_density(4, 4, seed=0)
    prev = broadcast_mi_upper(rho, 1, CFG).diagnostics["broadcast_state"]
    assert list(sweep_warm_starts(rho, 2, prev, None)) == []


def test_broadcast_accepts_user_warm_start():
    rho = bell_state()
    warm = np.kron(rho.mat, rho.mat)
    bv = broadcast_mi_upper(rho, 2, CFG, warm_starts=[warm])
    assert abs(bv.value - 4.0) < 1e-3
    joint = bv.diagnostics["broadcast_state"].joint
    assert trace_distance(joint.mat, warm) < 1e-6
