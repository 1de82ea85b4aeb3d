"""Property-based tests (hypothesis) of the qcore tensor helpers, of the
stacked kernels the solvers evaluate their restarts with (the entropy sum
among them), of the block isometry the constrained-state solvers compress
with, of the bounds of the mutual information, and of the broadcast and
extension solvers, on small random layouts and states."""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bqmi.entms import _ensemble_objective_terms, cemi_upper, esq_upper
from bqmi.measures import PovmParam, _classical_mi_and_grads, local_statistics
from bqmi.optim import (
    BlockIsometry,
    DensityParam,
    MarginalSet,
    TOL_RESIDUAL,
    OptimizerConfig,
    entropy_combo,
    solve_marginal_problem,
)
from bqmi.qcore import (
    ENTROPY_CLAMP,
    DensityOperator,
    SubsystemLayout,
    expand_mat,
    mutual_information,
    partial_trace_mat,
    partial_transpose_mat,
    permute_factors,
    shannon_entropy,
)
from bqmi.states import random_density

FAST = settings(max_examples=10, deadline=None)
CFG = OptimizerConfig(restarts=1, max_iters=20)


def random_mat(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@st.composite
def layouts(draw):
    """(dims, keep_idx, seed) with 3-5 factors of dim 1-3."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=5)))
    order = draw(st.permutations(range(len(dims))))
    keep = order[:draw(st.integers(1, len(dims)))]
    return dims, tuple(sorted(keep)), draw(st.integers(0, 2 ** 32 - 1))


def random_stack(batch, d, rng):
    return rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))


def random_isometry(d, c, rng):
    """A d x c matrix with orthonormal columns."""
    q, _ = np.linalg.qr(random_mat(d, rng))
    return q[:, :c]


@FAST
@given(layouts(), st.sampled_from([(1,), (3,), (2, 2)]))
def test_partial_trace_and_expand_are_adjoint(layout, batch):
    dims, keep, seed = layout
    rng = np.random.default_rng(seed)
    dk = int(np.prod([dims[i] for i in keep]))
    x = random_mat(dk, rng)
    y = random_mat(int(np.prod(dims)), rng)
    # <X, Tr_rest Y> = <X (x) I, Y> in the Hilbert-Schmidt inner product
    lhs = np.vdot(x, partial_trace_mat(y, dims, keep))
    rhs = np.vdot(expand_mat(x, dims, keep), y)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    # on a stack, slice k of the batched call is the call on slice k
    xs = random_stack(batch, dk, rng)
    ys = random_stack(batch, int(np.prod(dims)), rng)
    traced = partial_trace_mat(ys, dims, keep)
    expanded = expand_mat(xs, dims, keep)
    assert traced.shape == xs.shape and expanded.shape == ys.shape
    for k in np.ndindex(batch):
        assert np.allclose(traced[k], partial_trace_mat(ys[k], dims, keep), atol=1e-12)
        assert np.array_equal(expanded[k], expand_mat(xs[k], dims, keep))


def assert_slices_match(stacked, single, batch):
    """Slice k of every output of a stacked call equals, bit for bit, the
    output of single(k), the call on slice k of the inputs."""
    for k in np.ndindex(batch):
        for got, want in zip(stacked, single(k)):
            assert np.array_equal(np.asarray(got)[k], want)


BATCHES = st.sampled_from([(1,), (3,), (2, 2)])


@FAST
@given(layouts(), BATCHES)
def test_stacked_state_kernels_match_single_calls(layout, batch):
    dims, keep, seed = layout
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    par = DensityParam(d)
    xs = rng.standard_normal(batch + (par.n_params,))
    sig, cache = par.sigma(xs)
    assert_slices_match([sig], lambda k: [par.sigma(xs[k])[0]], batch)
    fs = random_stack(batch, d, rng)
    assert_slices_match([par.grad_x(fs, sig, cache)],
                        lambda k: [par.grad_x(fs[k], *par.sigma(xs[k]))], batch)

    assert_slices_match([partial_transpose_mat(sig, dims, keep)],
                        lambda k: [partial_transpose_mat(sig[k], dims, keep)], batch)

    terms = [(1.0, keep), (-0.5, None)]
    assert_slices_match(entropy_combo(sig, dims, terms),
                        lambda k: entropy_combo(sig[k], dims, terms), batch)
    # a state on a product of per-block subspaces, each of one dimension
    # less than its block (or 1), embedded by the block isometry w
    cut = sorted(rng.choice(np.arange(1, len(dims)), size=rng.integers(0, len(dims)),
                            replace=False).tolist())
    block_dims = [dims[i:j] for i, j in zip([0] + cut, cut + [len(dims)])]
    w = BlockIsometry(block_dims, [random_isometry(math.prod(b), max(1, math.prod(b) - 1), rng)
                                   for b in block_dims])
    dc = math.prod(w.cdims)
    sig_c, _ = DensityParam(dc).sigma(rng.standard_normal(batch + (2 * dc * dc,)))
    assert_slices_match(entropy_combo(sig_c, dims, terms, w),
                        lambda k: entropy_combo(sig_c[k], dims, terms, w), batch)

    # the marginals of one state on keep, on the other factors (the trace
    # when keep holds them all) and its trace: one set, and one per target
    rho = random_density(d, d, seed=seed % 1000).mat
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    targets = [(g, partial_trace_mat(rho, dims, g)) for g in (keep, rest, ())]
    mset = MarginalSet(dims, targets)
    assert_slices_match(mset.penalty(sig), lambda k: mset.penalty(sig[k]), batch)
    singles = [MarginalSet(dims, [t]).penalty(sig) for t in targets]
    for got, want in zip(mset.penalty(sig), map(sum, zip(*singles))):
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@FAST
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.floats(0.5, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_marginal_set_projection_is_least_squares(dims, trace, seed):
    # One target per single-factor block, all of the same trace: the set's
    # projection is X - L^+ (L X - t), L stacking the partial traces.
    rng = np.random.default_rng(seed)
    targets = [((k,), trace * random_density(dk, dk, seed=seed % 1000 + k).mat)
               for k, dk in enumerate(dims)]
    mset = MarginalSet(dims, targets)
    d = math.prod(dims)
    basis = np.eye(d * d).reshape(d * d, d, d)
    lmat = np.concatenate([partial_trace_mat(basis, dims, keep).reshape(d * d, -1).T
                           for keep, _ in targets])
    t = np.concatenate([tg.ravel() for _, tg in targets])
    x = random_mat(d, rng)
    want = x.ravel() - np.linalg.pinv(lmat) @ (lmat @ x.ravel() - t)
    got = mset.project(x)
    assert np.abs(got.ravel() - want).max() < 1e-10
    assert np.abs(mset.project(got) - got).max() < 1e-12
    assert mset.residual(got) < 1e-12


@st.composite
def block_isometries(draw):
    """(block dims, bases, seed): 1-3 blocks of 1-3 factors of dim 1-3, each
    basis an isometry of rank 1 to full or, for a free block, the identity.
    The whole space has dim at most 64, so that its dense W stays small."""
    blocks = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                           min_size=1, max_size=3)
                  .filter(lambda bs: math.prod(d for b in bs for d in b) <= 64))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    bases = []
    for b in blocks:
        bd = math.prod(b)
        if draw(st.booleans()):
            bases.append(np.eye(bd))
        else:
            bases.append(random_isometry(bd, draw(st.integers(1, bd)), rng))
    return [tuple(b) for b in blocks], bases, seed


@FAST
@given(block_isometries(), BATCHES, st.data())
def test_block_isometry_matches_dense_kron(iso, batch, data):
    block_dims, bases, seed = iso
    rng = np.random.default_rng(seed)
    w = BlockIsometry(block_dims, bases)
    dense = functools.reduce(np.kron, bases)
    dims = w.dims
    keep = tuple(sorted(data.draw(st.lists(st.sampled_from(range(len(dims))), min_size=1,
                                           unique=True))))
    dk = math.prod(dims[i] for i in keep)
    sig = random_stack(batch, math.prod(w.cdims), rng)
    lmat = random_stack(batch, dk, rng)
    big = random_stack(batch, dense.shape[0], rng)
    embedded = dense @ sig @ dense.conj().T
    got = [w.marginal(sig, keep), w.pull_back(lmat, keep), w.embed(sig), w.compress(big)]
    want = [partial_trace_mat(embedded, dims, keep),
            dense.conj().T @ expand_mat(lmat, dims, keep) @ dense,
            embedded,
            dense.conj().T @ big @ dense]
    for g, v in zip(got, want):
        assert g.shape == v.shape
        assert np.abs(g - v).max() <= 1e-12
    assert_slices_match(got, lambda k: [w.marginal(sig[k], keep), w.pull_back(lmat[k], keep),
                                        w.embed(sig[k]), w.compress(big[k])], batch)


@FAST
@given(st.integers(1, 16), BATCHES, st.integers(0, 2 ** 32 - 1))
def test_stacked_entropy_with_clamped_entries_matches_single_calls(n, batch, seed):
    # spectra with entries at or below ENTROPY_CLAMP: zeros, the clamp
    # itself, and tiny or slightly negative eigenvalues
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=batch)
    clamped = rng.random(p.shape) < 0.4
    p[clamped] = rng.choice([0.0, ENTROPY_CLAMP, 1e-15, -1e-17], size=clamped.sum())
    s = shannon_entropy(p)
    assert_slices_match([s], lambda k: [shannon_entropy(p[k])], batch)
    for k in np.ndindex(batch):
        kept = p[k][p[k] > ENTROPY_CLAMP]
        want = -(kept * np.log2(kept)).sum()
        # the clamped entries add exact zeros, which regroup numpy's pairwise
        # sum: the two differ by a few units in the last place of an entropy
        # of at most log2(16) = 4 bits
        assert abs(s[k] - want) <= 1e-15 * max(1.0, want)


@st.composite
def bipartite_layouts(draw):
    """A SubsystemLayout of 2-4 factors of dim 1-3, each side non-empty."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    sides = draw(st.lists(st.sampled_from("AB"), min_size=len(dims), max_size=len(dims))
                 .filter(lambda s: "A" in s and "B" in s))
    labels = [f"F{i}" for i in range(len(dims))]
    return SubsystemLayout(tuple(zip(labels, dims)), dict(zip(labels, sides)))


@FAST
@given(bipartite_layouts(), st.integers(0, 2 ** 32 - 1), st.data())
def test_mutual_information_within_its_bounds(layout, seed, data):
    d = layout.dim
    rho = random_density(d, data.draw(st.integers(1, d)), seed=seed)
    mi = mutual_information(DensityOperator(layout, rho.mat))
    da, db = layout.side_dims()
    assert -1e-9 <= mi <= 2 * math.log2(min(da, db)) + 1e-9


@FAST
@given(st.integers(2, 3), st.integers(2, 3), st.integers(2, 4), st.integers(1, 3), BATCHES,
       st.integers(0, 2 ** 32 - 1))
def test_stacked_measurement_kernels_match_single_calls(da, db, k_out, ext, batch, seed):
    rng = np.random.default_rng(seed)
    pa, pb = PovmParam(da, k_out, ext), PovmParam(db, k_out)
    xa = rng.standard_normal(batch + (pa.n_params,))
    xb = rng.standard_normal(batch + (pb.n_params,))
    ea, ca = pa.effects(xa)
    eb, _ = pb.effects(xb)
    assert_slices_match([ea], lambda k: [pa.effects(xa[k])[0]], batch)
    fa = random_stack(batch + (k_out,), da * ext, rng)
    assert_slices_match([pa.grad_x(fa, ca)],
                        lambda k: [pa.grad_x(fa[k], pa.effects(xa[k])[1])], batch)
    ea = partial_trace_mat(ea, (da, ext), (0,))  # a POVM on A

    rho = random_density(da * db, da * db, seed=seed % 1000, dims=(da, db)).mat
    assert_slices_match(_classical_mi_and_grads(rho, ea, eb),
                        lambda k: _classical_mi_and_grads(rho, ea[k], eb[k]), batch)
    # a stack of operators X against one pair of effect sets
    xs = random_stack(batch, da * db, rng)
    ea0, eb0 = ea[(0,) * len(batch)], eb[(0,) * len(batch)]
    assert_slices_match(local_statistics(xs, ea0, eb0),
                        lambda k: local_statistics(xs[k], ea0, eb0), batch)

    # ensembles of rank-2 members plus one member of zero weight
    g = random_stack(batch + (k_out,), da * db, rng)[..., :2, :]
    r_k = g.conj().swapaxes(-1, -2) @ g
    r_k[..., -1, :, :] = 0.0
    assert_slices_match(_ensemble_objective_terms(r_k, (da, db), (0,), (1,)),
                        lambda k: _ensemble_objective_terms(r_k[k], (da, db), (0,), (1,)),
                        batch)


@FAST
@given(layouts(), st.randoms(use_true_random=False))
def test_permute_factors_roundtrips(layout, shuffler):
    dims, _, seed = layout
    perm = list(range(len(dims)))
    shuffler.shuffle(perm)
    m = random_mat(int(np.prod(dims)), np.random.default_rng(seed))
    moved = permute_factors(m, dims, perm)
    back = permute_factors(moved, tuple(dims[i] for i in perm), np.argsort(perm))
    assert np.array_equal(back, m)


def check_solution(dims, target, n, terms):
    sol = solve_marginal_problem(dims, target, n, terms, CFG, ())
    x = sol.joint
    assert np.abs(x - x.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(x)[0] >= -1e-9
    assert abs(x.trace() - 1.0) < 1e-9
    m = len(dims)
    for k in range(n):
        marginal = partial_trace_mat(x, dims * n, tuple(range(k * m, (k + 1) * m)))
        assert np.linalg.norm(marginal - target) <= TOL_RESIDUAL
    # supported in the n-fold product of the target's support
    lam, v = np.linalg.eigh(target)
    v = v[:, lam > 1e-9]
    p = functools.reduce(np.kron, [v @ v.conj().T] * n)
    assert np.linalg.norm(x - p @ x @ p) <= 1e-9
    product, _ = entropy_combo(functools.reduce(np.kron, [target] * n), dims * n, terms)
    assert sol.value <= product + 1e-9


@FAST
@given(st.sampled_from([1, 2, 4]), st.integers(0, 10 ** 6))
def test_broadcast_solve_is_feasible_and_beats_product(rank, seed):
    rho = random_density(4, rank, seed=seed)
    # I(A1A2 : B1B2) over two copies with both copy marginals fixed to rho
    terms = [(1.0, (0, 2)), (1.0, (1, 3)), (-1.0, None)]
    check_solution((2, 2), rho.mat, 2, terms)


@FAST
@given(st.sampled_from([esq_upper, cemi_upper]), st.sampled_from([1, 2]),
       st.sampled_from([1, 2, 4]), st.integers(0, 10 ** 6))
def test_extension_solve_extends_rho_and_beats_product(solver, dim, rank, seed):
    rho = random_density(4, rank, seed=seed)
    bv = solver(rho, dim, CFG)
    assert bv.residuals["ab_marginal"] <= 1e-10
    ext = bv.diagnostics["extension"]
    # supported in supp(rho) (x) E
    lam, v = np.linalg.eigh(rho.mat)
    v = v[:, lam > 1e-9]
    p = np.kron(v @ v.conj().T, np.eye(ext.dim // 4))
    assert np.linalg.norm(ext.mat - p @ ext.mat @ p) <= 1e-9
    # rho (x) I/dim E is a start, and there both bounds are I(rho)/2
    assert bv.value <= 0.5 * mutual_information(rho) + 1e-9
