import numpy as np
import pytest
import scipy.linalg

from bqmi.qcore import (
    DensityOperator,
    SubsystemLayout,
    ValidationError,
    binary_entropy,
    bipartite_layout,
    eigh_log2,
    expand_mat,
    mutual_information,
    partial_trace_mat,
    partial_transpose_mat,
    permute_factors,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from bqmi.states import bell_state, cc_state, product_mix_state, werner_state


def random_herm(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def transpose_b_side(rho):
    """rho's partial transpose on all factors of the B side."""
    axes = rho.layout.indices(rho.layout.side_labels("B"))
    return partial_transpose_mat(rho.mat, rho.layout.dims, axes)


def random_state_mat(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def test_layout_rejects_duplicates_and_bad_sides():
    with pytest.raises(ValidationError):
        SubsystemLayout((("A", 2), ("A", 2)), {"A": "A"})
    with pytest.raises(ValidationError):
        SubsystemLayout((("A", 2), ("B", 2)), {"A": "A", "B": "C"})


def test_density_operator_validation_messages():
    lay = bipartite_layout(2, 2)
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValidationError, match=r"\(0,1\)"):
        DensityOperator(lay, m)
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator(lay, np.eye(4, dtype=complex))
    neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValidationError, match="PSD"):
        DensityOperator(lay, neg)


def test_partial_trace_against_explicit_sum():
    # Tr_B of a product recovers the A factor exactly.
    a = random_state_mat(2, 1)
    b = random_state_mat(3, 2)
    full = tensor(a, b)
    red = partial_trace_mat(full, (2, 3), (0,))
    assert np.allclose(red, a, atol=1e-13)
    # and against the explicit index-sum oracle on a non-product state.
    m = random_state_mat(6, 3)
    t = m.reshape(2, 3, 2, 3)
    oracle = np.einsum("ijkj->ik", t)
    assert np.allclose(partial_trace_mat(m, (2, 3), (0,)), oracle, atol=1e-14)
    oracle_b = np.einsum("ijil->jl", t)
    assert np.allclose(partial_trace_mat(m, (2, 3), (1,)), oracle_b, atol=1e-14)


def test_expand_mat_is_adjoint_of_partial_trace():
    dims = (2, 3, 2)
    rng = np.random.default_rng(5)
    big = random_herm(12, 6)
    small = random_herm(4, 7)
    keep = (0, 2)
    lhs = np.vdot(small, partial_trace_mat(big, dims, keep))
    rhs = np.vdot(expand_mat(small, dims, keep), big)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
@pytest.mark.parametrize("dims, keep", [((6, 1), (0,)), ((2, 1, 3), (0, 2))])
def test_traced_factors_of_dimension_one_return_a_copy(batch, dims, keep):
    # The general path's einsum and broadcast on a traced block of dimension
    # 1, against the shortcut that skips them.
    rng = np.random.default_rng(11)
    m = rng.standard_normal(batch + (6, 6)) + 1j * rng.standard_normal(batch + (6, 6))
    kept = m.copy()
    traced = partial_trace_mat(m, dims, keep)
    assert np.array_equal(traced, np.einsum("...ijkj->...ik", m.reshape(batch + (6, 1, 6, 1))))
    expanded = expand_mat(m, dims, keep)
    oracle = (m[..., :, None, :, None] * np.eye(1)[:, None, :]).reshape(batch + (6, 6))
    assert np.array_equal(expanded, oracle)
    traced += 1.0
    expanded *= 2.0
    assert np.array_equal(m, kept)


def test_permute_factors_roundtrip():
    dims = (2, 3, 2)
    m = random_herm(12, 9)
    p = permute_factors(m, dims, (2, 0, 1))
    back = permute_factors(p, (2, 2, 3), (1, 2, 0))
    assert np.allclose(back, m, atol=1e-14)


def test_partial_transpose_bell_eigenvalues():
    # (|00>+|11>)/sqrt2 has partial transpose spectrum {1/2, 1/2, 1/2, -1/2}.
    pt = transpose_b_side(bell_state())
    lam = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("p", [0.1, 1 / 3, 0.5, 0.9])
def test_partial_transpose_werner_min_eigenvalue(p):
    # min eigenvalue of the partial transpose is (1 - 3p)/4.
    pt = transpose_b_side(werner_state(p))
    assert abs(np.linalg.eigvalsh(pt)[0] - (1 - 3 * p) / 4) < 1e-12


def test_entropy_closed_forms():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([1.0, 0.0])) - 0.0) < 1e-12
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-12
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert binary_entropy(0.0) == 0.0
    # scalar formula spot check
    x = 0.3
    assert abs(binary_entropy(x) - (-x * np.log2(x) - 0.7 * np.log2(0.7))) < 1e-12


def test_mutual_information_anchors():
    assert abs(mutual_information(bell_state()) - 2.0) < 1e-9
    assert abs(mutual_information(cc_state([[0.5, 0], [0, 0.5]])) - 1.0) < 1e-9
    prod = DensityOperator(bipartite_layout(2, 2),
                           tensor(np.diag([0.3, 0.7]), np.eye(2) / 2))
    assert abs(mutual_information(prod)) < 1e-9


def test_trace_distance_against_sqrtm_oracle():
    # ||X||_1 = Tr sqrt(X† X), computed with scipy's matrix square root.
    a = random_state_mat(4, 11)
    b = random_state_mat(4, 12)
    x = a - b
    oracle = np.trace(scipy.linalg.sqrtm(x.conj().T @ x)).real
    assert abs(trace_distance(a, b) - oracle) < 1e-10


def test_trace_distance_orthogonal_pures():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert abs(trace_distance(a, b) - 2.0) < 1e-12


def test_eigh_log2_matches_scipy():
    mats = []
    for seed in (30, 31):
        m = random_state_mat(4, seed) + 0.1 * np.eye(4)
        mats.append(m / m.trace().real)
    lam, log = eigh_log2(mats[0])
    assert np.allclose(log, scipy.linalg.logm(mats[0]) / np.log(2), atol=1e-9)
    assert np.allclose(lam, np.linalg.eigvalsh(mats[0]), atol=1e-12)
    # a stack is decomposed slice by slice
    lams, logs = eigh_log2(np.array(mats))
    for k, m in enumerate(mats):
        assert np.allclose(logs[k], scipy.linalg.logm(m) / np.log(2), atol=1e-9)
        assert np.allclose(lams[k], np.linalg.eigvalsh(m), atol=1e-12)


def test_partial_trace_requires_known_labels():
    rho = product_mix_state()
    with pytest.raises(ValidationError, match="unknown label"):
        rho.layout.indices(("C",))
