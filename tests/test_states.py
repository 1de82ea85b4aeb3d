import numpy as np
import pytest

from bqmi.qcore import (
    ValidationError,
    mutual_information,
    partial_trace_mat,
    trace_distance,
)
from bqmi.states import (
    Ensemble,
    StateSpec,
    bell_state,
    broadcast_layout,
    canonical_ensembles,
    cc_state,
    definetti_broadcast,
    isotropic_state,
    load_state,
    make_state,
    product_mix_state,
    random_density,
    save_state,
    spectral_ensemble,
    werner_state,
)


def test_bell_is_pure_and_maximally_correlated():
    rho = bell_state()
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12
    ra = partial_trace_mat(rho.mat, rho.layout.dims, rho.layout.indices(("A",)))
    assert np.allclose(ra, np.eye(2) / 2, atol=1e-12)


def test_cc_state_is_diagonal_with_given_table():
    table = [[0.1, 0.2], [0.3, 0.4]]
    rho = cc_state(table)
    assert np.allclose(rho.mat, np.diag([0.1, 0.2, 0.3, 0.4]), atol=1e-14)
    with pytest.raises(ValidationError):
        cc_state([[0.6, 0.6]])


def test_product_mix_marginal_and_weight_bounds():
    rho = product_mix_state(0.5)
    assert abs(rho.mat.trace().real - 1.0) < 1e-12
    # <11| rho |11> = (1-w)/4 for the |++> component
    assert abs(rho.mat[3, 3].real - 0.125) < 1e-12
    with pytest.raises(ValidationError):
        product_mix_state(1.2)


def test_werner_isotropic_parameters():
    assert abs(np.trace(werner_state(0.7).mat).real - 1.0) < 1e-12
    # p=0 is maximally mixed for both families
    assert np.allclose(werner_state(0.0).mat, np.eye(4) / 4)
    assert np.allclose(isotropic_state(0.0).mat, np.eye(4) / 4)
    with pytest.raises(ValidationError):
        werner_state(-0.1)


def test_random_density_rank_and_determinism():
    a = random_density(4, 2, seed=5)
    b = random_density(4, 2, seed=5)
    assert np.allclose(a.mat, b.mat)
    lam = np.linalg.eigvalsh(a.mat)
    assert (lam > 1e-10).sum() == 2


def test_ensemble_validation_and_average():
    rho = product_mix_state()
    ens = canonical_ensembles(StateSpec("product-mix"))
    assert trace_distance(ens.average(), rho) < 1e-12
    with pytest.raises(ValidationError, match="sum"):
        Ensemble(((0.5, rho),))


def test_canonical_ensembles_members_are_product():
    ens = canonical_ensembles(StateSpec("cc", {"probs": [[0.2, 0.3], [0.1, 0.4]]}))
    for p, m in ens.members:
        assert abs(mutual_information(m)) < 1e-12
    with pytest.raises(ValidationError):
        canonical_ensembles(StateSpec("bell"))


def test_spectral_ensemble_reconstructs():
    rho = random_density(4, 3, seed=9)
    ens = spectral_ensemble(rho)
    assert len(ens.members) == 3
    assert trace_distance(ens.average(), rho) < 1e-10


def test_definetti_broadcast_marginals_direct():
    # Every copy marginal of sum_k p_k rho_k x rho_k equals the average,
    # checked against a direct 16x16 partial-trace computation.
    ens = canonical_ensembles(StateSpec("product-mix"))
    rho = ens.average()
    joint = definetti_broadcast(ens, 2)
    assert joint.dim == 16
    direct = sum(p * np.kron(m.mat, m.mat) for p, m in ens.members)
    assert np.allclose(joint.mat, direct, atol=1e-14)
    for k in (1, 2):
        idx = joint.layout.indices((f"A{k}", f"B{k}"))
        red = partial_trace_mat(joint.mat, joint.layout.dims, idx)
        assert np.abs(red - rho.mat).max() < 1e-12


def test_broadcast_layout_labels_and_sides():
    lay = broadcast_layout(bell_state().layout, 3)
    assert lay.labels == ("A1", "B1", "A2", "B2", "A3", "B3")
    assert lay.side_labels("A") == ("A1", "A2", "A3")


def test_make_state_families_and_unknown():
    assert make_state(StateSpec("bell")).dim == 4
    assert make_state(StateSpec("werner", {"p": 0.3})).dim == 4
    with pytest.raises(ValidationError, match="unknown state family"):
        make_state(StateSpec("ghz"))


def test_save_load_roundtrip(tmp_path):
    rho = random_density(4, 4, seed=21)
    path = tmp_path / "s.json"
    save_state(path, rho)
    back = load_state(path)
    assert back.layout.factors == rho.layout.factors
    assert np.allclose(back.mat, rho.mat, atol=0)


def test_load_state_labeled_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    with pytest.raises(ValidationError, match="malformed"):
        load_state(p)
    p.write_text('{"format": "nope"}')
    with pytest.raises(ValidationError, match="format"):
        load_state(p)
    p.write_text('{"format": "bq-state-v1", "labels": [{"name": "A", "dim": 2, '
                 '"side": "A"}, {"name": "B", "dim": 2, "side": "B"}], '
                 '"matrix": [[1, 2], [3, 4]]}')
    with pytest.raises(ValidationError, match="matrix"):
        load_state(p)
