import numpy as np
import pytest

from sparsedrift.model import (
    DriftBasis,
    OUParam,
    SparseParam,
    cone_membership,
    cosine_basis,
    eval_drift,
    generate_sparse_param,
    largest_magnitude_indices,
    ou_linear_basis,
    sparsity,
)
from sparsedrift import rng


def test_eval_drift_cosine_anchor_only():
    basis = cosine_basis(1, 1, 1.0)
    assert eval_drift(basis, np.array([0.0]), np.array([2.0])) == pytest.approx(6.0)


def test_eval_drift_cosine_at_zero():
    basis = cosine_basis(1, 1, 1.0)
    assert eval_drift(basis, np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)


def test_eval_drift_ou_identity():
    basis = ou_linear_basis(2)
    theta = np.eye(2).flatten(order="F")
    out = eval_drift(basis, theta, np.array([3.0, -1.0]))
    assert np.allclose(out, [3.0, -1.0])


def test_eval_drift_matches_interaction_matrix():
    gen = np.random.default_rng(3)
    a_mat = gen.normal(size=(4, 4))
    basis = ou_linear_basis(4)
    x = gen.normal(size=4)
    out = eval_drift(basis, a_mat.flatten(order="F"), x)
    assert np.allclose(out, a_mat @ x, atol=1e-14)


def test_eval_drift_rejects_bad_shapes():
    basis = cosine_basis(2, 3, 1.0)
    with pytest.raises(ValueError):
        eval_drift(basis, np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        eval_drift(basis, np.zeros(3), np.zeros(3))


def test_drift_linearity_in_theta():
    gen = np.random.default_rng(11)
    for basis in (cosine_basis(3, 5, 1.5), ou_linear_basis(3)):
        for _ in range(20):
            t1 = gen.normal(size=basis.p)
            t2 = gen.normal(size=basis.p)
            x = gen.normal(size=basis.d)
            lhs = eval_drift(basis, t1 + t2, x)
            rhs = eval_drift(basis, t1, x) + eval_drift(basis, t2, x) - basis.phi0(x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_drift_fn_matches_eval_drift_batched():
    gen = np.random.default_rng(4)
    basis = cosine_basis(2, 6, 0.7)
    theta = gen.normal(size=6)
    b = basis.drift_fn(theta)
    xs = gen.normal(size=(10, 2))
    batch = b(xs)
    for i, x in enumerate(xs):
        assert np.allclose(batch[i], eval_drift(basis, theta, x), atol=1e-13)


def test_cone_membership_examples():
    assert cone_membership(np.array([3.0, 0.1]), 1, 1.0)
    assert not cone_membership(np.array([1.0, 1.0, 1.0, 1.0]), 1, 1.0)
    assert cone_membership(7.0 * np.array([3.0, 0.1]), 1, 1.0)


def test_cone_membership_scale_invariant():
    gen = np.random.default_rng(8)
    for _ in range(50):
        x = gen.normal(size=6)
        s = int(gen.integers(1, 4))
        c = float(gen.uniform(0.2, 5.0))
        base = cone_membership(x, s, c)
        for scale in (1e-6, 0.5, 3.0, 1e7):
            assert cone_membership(scale * x, s, c) == base


def test_cone_rejects_zero_and_bad_params():
    with pytest.raises(ValueError):
        cone_membership(np.zeros(3), 1, 1.0)
    with pytest.raises(ValueError):
        cone_membership(np.ones(3), 0, 1.0)
    with pytest.raises(ValueError):
        cone_membership(np.ones(3), 1, 0.0)


def test_largest_magnitude_tie_break_lowest_index():
    idx = largest_magnitude_indices(np.array([2.0, -2.0, 2.0, 1.0]), 2)
    assert list(idx) == [0, 1]


def test_sparsity_examples():
    assert sparsity(np.array([0.0, 2.5, 0.0, -3.0]), 0.0) == 2
    assert sparsity(np.array([1e-12, 2.0]), 1e-10) == 1
    assert sparsity(np.zeros(5), 0.3) == 0
    with pytest.raises(ValueError):
        sparsity(np.ones(2), -1.0)


def test_cosine_lipschitz_constants():
    basis = cosine_basis(2, 4, 1.5)
    lips = basis.lipschitz_constants()
    assert lips[0] == pytest.approx(4.5)  # 3 * s_anchor
    assert np.allclose(lips[1:], [2.0, 3.0, 4.0, 5.0])  # j + 1


def test_sparse_param_declared_count_validated():
    SparseParam(values=np.array([0.0, 1.0, 0.0]), declared_sparsity=1)
    with pytest.raises(ValueError):
        SparseParam(values=np.array([0.0, 1.0, 2.0]), declared_sparsity=1)


def test_generate_sparse_param_counts_and_range():
    gen = rng.stream(1, rng.PARAM)
    par = generate_sparse_param(30, 0.7, gen)
    assert par.declared_sparsity == 9
    nz = par.values[par.values != 0]
    assert nz.size == 9
    assert np.all((nz >= 2.0) & (nz <= 3.0))
    assert generate_sparse_param(10, 1.0, gen).declared_sparsity == 0


def test_ou_param_and_basis_shape():
    par = OUParam(A=np.diag([1.0, 2.0]))
    assert par.stable
    assert not OUParam(A=np.diag([-1.0, 2.0])).stable
    assert np.allclose(par.vec(), [1.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        DriftBasis(d=2, p=3, family="ou-linear")


def test_custom_basis_requires_declared_lipschitz():
    zero = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError):
        DriftBasis(d=1, p=1, family="custom", fields=(zero, zero))
    basis = DriftBasis(d=1, p=1, family="custom", fields=(zero, zero), lipschitz=(0.0, 0.0))
    assert np.allclose(basis.lipschitz_constants(), [0.0, 0.0])


def test_ou_phi_batch_equals_stacked_phi_matrix():
    basis = ou_linear_basis(4)
    states = rng.stream(3, rng.PATH).standard_normal((50, 4))
    batch = basis.phi_batch(states)
    assert batch.shape == (50, 4, 16)
    # exact equality; a zero entry may carry either sign
    np.testing.assert_array_equal(batch, np.stack([basis.phi_matrix(x) for x in states]))
