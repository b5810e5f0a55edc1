import numpy as np
import pytest

from conftest import cone_membership, largest_magnitude_indices
from sparsedrift.model import DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis
from sparsedrift import rng


def test_eval_drift_cosine_anchor_only():
    basis = cosine_basis(1, 1, 1.0)
    assert basis.drift_fn(np.array([0.0]))(np.array([2.0])) == pytest.approx(6.0)


def test_eval_drift_cosine_at_zero():
    basis = cosine_basis(1, 1, 1.0)
    assert basis.drift_fn(np.array([1.0]))(np.array([0.0])) == pytest.approx(1.0)


def test_eval_drift_ou_identity():
    basis = ou_linear_basis(2)
    theta = np.eye(2).flatten(order="F")
    out = basis.drift_fn(theta)(np.array([3.0, -1.0]))
    assert np.allclose(out, [3.0, -1.0])


def test_eval_drift_matches_interaction_matrix():
    gen = np.random.default_rng(3)
    a_mat = gen.normal(size=(4, 4))
    basis = ou_linear_basis(4)
    x = gen.normal(size=4)
    out = basis.drift_fn(a_mat.flatten(order="F"))(x)
    assert np.allclose(out, a_mat @ x, atol=1e-14)


def test_eval_drift_rejects_bad_shapes():
    with pytest.raises(ValueError):
        cosine_basis(2, 3, 1.0).drift_fn(np.zeros(4))
    with pytest.raises(ValueError):
        ou_linear_basis(2).drift_fn(np.zeros(3))


@pytest.mark.parametrize("basis", [cosine_basis(2, 3, 1.0), ou_linear_basis(2)], ids=["cosine", "ou-linear"])
@pytest.mark.parametrize("state", [np.zeros(3), np.zeros((4, 3)), np.zeros(1), np.float64(0.0)])
def test_drift_fn_rejects_a_state_of_another_length(basis, state):
    drift = basis.drift_fn(np.zeros(basis.p))
    with pytest.raises(ValueError, match="d = 2"):
        drift(state)
    assert drift(np.zeros((4, 2))).shape == (4, 2)


def test_drift_linearity_in_theta():
    gen = np.random.default_rng(11)
    for basis in (cosine_basis(3, 5, 1.5), ou_linear_basis(3)):
        for _ in range(20):
            t1 = gen.normal(size=basis.p)
            t2 = gen.normal(size=basis.p)
            x = gen.normal(size=basis.d)
            lhs = basis.drift_fn(t1 + t2)(x)
            rhs = basis.drift_fn(t1)(x) + basis.drift_fn(t2)(x) - basis.phi0_batch(x[None])[0]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_drift_fn_matches_eval_drift_batched():
    # a batch of states gives, row by row, the drift of each single state
    gen = np.random.default_rng(4)
    basis = cosine_basis(2, 6, 0.7)
    b = basis.drift_fn(gen.normal(size=6))
    xs = gen.normal(size=(10, 2))
    batch = b(xs)
    for i, x in enumerate(xs):
        assert np.allclose(batch[i], b(x), atol=1e-13)


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
def test_drift_fn_is_the_basis_expansion(family):
    # the samplers step with drift_fn and the Gram and event sums read
    # phi0_batch / phi_batch: both are b_theta(x) = phi_0(x) + sum_j theta_j phi_j(x)
    basis = cosine_basis(3, 7, 0.6) if family == "cosine" else ou_linear_basis(3)
    gen = np.random.default_rng(12)
    theta = gen.normal(size=basis.p) * (gen.random(basis.p) > 0.4)
    xs = gen.normal(size=(25, basis.d))
    want = basis.phi0_batch(xs) + basis.phi_batch(xs) @ theta
    np.testing.assert_allclose(basis.drift_fn(theta)(xs), want, rtol=1e-13, atol=1e-13)


# the cone check below is the test suite's reference for theory._cone_directions


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


def test_cosine_lipschitz_constants():
    basis = cosine_basis(2, 4, 1.5)
    lips = basis.lipschitz_constants()
    assert lips[0] == pytest.approx(4.5)  # 3 * s_anchor
    assert np.allclose(lips[1:], [2.0, 3.0, 4.0, 5.0])  # j + 1


def test_generate_sparse_param_counts_and_range():
    gen = rng.stream(1, rng.PARAM)
    theta = generate_sparse_param(30, 0.7, gen)
    assert theta.dtype == float and not theta.flags.writeable
    nz = theta[theta != 0]
    assert nz.size == 9
    assert np.all((nz >= 2.0) & (nz <= 3.0))
    assert not np.any(generate_sparse_param(10, 1.0, gen))


def test_ou_param_and_basis_shape():
    assert ou_linear_basis(2).p == 4
    for family in ("ou-linear", "custom"):  # p != d^2; a family the package does not have
        with pytest.raises(ValueError):
            DriftBasis(d=2, p=3, family=family)


def test_ou_phi_batch_equals_stacked_phi_matrix():
    basis = ou_linear_basis(4)
    states = rng.stream(3, rng.PATH).standard_normal((50, 4))
    batch = basis.phi_batch(states)
    assert batch.shape == (50, 4, 16)
    # the basis matrix of x has x_c at (r, c*d + r); a zero entry may carry either sign
    np.testing.assert_array_equal(batch, np.stack([np.kron(x.reshape(1, 4), np.eye(4)) for x in states]))
