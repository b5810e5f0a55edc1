import math

import numpy as np
import pytest

from sparsedrift.metrics import error_norms, rate_fit, support_score


def test_error_norms_examples():
    assert error_norms(np.ones(3), np.ones(3)) == (0.0, 0.0)
    norms = error_norms(np.array([3.0, 4.0, 0.0]), np.zeros(3))
    assert norms.l1 == pytest.approx(7.0)
    assert norms.l2 == pytest.approx(5.0)
    with pytest.raises(ValueError):
        error_norms(np.ones(2), np.ones(3))


def test_error_norms_matches_naive_summation():
    gen = np.random.default_rng(1)
    for _ in range(20):
        a = gen.normal(size=12)
        b = gen.normal(size=12)
        norms = error_norms(a, b)
        assert norms.l1 == pytest.approx(sum(abs(x - y) for x, y in zip(a, b)), rel=1e-12)
        assert norms.l2 == pytest.approx(sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5, rel=1e-12)


def test_error_norms_triangle_inequality():
    gen = np.random.default_rng(2)
    for _ in range(30):
        a, b, c = gen.normal(size=(3, 8))
        ab, bc, ac = error_norms(a, b), error_norms(b, c), error_norms(a, c)
        assert ac.l1 <= ab.l1 + bc.l1 + 1e-12
        assert ac.l2 <= ab.l2 + bc.l2 + 1e-12


def test_support_score_examples():
    perfect = support_score(np.array([1.0, 0.0, -2.0]), np.array([3.0, 0.0, 0.1]), 0.0)
    assert perfect.f1 == 1.0
    empty_pred = support_score(np.zeros(3), np.array([1.0, 0.0, 2.0]), 0.0)
    assert empty_pred.precision == 0.0 and empty_pred.recall == 0.0 and empty_pred.f1 == 0.0
    dense = support_score(np.ones(10), np.concatenate([np.ones(3), np.zeros(7)]), 0.0)
    assert dense.precision == pytest.approx(0.3)
    assert dense.recall == 1.0
    both_empty = support_score(np.zeros(4), np.zeros(4), 0.0)
    assert both_empty.f1 == 1.0


def test_support_score_permutation_symmetric():
    gen = np.random.default_rng(3)
    a = gen.normal(size=9) * (gen.random(9) > 0.4)
    b = gen.normal(size=9) * (gen.random(9) > 0.4)
    perm = gen.permutation(9)
    s1 = support_score(a, b, 0.0)
    s2 = support_score(a[perm], b[perm], 0.0)
    assert (s1.precision, s1.recall, s1.f1) == (s2.precision, s2.recall, s2.f1)


def test_rate_fit_exact_power_law():
    ts = np.array([10.0, 20.0, 40.0, 80.0])
    fit = rate_fit(list(zip(ts, ts**-0.5)))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_constant_errors():
    fit = rate_fit([(10.0, 2.0), (20.0, 2.0), (40.0, 2.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_rescale_invariance():
    pts = [(10.0, 3.0), (20.0, 2.0), (40.0, 1.5), (80.0, 1.0)]
    base = rate_fit(pts)
    scaled = rate_fit([(7.3 * t, e) for t, e in pts])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)


def test_rate_fit_rejects_bad_input():
    for points in ([(10.0, 1.0)], [(10.0, 1.0), (10.0, 0.5)], [(10.0, 1.0), (10.0, 0.5), (10.0, 0.2)]):
        with pytest.raises(ValueError):  # fewer than 2 distinct T
            rate_fit(points)
    with pytest.raises(ValueError):
        rate_fit([(10.0, 1.0), (20.0, -0.5), (40.0, 0.2)])


def test_rate_fit_two_points_is_the_secant():
    fit = rate_fit([(100.0, 0.3), (1600.0, 0.08)])
    slope = math.log(0.08 / 0.3) / math.log(16.0)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.3) - slope * math.log(100.0), rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
