"""MVN sampling and rectangle-probability tests, including the 10^7-draw
plain Monte-Carlo oracle and the independence factorization check, and the
second-order union bounds against scipy oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

import psprsim as ps
from psprsim.errors import ValidationError
from psprsim.mvnorm import (
    _sobol_base,
    bivariate_upper_orthant,
    dawson_sankoff_lower,
    max_spanning_tree_weight,
    psd_factor,
    repair_correlation,
    validate_correlation,
)


class TestSampleMvn:
    def test_zero_covariance_returns_mean(self):
        factor = psd_factor(np.zeros((3, 3)))
        draws = ps.sample_mvn(np.array([1.0, -2.0, 3.0]), factor, 20, ps.RngStream(4))
        assert np.array_equal(draws, np.tile([1.0, -2.0, 3.0], (20, 1)))

    def test_law_of_large_numbers(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        draws = ps.sample_mvn(np.zeros(2), psd_factor(cov), 50_000, ps.RngStream(8))
        sample_cov = np.cov(draws, rowvar=False)
        assert np.abs(sample_cov - cov).max() < 0.03
        assert np.abs(draws.mean(axis=0)).max() < 0.03

    def test_fixed_seed_reproducible(self):
        a = ps.sample_mvn(np.zeros(4), np.eye(4), 100, ps.RngStream(77))
        b = ps.sample_mvn(np.zeros(4), np.eye(4), 100, ps.RngStream(77))
        assert np.array_equal(a, b)

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(20)
        cov[0, 1], cov[1, 0] = 0.2, 0.4
        with pytest.raises(ValidationError, match="not symmetric"):
            ps.DiscretizedMvnParams(mean20=np.zeros(20), cov20=cov)
        cov = np.eye(20)
        cov[3, 3] = -1.0
        with pytest.raises(ValidationError, match="negative diagonal"):
            ps.DiscretizedMvnParams(mean20=np.zeros(20), cov20=cov)


def exchangeable(k, rho):
    R = np.full((k, k), rho)
    np.fill_diagonal(R, 1.0)
    return R


class TestRectUpper:
    def test_univariate_reduction(self):
        p, err = ps.mvn_rect_upper(np.array([1.96]), np.eye(1), rng=ps.RngStream(1))
        assert err == 0.0
        assert p == pytest.approx(float(ndtr(1.96)), abs=1e-12)
        assert p == pytest.approx(0.9750, abs=2e-4)

    def test_independence_factorization(self):
        tol = 1e-4
        for z in (-1.0, 0.0, 1.0, 2.0):
            p, err = ps.mvn_rect_upper(
                np.full(10, z), np.eye(10), tol=tol, rng=ps.RngStream(2)
            )
            assert abs(p - ndtr(z) ** 10) <= tol

    def test_brute_force_monte_carlo_oracle(self):
        # 10^7-draw plain MC oracle for k=3, exchangeable rho=0.5, upper=(1,1,1)
        rho, n = 0.5, 10_000_000
        R = exchangeable(3, rho)
        oracle_rng = np.random.default_rng(123)  # independent of RngStream
        L = np.linalg.cholesky(R)
        hits = 0
        for _ in range(10):  # chunked to bound memory
            z = oracle_rng.standard_normal((n // 10, 3)) @ L.T
            hits += int(np.all(z <= 1.0, axis=1).sum())
        p_mc = hits / n
        se_mc = np.sqrt(p_mc * (1 - p_mc) / n)
        p, err = ps.mvn_rect_upper(np.ones(3), R, tol=1e-4, rng=ps.RngStream(3))
        assert err <= 1e-4
        assert abs(p - p_mc) < 3 * np.sqrt(se_mc**2 + (err / 3) ** 2)

    def test_monotone_in_upper(self):
        R = exchangeable(5, 0.3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            base = rng.uniform(-1.5, 1.5, 5)
            bigger = base.copy()
            j = rng.integers(5)
            bigger[j] += rng.uniform(0.1, 1.0)
            p_lo, e1 = ps.mvn_rect_upper(base, R, rng=ps.RngStream(10))
            p_hi, e2 = ps.mvn_rect_upper(bigger, R, rng=ps.RngStream(11))
            assert p_hi >= p_lo - (e1 + e2)
            assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0

    def test_bonferroni_lower_bound(self):
        # P(Z <= z 1) >= 1 - k (1 - Phi(z)) for any correlation
        rng = np.random.default_rng(21)
        for trial in range(5):
            A = rng.normal(size=(10, 4))
            S = A @ A.T + np.eye(10)
            d = np.sqrt(np.diag(S))
            R = S / np.outer(d, d)
            z = rng.uniform(1.0, 2.5)
            p, err = ps.mvn_rect_upper(np.full(10, z), R, rng=ps.RngStream(trial))
            assert p >= 1 - 10 * (1 - ndtr(z)) - err - 1e-12

    def test_cross_check_against_scipy(self):
        # scipy's multivariate_normal.cdf is an independent implementation
        # of the same integral
        from scipy import stats

        rng = np.random.default_rng(41)
        for k in (3, 6, 10):
            A = rng.normal(size=(k, max(2, k // 2)))
            S = A @ A.T + np.eye(k)
            d = np.sqrt(np.diag(S))
            R = S / np.outer(d, d)
            upper = rng.uniform(-0.5, 2.0, k)
            ref = stats.multivariate_normal.cdf(
                upper, mean=np.zeros(k), cov=R,
                maxpts=2_000_000, abseps=1e-6, releps=0,
            )
            p, err = ps.mvn_rect_upper(upper, R, tol=1e-4, rng=ps.RngStream(k))
            assert abs(p - ref) < err + 2e-4

    def test_permutation_invariance(self):
        tol = 1e-4
        rng = np.random.default_rng(31)
        A = rng.normal(size=(6, 3))
        S = A @ A.T + np.eye(6)
        d = np.sqrt(np.diag(S))
        R = S / np.outer(d, d)
        upper = rng.uniform(-0.5, 2.0, 6)
        p1, _ = ps.mvn_rect_upper(upper, R, tol=tol, rng=ps.RngStream(1))
        perm = rng.permutation(6)
        p2, _ = ps.mvn_rect_upper(upper[perm], R[np.ix_(perm, perm)], tol=tol,
                                  rng=ps.RngStream(2))
        assert abs(p1 - p2) <= 2 * tol

    def test_deterministic_by_seed(self):
        R = exchangeable(4, 0.4)
        a = ps.mvn_rect_upper(np.ones(4), R, rng=ps.RngStream(42))
        b = ps.mvn_rect_upper(np.ones(4), R, rng=ps.RngStream(42))
        assert a == b

    def test_tol_out_of_range(self):
        for tol in (0.0, -1e-3, 0.5):
            with pytest.raises(ValidationError):
                ps.mvn_rect_upper(np.ones(3), exchangeable(3, 0.2), tol=tol)

    def test_invalid_correlation_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # |rho| > 1: not PSD
        with pytest.raises(ValidationError):
            ps.mvn_rect_upper(np.zeros(2), bad)
        with pytest.raises(ValidationError):
            ps.mvn_rect_upper(np.zeros(2), np.array([[1.0, 0.1], [0.3, 1.0]]))
        with pytest.raises(ValidationError):
            ps.mvn_rect_upper(np.zeros(2), 2 * np.eye(2))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            ps.mvn_rect_upper(np.zeros(21), np.eye(21))

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(-0.45, 0.95))
    def test_tolerances_are_allclose(self, asym, diag_off, rho):
        # the elementwise checks accept exactly the finite matrices that
        # np.allclose accepts, the oracle they replace; the perturbations
        # span zero to twice each tolerance
        R = exchangeable(3, rho)
        R[0, 1] += asym * (1e-10 + 1e-5 * abs(rho))
        R[2, 2] += diag_off * (1e-8 + 1e-5)
        accepted = (np.allclose(R, R.T, atol=1e-10)
                    and np.allclose(np.diag(R), 1.0, atol=1e-8))
        try:
            validate_correlation(R)
        except ValidationError as exc:
            assert not accepted, exc
        else:
            assert accepted

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 1), (2, 2)], ids=["off-diagonal", "diagonal"])
    def test_non_finite_correlation_rejected(self, value, cell):
        R = exchangeable(3, 0.2)
        R[cell] = R[cell[::-1]] = value
        with pytest.raises(ValidationError, match="non-finite"):
            validate_correlation(R)
        with pytest.raises(ValidationError, match="non-finite"):
            ps.mvn_rect_upper(np.ones(3), R, rng=ps.RngStream(1))

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_nan_upper_rejected(self, k):
        # a NaN limit made err NaN, so the call ran to the point cap and
        # returned (nan, nan), or (nan, 0.0) at k = 1
        upper = np.ones(k)
        upper[k - 1] = np.nan
        with pytest.raises(ValidationError, match=f"upper limit {k - 1} is NaN"):
            ps.mvn_rect_upper(upper, exchangeable(k, 0.3), rng=ps.RngStream(1))

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_infinite_upper_is_a_limit(self, k):
        # test_maxt passes z_max = +inf when the statistic is -inf
        R = exchangeable(k, 0.3)
        upper = np.ones(k)
        upper[0] = np.inf
        p, err = ps.mvn_rect_upper(upper, R, rng=ps.RngStream(1))
        assert 0.0 < p <= 1.0 and np.isfinite(err)
        upper[0] = -np.inf
        assert ps.mvn_rect_upper(upper, R, rng=ps.RngStream(1)) == (0.0, 0.0)

    def test_decide_at_stops_once_threshold_excluded(self, caplog):
        R = exchangeable(10, 0.3)
        upper = np.full(10, 2.5)
        full = ps.mvn_rect_upper(upper, R, tol=1e-6, rng=ps.RngStream(8),
                                 max_points=1 << 12)
        assert "budget cap reached" in caplog.text
        caplog.clear()
        p, err = ps.mvn_rect_upper(upper, R, tol=1e-6, rng=ps.RngStream(8),
                                   max_points=1 << 12, decide_at=0.5)
        # the first round already excludes 0.5: an early stop, not a cap hit
        assert err > 1e-6 and abs(p - 0.5) > err
        assert err >= full[1] and (p > 0.5) == (full[0] > 0.5)
        assert "budget cap reached" not in caplog.text

    def test_decide_at_near_probability_runs_to_tol(self):
        R = exchangeable(4, 0.4)
        full = ps.mvn_rect_upper(np.ones(4), R, tol=1e-4, rng=ps.RngStream(42))
        near = ps.mvn_rect_upper(np.ones(4), R, tol=1e-4, rng=ps.RngStream(42),
                                 decide_at=full[0])
        assert near == full

    @given(st.floats(min_value=-2.5, max_value=2.5))
    def test_probability_in_unit_interval(self, z):
        p, _ = ps.mvn_rect_upper(np.full(3, z), exchangeable(3, 0.5),
                                 rng=ps.RngStream(5))
        assert 0.0 <= p <= 1.0


class TestRepairCorrelation:
    def test_psd_passthrough(self):
        R = exchangeable(4, 0.3)
        assert np.array_equal(repair_correlation(R), R)

    def test_near_singular_floored(self):
        R = exchangeable(3, 0.9999999999)  # eigenvalues ~ (3, 1e-10, 1e-10)
        out = repair_correlation(R)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 0
        assert np.allclose(np.diag(out), 1.0)

    def test_far_from_psd_rejected(self):
        R = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValidationError):
            repair_correlation(R)

    @given(st.data())
    def test_sorted_repaired_correlation_factors(self, data):
        """mvn_rect_upper factors R without a fallback: every correlation that
        validate_correlation returns, rank-deficient input included, keeps
        positive Cholesky pivots under any reordering of its variables."""
        k = data.draw(st.integers(min_value=2, max_value=20), label="k")
        rank = data.draw(st.integers(min_value=1, max_value=k), label="rank")
        scales = data.draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                    min_size=rank, max_size=rank), label="log10 scales")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((k, rank)) * 10.0 ** np.array(scales)
        S = A @ A.T
        d = np.sqrt(np.diag(S))
        R = S / np.outer(d, d)
        R = (R + R.T) / 2.0
        np.fill_diagonal(R, 1.0)
        order = rng.permutation(k)
        L = ps.cholesky(validate_correlation(R)[np.ix_(order, order)])
        assert np.all(np.diag(L) > 0)


class TestUnionBounds:
    @pytest.mark.parametrize("h", [-0.7, 0.0, 1.3])
    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 0.8, 1.0])
    def test_pair_probability_matches_scipy(self, h, r):
        from scipy.stats import multivariate_normal

        # (-Z_1, -Z_2) has the same correlation, so P(Z > h) = F(-h, -h)
        oracle = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]],
                                     allow_singular=True).cdf([-h, -h])
        assert bivariate_upper_orthant(h, r) == pytest.approx(oracle, abs=1e-12)

    def test_pair_probability_at_perfect_correlation_is_exact(self):
        h = np.array([-1.5, 0.0, 0.4, 2.0])
        for hi in h:
            same, opposite = bivariate_upper_orthant(hi, np.array([1.0, -1.0]))
            assert same == ndtr(-hi)
            assert opposite == max(0.0, ndtr(-hi) - ndtr(hi))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=12), ties=st.booleans())
    def test_spanning_tree_weight_matches_scipy(self, seed, n, ties):
        from scipy.sparse.csgraph import minimum_spanning_tree

        rng = np.random.default_rng(seed)
        W = rng.uniform(0.01, 1.0, (n, n))
        if ties:
            W = np.round(W, 1)
        W = np.triu(W, 1)
        W = W + W.T
        # csgraph reads zero entries as missing edges; every off-diagonal
        # weight here is positive, so the negated graph is complete
        oracle = -minimum_spanning_tree(-W).sum()
        assert max_spanning_tree_weight(W) == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    def test_dawson_sankoff_reaches_both_extremes(self):
        # disjoint events (S2 = 0): the union is S1 exactly
        assert dawson_sankoff_lower(0.3, 0.0) == pytest.approx(0.3, rel=1e-15)
        # ten copies of one event of probability p: the union is p exactly
        p = 0.02
        assert dawson_sankoff_lower(10 * p, 45 * p) == pytest.approx(p, rel=1e-12)


class TestSobolBase:
    # __wrapped__ bypasses the lru_cache, which would otherwise keep the
    # largest of these nets alive for the rest of the session
    @pytest.mark.parametrize("dim", range(1, 20))
    def test_matches_scipy_unscrambled(self, dim):
        from scipy.stats import qmc

        for log2_n in range(18):
            ours = _sobol_base.__wrapped__(dim, log2_n)
            ref = qmc.Sobol(d=dim, scramble=False).random_base2(log2_n)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes(), (dim, log2_n)

    @pytest.mark.parametrize("dim", [1, 2, 9, 19])
    def test_doubling_extends_the_prefix(self, dim):
        for log2_n in range(17):
            longer = _sobol_base.__wrapped__(dim, log2_n + 1)
            assert np.array_equal(longer[: 1 << log2_n], _sobol_base.__wrapped__(dim, log2_n))

    def test_cached_and_read_only(self):
        pts = _sobol_base(3, 4)
        assert _sobol_base(3, 4) is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5

    @pytest.mark.parametrize("dim", [0, 20])
    def test_dimension_out_of_range_rejected(self, dim):
        with pytest.raises(ValidationError, match="Sobol points support dimensions 1-19"):
            _sobol_base.__wrapped__(dim, 4)
