"""Testing-procedure suite: direction conventions, the modified-df rule,
closed-testing oracles for Hommel, dominance properties, omnibus
calibration consistency, and MaxT's Bonferroni and second-order bounds."""

import itertools
import mmap
import os
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.special import ndtr, ndtri, stdtr

import psprsim as ps
from psprsim.engine import MethodContext, run_methods
from psprsim.errors import NumericalError, ValidationError
from psprsim.marginal import DOMAIN_ROWS, IRT_ROW, ITEM_ROWS, LM_ROW, SUM_ROW, CorrelationEstimate
from psprsim.mvnorm import bivariate_upper_orthant, validate_correlation
from psprsim.procedures import (
    CALIBRATION_CHUNK,
    CALIBRATION_FORMAT_VERSION,
    bonferroni_adjust,
    get_omnibus_calibration,
    holm_adjust,
    hommel_adjust,
    load_omnibus_calibration,
    modified_df,
    save_omnibus_calibration,
    simes_global,
)
from psprsim.reports import load_trial_csv
from psprsim.scales import N_ITEMS

from conftest import arm_symmetric_dataset, endpoint_fits, item_fits


@pytest.fixture(scope="module")
def effect_dataset(reference_pool):
    params = ps.DiscretizedMvnParams.estimate(reference_pool)
    scen = ps.builtin_scenarios()["d2"]
    return ps.gen_discretized_mvn(params, scen, 70, ps.RngStream(2))


@pytest.fixture(scope="module")
def endpoints(grm_model, latent_approx):
    """data, rows -> those rows of data's endpoint block, as the engine's
    context reads them."""
    return lambda data, rows: ps.endpoint_rows(
        endpoint_fits(data, grm_model, latent_approx), rows)


def marginals(data):
    """The per-item fits and their correlation, as the engine's context
    computes them for the multi-item procedures."""
    fits = item_fits(data)
    return fits, ps.estimate_corr(data, fits)


class TestModifiedDf:
    def test_paper_value(self):
        assert modified_df(70, 10) == pytest.approx(69.185, abs=1e-12)
        assert modified_df(70, 10) == 0.5 * 137 * 1.01

    def test_monotone_in_n(self):
        assert modified_df(100, 10) > modified_df(70, 10)


class TestAdjustments:
    def test_bonferroni_direct(self):
        p = np.array([0.001, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
        assert bonferroni_adjust(p)[0] == pytest.approx(0.01)
        assert bonferroni_adjust(p).max() == 1.0

    def test_holm_vs_manual(self):
        p = np.array([0.01, 0.04, 0.03, 0.005])
        # sorted: 0.005, 0.01, 0.03, 0.04 -> *4, *3, *2, *1 -> cummax
        expect = {0.005: 0.02, 0.01: 0.03, 0.03: 0.06, 0.04: 0.06}
        out = holm_adjust(p)
        for pi, oi in zip(p, out):
            assert oi == pytest.approx(expect[pi])

    def test_hommel_against_closed_testing_oracle(self):
        # brute-force closed testing with local Simes tests, m = 5
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = rng.uniform(0.0005, 1.0, size=5)
            adj = hommel_adjust(p)
            for i in range(5):
                worst = 0.0
                for r in range(1, 6):
                    for subset in itertools.combinations(range(5), r):
                        if i not in subset:
                            continue
                        sub = np.sort(p[list(subset)])
                        local = (len(sub) * sub / np.arange(1, len(sub) + 1)).min()
                        worst = max(worst, local)
                assert adj[i] == pytest.approx(min(1.0, worst), abs=1e-12)

    def test_dominance_over_random_vectors(self):
        # Simes <= Bonferroni globally; Hommel <= Holm <= Bonferroni per item
        rng = np.random.default_rng(15)
        for _ in range(10_000):
            p = rng.uniform(0, 1, size=10)
            assert simes_global(p) <= min(1.0, 10 * p.min()) + 1e-12
            hom = hommel_adjust(p)
            holm = holm_adjust(p)
            bonf = bonferroni_adjust(p)
            assert np.all(hom <= holm + 1e-12)
            assert np.all(holm <= bonf + 1e-12)

    def test_simes_identical_pvalues(self):
        assert simes_global(np.full(10, 0.37)) == pytest.approx(0.37)


class TestSumScore:
    def test_symmetric_arms_half(self, endpoints):
        data = arm_symmetric_dataset()
        out = ps.test_sum_score(endpoints(data, SUM_ROW))
        # 0.5 up to least-squares round-off
        assert out.p_one_sided == pytest.approx(0.5, abs=1e-12)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)

    def test_item_permutation_invariance(self, endpoints, effect_dataset):
        out1 = ps.test_sum_score(endpoints(effect_dataset, SUM_ROW))
        perm = np.random.default_rng(16).permutation(N_ITEMS)
        permuted = ps.ItemDataset(
            ids=effect_dataset.ids,
            arm=effect_dataset.arm,
            baseline=effect_dataset.baseline[:, perm],
            week52=effect_dataset.week52[:, perm],
        )
        out2 = ps.test_sum_score(endpoints(permuted, SUM_ROW))
        assert out1.p_one_sided == out2.p_one_sided


class TestIrtAndLmTests:
    def test_symmetric_arms_half(self, endpoints):
        data = arm_symmetric_dataset()
        irt_p = ps.test_irt(endpoints(data, IRT_ROW)).p_one_sided
        lm_p = ps.test_lm_approx(endpoints(data, LM_ROW)).p_one_sided
        assert irt_p == pytest.approx(0.5, abs=1e-12)
        assert lm_p == pytest.approx(0.5, abs=1e-12)

    def test_scheme_mismatch_rejected(self, grm_model, latent_approx, calib10, calib3,
                                      effect_dataset):
        # the context scores the data with the models once, for every method
        fda_data = ps.apply_rescoring(effect_dataset, ps.fda_scheme())
        ctx = MethodContext(data=fda_data, grm=grm_model, approx=latent_approx,
                            calib_items=calib10, calib_domains=calib3, maxt_tol=1e-3,
                            rng=ps.RngStream(0))
        with pytest.raises(ValidationError, match="fitted on scheme 'original'"):
            run_methods(ctx, ["IRT"])

    def test_equal_weights_order_matches_sum_score(self, effect_dataset):
        approx = ps.LinearLatentApprox(
            intercept=0.0, weights=np.full(N_ITEMS, 0.02), r_squared=1.0
        )
        z = ps.approx_latent(approx, effect_dataset.week52)
        sums = effect_dataset.week52.sum(axis=1)
        # monotone transform of the sum: strictly ordered across distinct sums
        for s_lo, s_hi in itertools.pairwise(np.unique(sums)):
            assert z[sums == s_lo].max() < z[sums == s_hi].min()

    def test_detects_effect(self, endpoints, effect_dataset):
        out = ps.test_irt(endpoints(effect_dataset, IRT_ROW))
        assert out.p_one_sided < 0.5


class TestObrien:
    def test_exchangeable_correlation_gls_equals_ols(self, effect_dataset):
        fits = item_fits(effect_dataset)
        R = np.full((10, 10), 0.4)
        np.fill_diagonal(R, 1.0)
        corr = CorrelationEstimate(R=R)
        ols = ps.test_obrien(fits, corr, variant="OLS")
        gls = ps.test_obrien(fits, corr, variant="GLS")
        assert gls.statistic == pytest.approx(ols.statistic, abs=1e-10)
        assert gls.p_one_sided == pytest.approx(ols.p_one_sided, abs=1e-10)

    def test_modified_df_used(self, effect_dataset):
        out = ps.test_obrien(*marginals(effect_dataset), variant="OLS")
        assert out.diagnostics["df_modified"] == pytest.approx(modified_df(70, 10))
        assert out.p_one_sided == pytest.approx(
            stdtr(modified_df(70, 10), out.statistic), abs=1e-15
        )

    def test_gls_drop_without_negative_weights(self, effect_dataset):
        fits = item_fits(effect_dataset)
        R = np.full((10, 10), 0.3)
        np.fill_diagonal(R, 1.0)
        corr = CorrelationEstimate(R=R)
        drop = ps.test_obrien(fits, corr, variant="GLS-drop")
        gls = ps.test_obrien(fits, corr, variant="GLS")
        assert drop.dropped_items is None
        assert drop.diagnostics["no_negative_weight"] is True
        assert drop.statistic == gls.statistic

    def test_gls_drop_removes_most_negative_item(self, effect_dataset):
        fits = item_fits(effect_dataset)
        # two nearly-duplicated endpoints force a negative inverse-row-sum
        R = np.eye(10) * 0.02 + 0.98 * np.ones((10, 10))
        R[0, 1] = R[1, 0] = 0.999
        R[0, 2:] = R[2:, 0] = 0.90
        np.fill_diagonal(R, 1.0)
        w = np.linalg.solve(R, np.ones(10))
        assert w.min() < 0  # scenario setup really has a negative weight
        corr = CorrelationEstimate(R=R)
        drop = ps.test_obrien(fits, corr, variant="GLS-drop")
        assert drop.dropped_items == [int(np.argmin(w))]
        assert drop.diagnostics["m_active"] == 9
        assert drop.diagnostics["df_modified"] == pytest.approx(modified_df(70, 9))
        assert len(drop.weights) == 9

    def test_singular_correlation_raises(self, effect_dataset):
        fits = item_fits(effect_dataset)
        R = np.ones((10, 10))
        corr = CorrelationEstimate(R=R)
        with pytest.raises((NumericalError, np.linalg.LinAlgError)):
            ps.test_obrien(fits, corr, variant="GLS")

    def test_unknown_variant(self, effect_dataset):
        with pytest.raises(ValidationError):
            ps.test_obrien(*marginals(effect_dataset), variant="WLS")

    @pytest.mark.parametrize("negative", [False, True], ids=["no-drop", "drop"])
    def test_gls_and_gls_drop_share_one_solve(self, effect_dataset, negative):
        # R^-1 1 is solved once per correlation; the drop solves its own
        fits = item_fits(effect_dataset)
        R = np.full((10, 10), 0.3)
        if negative:
            R[0, 1:] = R[1:, 0] = 0.9
        np.fill_diagonal(R, 1.0)
        w = np.linalg.solve(R, np.ones(10))
        assert (w.min() < 0) == negative
        corr = CorrelationEstimate(R=R)
        real = np.linalg.solve
        with mock.patch.object(np.linalg, "solve", side_effect=real) as solve:
            gls = ps.test_obrien(fits, corr, variant="GLS")
            drop = ps.test_obrien(fits, corr, variant="GLS-drop")
        assert solve.call_count == 1 + negative
        assert gls.weights.tobytes() == w.tobytes()
        assert not gls.weights.flags.writeable
        fresh = ps.test_obrien(fits, CorrelationEstimate(R=R.copy()), variant="GLS-drop")
        assert (drop.statistic, drop.p_one_sided) == (fresh.statistic, fresh.p_one_sided)
        assert drop.dropped_items == ([int(np.argmin(w))] if negative else None)

    @pytest.mark.parametrize("variant, name", [("OLS", "OLS"), ("GLS", "GLS"),
                                               ("GLS-drop", "GLS")])
    def test_nonpositive_variance_names_variant(self, effect_dataset, variant, name):
        # an indefinite equicorrelation: both 1'R1 and 1'R^-1 1 are negative,
        # and so is 1'R^-1 1 of the 9 items left after the drop
        R = np.full((10, 10), -0.5)
        np.fill_diagonal(R, 1.0)
        with pytest.raises(NumericalError, match=f"nonpositive {name} variance"):
            ps.test_obrien(item_fits(effect_dataset), CorrelationEstimate(R=R), variant=variant)


class TestBonferroniSimes:
    def test_all_half_pvalues(self):
        data = arm_symmetric_dataset()
        out = ps.test_bonferroni(item_fits(data))
        assert out.p_one_sided == 1.0
        simes = ps.test_simes_hommel(item_fits(data))
        assert simes.p_one_sided == pytest.approx(0.5)

    def test_per_item_vectors(self, effect_dataset):
        fits = item_fits(effect_dataset)
        p = fits.p
        out = ps.test_bonferroni(fits)
        assert out.p_one_sided == pytest.approx(min(1.0, 10 * p.min()))
        simes = ps.test_simes_hommel(fits)
        assert simes.p_one_sided == pytest.approx(simes_global(p))
        assert simes.p_one_sided <= out.p_one_sided + 1e-12


class TestMaxT:
    def test_symmetric_arms_near_one(self, calib10):
        data = arm_symmetric_dataset()
        out = ps.test_maxt(*marginals(data), rng=ps.RngStream(3))
        assert out.statistic == pytest.approx(0.0, abs=1e-9)
        assert 0.99 <= out.p_one_sided <= 1.0

    def test_independence_arithmetic(self):
        # all z = 0 with identity correlation: p = 1 - 0.5^10
        p, err = ps.mvn_rect_upper(np.zeros(10), np.eye(10), rng=ps.RngStream(4))
        assert 1 - p == pytest.approx(1 - 0.5**10, abs=max(err, 1e-6))

    def test_bonferroni_bound_over_random_datasets(self, reference_pool):
        from scipy.special import ndtr

        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scen = ps.builtin_scenarios()
        labels = ["d0", "d1", "d4", "d10"]
        count = 0
        for i in range(250):
            data = ps.gen_discretized_mvn(
                params, scen[labels[i % 4]], 40, ps.RngStream(5000 + i)
            )
            out = ps.test_maxt(*marginals(data), tol=1e-3, rng=ps.RngStream(i))
            bound = min(1.0, 10 * (1 - float(ndtr(out.statistic))))
            err = out.diagnostics["mvn_error_estimate"]
            assert out.p_one_sided <= bound + err + 1e-12
            count += 1
        assert count == 250

    def test_uses_marginal_df_transform(self, effect_dataset):
        fits, corr = marginals(effect_dataset)
        out = ps.test_maxt(fits, corr, rng=ps.RngStream(6))
        z = out.diagnostics["z_values"]
        for j, t in enumerate(fits.t):
            expect = ndtri(stdtr(fits.df, -t))
            assert z[j] == pytest.approx(expect, abs=1e-12)
        assert out.statistic == z.max()


def _decision_dataset(reference_pool, label, n, seed):
    params = ps.DiscretizedMvnParams.estimate(reference_pool)
    return ps.gen_discretized_mvn(params, ps.builtin_scenarios()[label], n, ps.RngStream(seed))


decision_data = st.tuples(
    st.sampled_from(["d0", "d2", "d4", "d10"]),
    st.sampled_from([40, 70]),
    st.integers(min_value=0, max_value=2**32),
)


def _union_bounds(z_max, corr):
    """Oracle second-order bounds on the MaxT p: the Dawson-Sankoff lower
    and the Hunter-Worsley upper bound, the latter from a scipy spanning
    tree, on the correlation mvn_rect_upper integrates."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    R = validate_correlation(corr)
    pairs = bivariate_upper_orthant(z_max, R)
    np.fill_diagonal(pairs, 0.0)
    s1 = N_ITEMS * float(ndtr(-z_max))
    s2 = pairs.sum() / 2.0
    k = 1 + int(2.0 * s2 // s1)
    lower = 2.0 * s1 / (k + 1) - 2.0 * s2 / (k * (k + 1))
    # csgraph drops zero entries, which add nothing to a tree's weight
    upper = s1 + minimum_spanning_tree(-pairs).sum()
    return lower, upper


def _decision_parts(reference_pool, case):
    data = _decision_dataset(reference_pool, *case)
    fits = item_fits(data)
    return fits, ps.estimate_corr(data, fits)


class TestMaxTDecision:
    """test_maxt(alpha=...) settles p <= alpha from the exact Bonferroni
    bounds, then from the second-order bounds, or else from an
    early-stopped integral."""

    @given(case=decision_data, alpha=st.floats(min_value=1e-4, max_value=0.2))
    def test_bound_settled_skips_integral(self, reference_pool, case, alpha):
        fits, corr = _decision_parts(reference_pool, case)
        rng = ps.RngStream(case[2])
        with mock.patch("psprsim.procedures.mvn_rect_upper",
                        wraps=ps.mvn_rect_upper) as integral:
            out = ps.test_maxt(fits, corr, tol=1e-3, rng=rng, alpha=alpha)
        p_min = float(ndtr(-out.statistic))
        p_max = min(1.0, 10 * p_min)
        lower, upper = _union_bounds(out.statistic, corr.R)
        margin = ps.procedures.SETTLE_MARGIN
        if p_min > alpha or p_max <= alpha:
            kind = "bonferroni"
        elif lower > alpha + 2 * margin or upper <= alpha - 2 * margin:
            kind = "second-order"
        elif lower < alpha and upper > alpha:
            kind = None
        else:
            return  # within rounding of the margin: either path is right
        event(str(kind))
        # the integral runs if and only if no bound pair settles
        assert integral.call_count == (kind is None)
        if kind is None:
            assert "bound_settled" not in out.diagnostics
            return
        assert out.diagnostics["bound_settled"] == kind
        lo, hi = out.diagnostics["p_bounds"]
        assert p_min <= lo <= out.p_one_sided <= hi <= p_max
        assert out.p_one_sided in (lo, hi)
        assert (out.p_one_sided <= alpha) == (hi <= alpha)
        if kind == "second-order":
            assert lo == pytest.approx(max(p_min, lower), rel=1e-9)
            assert hi in (p_max, pytest.approx(min(p_max, upper), rel=1e-9))
        # the replicate's stream is left untouched
        assert rng.gen.random() == ps.RngStream(case[2]).gen.random()

    @settings(derandomize=True)
    @given(case=decision_data, frac=st.floats(min_value=0.0, max_value=1.0,
                                             exclude_min=True, exclude_max=True))
    def test_band_decision_matches_full_precision(self, reference_pool, case, frac):
        fits, corr = _decision_parts(reference_pool, case)
        seed = case[2]
        full = ps.test_maxt(fits, corr, tol=1e-4, rng=ps.RngStream(seed))
        p_min = float(ndtr(-full.statistic))
        # an alpha strictly inside the Bonferroni bounds leaves the decision
        # to the second-order bounds or the integral
        alpha = p_min * (1.0 + 9.0 * frac)
        if not p_min < alpha < min(1.0, 10 * p_min):
            return
        rng = ps.RngStream(seed)
        fast = ps.test_maxt(fits, corr, tol=1e-4, rng=rng, alpha=alpha)
        p_full, err_full = full.p_one_sided, full.diagnostics["mvn_error_estimate"]
        comparable = True
        if "bound_settled" in fast.diagnostics:
            event("second-order")
            assert fast.diagnostics["bound_settled"] == "second-order"
            lo, hi = fast.diagnostics["p_bounds"]
            assert lo <= fast.p_one_sided <= hi
            assert (fast.p_one_sided <= alpha) == (hi <= alpha)
            assert rng.gen.random() == ps.RngStream(seed).gen.random()
            # the settled decision is exact; the integral's 3-SE error can
            # under-cover (test_full_rank_integral_misses_lower_bound), and
            # an integral that misses the exact bounds is no reference
            comparable = p_full - err_full <= hi and lo <= p_full + err_full
            if not comparable:
                event("full-precision integral outside the exact bounds")
        else:
            event("integrated")
            assert fast.diagnostics["mvn_error_estimate"] >= err_full
        if comparable and abs(p_full - alpha) > err_full:
            assert (fast.p_one_sided <= alpha) == (p_full <= alpha)

    @given(data=st.data())
    def test_second_order_bounds_chain(self, reference_pool, data):
        """p_min <= DS lower <= HW upper <= 10 p_min on trial correlations
        and on random ones of any rank (repaired where rank-deficient), for
        z_max in [0, 3.5]: p_min >= 2.3e-4 covers every decision the
        Bonferroni pair leaves open at alpha >= 2.3e-3."""
        if data.draw(st.booleans(), label="trial correlation"):
            fits, corr = _decision_parts(reference_pool, data.draw(decision_data, label="case"))
            R = corr.R
        else:
            seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
            dof = data.draw(st.integers(min_value=1, max_value=3 * N_ITEMS), label="dof")
            R = _random_correlation(seed, dof)
        z_max = data.draw(st.floats(min_value=0.0, max_value=3.5), label="z_max")
        p_min = float(ndtr(-z_max))
        lower, upper = _union_bounds(z_max, R)
        slack = 1e-12
        assert p_min <= lower + slack
        assert lower <= upper + slack
        assert upper <= 10 * p_min + slack

    @given(loadings=st.lists(st.floats(min_value=-0.95, max_value=0.95),
                             min_size=N_ITEMS, max_size=N_ITEMS),
           z_max=st.floats(min_value=0.0, max_value=3.5))
    def test_second_order_bounds_bracket_exact_p(self, loadings, z_max):
        """DS lower <= p <= HW upper against the exact p of a one-factor
        correlation R = l l' + diag(1 - l^2), correlations of either sign
        included: given the factor X the Z_i are independent, so
        p = 1 - E[prod_i Phi((z_max - l_i X) / sqrt(1 - l_i^2))] is one
        integral over X, which quad evaluates to about 1e-13."""
        from scipy import integrate

        lam = np.array(loadings)
        R = np.outer(lam, lam)
        np.fill_diagonal(R, 1.0)
        scale = np.sqrt(1.0 - lam**2)

        def density(x):
            inside = np.prod(ndtr((z_max - lam * x) / scale))
            return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * (1.0 - inside)

        p, quad_err = integrate.quad(density, -np.inf, np.inf, epsabs=1e-14,
                                     epsrel=1e-12, limit=200)
        assert quad_err < 1e-11
        lower, upper = _union_bounds(z_max, R)
        slack = 1e-11
        assert lower <= p + slack
        assert p <= upper + slack

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "mvn_rect_upper on a repaired rank-1 correlation returns p = 0.045654 "
        "with error estimate 2e-16, above the exact upper bound 0.045503"))
    def test_rank_one_integral_leaves_bounds(self):
        # Z_i = +-X, so p = 2 Phi(-2) = 0.045500 up to the eigenvalue repair
        _assert_bounds_bracket_integral(2.0, _random_correlation(0, 1), 7)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "mvn_rect_upper's 3-SE error under-covers: on this full-rank "
        "correlation it returns p = 0.0041448 +- 6.8e-5, below the exact "
        "Dawson-Sankoff lower bound 0.0042512"))
    def test_full_rank_integral_misses_lower_bound(self):
        _assert_bounds_bracket_integral(3.334, _random_correlation(4196250552, 24), 12)

    def test_full_precision_p_value_pinned(self, reference_pool, two_arm_dataset):
        # without alpha (as analyze calls it) the p-value is integrated to
        # tol; the pinned bits catch any leak of the decision path into it
        out = ps.test_maxt(*marginals(two_arm_dataset), rng=ps.RngStream(3))
        assert out.p_one_sided == float.fromhex("0x1.f749a904b3b76p-2")
        assert out.diagnostics["mvn_error_estimate"] <= 1e-4
        effect = _decision_dataset(reference_pool, "d3", 70, 22)
        out = ps.test_maxt(*marginals(effect), rng=ps.RngStream(3))
        assert out.p_one_sided == float.fromhex("0x1.f6b95958ee8c0p-7")


def _random_correlation(seed, dof):
    """The correlation of a Wishart draw with dof degrees of freedom (rank
    min(dof, N_ITEMS))."""
    A = np.random.default_rng(seed).standard_normal((N_ITEMS, dof))
    S = A @ A.T
    d = np.sqrt(np.diag(S))
    R = S / np.outer(d, d)
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 1.0)
    return R


def _assert_bounds_bracket_integral(z_max, R, seed):
    """The tol-1e-4 integral's p +- err meets the exact bounds."""
    prob, err = ps.mvn_rect_upper(np.full(N_ITEMS, z_max), R, tol=1e-4, rng=ps.RngStream(seed))
    p = 1.0 - prob
    lower, upper = _union_bounds(z_max, R)
    assert lower <= p + err
    assert p - err <= upper


def _ref_build_omnibus_calibration(m, reps, seed):
    """The calibration as built before each row was ranked by its own sort:
    every replicate's partial sums looked up in the sorted tables."""
    u = ps.RngStream(seed).gen.random((reps, m))
    u.sort(axis=1)
    S = np.cumsum(ps.procedures._reciprocal(u), axis=1)
    tables = np.empty((m + 1, reps))
    tables[:m] = np.sort(S, axis=0).T
    marg = np.empty((reps, m))
    for s in range(m):
        idx = np.searchsorted(tables[s], S[:, s], side="left")
        marg[:, s] = (1.0 + reps - idx) / (reps + 1.0)
    tables[m] = np.sort(marg.min(axis=1))
    return tables


class TestOmnibus:
    def test_all_ones_give_global_one(self, calib10):
        out = ps.test_omnibus(np.ones(10), calib10)
        assert out.p_one_sided == 1.0

    def test_self_calibration_uniform_null(self, calib10):
        rng = np.random.default_rng(17)
        alpha = 0.025
        rejections = 0
        n_draws = 10_000
        for _ in range(n_draws):
            p = rng.uniform(0, 1, size=10)
            if ps.test_omnibus(p, calib10).p_one_sided <= alpha:
                rejections += 1
        rate = rejections / n_draws
        assert abs(rate - alpha) < 0.005

    @given(m=st.integers(2, 10), reps=st.integers(100, 2000), seed=st.integers(0, 2**32 - 1))
    def test_build_matches_reference_bit_for_bit(self, m, reps, seed):
        built = ps.build_omnibus_calibration(m, reps, seed).tables
        assert built.tobytes() == _ref_build_omnibus_calibration(m, reps, seed).tobytes()

    @pytest.mark.parametrize("m, extra", [(2, 0), (3, 1), (3, CALIBRATION_CHUNK + 17),
                                          (10, -1)])
    def test_chunked_build_matches_reference_across_chunks(self, m, extra):
        # the uniforms are drawn CALIBRATION_CHUNK replicates at a time; a
        # build of one chunk, one more, or several must equal one draw
        reps = CALIBRATION_CHUNK + extra
        built = ps.build_omnibus_calibration(m, reps, 5).tables
        assert built.tobytes() == _ref_build_omnibus_calibration(m, reps, 5).tobytes()

    def test_chunked_build_with_ties_matches_reference(self):
        reps = 2 * CALIBRATION_CHUNK + 3
        with mock.patch.object(ps.procedures, "_reciprocal", lambda p: np.round(1.0 / p)):
            built = ps.build_omnibus_calibration(3, reps, 4).tables
            ref = _ref_build_omnibus_calibration(3, reps, 4)
        assert np.any(np.diff(ref[0]) == 0)
        assert built.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [3, 10])
    def test_combined_statistic_is_the_smallest_partial_p(self, calib3, calib10, m):
        # the search that skips rows ranking no higher gives partial_p's minimum
        calib = calib3 if m == 3 else calib10
        gen = np.random.default_rng(m)
        draws = [gen.uniform(size=m) ** gen.uniform(1.0, 6.0) for _ in range(3000)]
        draws += [np.ones(m), np.full(m, 1e-14), np.r_[1e-14, np.ones(m - 1)],
                  np.r_[np.ones(m - 1), 1e-14]]
        for p in draws:
            partial = np.cumsum(ps.procedures._reciprocal(np.sort(p)))
            expected = float(calib.partial_p(partial).min())
            got = calib.combined_statistic(p)
            assert type(got) is float and got == expected

    def test_combined_statistic_with_sums_tied_to_table_entries(self):
        # whole-number reciprocals make the partial sums whole numbers that
        # equal entries of the tables: a row whose entry at the highest index
        # so far equals its sum ranks the sum no higher
        with mock.patch.object(ps.procedures, "_reciprocal", lambda p: np.round(1.0 / p)):
            calib = ps.build_omnibus_calibration(3, 500, 4)
            for k in itertools.product(range(1, 9), repeat=3):
                p = 1.0 / np.array(k, dtype=float)
                partial = np.cumsum(ps.procedures._reciprocal(np.sort(p)))
                assert calib.combined_statistic(p) == float(calib.partial_p(partial).min())

    def test_build_with_tied_partial_sums_matches_reference(self):
        # whole-number reciprocals tie many partial sums, so the sorted rows
        # hold runs of equal values: every tie must rank at the left of its run
        seed = 4
        with mock.patch.object(ps.procedures, "_reciprocal", lambda p: np.round(1.0 / p)):
            built = ps.build_omnibus_calibration(3, 500, seed).tables
            ref = _ref_build_omnibus_calibration(3, 500, seed)
        assert np.any(np.diff(ref[0]) == 0)
        assert built.tobytes() == ref.tobytes()

    def test_build_peak_memory(self):
        # the (11, 100_000) tables take 8.8 MB; the build holds one (reps, m)
        # working copy beside them, not three
        tracemalloc.start()
        try:
            ps.build_omnibus_calibration(10, 100_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22e6

    def test_length_mismatch(self, calib10):
        with pytest.raises(ValidationError):
            ps.test_omnibus(np.ones(3), calib10)

    def test_sensitive_to_small_pvalues(self, calib10):
        small = np.r_[0.0001, np.full(9, 0.5)]
        out = ps.test_omnibus(small, calib10)
        assert out.p_one_sided < 0.01

    def test_cache_round_trip(self, calib10, tmp_path):
        path = tmp_path / "calib.npy"
        save_omnibus_calibration(calib10, path)
        back = load_omnibus_calibration(path)
        assert back.m == calib10.m and back.reps == calib10.reps
        assert np.array_equal(back.sorted_null_stats, calib10.sorted_null_stats)
        assert np.array_equal(back.sorted_partial_stats, calib10.sorted_partial_stats)
        # keyed cache: same parameters come back from disk
        c1 = get_omnibus_calibration(tmp_path / "cache", m=3, reps=1000, seed=5)
        c2 = get_omnibus_calibration(tmp_path / "cache", m=3, reps=1000, seed=5)
        assert np.array_equal(c1.sorted_null_stats, c2.sorted_null_stats)
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            f"omnibus_m3_reciprocal_r1000_s5_v{CALIBRATION_FORMAT_VERSION}.npy"
        ]

    def test_saved_calibration_is_uncompressed(self, calib10, tmp_path):
        # one .npy: a header, then the (m + 1, reps) table's raw bytes
        save_omnibus_calibration(calib10, tmp_path / "calib.npy")
        assert [p.name for p in tmp_path.iterdir()] == ["calib.npy"]
        raw = (tmp_path / "calib.npy").read_bytes()
        table = np.vstack([calib10.sorted_partial_stats, calib10.sorted_null_stats])
        assert table.shape == (11, calib10.reps)
        assert raw.endswith(table.tobytes()) and len(raw) - table.nbytes <= 128

    def test_interrupted_save_leaves_no_file(self, calib10, tmp_path):
        def dies_midway(fh, arr, **kwargs):
            fh.write(b"\x93NUMPY partial header")
            raise OSError("no space left on device")

        with mock.patch.object(np, "save", dies_midway):
            with pytest.raises(OSError, match="no space"):
                save_omnibus_calibration(calib10, tmp_path / "calib.npy")
        assert list(tmp_path.iterdir()) == []

    def test_save_syncs_the_whole_file_before_renaming(self, calib10, tmp_path):
        path = tmp_path / "calib.npy"
        synced = []

        def fsync(fd):
            assert not path.exists()
            synced.append(os.fstat(fd).st_size)

        with mock.patch("psprsim.procedures.os.fsync", side_effect=fsync):
            save_omnibus_calibration(calib10, path)
        assert synced == [path.stat().st_size]

    @pytest.mark.parametrize("damage", ["truncate", "empty", "float32", "fortran", "shape",
                                        "two-rows"])
    def test_unreadable_cache_is_a_validation_error(self, tmp_path, damage):
        get_omnibus_calibration(tmp_path, m=3, reps=1000, seed=5)
        (path,) = tmp_path.iterdir()
        table = np.load(path)
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "float32":
            np.save(path, table.astype(np.float32))
        elif damage == "fortran":
            np.save(path, np.asfortranarray(table))
        elif damage == "shape":  # a readable table that is not the key's (m + 1, reps)
            np.save(path, table[:, :999])
        else:
            np.save(path, table[:2])
        with pytest.raises(ValidationError, match=path.name):
            get_omnibus_calibration(tmp_path, m=3, reps=1000, seed=5)

    def test_invariants_of_tables(self, calib10):
        assert calib10.sorted_null_stats.shape == (calib10.reps,)
        assert np.all(np.diff(calib10.sorted_null_stats) >= 0)
        assert np.all(np.diff(calib10.sorted_partial_stats, axis=1) >= 0)


def root_buffer(a):
    """The object that owns an array's memory."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


class TestMappedCalibration:
    """A cached calibration maps its tables where they lie in the file."""

    @pytest.mark.parametrize("m", [10, 3])
    def test_mapped_tables_equal_a_full_read(self, tmp_path, m):
        built = ps.build_omnibus_calibration(m, reps=2000, seed=3)
        path = tmp_path / "calib.npy"
        save_omnibus_calibration(built, path)
        back = load_omnibus_calibration(path)
        assert (back.m, back.reps) == (m, 2000)
        full = np.load(path)  # a plain read into memory
        for name, rows in (("sorted_partial_stats", slice(0, m)), ("sorted_null_stats", m)):
            mapped = getattr(back, name)
            assert type(mapped) is np.ndarray and mapped.dtype == np.float64
            assert mapped.tobytes() == getattr(built, name).tobytes() == full[rows].tobytes()
            assert not mapped.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mapped[0] = 0.0
            # the tables are the file's own pages, not a copy
            assert isinstance(root_buffer(mapped), mmap.mmap)
        # workers receive the tables by pickle
        again = pickle.loads(pickle.dumps(back))
        for name in ("sorted_partial_stats", "sorted_null_stats"):
            assert getattr(again, name).tobytes() == getattr(built, name).tobytes()
        rng = np.random.default_rng(m)
        for p in (np.r_[0.001, np.full(m - 1, 0.4)], *rng.uniform(size=(20, m))):
            assert ps.test_omnibus(p, back).p_one_sided == ps.test_omnibus(p, built).p_one_sided


class TestOmnibusDomains:
    def test_symmetric_arms_lookup(self, endpoints, calib3):
        fits = endpoints(arm_symmetric_dataset(), DOMAIN_ROWS)
        out = ps.test_omnibus_domains(fits, calib3)
        assert np.allclose(fits.p, 0.5)
        expected = calib3.global_p(calib3.combined_statistic(np.full(3, 0.5)))
        assert out.p_one_sided == expected

    def test_wrong_calibration_size(self, endpoints, calib10):
        fits = endpoints(arm_symmetric_dataset(), DOMAIN_ROWS)
        with pytest.raises(ValidationError):
            ps.test_omnibus_domains(fits, calib10)

    def test_single_domain_effect_beats_bonferroni(self, reference_pool, grm_model,
                                                   latent_approx, calib3):
        # history-domain-only effect (d4): the domain omnibus should win;
        # n = 25/group keeps both powers off the ceiling so the ordering
        # is resolvable
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scen = ps.builtin_scenarios()["d4"]
        wins_dom = wins_bonf = 0
        for i in range(300):
            data = ps.gen_discretized_mvn(params, scen, 25, ps.RngStream(7000 + i))
            fits = endpoint_fits(data, grm_model, latent_approx)
            if ps.test_omnibus_domains(fits.rows(DOMAIN_ROWS), calib3).p_one_sided <= 0.025:
                wins_dom += 1
            if ps.test_bonferroni(fits.rows(ITEM_ROWS)).p_one_sided <= 0.025:
                wins_bonf += 1
        assert wins_dom > wins_bonf


class TestOutcomeContract:
    def test_all_procedures_unit_interval(self, endpoints, calib10, calib3, effect_dataset):
        fits = endpoints(effect_dataset, ITEM_ROWS)
        corr = ps.estimate_corr(effect_dataset, fits)
        outcomes = [
            ps.test_sum_score(endpoints(effect_dataset, SUM_ROW)),
            ps.test_irt(endpoints(effect_dataset, IRT_ROW)),
            ps.test_lm_approx(endpoints(effect_dataset, LM_ROW)),
            ps.test_obrien(fits, corr, variant="OLS"),
            ps.test_obrien(fits, corr, variant="GLS"),
            ps.test_obrien(fits, corr, variant="GLS-drop"),
            ps.test_bonferroni(fits),
            ps.test_simes_hommel(fits),
            ps.test_maxt(fits, corr, rng=ps.RngStream(8)),
            ps.test_omnibus(fits.p, calib10),
            ps.test_omnibus_domains(endpoints(effect_dataset, DOMAIN_ROWS), calib3),
        ]
        assert len(outcomes) == len(ps.METHODS)
        for out in outcomes:
            assert 0.0 <= out.p_one_sided <= 1.0


# ---------------------------------------------------------------------------
# validation errors of the correlation, calibration, plan and CSV layers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ps.estimate_corr(arm_symmetric_dataset(n=20),
                                          item_fits(arm_symmetric_dataset(n=30))),
                 "fits were not computed on this dataset", id="corr-other-dataset"),
    pytest.param(lambda: ps.build_omnibus_calibration(m=1, reps=100),
                 "need m >= 2, got 1", id="calibration-m-1"),
    pytest.param(lambda: ps.StudyPlan("mvn", scenarios=[3]),
                 "bad scenario entry 3", id="plan-scenario-number"),
    pytest.param(lambda: load_trial_csv("trial.csv", {"placebo": "x"}),
                 "arm_map values must be treatment/control/drop, got 'x'",
                 id="arm-map-target"),
])
def test_layer_validation_errors(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_hommel_of_one_p_value_is_that_p_value():
    p = np.array([0.3])
    out = hommel_adjust(p)
    assert np.array_equal(out, p) and out is not p
