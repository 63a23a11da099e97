"""Testing-procedure suite: direction conventions, the modified-df rule,
closed-testing oracles for Hommel, dominance properties, omnibus
calibration consistency, and MaxT's Bonferroni bound."""

import itertools
import mmap
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.special import ndtr

import psprsim as ps
from psprsim.engine import MethodContext, run_methods
from psprsim.errors import NumericalError, ValidationError
from psprsim.marginal import DOMAIN_ROWS, IRT_ROW, ITEM_ROWS, LM_ROW, SUM_ROW, CorrelationEstimate
from psprsim.procedures import (
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
            ps.student_t_cdf(out.statistic, modified_df(70, 10)), abs=1e-15
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
            expect = ps.normal_quantile(ps.student_t_cdf(-t, fits.df))
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


class TestMaxTDecision:
    """test_maxt(alpha=...) settles p <= alpha from the exact bounds
    p_min <= p <= min(1, 10 p_min) or an early-stopped integral."""

    @given(case=decision_data, alpha=st.floats(min_value=1e-4, max_value=0.2))
    def test_bound_settled_skips_integral(self, reference_pool, case, alpha):
        data = _decision_dataset(reference_pool, *case)
        fits = item_fits(data)
        corr = ps.estimate_corr(data, fits)
        rng = ps.RngStream(case[2])
        with mock.patch("psprsim.procedures.mvn_rect_upper",
                        wraps=ps.mvn_rect_upper) as integral:
            out = ps.test_maxt(fits, corr, tol=1e-3, rng=rng, alpha=alpha)
        p_min = float(ndtr(-out.statistic))
        p_max = min(1.0, 10 * p_min)
        if p_min <= alpha < p_max:
            event("band")
            assert integral.call_count == 1
            return
        event("settled")
        assert integral.call_count == 0
        assert out.diagnostics["bound_settled"]
        assert p_min <= out.p_one_sided <= p_max
        assert (out.p_one_sided <= alpha) == (p_max <= alpha)
        # the replicate's stream is left untouched
        assert rng.gen.random() == ps.RngStream(case[2]).gen.random()

    @settings(derandomize=True)
    @given(case=decision_data, frac=st.floats(min_value=0.0, max_value=1.0,
                                             exclude_min=True, exclude_max=True))
    def test_band_decision_matches_full_precision(self, reference_pool, case, frac):
        data = _decision_dataset(reference_pool, *case)
        fits = item_fits(data)
        corr = ps.estimate_corr(data, fits)
        seed = case[2]
        full = ps.test_maxt(fits, corr, tol=1e-4, rng=ps.RngStream(seed))
        p_min = float(ndtr(-full.statistic))
        # an alpha strictly inside the bounds forces the integral
        alpha = p_min * (1.0 + 9.0 * frac)
        if not p_min < alpha < min(1.0, 10 * p_min):
            return
        fast = ps.test_maxt(fits, corr, tol=1e-4, rng=ps.RngStream(seed),
                            alpha=alpha)
        assert "bound_settled" not in fast.diagnostics
        err_full = full.diagnostics["mvn_error_estimate"]
        assert fast.diagnostics["mvn_error_estimate"] >= err_full
        if abs(full.p_one_sided - alpha) > err_full:
            assert (fast.p_one_sided <= alpha) == (full.p_one_sided <= alpha)

    def test_full_precision_p_value_pinned(self, reference_pool, two_arm_dataset):
        # without alpha (as analyze calls it) the p-value is integrated to
        # tol; the pinned bits catch any leak of the decision path into it
        out = ps.test_maxt(*marginals(two_arm_dataset), rng=ps.RngStream(3))
        assert out.p_one_sided == float.fromhex("0x1.f749a904b3b76p-2")
        assert out.diagnostics["mvn_error_estimate"] <= 1e-4
        effect = _decision_dataset(reference_pool, "d3", 70, 22)
        out = ps.test_maxt(*marginals(effect), rng=ps.RngStream(3))
        assert out.p_one_sided == float.fromhex("0x1.f6b95958ee8c0p-7")


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

    def test_build_with_tied_partial_sums_matches_reference(self):
        # whole-number reciprocals tie many partial sums, so the sorted rows
        # hold runs of equal values: every tie must rank at the left of its run
        seed = 4
        with mock.patch.object(ps.procedures, "_reciprocal", lambda p: np.round(1.0 / p)):
            built = ps.build_omnibus_calibration(3, 500, seed).tables
            ref = _ref_build_omnibus_calibration(3, 500, seed)
        assert np.any(np.diff(ref[0]) == 0)
        assert built.tobytes() == ref.tobytes()

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
        save_omnibus_calibration(calib10, tmp_path / "calib")
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
