"""Marginal-model tests: the endpoint block against single-endpoint refits,
and the stacked-sandwich correlation against known-truth simulations."""

import numpy as np
import pytest

import psprsim as ps
from psprsim.errors import SingularDesignError
from psprsim.marginal import (
    DOMAIN_ROWS,
    ENDPOINTS,
    IRT_ROW,
    ITEM_ROWS,
    LM_ROW,
    SUM_ROW,
    sandwich_treatment_correlation,
)
from psprsim.scales import DOMAINS, N_ITEMS

from conftest import endpoint_fits, item_fits


def make_dataset(baseline, week52, arm):
    n = len(arm)
    return ps.ItemDataset(
        ids=np.array([f"S{i}" for i in range(n)]),
        arm=np.asarray(arm, dtype=np.int8),
        baseline=baseline,
        week52=week52,
    )


def random_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    baseline = rng.integers(0, 5, size=(n, N_ITEMS))
    week52 = np.clip(baseline + rng.integers(-1, 3, size=(n, N_ITEMS)), 0, 4)
    arm = np.r_[np.zeros(n // 2, dtype=np.int8), np.ones(n - n // 2, dtype=np.int8)]
    return make_dataset(baseline, week52, arm)


PINNED_T_HEX = [
    "0x1.2525fe421daacp+0", "-0x1.4f818c80aa44fp-3", "0x1.240f3b5e7561ap-1",
    "-0x1.69a3a9ab6368ap-1", "0x1.daeec4536ca5cp-3", "-0x1.0f338777450c5p+0",
    "0x1.57da134baa6e5p+0", "-0x1.024318fc3deedp-1", "-0x1.81952f5552dbdp-5",
    "-0x1.e39186a746d5ap-3",
]
PINNED_R_HEX = [
    "0x1.06b337f568260p-1", "0x1.2d95e9edc56b3p-1", "0x1.c95be406ef523p-2",
    "0x1.ffd6ea4bf0870p-2", "0x1.04d423cb7cbddp-1", "0x1.0dcdcc9ae57bbp-1",
    "0x1.ff3c86c45a75ep-2", "0x1.de91574f93babp-2", "0x1.2735d92be13c9p-1",
    "0x1.1e02949e51339p-1", "0x1.dedf88b5264d2p-2", "0x1.e0bfa13e35359p-2",
    "0x1.28ab6a3b0bb48p-1", "0x1.07432efad2b47p-1", "0x1.09fcf6140b766p-1",
    "0x1.04cd9780df872p-1", "0x1.0af653d98cde2p-1", "0x1.04dc452d483f0p-1",
    "0x1.17df6fee03dbfp-1", "0x1.11ce33fc18755p-1", "0x1.2125a2feebabdp-1",
    "0x1.1999d2b2be946p-1", "0x1.3e833f427da52p-1", "0x1.305e7506d7f31p-1",
    "0x1.1e77f12004c6fp-1", "0x1.dc7ef521b3d86p-2", "0x1.1f0af452fdb2bp-1",
    "0x1.f3bb63daf1de5p-2", "0x1.140e78bb4ca74p-1", "0x1.0073834abafe4p-1",
    "0x1.090ea5575ca25p-1", "0x1.1ea87c5b67872p-1", "0x1.07f9b41f4d9c8p-1",
    "0x1.e0e403656a293p-2", "0x1.2760cf5d88954p-1", "0x1.fe2ed176ac7a7p-2",
    "0x1.072ccf3d4402cp-1", "0x1.21fa8034a6f48p-1", "0x1.53d54d9a3dd4cp-1",
    "0x1.2b23a7251b7d0p-1", "0x1.31602f4b9aff9p-1", "0x1.359c5fcd274f8p-1",
    "0x1.14011a000f2b5p-1", "0x1.39dee21f52403p-1", "0x1.2e6058a8656b5p-1",
]


def per_item_sandwich(baseline, arm, residuals):
    """Reference: the sandwich correlation built one item at a time."""
    n, m = residuals.shape
    ones = np.ones(n)
    e_treat = np.array([0.0, 0.0, 1.0])
    H = np.empty((n, m))
    for j in range(m):
        X = np.column_stack([ones, baseline[:, j].astype(float), arm.astype(float)])
        a = np.linalg.solve(X.T @ X, e_treat)
        H[:, j] = (X @ a) * residuals[:, j]
    V = H.T @ H
    d = np.sqrt(np.diag(V))
    R = V / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    return R


class TestFitMarginals:
    def test_no_change_gives_zero_t(self, grm_model, latent_approx):
        rng = np.random.default_rng(1)
        baseline = rng.integers(0, 5, size=(40, N_ITEMS))
        data = make_dataset(baseline, baseline.copy(),
                            np.r_[np.zeros(20, dtype=np.int8), np.ones(20, dtype=np.int8)])
        fits = endpoint_fits(data, grm_model, latent_approx)
        assert np.array_equal(fits.t, np.zeros(len(ENDPOINTS)))

    def test_matches_single_endpoint_refit(self, grm_model, latent_approx):
        data = random_dataset(seed=3)
        fits = endpoint_fits(data, grm_model, latent_approx)
        visits = np.stack([data.baseline, data.week52])
        theta = ps.eap_scores(grm_model, visits)
        latent = ps.approx_latent(latent_approx, visits)
        domains = [[data.baseline[:, list(c)].sum(axis=1), data.week52[:, list(c)].sum(axis=1)]
                   for c in DOMAINS.values()]
        lone = [*([data.baseline[:, j], data.week52[:, j]] for j in range(N_ITEMS)), *domains,
                [data.baseline.sum(axis=1), data.week52.sum(axis=1)], theta, latent]
        assert len(lone) == len(ENDPOINTS)
        for j, (base, week) in enumerate(lone):
            ref = ps.fit_ancova(week, base, data.arm)
            for name in ("coef", "se", "t", "p", "residuals"):
                assert getattr(fits, name)[j:j + 1].tobytes() == getattr(ref, name).tobytes()
        assert fits.df == data.n_subjects - 3

    def test_singular_item_named(self, grm_model, latent_approx):
        data = random_dataset(seed=4)
        baseline = data.baseline.copy()
        baseline[:, 7] = 2  # constant baseline on one item
        bad = make_dataset(baseline, data.week52, data.arm)
        fits = endpoint_fits(bad, grm_model, latent_approx)
        assert np.flatnonzero(fits.singular).tolist() == [7]
        with pytest.raises(SingularDesignError, match="item26"):
            ps.endpoint_rows(fits, ITEM_ROWS)
        # the other endpoints stay readable
        for rows in (DOMAIN_ROWS, SUM_ROW, IRT_ROW, LM_ROW):
            assert np.isfinite(ps.endpoint_rows(fits, rows).p).all()

    def test_first_of_two_singular_items_named(self, grm_model, latent_approx):
        data = random_dataset(seed=4)
        baseline = data.baseline.copy()
        baseline[:, 3] = 1  # item12
        baseline[:, 7] = 2  # item26
        bad = make_dataset(baseline, data.week52, data.arm)
        fits = endpoint_fits(bad, grm_model, latent_approx)
        with pytest.raises(SingularDesignError, match="item12") as info:
            ps.endpoint_rows(fits, ITEM_ROWS)
        assert info.value.column == 3

    def test_pinned_bits(self, two_arm_dataset, grm_model, latent_approx):
        # float-hex bits of the per-item t-values and the sandwich
        # correlation's upper triangle, as the per-item fitting loop gave them
        fits = ps.endpoint_rows(endpoint_fits(two_arm_dataset, grm_model, latent_approx),
                                ITEM_ROWS)
        assert [t.hex() for t in fits.t] == PINNED_T_HEX
        R = ps.estimate_corr(two_arm_dataset, fits).R
        assert [r.hex() for r in R[np.triu_indices(N_ITEMS, 1)]] == PINNED_R_HEX

    def test_arm_symmetric_duplicate_is_exact_zero(self, grm_model, latent_approx):
        rng = np.random.default_rng(5)
        n = 30
        baseline = rng.integers(0, 5, size=(n, N_ITEMS))
        week52 = np.clip(baseline + rng.integers(-1, 2, size=(n, N_ITEMS)), 0, 4)
        data = make_dataset(
            np.vstack([baseline, baseline]),
            np.vstack([week52, week52]),
            np.r_[np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)],
        )
        fits = endpoint_fits(data, grm_model, latent_approx)
        # zero up to floating-point least-squares round-off
        assert np.abs(fits.t).max() < 1e-10


class TestEstimateCorr:
    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_matches_per_item_loop(self, seed):
        data = random_dataset(n=40 + 7 * seed, seed=100 + seed)
        fits = item_fits(data)
        residuals = fits.residuals.T
        R = sandwich_treatment_correlation(data.baseline, data.arm, residuals)
        assert np.array_equal(R, per_item_sandwich(data.baseline, data.arm, residuals))

    def test_stacked_matches_per_item_loop_on_floats(self):
        rng = np.random.default_rng(13)
        n, m = 90, 5
        arm = (np.arange(n) % 2).astype(float)
        baseline = rng.normal(0, 1, size=(n, m))
        residuals = rng.normal(0, 1, size=(n, m))
        R = sandwich_treatment_correlation(baseline, arm, residuals)
        assert np.array_equal(R, per_item_sandwich(baseline, arm, residuals))

    def test_duplicated_item_perfectly_correlated(self):
        data = random_dataset(seed=6)
        baseline = data.baseline.copy()
        week52 = data.week52.copy()
        baseline[:, 1] = baseline[:, 0]
        week52[:, 1] = week52[:, 0]
        dup = make_dataset(baseline, week52, data.arm)
        fits = item_fits(dup)
        corr = ps.estimate_corr(dup, fits)
        assert corr.R[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_independent_items_near_zero(self):
        rng = np.random.default_rng(7)
        n = 10_000
        arm = (np.arange(n) % 2).astype(float)
        baseline = rng.normal(0, 1, size=(n, 2))
        week52 = 0.5 * baseline + rng.normal(0, 1, size=(n, 2))  # independent noise
        residuals = np.empty((n, 2))
        for j in range(2):
            fit = ps.fit_ancova(week52[:, j], baseline[:, j], arm)
            residuals[:, j] = fit.residuals[0]
        R = sandwich_treatment_correlation(baseline, arm, residuals)
        assert abs(R[0, 1]) < 0.05

    def test_known_truth_residual_correlation(self):
        # bivariate normal outcomes with residual correlation 0.6
        rng = np.random.default_rng(8)
        n = 20_000
        arm = (np.arange(n) % 2).astype(float)
        baseline = rng.normal(0, 1, size=(n, 2))
        L = np.linalg.cholesky(np.array([[1.0, 0.6], [0.6, 1.0]]))
        noise = rng.standard_normal((n, 2)) @ L.T
        week52 = 0.5 * baseline + noise
        residuals = np.empty((n, 2))
        for j in range(2):
            fit = ps.fit_ancova(week52[:, j], baseline[:, j], arm)
            residuals[:, j] = fit.residuals[0]
        R = sandwich_treatment_correlation(baseline, arm, residuals)
        assert R[0, 1] == pytest.approx(0.6, abs=0.03)

    def test_symmetric_psd_unit_diagonal(self):
        data = random_dataset(seed=9)
        fits = item_fits(data)
        R = ps.estimate_corr(data, fits).R
        assert np.allclose(R, R.T)
        assert np.allclose(np.diag(R), 1.0)
        assert np.linalg.eigvalsh(R).min() >= -1e-10

    def test_item_relabeling_permutes_R(self):
        data = random_dataset(seed=10)
        fits = item_fits(data)
        R = ps.estimate_corr(data, fits).R
        perm = np.random.default_rng(11).permutation(N_ITEMS)
        permuted = make_dataset(data.baseline[:, perm], data.week52[:, perm], data.arm)
        fits_p = item_fits(permuted)
        R_p = ps.estimate_corr(permuted, fits_p).R
        assert np.allclose(R_p, R[np.ix_(perm, perm)], atol=1e-12)

    def test_item_subset_is_restriction(self):
        # GLS-drop reads the 9-item correlation as a restriction of R: the
        # sandwich re-estimated on the items kept is that restriction
        data = random_dataset(seed=10)
        fits = item_fits(data)
        R = ps.estimate_corr(data, fits).R
        keep = np.delete(np.arange(N_ITEMS), 4)
        R_keep = sandwich_treatment_correlation(data.baseline[:, keep], data.arm,
                                                fits.residuals[keep].T)
        assert np.allclose(R_keep, R[np.ix_(keep, keep)], atol=1e-12)

    def test_affine_rescaling_invariance(self):
        # correlation, not covariance: per-item affine maps leave R unchanged
        rng = np.random.default_rng(12)
        n = 500
        arm = (np.arange(n) % 2).astype(float)
        baseline = rng.normal(0, 1, size=(n, 3))
        week52 = 0.4 * baseline + rng.normal(0, 1, size=(n, 3))

        def corr_of(b, w):
            residuals = np.column_stack(
                [ps.fit_ancova(w[:, j], b[:, j], arm).residuals[0] for j in range(3)]
            )
            return sandwich_treatment_correlation(b, arm, residuals)

        R1 = corr_of(baseline, week52)
        scale = np.array([2.0, 0.5, 7.0])
        shift = np.array([-1.0, 3.0, 0.25])
        R2 = corr_of(baseline * scale + shift, week52 * scale + shift)
        assert np.allclose(R1, R2, atol=1e-9)
