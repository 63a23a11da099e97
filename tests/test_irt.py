"""IRT tests: category-probability identities, EAP against a 20001-point
dense-grid oracle, EM parameter recovery, a direct-MML 2PL oracle for the
binary special case, and the weighted-sum approximation."""

import numpy as np
import pytest
from scipy import optimize, special

import psprsim as ps
from psprsim.datagen import sample_grm_scores
from psprsim.errors import ValidationError
from psprsim.irt import GrModel, eap_scores


def sigmoid(x):
    return special.expit(x)


def small_model(n_items=3, seed=0):
    rng = np.random.default_rng(seed)
    items = [
        ps.GrItemParams(
            discrimination=float(rng.uniform(0.8, 2.0)),
            thresholds=np.sort(rng.uniform(-2, 2, size=4)) + np.arange(4) * 1e-3,
        )
        for _ in range(n_items)
    ]
    return GrModel(items=items)


class TestCategoryProbs:
    def test_extreme_theta_floors(self):
        item = ps.GrItemParams(1.3, np.array([-1.0, 0.5, 1.0, 2.0]))
        p = ps.grm_category_probs(item, -30.0)
        assert p[0] > 1 - 1e-10
        p_hi = ps.grm_category_probs(item, 30.0)
        assert p_hi[-1] > 1 - 1e-10

    def test_direct_formula(self):
        item = ps.GrItemParams(1.0, np.array([-1.0, 0.0, 1.0, 2.0]))
        p = ps.grm_category_probs(item, 0.0)
        sf = sigmoid(np.array([1.0, 0.0, -1.0, -2.0]))  # a(theta - b_c)
        expected = np.r_[1 - sf[0], sf[:-1] - sf[1:], sf[-1]]
        assert np.allclose(p, expected, atol=1e-15)
        assert abs(p.sum() - 1.0) < 1e-14

    def test_sum_to_one_on_grid(self):
        model = small_model(seed=2)
        for item in model.items:
            for theta in np.linspace(-10, 10, 81):
                assert abs(ps.grm_category_probs(item, theta).sum() - 1.0) < 1e-12

    def test_exceedance_monotone_in_theta(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            item = ps.GrItemParams(
                float(rng.uniform(0.5, 2.5)),
                np.sort(rng.uniform(-2.5, 2.5, size=3)) + np.arange(3) * 1e-3,
            )
            grid = np.linspace(-6, 6, 101)
            probs = np.array([ps.grm_category_probs(item, t) for t in grid])
            exceed = 1.0 - np.cumsum(probs, axis=1)[:, :-1]  # P(Y > c)
            assert np.all(np.diff(exceed, axis=0) >= -1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            ps.GrItemParams(0.0, np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            ps.GrItemParams(1.0, np.array([1.0, 0.5]))


def _dense_grid_eap(model, response, n=20001):
    grid = np.linspace(-8.0, 8.0, n)
    log_post = -0.5 * grid**2
    for k, item in enumerate(model.items):
        probs = np.array(
            [ps.grm_category_probs(item, t)[response[k]] for t in grid]
        )
        log_post += np.log(np.clip(probs, 1e-300, None))
    w = np.exp(log_post - log_post.max())
    return float(np.trapezoid(grid * w, grid) / np.trapezoid(w, grid))


class TestEapScore:
    def test_symmetric_model_middle_pattern(self):
        items = [
            ps.GrItemParams(1.4, np.array([-1.5, -0.5, 0.5, 1.5])) for _ in range(4)
        ]
        model = GrModel(items=items)
        out = ps.eap_score(model, np.array([2, 2, 2, 2]))
        assert isinstance(out, ps.LatentTrait)
        assert abs(out.theta) < 1e-8

    def test_dense_grid_oracle(self):
        model = small_model(n_items=3, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(12):
            resp = rng.integers(0, 5, size=3)
            fast = ps.eap_score(model, resp).theta
            slow = _dense_grid_eap(model, resp)
            assert fast == pytest.approx(slow, abs=1e-6)

    def test_dense_grid_oracle_ten_items(self, grm_model):
        rng = np.random.default_rng(6)
        tops = np.array([it.n_categories for it in grm_model.items])
        for _ in range(4):
            resp = rng.integers(0, tops)
            fast = ps.eap_score(grm_model, resp).theta
            slow = _dense_grid_eap(grm_model, resp)
            assert fast == pytest.approx(slow, abs=1e-6)

    def test_monotone_in_each_response_exhaustive(self):
        # all patterns of small 2- and 3-item models
        for n_items, seed in ((2, 7), (3, 8)):
            model = small_model(n_items=n_items, seed=seed)
            shape = tuple(it.n_categories for it in model.items)
            patterns = np.indices(shape).reshape(n_items, -1).T
            theta = eap_scores(model, patterns)
            lookup = {tuple(p): t for p, t in zip(map(tuple, patterns), theta)}
            for p in map(tuple, patterns):
                for k in range(n_items):
                    if p[k] + 1 < shape[k]:
                        q = list(p)
                        q[k] += 1
                        assert lookup[tuple(q)] > lookup[p]

    def test_out_of_range_response_named(self, grm_model):
        resp = np.zeros(10, dtype=int)
        resp[3] = 9
        with pytest.raises(ValidationError, match="item12"):
            ps.eap_score(grm_model, resp)
        resp[3] = -1
        with pytest.raises(ValidationError):
            ps.eap_score(grm_model, resp)


    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 70, 141])
    def test_stacked_blocks_match_each_block_alone(self, grm_model, latent_approx, n):
        # the engine scores both visits in one call; every n, aligned to the
        # BLAS kernels' block width or not, keeps each visit's bits
        visits = np.random.default_rng(n).integers(0, 5, size=(2, n, 10))
        theta = eap_scores(grm_model, visits)
        latent = ps.approx_latent(latent_approx, visits)
        assert theta.shape == latent.shape == (2, n)
        for k in range(2):
            assert theta[k].tobytes() == eap_scores(grm_model, visits[k]).tobytes()
            assert latent[k].tobytes() == ps.approx_latent(latent_approx, visits[k]).tobytes()


class TestFitGrm:
    def test_parameter_recovery(self):
        true_items = [
            ps.GrItemParams(1.2, np.array([-1.6, -0.5, 0.4, 1.5])),
            ps.GrItemParams(1.8, np.array([-1.0, 0.0, 1.0, 2.0])),
            ps.GrItemParams(0.9, np.array([-2.0, -0.8, 0.6, 1.8])),
            ps.GrItemParams(1.5, np.array([-0.9, 0.3, 1.2, 2.1])),
            ps.GrItemParams(1.1, np.array([-1.8, -0.9, 0.1, 1.1])),
        ]
        truth = GrModel(items=true_items)
        rng = ps.RngStream(20_26)
        thetas = rng.gen.standard_normal(2000)
        rows = sample_grm_scores(truth, thetas, rng)
        model = ps.fit_grm(rows, category_counts=np.full(5, 5))
        for fit, true in zip(model.items, true_items):
            assert fit.discrimination == pytest.approx(true.discrimination, abs=0.15)
            assert np.abs(fit.thresholds - true.thresholds).max() < 0.15

    def test_duplicated_rows_identical_estimates(self):
        model = small_model(n_items=4, seed=9)
        rng = ps.RngStream(10)
        rows = sample_grm_scores(model, rng.gen.standard_normal(400), rng)
        fit1 = ps.fit_grm(rows, category_counts=np.full(4, 5))
        fit2 = ps.fit_grm(np.vstack([rows, rows]), category_counts=np.full(4, 5))
        for a, b in zip(fit1.items, fit2.items):
            assert a.discrimination == pytest.approx(b.discrimination, abs=1e-8)
            assert np.abs(a.thresholds - b.thresholds).max() < 1e-8

    def test_binary_items_match_direct_2pl_oracle(self):
        # binary-collapsed items reduce the GRM to a 2PL; compare against a
        # direct optimization of the quadrature marginal likelihood
        true_items = [
            ps.GrItemParams(1.4, np.array([-0.5])),
            ps.GrItemParams(0.9, np.array([0.3])),
            ps.GrItemParams(1.9, np.array([0.9])),
        ]
        truth = GrModel(items=true_items)
        rng = ps.RngStream(31)
        rows = sample_grm_scores(truth, rng.gen.standard_normal(1500), rng)
        model = ps.fit_grm(rows, category_counts=np.full(3, 2),
                           tol=1e-13, max_iter=5000)

        nodes, weights = np.polynomial.hermite.hermgauss(61)
        nodes = nodes * np.sqrt(2.0)
        weights = weights / np.sqrt(np.pi)
        patterns, counts = np.unique(rows, axis=0, return_counts=True)

        def neg_ll(params):
            a = np.exp(params[:3])
            b = params[3:]
            p1 = sigmoid(a * (nodes[:, None] - b))  # (Q, 3)
            like = np.ones((len(nodes), len(patterns)))
            for k in range(3):
                like *= np.where(patterns[:, k] == 1, p1[:, k][:, None], 1 - p1[:, k][:, None])
            return -(counts * np.log(weights @ like)).sum()

        x0 = np.r_[np.log([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0]]
        res = optimize.minimize(neg_ll, x0, method="L-BFGS-B",
                                options={"ftol": 1e-15, "gtol": 1e-11,
                                         "maxiter": 5000})
        a_oracle = np.exp(res.x[:3])
        b_oracle = res.x[3:]
        for k, item in enumerate(model.items):
            assert item.discrimination == pytest.approx(a_oracle[k], abs=1e-4)
            assert item.thresholds[0] == pytest.approx(b_oracle[k], abs=1e-4)

    def test_unobserved_category_merged_with_record(self):
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 3, size=(300, 2))  # categories 3 and 4 never occur
        model = ps.fit_grm(rows, category_counts=np.full(2, 5))
        assert model.fit_meta["merged_items"] == ["item0", "item1"]
        assert model.items[0].n_categories == 3
        # raw scores 0..4 still score: top levels fold into the top category
        assert np.array_equal(model.category_maps[0], [0, 1, 2, 2, 2])
        t_lo = eap_scores(model, np.array([[0, 0]]))[0]
        t_hi = eap_scores(model, np.array([[4, 4]]))[0]
        assert t_hi > t_lo

    def test_loglik_trace_is_clean(self, grm_model):
        assert grm_model.fit_meta["iterations"] < 500
        assert np.isfinite(grm_model.fit_meta["log_likelihood"])

    def test_serialization_round_trip_bit_exact(self, grm_model, tmp_path):
        path = tmp_path / "model.json"
        grm_model.save(path)
        back = GrModel.load(path)
        assert back.scheme == grm_model.scheme
        for a, b in zip(back.items, grm_model.items):
            assert a.discrimination == b.discrimination  # bit-exact
            assert np.array_equal(a.thresholds, b.thresholds)
        for m1, m2 in zip(back.category_maps, grm_model.category_maps):
            assert np.array_equal(m1, m2)
        # saving again reproduces the same bytes
        path2 = tmp_path / "model2.json"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()


class TestLinearLatentApprox:
    def test_constant_thetas(self):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 5, size=(200, 10))
        approx = ps.fit_linear_latent_approx(rows.astype(float), np.full(200, 0.7))
        assert np.abs(approx.weights).max() < 1e-12
        assert approx.intercept == pytest.approx(float(sigmoid(0.7)), abs=1e-12)

    def test_matches_normal_equations_oracle(self, reference_pool, eap_thetas, latent_approx):
        rows = reference_pool.flatten_visits().astype(float)
        X = np.column_stack([np.ones(rows.shape[0]), rows])
        target = sigmoid(eap_thetas)
        coef = np.linalg.solve(X.T @ X, X.T @ target)
        assert latent_approx.intercept == pytest.approx(coef[0], abs=1e-10)
        assert np.abs(latent_approx.weights - coef[1:]).max() < 1e-10

    def test_reference_fit_quality(self, latent_approx):
        assert latent_approx.r_squared >= 0.95

    def test_normalized_weights_sum_to_one(self, latent_approx):
        assert latent_approx.normalized_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_serialization_round_trip(self, latent_approx, tmp_path):
        path = tmp_path / "approx.json"
        latent_approx.save(path)
        back = ps.LinearLatentApprox.load(path)
        assert back.intercept == latent_approx.intercept
        assert np.array_equal(back.weights, latent_approx.weights)


class TestApproxLatent:
    def test_logit_midpoint(self):
        approx = ps.LinearLatentApprox(intercept=0.5, weights=np.zeros(10), r_squared=1.0)
        assert ps.approx_latent(approx, np.zeros(10)) == 0.0

    def test_clamp_rule(self):
        approx = ps.LinearLatentApprox(intercept=1.2, weights=np.zeros(10), r_squared=1.0)
        val = ps.approx_latent(approx, np.zeros(10))
        assert val == pytest.approx(float(special.logit(1 - 1e-6)), abs=1e-12)
        assert val == pytest.approx(13.8155, abs=1e-4)
        low = ps.LinearLatentApprox(intercept=-0.2, weights=np.zeros(10), r_squared=1.0)
        assert ps.approx_latent(low, np.zeros(10)) == pytest.approx(
            float(special.logit(1e-6)), abs=1e-12
        )

    def test_tracks_eap_on_reference(self, reference_pool, grm_model, eap_thetas, latent_approx):
        z = ps.approx_latent(latent_approx, reference_pool.flatten_visits())
        assert np.corrcoef(z, eap_thetas)[0, 1] >= 0.97
