"""IRT tests: category-probability identities, EAP against a 20001-point
dense-grid oracle, the padded model arrays and the lockstep M-step against
per-item reference code, EM parameter recovery, a direct-MML 2PL oracle for
the binary special case, and the weighted-sum approximation."""

import json
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize, special

import psprsim as ps
from psprsim.datagen import sample_grm_scores
from psprsim.errors import NonConvergenceError, ValidationError
from psprsim.irt import (
    DEFAULT_NODES,
    PREFIX_ITEMS,
    GrModel,
    _category_probs,
    _gauss_hermite,
    _newton_block,
    _objective_grads,
    _row_loglik,
    eap_scores,
)
from psprsim.scales import ITEM_COLUMNS, N_ITEMS, ensure_scheme

from conftest import grm_category_probs


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
        p = grm_category_probs(item, -30.0)
        assert p[0] > 1 - 1e-10
        p_hi = grm_category_probs(item, 30.0)
        assert p_hi[-1] > 1 - 1e-10

    def test_direct_formula(self):
        item = ps.GrItemParams(1.0, np.array([-1.0, 0.0, 1.0, 2.0]))
        p = grm_category_probs(item, 0.0)
        sf = sigmoid(np.array([1.0, 0.0, -1.0, -2.0]))  # a(theta - b_c)
        expected = np.r_[1 - sf[0], sf[:-1] - sf[1:], sf[-1]]
        assert np.allclose(p, expected, atol=1e-15)
        assert abs(p.sum() - 1.0) < 1e-14

    def test_sum_to_one_on_grid(self):
        model = small_model(seed=2)
        for item in model.items:
            for theta in np.linspace(-10, 10, 81):
                assert abs(grm_category_probs(item, theta).sum() - 1.0) < 1e-12

    def test_exceedance_monotone_in_theta(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            item = ps.GrItemParams(
                float(rng.uniform(0.5, 2.5)),
                np.sort(rng.uniform(-2.5, 2.5, size=3)) + np.arange(3) * 1e-3,
            )
            grid = np.linspace(-6, 6, 101)
            probs = np.array([grm_category_probs(item, t) for t in grid])
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
            [grm_category_probs(item, t)[response[k]] for t in grid]
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
        theta = eap_scores(model, np.array([[2, 2, 2, 2]]))[0]
        assert abs(theta) < 1e-8

    def test_dense_grid_oracle(self):
        model = small_model(n_items=3, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(12):
            resp = rng.integers(0, 5, size=3)
            fast = eap_scores(model, resp[None])[0]
            slow = _dense_grid_eap(model, resp)
            assert fast == pytest.approx(slow, abs=1e-6)

    def test_dense_grid_oracle_ten_items(self, grm_model):
        rng = np.random.default_rng(6)
        tops = np.array([it.n_categories for it in grm_model.items])
        for _ in range(4):
            resp = rng.integers(0, tops)
            fast = eap_scores(grm_model, resp[None])[0]
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
            eap_scores(grm_model, resp[None])
        resp[3] = -1
        with pytest.raises(ValidationError):
            eap_scores(grm_model, resp[None])


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


# Per-item reference code: the graded-response evaluation as it ran item by
# item before the model kept one padded parameter table. The padded kernel
# must reproduce it bit for bit.


def _ref_survival(item, thetas):
    return special.expit(item.discrimination * (thetas[:, None] - item.thresholds))


def _ref_log_prob_tables(model, thetas):
    tables = []
    for it in model.items:
        sf = _ref_survival(it, thetas)
        upper = np.concatenate([np.ones((thetas.size, 1)), sf], axis=1)
        lower = np.concatenate([sf, np.zeros((thetas.size, 1))], axis=1)
        tables.append(np.log(np.clip(upper - lower, 1e-300, None)))
    return tables


def _ref_map_responses(model, responses):
    y = np.atleast_2d(np.asarray(responses, dtype=np.int64))
    out = np.empty_like(y)
    for k, cmap in enumerate(model.category_maps):
        col = y[:, k]
        bad = (col < 0) | (col >= cmap.size)
        if np.any(bad):
            v = int(col[np.argmax(bad)])
            raise ValidationError(
                f"response {v} out of range 0..{cmap.size - 1} for item "
                f"{ITEM_COLUMNS[k] if model.n_items == N_ITEMS else k}"
            )
        out[:, k] = cmap[col]
    return out


def _ref_sample_grm_scores(model, thetas, rng):
    n = thetas.shape[0]
    out = np.empty((n, model.n_items), dtype=np.int64)
    u = rng.gen.random((n, model.n_items))
    for k, item in enumerate(model.items):
        out[:, k] = (u[:, k][:, None] < _ref_survival(item, thetas)).sum(axis=1)
    return out


def _ref_eap_scores(model, responses):
    thetas, weights = _gauss_hermite(DEFAULT_NODES)
    y = _ref_map_responses(model, responses)
    ll = np.zeros((DEFAULT_NODES, y.shape[0]))
    for k, tab in enumerate(_ref_log_prob_tables(model, thetas)):
        ll += tab[:, y[:, k]]
    ll -= ll.max(axis=0, keepdims=True)
    post = weights[:, None] * np.exp(ll)
    return (thetas @ post) / post.sum(axis=0)


@st.composite
def ragged_models(draw):
    """1-10 items of 2-5 fitted categories each, raw levels up to 5; a raw
    level count above the category count merges neighbouring levels."""
    items, maps = [], []
    for _ in range(draw(st.integers(1, 10))):
        n_cats = draw(st.integers(2, 5))
        levels = draw(st.integers(n_cats, 5))
        steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n_cats - 2, max_size=n_cats - 2))
        b = draw(st.floats(-3.0, 1.0)) + np.r_[0.0, np.cumsum(steps)]
        items.append(ps.GrItemParams(draw(st.floats(0.3, 3.0)), b))
        rises = draw(st.sets(st.integers(1, levels - 1), min_size=n_cats - 1,
                             max_size=n_cats - 1))
        maps.append(np.cumsum(np.isin(np.arange(levels), sorted(rises))))
    return GrModel(items=items, category_maps=maps)


class TestPaddedKernel:
    @given(model=ragged_models(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150))
    def test_matches_per_item_reference_bit_for_bit(self, model, seed, n):
        gen = np.random.default_rng(seed)
        thetas = np.r_[gen.normal(0.0, 2.0, n), -40.0, 40.0]
        tables = model.log_prob_tables(thetas)
        for tab, ref in zip(tables, _ref_log_prob_tables(model, thetas), strict=True):
            assert np.array_equal(tab[:, :ref.shape[1]], ref)

        drawn = sample_grm_scores(model, thetas, ps.RngStream(seed))
        assert np.array_equal(drawn, _ref_sample_grm_scores(model, thetas, ps.RngStream(seed)))

        levels = np.array([m.size for m in model.category_maps])
        y = gen.integers(0, levels, size=(n, model.n_items))
        assert np.array_equal(model.map_responses(y), _ref_map_responses(model, y))
        assert np.array_equal(model.map_responses(y[0]), _ref_map_responses(model, y[0])[0])
        assert eap_scores(model, y).tobytes() == _ref_eap_scores(model, y).tobytes()

    @given(model=ragged_models(), seed=st.integers(0, 2**32 - 1))
    def test_out_of_range_message_matches_reference(self, model, seed):
        gen = np.random.default_rng(seed)
        levels = np.array([m.size for m in model.category_maps])
        y = gen.integers(0, levels, size=(9, model.n_items))
        for _ in range(gen.integers(1, 4)):  # one to three bad cells
            r, k = gen.integers(9), gen.integers(model.n_items)
            y[r, k] = levels[k] + gen.integers(3) if gen.random() < 0.5 else -1 - gen.integers(3)
        with pytest.raises(ValidationError) as ref:
            _ref_map_responses(model, y)
        with pytest.raises(ValidationError) as got:
            model.map_responses(y)
        assert str(got.value) == str(ref.value)

    def test_eap_bits_pinned(self, reference_pool, grm_model):
        # float.hex of the per-item code's scores of the reference pool
        theta = eap_scores(grm_model, np.stack([reference_pool.baseline,
                                                reference_pool.week52]))
        pinned = {
            (0, 0): "-0x1.4d4fefab84187p+0", (0, 1): "-0x1.abea17bf4ba55p+0",
            (0, 137): "0x1.8b88dde205bf4p-1", (0, 379): "-0x1.4f6d94d848a04p-2",
            (1, 0): "-0x1.4db74ce081e25p-1", (1, 1): "-0x1.015b937509a46p-2",
            (1, 137): "0x1.8d6a0f02a330fp+0", (1, 379): "0x1.5830ee910a9b7p-3",
        }
        assert {key: float(theta[key]).hex() for key in pinned} == pinned

    def test_category_map_outside_item_rejected(self):
        item = ps.GrItemParams(1.0, np.array([-1.0, 1.0]))
        with pytest.raises(ValidationError, match="category maps"):
            GrModel(items=[item], category_maps=[np.array([0, 1, 3])])


def _plain_eap_scores(model, responses):
    """eap_scores as it ran before the prefix table: every item's table rows
    gathered and added from zeros, then the posterior weighted out of place."""
    r = np.asarray(responses, dtype=np.int64)
    k, rows = (1, r.shape[0]) if r.ndim == 2 else r.shape[:2]
    y = model.map_responses(r.reshape(-1, r.shape[-1]))
    thetas, weights = _gauss_hermite(DEFAULT_NODES)
    tables_t = model.log_prob_tables(thetas).transpose(0, 2, 1).copy()
    ll = np.zeros((y.shape[0], DEFAULT_NODES))
    for tab, col in zip(tables_t, y.T):
        ll += tab[col]
    ll = np.ascontiguousarray(ll.T)
    ll -= ll.max(axis=0, keepdims=True)
    post = weights[:, None] * np.exp(ll)
    blocks = post.reshape(DEFAULT_NODES, k, rows)
    num = np.stack([thetas @ np.ascontiguousarray(blocks[:, j]) for j in range(k)])
    return (num / post.sum(axis=0).reshape(k, rows)).reshape(r.shape[:-1])


@pytest.fixture(scope="module", params=["original", "fda"])
def scheme_model(request, reference_pool):
    """(data, model) of the reference pool in each scheme."""
    data = ensure_scheme(reference_pool, request.param)
    return data, ps.fit_grm(data)


class TestEapPrefixTable:
    """eap_scores reads the first PREFIX_ITEMS items' summed log-probabilities
    from one cached table; the scores must equal the plain gather's bits."""

    @pytest.mark.parametrize("n", [1, 2, 69, 139, 141, 380])
    def test_matches_plain_gather_bit_for_bit(self, scheme_model, n):
        data, model = scheme_model
        gen = np.random.default_rng(n)
        for _ in range(3):
            idx = gen.choice(data.n_subjects, size=n, replace=False)
            visits = np.stack([data.baseline[idx], data.week52[idx]])
            for responses in (visits, visits[0]):
                got = eap_scores(model, responses)
                assert got.tobytes() == _plain_eap_scores(model, responses).tobytes()

    def test_prefix_table_holds_the_first_items_sums(self, grm_model):
        tables_t = grm_model._eap_tables_t
        c = tables_t.shape[1]
        prefix = grm_model._eap_prefix
        assert PREFIX_ITEMS == 3
        assert prefix.shape == (c**3, tables_t.shape[2])
        for c0, c1, c2 in [(0, 0, 0), (1, c - 1, 2), (c - 1, c - 1, c - 1)]:
            row = ((np.zeros(tables_t.shape[2]) + tables_t[0, c0]) + tables_t[1, c1]) \
                + tables_t[2, c2]
            assert prefix[(c0 * c + c1) * c + c2].tobytes() == row.tobytes()

    def test_row_loglik_builds_its_own_prefix(self, grm_model, reference_pool):
        y = grm_model.map_responses(reference_pool.baseline)
        tables_t = grm_model._eap_tables_t
        assert (_row_loglik(tables_t, y).tobytes()
                == _row_loglik(tables_t, y, grm_model._eap_prefix).tobytes())


# Per-item reference code: the item M-step as it ran item by item before
# the items of one category count were solved as one lockstep block. The
# block forms must reproduce it bit for bit.


def _ref_item_objective_grad(phi, theta, counts):
    a = np.exp(phi[0])
    steps = np.exp(phi[2:])
    b = np.concatenate(([phi[1]], phi[1] + np.cumsum(steps)))
    C = b.size + 1
    sf = special.expit(a * (theta[:, None] - b))  # (Q, C-1)
    p = _category_probs(sf)
    f = float((counts * np.log(p)).sum())

    ratio = np.where(counts > 0, counts / p, 0.0)  # (Q, C)
    dsf = sf * (1.0 - sf)
    coef = ratio[:, 1:] - ratio[:, :-1]
    grad_b = (coef * dsf).sum(axis=0) * (-a)
    grad_a = float((coef * dsf * (theta[:, None] - b)).sum())

    g = np.empty_like(phi)
    g[0] = grad_a * a
    g[1] = grad_b.sum()
    if C > 2:
        tail = np.cumsum(grad_b[::-1])[::-1]
        g[2:] = tail[1:] * steps
    return f, g


def _ref_item_newton(phi, theta, counts, max_iter=40, gtol=1e-9):
    f, g = _ref_item_objective_grad(phi, theta, counts)
    for _ in range(max_iter):
        if np.abs(g).max() < gtol:
            break
        h = 1e-6
        H = np.empty((phi.size, phi.size))
        for i in range(phi.size):
            e = np.zeros_like(phi)
            e[i] = h
            _, gp = _ref_item_objective_grad(phi + e, theta, counts)
            H[:, i] = (gp - g) / h
        H = (H + H.T) / 2.0
        def clip(s):
            n = np.abs(s).max()
            return s * (4.0 / n) if n > 4.0 else s

        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g.copy()
        if not np.all(np.isfinite(step)):
            step = g.copy()
        step = clip(step)
        if step @ g <= 0:
            step = clip(g.copy())
        scale = 1.0
        improved = False
        for _ in range(30):
            f_new, g_new = _ref_item_objective_grad(phi + scale * step, theta, counts)
            if f_new >= f:
                phi = phi + scale * step
                f, g = f_new, g_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return phi


def _ref_first_step_is_gradient(phi, theta, counts):
    """Whether the reference's first step falls back to the gradient."""
    _, g = _ref_item_objective_grad(phi, theta, counts)
    H = np.column_stack([(_ref_item_objective_grad(phi + e, theta, counts)[1] - g) / 1e-6
                         for e in 1e-6 * np.eye(phi.size)])
    H = (H + H.T) / 2.0
    try:
        step = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return True
    return not np.all(np.isfinite(step)) or step @ g <= 0


def _item_rows(seed, k, n, q, zero_frac=0.0, spread=1.0):
    """k start rows of n parameters and their (q, n) expected counts.

    The counts are graded-response expectations of a true item, from 10 to
    10^4 respondents, jittered by +-20% and with a share zero_frac set to 0;
    the start rows lie about ``spread`` from the true parameters.
    """
    gen = np.random.default_rng(seed)
    theta, w = _gauss_hermite(q)
    true = np.column_stack([gen.normal(0.0, 0.5, k), gen.normal(0.0, 1.0, k),
                            gen.normal(-0.5, 0.5, (k, n - 2))])
    a = np.exp(true[:, 0])
    b = np.column_stack([true[:, 1], true[:, 1:2] + np.cumsum(np.exp(true[:, 2:]), axis=1)])
    p = _category_probs(special.expit(a[:, None, None] * (theta[:, None] - b[:, None, :])))
    counts = (10 ** gen.uniform(1, 4, k))[:, None, None] * w[:, None] * p
    counts *= gen.uniform(0.8, 1.2, p.shape) * (gen.random(p.shape) >= zero_frac)
    return true + gen.normal(0.0, spread, true.shape), theta, counts


def _assert_rows_match_reference(phi, theta, counts, **kw):
    block = _newton_block(phi, theta, counts, **kw)
    assert block.shape == phi.shape
    for j in range(phi.shape[0]):
        assert block[j].tobytes() == _ref_item_newton(phi[j], theta, counts[j], **kw).tobytes()


class TestBlockMStep:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), n=st.integers(2, 5),
           q=st.sampled_from([2, 7, 21, 101]), zero_frac=st.sampled_from([0.0, 0.5, 0.95]),
           empty_row=st.booleans())
    def test_objective_rows_equal_items_alone(self, seed, k, n, q, zero_frac, empty_row):
        phi, theta, counts = _item_rows(seed, k, n, q, zero_frac, spread=2.0)
        if empty_row:
            counts[0] = 0.0
        f, G = _objective_grads(phi, theta, counts)
        assert f.shape == (k,) and G.shape == (k, n)
        assert _objective_grads(phi, theta, counts, grad=False).tobytes() == f.tobytes()
        for j in range(k):
            f_ref, g_ref = _ref_item_objective_grad(phi[j], theta, counts[j])
            assert f[j].tobytes() == np.float64(f_ref).tobytes()
            assert G[j].tobytes() == g_ref.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), n=st.integers(2, 5),
           q=st.sampled_from([7, 21, 101]), spread=st.sampled_from([0.5, 2.0, 4.0]),
           max_iter=st.sampled_from([1, 3, 40]), gtol=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_newton_rows_equal_items_alone(self, seed, k, n, q, spread, max_iter, gtol):
        phi, theta, counts = _item_rows(seed, k, n, q, spread=spread)
        _assert_rows_match_reference(phi, theta, counts, max_iter=max_iter, gtol=gtol)

    def test_rows_stopping_every_way_equal_items_alone(self):
        # one block whose rows stop on the gradient tolerance, at max_iter,
        # and on an exhausted line search, some after gradient steps
        phi, theta, counts = _item_rows(1, 24, 5, 101)
        stop = {"gtol": 0, "max_iter": 0, "line search": 0}
        for j in range(24):
            ref = _ref_item_newton(phi[j], theta, counts[j], max_iter=12)
            if ref.tobytes() != _ref_item_newton(phi[j], theta, counts[j], max_iter=11).tobytes():
                stop["max_iter"] += 1
            elif np.abs(_ref_item_objective_grad(ref, theta, counts[j])[1]).max() < 1e-9:
                stop["gtol"] += 1
            else:
                stop["line search"] += 1
        assert min(stop.values()) > 0, stop
        assert sum(_ref_first_step_is_gradient(*row) for row in zip(phi, [theta] * 24, counts)) > 0
        _assert_rows_match_reference(phi, theta, counts, max_iter=12)

    def test_singular_solve_in_stack_falls_back_row_by_row(self):
        # a solve that raises for some Hessians: the stacked solve fails and
        # each row re-solves alone, those rows stepping along the gradient
        solve = np.linalg.solve
        raised = {"stacked": 0, "row": 0}

        def flaky_solve(H, rhs):
            poisoned = [zlib.crc32(h.tobytes()) % 3 == 0 for h in H.reshape(-1, *H.shape[-2:])]
            if any(poisoned):
                raised["stacked" if H.ndim == 3 else "row"] += 1
                raise np.linalg.LinAlgError("singular matrix")
            return solve(H, rhs)

        phi, theta, counts = _item_rows(5, 6, 4, 21)
        with mock.patch.object(np.linalg, "solve", flaky_solve):
            _assert_rows_match_reference(phi, theta, counts)
        assert raised["stacked"] > 0 and raised["row"] > 0


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

    @pytest.mark.parametrize("rows, counts, match", [
        ([[0, 1], [-1, 2], [1, 0]], None, r"response -1 out of range 0\.\.1 for item item0"),
        ([[0, 1], [1, 2], [1, 0]], [2, 2], r"response 2 out of range 0\.\.1 for item item1"),
        ([[0, 1], [1, 2], [1, 0]], [2, 3, 3], r"category_counts has shape \(3,\), need one count "
                                              r"per item \(2\)"),
        (np.zeros((0, 3), dtype=int), None, r"non-empty \(rows, items\) matrix, got shape \(0, 3\)"),
        ([0, 1, 2, 1], None, r"non-empty \(rows, items\) matrix, got shape \(4,\)"),
    ], ids=["negative", "above-count", "counts-length", "empty", "1-d"])
    def test_bad_raw_matrix_named(self, rows, counts, match):
        with pytest.raises(ValidationError, match=match):
            ps.fit_grm(np.asarray(rows), category_counts=counts)

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

    @pytest.mark.parametrize("change, match", [
        ("reversed", r"item 0 is named 'item28', expected 'item03'"),
        ("renamed", r"item 4 is named 'gait', expected 'item13'"),
    ])
    def test_item_names_checked_on_load(self, grm_model, tmp_path, change, match):
        # parameters are matched to response columns by position, so a file
        # with its items in another order would load and score wrongly
        doc = grm_model.to_doc()
        if change == "reversed":
            doc["items"].reverse()
        else:
            doc["items"][4]["name"] = "gait"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"model file .*model.json: {match}"):
            GrModel.load(path)

    def test_item_name_missing_is_a_bad_model_file(self, grm_model, tmp_path):
        doc = grm_model.to_doc()
        del doc["items"][2]["name"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="bad model file .*model.json: KeyError"):
            GrModel.load(path)

    def test_other_item_count_round_trips(self, tmp_path):
        model = small_model(n_items=3, seed=4)
        path = tmp_path / "model.json"
        model.save(path)
        assert [d["name"] for d in json.loads(path.read_text())["items"]] == [
            "item0", "item1", "item2"]
        assert GrModel.load(path).to_doc() == model.to_doc()

    def test_raw_scale_matrix_labelled_by_scale_columns(self):
        # a raw matrix of the scale's item count is named as its saved items are
        rows = np.random.default_rng(12).integers(0, 3, size=(300, N_ITEMS))
        model = ps.fit_grm(rows, category_counts=np.full(N_ITEMS, 5))
        assert model.fit_meta["merged_items"] == list(ITEM_COLUMNS)
        assert [d["name"] for d in model.to_doc()["items"]] == list(ITEM_COLUMNS)
        rows[5, 2] = 7
        with pytest.raises(ValidationError, match=f"response 7 .* for item {ITEM_COLUMNS[2]}"):
            ps.fit_grm(rows, category_counts=np.full(N_ITEMS, 5))


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

    @pytest.mark.parametrize("text", ["not json", "[0.5]", '{"intercept": 0.5}',
                                      '{"intercept": "x", "weights": [], "r_squared": 1, '
                                      '"scheme": "original"}',
                                      '{"intercept": 0.5, "weights": [[0.1, 0.2]], '
                                      '"r_squared": 1, "scheme": "original"}',
                                      '{"intercept": 0.5, "weights": 0.1, "r_squared": 1, '
                                      '"scheme": "original"}'])
    def test_bad_file_named(self, tmp_path, text):
        if text.startswith("{"):  # the current version, so the checks after it are reached
            text = '{"format_version": 1, ' + text[1:]
        path = tmp_path / "approx.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="approx.json"):
            ps.LinearLatentApprox.load(path)

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_format_version_checked(self, latent_approx, tmp_path, version):
        doc = latent_approx.to_doc()
        if version is None:
            del doc["format_version"]
        else:
            doc["format_version"] = version
        path = tmp_path / "approx.json"
        path.write_text(json.dumps(doc))
        message = f"unsupported approximation format version {version} in .*approx.json"
        with pytest.raises(ValidationError, match=message):
            ps.LinearLatentApprox.load(path)

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

    def test_weight_count_must_match_items(self):
        approx = ps.LinearLatentApprox(intercept=0.5, weights=np.zeros(3), r_squared=1.0)
        for responses in (np.zeros(10), np.zeros((2, 4, 10)), np.float64(0.0)):
            with pytest.raises(ValidationError, match="3 weights, responses have"):
                ps.approx_latent(approx, responses)

    def test_tracks_eap_on_reference(self, reference_pool, grm_model, eap_thetas, latent_approx):
        z = ps.approx_latent(latent_approx, reference_pool.flatten_visits())
        assert np.corrcoef(z, eap_thetas)[0, 1] >= 0.97


def _rows(seed=3, n=40, items=3):
    return np.random.default_rng(seed).integers(0, 3, size=(n, items))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: small_model(n_items=3).map_responses(np.zeros((2, 4), dtype=int)),
                 ValidationError, "expected 3 item responses per row, got 4",
                 id="map-responses-item-count"),
    pytest.param(lambda: GrModel.from_doc({"format_version": 2}, source="m.json"),
                 ValidationError, "unsupported model format version 2 in m.json",
                 id="model-format-version"),
    pytest.param(lambda: eap_scores(small_model(n_items=3), np.zeros((1, 2, 2, 3), dtype=int)),
                 ValidationError, "responses must be rows or a stack of row blocks",
                 id="eap-4-d"),
    pytest.param(lambda: ps.fit_grm(np.c_[np.zeros(40, dtype=int), _rows(items=2)]),
                 ValidationError, "item item0 is constant; cannot fit", id="constant-item"),
    pytest.param(lambda: ps.fit_grm(_rows(), max_iter=1),
                 NonConvergenceError, "EM did not converge in 1 iterations", id="em-max-iter"),
    pytest.param(lambda: ps.fit_linear_latent_approx(_rows(n=4), np.zeros(3)),
                 ValidationError, "3 trait values for 4 response rows", id="approx-theta-count"),
    pytest.param(lambda: ps.fit_linear_latent_approx(np.c_[_rows(), _rows()], np.zeros(40)),
                 ValidationError, "rank-deficient item matrix", id="approx-rank-deficient"),
])
def test_irt_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
