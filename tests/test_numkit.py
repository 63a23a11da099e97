"""Numerical kernel tests: ANCOVA against a normal-equations oracle, the t
CDF against a quadrature oracle, Cholesky against multiply-back, and the
RNG determinism contract."""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special, stats

import psprsim as ps
from psprsim.errors import FactorizationError, SingularDesignError, ValidationError
from psprsim.mvnorm import psd_factor, sample_mvn, validate_correlation
from psprsim.numkit import ancova_design, cholesky


def _ancova_normal_equations(y, b, g):
    """Independent oracle: explicit 3x3 normal-equations solve."""
    X = np.column_stack([np.ones(len(y)), b, g])
    A = X.T @ X
    coef = np.linalg.solve(A, X.T @ y)
    resid = y - X @ coef
    df = len(y) - 3
    sigma2 = resid @ resid / df
    cov = sigma2 * np.linalg.inv(A)
    se = np.sqrt(cov[2, 2])
    return coef, se, coef[2] / se


class TestFitAncova:
    def test_symmetric_zero_effect(self):
        y = np.array([1.0, 2, 3, 4, 2, 3])
        fit = ps.fit_ancova(y, y, np.array([0, 0, 0, 1, 1, 1]))
        assert fit.t[0] == 0.0
        assert fit.p[0] == 0.5

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 30
            b = rng.normal(2, 1, n)
            g = np.r_[np.zeros(n // 2), np.ones(n // 2)]
            y = 1.0 + 0.8 * b - 0.4 * g + rng.normal(0, 0.7, n)
            fit = ps.fit_ancova(y, b, g)
            coef, se, t = _ancova_normal_equations(y, b, g)
            assert np.abs(fit.coef[0] - coef).max() < 1e-10
            assert abs(fit.se[0] - se) < 1e-10
            assert abs(fit.t[0] - t) < 1e-9

    def test_one_sided_direction(self):
        # a clearly beneficial (negative) effect must give a small p
        rng = np.random.default_rng(3)
        n = 60
        b = rng.normal(2, 1, n)
        g = np.r_[np.zeros(30), np.ones(30)]
        y = b - 2.0 * g + rng.normal(0, 0.5, n)
        fit = ps.fit_ancova(y, b, g)
        assert fit.t[0] < 0
        assert fit.p[0] < 0.001
        assert fit.df == n - 3

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros(5), np.zeros(4), np.r_[0, 0, 1, 1, 1])

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros(3), np.zeros(3), np.r_[0, 1, 1])

    def test_single_arm_rejected(self):
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.arange(5.0), np.arange(5.0), np.ones(5))

    def test_singular_design(self):
        # constant baseline makes the design rank deficient: the fit marks
        # it, and reading it raises
        fit = ps.fit_ancova(np.ones(6), np.ones(6), np.r_[0, 0, 0, 1, 1, 1])
        assert fit.singular.tolist() == [True]
        assert np.isnan(fit.t).all() and np.isnan(fit.residuals).all()
        with pytest.raises(SingularDesignError):
            fit.rows(slice(0, 1))

    def test_baseline_shift_invariance(self):
        rng = np.random.default_rng(11)
        n = 40
        b = rng.normal(0, 1, n)
        g = np.r_[np.zeros(20), np.ones(20)]
        y = b - 0.3 * g + rng.normal(0, 1, n)
        t1 = ps.fit_ancova(y, b, g).t[0]
        t2 = ps.fit_ancova(y, b + 123.456, g).t[0]
        assert abs(t1 - t2) < 1e-9

    def test_null_pvalues_uniform(self):
        # exchangeable arms: one-sided p is U(0,1); KS check at level 0.001
        rng = np.random.default_rng(2024)
        n = 24
        g = np.r_[np.zeros(12), np.ones(12)]
        pvals = np.empty(2000)
        for i in range(2000):
            b = rng.normal(0, 1, n)
            y = 0.5 * b + rng.normal(0, 1, n)
            pvals[i] = ps.fit_ancova(y, b, g).p[0]
        assert stats.kstest(pvals, "uniform").pvalue > 0.001

    def test_exact_fit_with_effect_is_infinitely_significant(self):
        b = np.array([0.0, 1, 2, 3, 0, 1, 2, 3])
        g = np.r_[0, 0, 0, 0, 1, 1, 1, 1]
        y = np.column_stack([1 + b - 2 * g, 1 + b + 2 * g, 1 + b])
        fit = ps.fit_ancova(y, np.column_stack([b, b, b]), g)
        assert np.array_equal(fit.se, np.zeros(3))
        assert np.array_equal(fit.t, [-np.inf, np.inf, 0.0])
        assert np.array_equal(fit.p, [0.0, 1.0, 0.5])


def _stacked_solve(y, b, g):
    """The stacked least-squares solve of fit_ancova, as plain lists per
    column: coefficients, residuals, RSS, y'y and [(X'X)^-1]_treat."""
    Y = np.ascontiguousarray(y.T)
    m = Y.shape[0]
    X = ancova_design(b, g)
    Q, R = np.linalg.qr(X)
    rhs = np.zeros((2 * m, 3, 1))
    rhs[:m] = Q.transpose(0, 2, 1) @ Y[:, :, None]
    rhs[m:, 2] = 1.0
    sol = np.linalg.solve(np.concatenate([R, R.transpose(0, 2, 1)]), rhs)
    coef, rinv_row = sol[:m], sol[m:]
    resid = Y - (X @ coef)[:, :, 0]
    rss = (resid[:, None, :] @ resid[:, :, None]).ravel().tolist()
    yy = (Y[:, None, :] @ Y[:, :, None]).ravel().tolist()
    var_unit = (rinv_row.transpose(0, 2, 1) @ rinv_row).ravel().tolist()
    return coef[:, :, 0].tolist(), resid, rss, yy, var_unit


def _reference_fit(y, b, g):
    """Reference: the stacked solve followed by the scalar per-column rule
    (perfect-fit branch, math.sqrt, scalar t CDF) that fit_ancova once ran
    in a Python loop."""
    coef, resid, rss, yy, var_unit = _stacked_solve(y, b, g)
    df = y.shape[0] - 3
    se, t, p = [], [], []
    for j, (_, _, coef_t) in enumerate(coef):
        scale = 1.0 + yy[j]
        if rss[j] <= 1e-20 * scale:
            se_j = 0.0
            t_j = (0.0 if abs(coef_t) <= 1e-8 * math.sqrt(scale)
                   else math.copysign(math.inf, coef_t))
        else:
            se_j = math.sqrt(rss[j] / df * var_unit[j])
            t_j = coef_t / se_j
        if math.isinf(t_j):
            p_j = 0.0 if t_j < 0 else 1.0
        else:
            p_j = float(special.stdtr(df, t_j))
        se.append(se_j)
        t.append(t_j)
        p.append(p_j)
    return dict(coef=coef, se=se, t=t, p=p, df=float(df), residuals=resid)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def ancova_blocks(draw):
    """(outcome, baseline, arm) blocks with n >= 4, 1..16 columns, integer
    scores or floats, some outcome columns constant and some exact linear
    fits with a treatment effect (t = +-inf, p = 0 or 1)."""
    n = draw(st.integers(4, 40))
    m = draw(st.integers(1, 16))
    if draw(st.booleans()):
        elements = st.integers(0, 4).map(float)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    baseline = draw(hnp.arrays(np.float64, (n, m), elements=elements))
    outcome = draw(hnp.arrays(np.float64, (n, m), elements=elements))
    arm = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1)))
    assume(0 < arm.sum() < n)
    constant = draw(hnp.arrays(np.bool_, m))
    outcome[:, constant] = 2.0
    exact = draw(hnp.arrays(np.bool_, m)) & ~constant
    slope, effect = draw(st.integers(-2, 2)), draw(st.sampled_from([-3, -1, 1, 2]))
    outcome[:, exact] = 1.0 + slope * baseline[:, exact] + effect * arm[:, None]
    return outcome, baseline, arm


class TestFitAncovaBlocks:
    @given(ancova_blocks())
    def test_fields_equal_per_column_reference_bit_for_bit(self, block):
        outcome, baseline, arm = block
        fit = ps.fit_ancova(outcome, baseline, arm)
        m = outcome.shape[1]
        assert fit.coef.shape == (m, 3) and fit.residuals.shape == (m, outcome.shape[0])
        ok = ~fit.singular
        if not ok.all():
            event("singular")
        if not ok.any():
            return
        ref = _reference_fit(outcome[:, ok], baseline[:, ok], arm.astype(float))
        event("infinite t" if np.isinf(fit.t).any() else "finite t")
        assert type(fit.df) is float and fit.df == ref["df"]
        for name in ("coef", "se", "t", "p", "residuals"):
            assert _same_bits(getattr(fit, name)[ok], ref[name]), name

    @given(ancova_blocks())
    def test_column_equals_single_fit_bit_for_bit(self, block):
        outcome, baseline, arm = block
        fit = ps.fit_ancova(outcome, baseline, arm)
        for j in range(outcome.shape[1]):
            single = ps.fit_ancova(outcome[:, j], baseline[:, j], arm)
            for name in ("coef", "se", "t", "p", "residuals", "singular"):
                assert _same_bits(getattr(single, name), getattr(fit, name)[j:j + 1]), name

    def test_vector_input_gives_one_fit(self):
        # a vector is the m = 1 block
        y = np.array([1.0, 2, 3, 4, 2, 3])
        b = np.array([0.0, 1, 1, 2, 3, 1])
        g = np.array([0, 0, 0, 1, 1, 1])
        fit = ps.fit_ancova(y, b, g)
        block = ps.fit_ancova(y[:, None], b[:, None], g)
        assert fit.t.shape == (1,)
        for name in ("coef", "se", "t", "p", "residuals"):
            assert _same_bits(getattr(fit, name), getattr(block, name)), name
        assert fit.df == block.df

    def test_first_singular_column_named(self):
        rng = np.random.default_rng(4)
        arm = np.r_[np.zeros(10), np.ones(10)]
        baseline = rng.normal(size=(20, 6))
        baseline[:, 2] = 1.0
        baseline[:, 5] = -3.0
        fit = ps.fit_ancova(rng.normal(size=(20, 6)), baseline, arm)
        assert np.flatnonzero(fit.singular).tolist() == [2, 5]
        with pytest.raises(SingularDesignError) as info:
            fit.rows(slice(0, 6))
        assert info.value.column == 2
        with pytest.raises(SingularDesignError) as info:
            fit.rows(slice(3, 6))
        assert info.value.column == 5
        assert fit.rows(slice(3, 5)).t.shape == (2,)

    def test_block_shape_mismatch_rejected(self):
        arm = np.r_[0, 0, 0, 1, 1, 1]
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros((6, 3)), np.zeros((6, 2)), arm)
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros((6, 3)), np.zeros(6), arm)
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros((6, 3, 1)), np.zeros((6, 3, 1)), arm)
        with pytest.raises(ValidationError):
            ps.fit_ancova(np.zeros((6, 3)), np.zeros((6, 3)), arm[:5])


@st.composite
def blocks_with_constant_baselines(draw):
    """ancova_blocks with some baseline columns held constant (a rank-deficient
    design), the mask of those columns, and a row slice of the block."""
    outcome, baseline, arm = draw(ancova_blocks())
    m = outcome.shape[1]
    constant = draw(hnp.arrays(np.bool_, m))
    baseline[:, constant] = draw(st.sampled_from([0.0, 2.0, -3.5]))
    start = draw(st.integers(0, m - 1))
    return outcome, baseline, arm, constant, slice(start, draw(st.integers(start + 1, m)))


class TestSingularColumns:
    @given(blocks_with_constant_baselines())
    def test_marked_not_raised_and_named_when_read(self, case):
        outcome, baseline, arm, constant, rows = case
        fit = ps.fit_ancova(outcome, baseline, arm)
        assert fit.singular[constant].all()
        for j in range(outcome.shape[1]):
            # the mask marks exactly the columns a lone fit rejects
            single = ps.fit_ancova(outcome[:, j], baseline[:, j], arm)
            try:
                single.rows(slice(0, 1))
            except SingularDesignError:
                assert fit.singular[j]
                continue
            assert not fit.singular[j]
            # and every other column keeps its lone fit's bits
            for name in ("coef", "se", "t", "p", "residuals"):
                assert _same_bits(getattr(fit, name)[j:j + 1], getattr(single, name)), name
        bad = np.flatnonzero(fit.singular[rows])
        if bad.size:
            event("singular row read")
            with pytest.raises(SingularDesignError) as info:
                fit.rows(rows)
            assert info.value.column == rows.start + bad[0]
        else:
            part = fit.rows(rows)
            assert part.df == fit.df
            for name in ("coef", "se", "t", "p", "residuals", "singular"):
                assert _same_bits(getattr(part, name), getattr(fit, name)[rows]), name


class TestStudentT:
    """scipy's stdtr, the t CDF of fit_ancova, test_maxt and test_obrien,
    at the fractional df of the modified-df rule."""

    def test_symmetry_at_zero(self):
        for df in (1.0, 2.5, 69.185, 1000.0):
            assert special.stdtr(df, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quadrature_oracle_fractional_df(self):
        # independent oracle: adaptive quadrature of the t density
        df = 69.185
        x = -1.9949

        def pdf(u):
            c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
            return c * (1 + u * u / df) ** (-(df + 1) / 2)

        target, quad_err = integrate.quad(pdf, -np.inf, x)
        assert quad_err < 1e-10
        assert special.stdtr(df, x) == pytest.approx(target, abs=1e-8)

    def test_normal_limit(self):
        for x in range(-3, 4):
            assert abs(special.stdtr(1e6, x) - special.ndtr(x)) < 1e-5

    def test_monotone_in_x(self):
        vals = special.stdtr(4.7, np.linspace(-8, 8, 201))
        assert np.all(np.diff(vals) >= 0)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(ps.cholesky(np.eye(4)), np.eye(4))

    def test_hand_computed_2x2(self):
        L = ps.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-15)

    def test_reconstruction_20x20(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(20, 20))
        S = A @ A.T + 20 * np.eye(20)
        L = ps.cholesky(S)
        assert np.allclose(np.triu(L, 1), 0.0)
        err = np.abs(L @ L.T - S).max() / np.abs(S).max()
        assert err < 1e-10

    def test_non_positive_definite_reports_pivot(self):
        S = np.eye(3)
        S[2, 2] = -1.0
        with pytest.raises(FactorizationError) as exc:
            ps.cholesky(S)
        assert exc.value.pivot == 2

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            ps.cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestRngStream:
    def test_same_seed_same_million_draws(self):
        a = ps.RngStream(123456789)
        b = ps.RngStream(123456789)
        assert np.array_equal(a.gen.random(1_000_000), b.gen.random(1_000_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            ps.RngStream(1).gen.random(100), ps.RngStream(2).gen.random(100)
        )

    def test_child_streams_are_reproducible_and_distinct(self):
        r = ps.RngStream(7)
        c1 = r.child(0)
        c2 = r.child(1)
        assert c1.seed == ps.RngStream(7).child(0).seed
        assert c1.seed != c2.seed
        assert not np.array_equal(c1.gen.random(50), c2.gen.random(50))

    def test_generator_built_on_first_read(self):
        r = ps.RngStream(2**64 - 5)
        assert r._gen is None
        assert r.child(3)._gen is None  # deriving a stream builds no generator
        gen = r.gen
        assert r.gen is gen
        eager = np.random.Generator(np.random.Philox(key=2**64 - 5))
        assert gen.random(100).tobytes() == eager.random(100).tobytes()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_seed_round_trip(self, seed):
        assert ps.RngStream(seed).seed == seed % 2**64


# ---------------------------------------------------------------------------
# validation errors of the mvnorm and numkit kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]])),
                 FactorizationError, "not positive definite at pivot 1", id="psd-factor-indefinite"),
    pytest.param(lambda: sample_mvn(np.zeros(2), np.eye(2), 0, ps.RngStream(1)),
                 ValidationError, "need n >= 1 draws, got 0", id="sample-mvn-n-0"),
    pytest.param(lambda: validate_correlation(np.ones((2, 3))),
                 ValidationError, r"correlation must be square, got shape \(2, 3\)",
                 id="correlation-not-square"),
    pytest.param(lambda: cholesky(np.ones((2, 3))),
                 ValidationError, r"cholesky needs a square matrix, got shape \(2, 3\)",
                 id="cholesky-not-square"),
    pytest.param(lambda: ps.mvn_rect_upper(np.ones(3), np.eye(2), rng=ps.RngStream(1)),
                 ValidationError, "upper has length 3 but corr is 2x2", id="rect-upper-lengths"),
    pytest.param(lambda: ps.fit_ancova(np.arange(6.0), np.ones(6), [0, 1, 2, 0, 1, 2]),
                 ValidationError, r"arm must be coded 0 \(control\) / 1 \(treatment\)",
                 id="ancova-arm-2"),
])
def test_kernel_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
