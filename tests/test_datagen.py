"""Generator tests: rescoring maps, the rounding/trimming rules, the
bootstrap injection bookkeeping identity, latent progression, and the
synthetic reference pool's calibration checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import psprsim as ps
from psprsim.datagen import (
    _discretize,
    _truncated_normal_positive,
    inject_bootstrap_effect,
    inject_item_effect,
    progressed_latent,
    sample_grm_scores,
)
from psprsim.errors import ValidationError
from psprsim.mvnorm import sample_mvn
from psprsim.scales import N_ITEMS, RAW_LEVELS, ScoringScheme, get_scheme, load_scheme

from conftest import grm_category_probs


def score_digest(data) -> str:
    h = hashlib.sha256()
    for a in (data.baseline, data.week52):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestSchemes:
    def test_identity_scheme_is_noop(self, two_arm_dataset):
        out = ps.apply_rescoring(two_arm_dataset, ps.original_scheme())
        assert np.array_equal(out.baseline, two_arm_dataset.baseline)
        assert np.array_equal(out.week52, two_arm_dataset.week52)

    def test_direct_map_application(self):
        scheme_maps = np.tile(np.array([0, 0, 1, 1, 2]), (N_ITEMS, 1))
        scheme = ps.ScoringScheme("half", scheme_maps)
        data = ps.ItemDataset(
            ids=np.array(["a", "b"]),
            arm=np.array([0, 1], dtype=np.int8),
            baseline=np.tile(np.arange(5)[:2][:, None], (1, N_ITEMS)),
            week52=np.vstack([np.r_[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]] * 2),
        )
        out = ps.apply_rescoring(data, scheme)
        assert np.array_equal(out.week52[0], [0, 0, 1, 1, 2, 0, 0, 1, 1, 2])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_collapse_contracts_sum(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, size=(8, N_ITEMS))
        data = ps.ItemDataset(
            ids=np.arange(8).astype(str),
            arm=np.r_[np.zeros(4, dtype=np.int8), np.ones(4, dtype=np.int8)],
            baseline=scores,
            week52=scores,
        )
        out = ps.apply_rescoring(data, ps.fda_scheme())
        assert np.all(out.baseline.sum(axis=1) <= data.baseline.sum(axis=1))

    def test_rescoring_requires_original_input(self, two_arm_dataset):
        once = ps.apply_rescoring(two_arm_dataset, ps.fda_scheme())
        with pytest.raises(ValidationError):
            ps.apply_rescoring(once, ps.fda_scheme())

    def test_bad_maps_rejected_at_load(self, tmp_path):
        import json

        bad = {"name": "x", "maps": {c: [0, 1, 2, 3, 4] for c in
                                     ("item03", "item04", "item05", "item12", "item13",
                                      "item24", "item25", "item26", "item27", "item28")}}
        bad["maps"]["item04"] = [0, 2, 2, 3, 4]  # skips level 1: not onto
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError):
            load_scheme(path)
        bad["maps"]["item04"] = [0, 1, 1, 0, 2]  # not monotone
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError):
            load_scheme(path)

    def test_bundled_fda_scheme_valid(self):
        scheme = get_scheme("fda")
        assert scheme.name == "fda"
        counts = scheme.category_counts
        assert counts.min() >= 2 and counts.max() == 5


class TestSharedReadOnly:
    """Schemes, the generated ids and arms, and the MVN factor are built once
    and shared, so writing into them must fail instead of corrupting later
    replicates."""

    def test_shared_schemes_are_cached_and_read_only(self):
        for tag in ("original", "fda"):
            scheme = get_scheme(tag)
            assert get_scheme(tag) is scheme
            with pytest.raises(ValueError):
                scheme.collapse_maps[0, 0] = 1

    def test_scheme_does_not_freeze_callers_maps(self):
        maps = np.tile(np.arange(5, dtype=np.int64), (N_ITEMS, 1))
        ps.ScoringScheme("mine", maps)
        maps[0, 1] = 0  # the caller's array stays writable
        assert maps.flags.writeable

    def test_generated_ids_shared_and_read_only(self, reference_pool, grm_model):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scen = ps.builtin_scenarios()
        a = ps.gen_discretized_mvn(params, scen["d0"], 20, ps.RngStream(1))
        b = ps.gen_discretized_mvn(params, scen["d3"], 20, ps.RngStream(2))
        assert a.ids is b.ids
        boot = ps.gen_bootstrap(reference_pool, scen["d1"], 20, ps.RngStream(3))
        irt = ps.gen_irt_longitudinal(ps.IrtPopulationParams(), grm_model, 0.6, 20,
                                      ps.RngStream(4))
        assert a.arm is b.arm
        for data, first in ((a, "S00000"), (boot, "B00000"), (irt, "I00000")):
            assert data.ids[0] == first and len(data.ids) == 40
            # the controls first, then the treated
            assert data.arm.dtype == np.int8 and data.arm.tolist() == [0] * 20 + [1] * 20
            for field in (data.ids, data.arm):
                with pytest.raises(ValueError):
                    field[0] = field[1]

    def test_mvn_params_factor_once_and_read_only(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        assert np.array_equal(params.factor, ps.cholesky(params.cov20))
        for a in (params.mean20, params.cov20, params.factor):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            params.factor = np.eye(20)


class TestDiscretizedMvn:
    def test_rounding_and_trimming_rule(self):
        assert np.array_equal(_discretize(np.array([3.6, 4.7, -0.3])), [4, 4, 0])

    def test_table_effect_vectors(self):
        scen = ps.builtin_scenarios()
        assert np.array_equal(scen["d1"].d, np.full(10, 0.20))
        assert np.array_equal(scen["d2"].d, np.full(10, 0.25))
        assert np.array_equal(scen["d3"].d, np.full(10, 0.30))
        assert np.array_equal(scen["d4"].d, np.r_[[0.85] * 3, [0.0] * 7])
        assert np.array_equal(scen["d5"].d, np.r_[[0.0] * 3, [1.25] * 2, [0.0] * 5])
        assert np.array_equal(scen["d6"].d, np.r_[[0.0] * 5, [0.50] * 5])
        assert np.array_equal(scen["d7"].d, np.r_[[0.50] * 5, [0.0] * 5])
        assert np.array_equal(scen["d8"].d, np.r_[[0.30] * 3, [0.0] * 2, [0.30] * 5])
        assert np.array_equal(scen["d9"].d, np.r_[[0.0] * 3, [0.35] * 7])
        for label, idx in (("d10", 0), ("d11", 3), ("d12", 5)):
            expect = np.zeros(10)
            expect[idx] = 2.50
            assert np.array_equal(scen[label].d, expect)

    def test_null_scenarios(self):
        scen = ps.builtin_scenarios()
        assert [label for label, s in scen.items() if s.is_null] == ["d0", "rho=1"]
        assert ps.EffectScenario("item-shift", "zero", d=np.zeros(10)).is_null
        assert not ps.EffectScenario("slope-ratio", "near", rho=0.999).is_null

    def test_null_scenario_uniform_pvalues(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        null = ps.builtin_scenarios()["d0"]
        pvals = np.empty(2000)
        for i in range(2000):
            data = ps.gen_discretized_mvn(params, null, 20, ps.RngStream(1000 + i))
            base, week = data.baseline.sum(axis=1), data.week52.sum(axis=1)
            pvals[i] = ps.test_sum_score(ps.fit_ancova(week, base, data.arm)).p_one_sided
        assert stats.kstest(pvals, "uniform").pvalue > 0.001

    def test_effect_reduces_treated_scores(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scen = ps.builtin_scenarios()["d3"]
        data = ps.gen_discretized_mvn(params, scen, 4000, ps.RngStream(17))
        control = data.week52[data.arm == 0].mean()
        treated = data.week52[data.arm == 1].mean()
        assert control - treated > 0.2  # ~0.30 minus trimming losses
        assert np.array_equal(
            data.baseline[data.arm == 0].mean(axis=0).round(0),
            data.baseline[data.arm == 1].mean(axis=0).round(0),
        )

    def test_determinism(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scen = ps.builtin_scenarios()["d1"]
        a = ps.gen_discretized_mvn(params, scen, 30, ps.RngStream(5))
        b = ps.gen_discretized_mvn(params, scen, 30, ps.RngStream(5))
        assert np.array_equal(a.week52, b.week52)
        assert np.array_equal(a.baseline, b.baseline)

    def test_score_ranges(self, two_arm_dataset):
        for a in (two_arm_dataset.baseline, two_arm_dataset.week52):
            assert a.min() >= 0 and a.max() <= 4

    # sha256 of the generated baseline then week52 bytes (n = 70 per arm):
    # the power tables rest on these draws, so any change to how the
    # generator samples must keep every bit
    @pytest.mark.parametrize("label, seed, digest", [
        ("d0", 1, "b3d2153f89cea6e4212ad26a528f592d65bc3945b711b3b84856142505cd947d"),
        ("d0", 2, "26480afb82971cff2e215799ecc2f52ef3fe6a0011bfe43cd100b199500d3f4a"),
        ("d3", 1, "a9c9101376d643c69a2ab1398fe02a358fd664eb2b96a87c00f7742e31c8df8c"),
        ("d3", 3, "ece90e26518a26e6f317ab92fe5a080027446048b900e956bdafffdab5a6b27b"),
        ("d10", 1, "19b3bda7fbf4fbf78c42459be4b0f87d229482cff8bcff6fac1650c556e5ec48"),
        ("d10", 2, "f31120cab08c24d0969afe7c4af261ddb27759f9f670f3ca1931a0a0c94b589b"),
    ])
    def test_bytes_pinned(self, reference_pool, label, seed, digest):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        data = ps.gen_discretized_mvn(params, ps.builtin_scenarios()[label], 70,
                                      ps.RngStream(seed))
        assert score_digest(data) == digest


class TestBootstrap:
    def test_worked_injection_example(self):
        scores = np.array([2, 3, 0, 4])
        clamped, pre = inject_item_effect(scores, 1.25, picked=np.array([3]))
        assert np.array_equal(pre, [1, 2, -1, 2])
        assert np.array_equal(clamped, [1, 2, 0, 2])

    def test_zero_effect_keeps_scores(self, reference_pool):
        scen = ps.builtin_scenarios()["d0"]
        rng = ps.RngStream(33)
        data = ps.gen_bootstrap(reference_pool, scen, 50, rng)
        pool_index = {str(s): i for i, s in enumerate(reference_pool.ids)}
        assert data.n_subjects == 100
        # treated week52 rows exist unchanged in the pool
        treated = data.week52[data.arm == 1]
        pool_rows = {tuple(r) for r in reference_pool.week52}
        assert all(tuple(r) in pool_rows for r in treated)

    def test_bookkeeping_identity(self):
        rng = ps.RngStream(44)
        n = 70
        week52 = rng.gen.integers(0, 5, size=(n, N_ITEMS))
        d = ps.builtin_scenarios()["d2"].d
        adjusted, pre = inject_bootstrap_effect(week52, d, rng)
        shift = week52.mean(axis=0) - pre.mean(axis=0)
        expected = np.floor(d) + np.rint(n * (d - np.floor(d))) / n
        assert np.allclose(shift, expected, atol=1e-12)
        assert np.all(adjusted >= 0)

    def test_no_repeats_without_replacement(self, reference_pool):
        scen = ps.builtin_scenarios()["d0"]
        for seed in range(5):
            data = ps.gen_bootstrap(reference_pool, scen, 70, ps.RngStream(seed))
            assert len(np.unique(data.ids)) == data.n_subjects

    def test_pool_too_small(self, reference_pool):
        scen = ps.builtin_scenarios()["d0"]
        with pytest.raises(ValidationError):
            ps.gen_bootstrap(reference_pool, scen, reference_pool.n_subjects, ps.RngStream(1))

    def test_with_replacement_allows_large_n(self, reference_pool):
        scen = ps.builtin_scenarios()["d0"]
        data = ps.gen_bootstrap(reference_pool, scen, reference_pool.n_subjects,
                                ps.RngStream(1), replace=True)
        assert data.n_subjects == 2 * reference_pool.n_subjects


class TestIrtGenerator:
    def test_progression_formula(self):
        psi0 = np.array([-1.0, 0.0, 1.0])
        slope = np.array([0.5, 0.7, 0.9])
        assert np.array_equal(progressed_latent(psi0, slope, 0.0), psi0)
        assert np.array_equal(progressed_latent(psi0, slope, 1.0), psi0 + slope)
        half = progressed_latent(psi0, slope, 0.5)
        assert np.allclose(half, psi0 + 0.5 * slope)

    def test_rho_grid_in_builtin_scenarios(self):
        scen = ps.builtin_scenarios()
        for rho in (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75):
            s = scen[f"rho={rho:g}"]
            assert s.kind == "slope-ratio" and s.rho == rho

    def test_null_embedding_rho_one(self, grm_model):
        pop = ps.IrtPopulationParams()
        data = ps.gen_irt_longitudinal(pop, grm_model, 1.0, 4000, ps.RngStream(3))
        control = data.week52[data.arm == 0].sum(axis=1)
        treated = data.week52[data.arm == 1].sum(axis=1)
        # exchangeable arms: mean sums agree within Monte-Carlo noise
        se = np.sqrt(control.var() / 4000 + treated.var() / 4000)
        assert abs(control.mean() - treated.mean()) < 4 * se

    def test_smaller_rho_slows_progression(self, grm_model):
        pop = ps.IrtPopulationParams()
        data = ps.gen_irt_longitudinal(pop, grm_model, 0.45, 4000, ps.RngStream(4))
        change_c = (data.week52 - data.baseline)[data.arm == 0].sum(axis=1).mean()
        change_t = (data.week52 - data.baseline)[data.arm == 1].sum(axis=1).mean()
        assert change_t < change_c * 0.75

    def test_rho_validation(self, grm_model):
        pop = ps.IrtPopulationParams()
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                ps.gen_irt_longitudinal(pop, grm_model, rho, 10, ps.RngStream(1))

    def test_sample_grm_scores_distribution(self, grm_model):
        # sampled category frequencies at fixed theta match the model
        rng = ps.RngStream(6)
        thetas = np.zeros(20_000)
        rows = sample_grm_scores(grm_model, thetas, rng)
        for k in (0, 5):
            expected = grm_category_probs(grm_model.items[k], 0.0)
            freq = np.bincount(rows[:, k], minlength=len(expected)) / 20_000
            assert np.abs(freq - expected).max() < 0.02


def _two_draw_mvn(params, scenario, n, rng):
    """gen_discretized_mvn's scores as two sample_mvn calls drew them, one
    per arm."""
    shift = np.concatenate([np.zeros(N_ITEMS), scenario.d])
    control = sample_mvn(params.mean20, params.factor, n, rng)
    treated = sample_mvn(params.mean20 - shift, params.factor, n, rng)
    return np.clip(np.rint(np.vstack([control, treated])), 0, RAW_LEVELS - 1).astype(np.int64)


def _two_draw_irt(pop, model, rho, n, rng):
    """gen_irt_longitudinal's scores as one sample_grm_scores call per visit
    drew them, each summing its comparisons over the category axis."""
    psi0 = pop.intercept_mean + pop.intercept_sd * rng.gen.standard_normal(2 * n)
    slope = _truncated_normal_positive(pop.slope_mean, pop.slope_sd, 2 * n, rng)
    week = progressed_latent(psi0, slope, np.r_[np.ones(n), np.full(n, rho)],
                             pop.horizon_years)
    visits = []
    for thetas in (psi0, week):
        u = rng.gen.random((2 * n, model.n_items))
        visits.append((u[:, :, None] < model.survival(thetas)).sum(axis=2))
    return visits


class TestOneDrawGenerators:
    """Both generators draw both arms (mvn) or both visits (irt) in one call
    from the same stream; the datasets must equal the two-call draws."""

    @pytest.mark.parametrize("n", [2, 3, 35, 70, 71])
    def test_mvn_equals_two_draws(self, reference_pool, n):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        scenarios = ps.builtin_scenarios()
        for seed in range(60):
            scen = scenarios[("d0", "d3", "d5", "d10")[seed % 4]]
            data = ps.gen_discretized_mvn(params, scen, n, ps.RngStream(seed))
            ref = _two_draw_mvn(params, scen, n, ps.RngStream(seed))
            assert data.baseline.tobytes() == ref[:, :N_ITEMS].tobytes()
            assert data.week52.tobytes() == ref[:, N_ITEMS:].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 35, 70, 71])
    def test_irt_equals_two_draws(self, grm_model, n):
        pop = ps.IrtPopulationParams()
        for seed in range(60):
            rho = (1.0, 0.6, 0.45)[seed % 3]
            data = ps.gen_irt_longitudinal(pop, grm_model, rho, n, ps.RngStream(seed))
            baseline, week52 = _two_draw_irt(pop, grm_model, rho, n, ps.RngStream(seed))
            assert data.baseline.tobytes() == baseline.tobytes()
            assert data.week52.tobytes() == week52.tobytes()


class TestSyntheticReference:
    def test_pool_bytes_pinned(self, reference_pool):
        # the seed-1 pool every session fixture and `make-reference --seed 1`
        # build on
        assert score_digest(reference_pool) == (
            "52d967a4adcf74fbf066c9a932e574fbc4d240216231e0dc3c335baf07ca9026")

    def test_fixed_seed_bit_identical(self):
        a = ps.build_synthetic_reference(rng=ps.RngStream(9))
        b = ps.build_synthetic_reference(rng=ps.RngStream(9))
        assert np.array_equal(a.baseline, b.baseline)
        assert np.array_equal(a.week52, b.week52)
        assert np.array_equal(a.ids, b.ids)

    def test_baseline_means_near_targets(self, reference_pool):
        cfg = ps.ReferenceConfig()
        dev = np.abs(reference_pool.baseline.mean(axis=0) - cfg.baseline_mean)
        assert dev.max() < 0.15

    def test_scores_in_range_and_band(self, reference_pool):
        cfg = ps.ReferenceConfig()
        for a in (reference_pool.baseline, reference_pool.week52):
            assert a.min() >= 0 and a.max() <= 4
            sums = a.sum(axis=1)
            assert sums.min() >= cfg.severity_band[0]
            assert sums.max() <= cfg.severity_band[1]

    def test_size(self, reference_pool):
        assert reference_pool.n_subjects == 380


# ---------------------------------------------------------------------------
# validation errors of the scales and datagen constructors
# ---------------------------------------------------------------------------


def _maps(row=None, values=None):
    maps = np.tile(np.arange(RAW_LEVELS), (N_ITEMS, 1))
    if row is not None:
        maps[row] = values
    return maps


def _dataset(n=2, items=N_ITEMS, arm=(0, 1), top=0):
    scores = np.zeros((n, items), dtype=int)
    scores[0, 0] = top
    return ps.ItemDataset(ids=np.arange(n), arm=np.array(arm), baseline=scores,
                          week52=np.zeros((n, items), dtype=int))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ScoringScheme("x", np.zeros((N_ITEMS, 4))),
                 r"collapse maps must be 10x5, got \(10, 4\)", id="scheme-shape"),
    pytest.param(lambda: ScoringScheme("x", _maps(2, [1, 1, 2, 3, 4])),
                 "item05: map must start at 0", id="scheme-map-start"),
    pytest.param(lambda: get_scheme("x"), "unknown scheme tag 'x'", id="scheme-tag"),
    pytest.param(lambda: _dataset(items=9),
                 r"baseline has shape \(2, 9\), expected \(2, 10\)", id="dataset-shape"),
    pytest.param(lambda: _dataset(arm=(0, 2)), r"arm must be 0 \(control\) or 1",
                 id="dataset-arm-2"),
    pytest.param(lambda: _dataset(top=RAW_LEVELS),
                 "baseline scores fall outside the original scheme ranges",
                 id="dataset-score-range"),
])
def test_scales_validation_errors(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def _slope_ratio():
    return ps.EffectScenario("slope-ratio", "r", rho=0.5)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ps.EffectScenario("item-shift", "x", d=-np.ones(N_ITEMS)),
                 "nonnegative length-10 vector", id="shift-negative"),
    pytest.param(lambda: ps.EffectScenario("item-shift", "x", d=np.ones(3)),
                 "nonnegative length-10 vector", id="shift-short"),
    pytest.param(lambda: ps.EffectScenario("slope-ratio", "x", rho=0.0),
                 r"slope ratio must lie in \(0, 1\], got 0.0", id="ratio-zero"),
    pytest.param(lambda: ps.EffectScenario("slope-ratio", "x", rho=1.5),
                 r"slope ratio must lie in \(0, 1\], got 1.5", id="ratio-above-1"),
    pytest.param(lambda: ps.EffectScenario("x", "x"), "unknown scenario kind 'x'",
                 id="scenario-kind"),
    pytest.param(lambda: ps.DiscretizedMvnParams(np.zeros(10), np.eye(10)),
                 "must be 20-dimensional", id="mvn-params-10-dim"),
    pytest.param(lambda: ps.gen_discretized_mvn(
                     ps.DiscretizedMvnParams(np.zeros(20), np.eye(20)), _slope_ratio(), 5,
                     ps.RngStream(1)),
                 "discretized-MVN generator needs an item-shift scenario", id="mvn-slope-ratio"),
    pytest.param(lambda: ps.gen_bootstrap(_dataset(n=10, arm=[0, 1] * 5), _slope_ratio(), 5,
                                          ps.RngStream(1)),
                 "bootstrap generator needs an item-shift scenario", id="bootstrap-slope-ratio"),
    pytest.param(lambda: ps.IrtPopulationParams(intercept_sd=-1.0),
                 "standard deviations must be nonnegative", id="population-negative-sd"),
    pytest.param(lambda: ps.IrtPopulationParams(slope_mean=0.0),
                 "slope_mean must be positive", id="population-slope-mean"),
    # a NaN passes every ordering check, so non-finite values are named first
    pytest.param(lambda: ps.EffectScenario("item-shift", "nan-d",
                                           d=np.r_[np.nan, np.zeros(N_ITEMS - 1)]),
                 "scenario 'nan-d' needs a finite nonnegative length-10 vector",
                 id="shift-nan"),
    pytest.param(lambda: ps.EffectScenario("item-shift", "inf-d", d=np.full(N_ITEMS, np.inf)),
                 "scenario 'inf-d' needs a finite", id="shift-inf"),
    pytest.param(lambda: ps.EffectScenario("slope-ratio", "nan-rho", rho=np.nan),
                 r"slope ratio must lie in \(0, 1\], got nan \(scenario 'nan-rho'\)",
                 id="ratio-nan"),
    *(pytest.param(lambda name=name: ps.IrtPopulationParams(**{name: np.nan}),
                   rf"irt_population fields \['{name}'\] must be finite",
                   id=f"population-{name}-nan")
      for name in ("intercept_mean", "intercept_sd", "slope_mean", "slope_sd", "horizon_years")),
    pytest.param(lambda: ps.IrtPopulationParams(slope_sd=np.inf),
                 "must be finite", id="population-sd-inf"),
    pytest.param(lambda: ps.IrtPopulationParams(horizon_years=-1.0),
                 "horizon_years must be positive, got -1.0", id="population-horizon-negative"),
    pytest.param(lambda: ps.IrtPopulationParams(horizon_years=0.0),
                 "horizon_years must be positive, got 0.0", id="population-horizon-zero"),
])
def test_datagen_validation_errors(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_truncated_normal_with_zero_sd_is_its_mean():
    rng = ps.RngStream(1)
    assert np.array_equal(_truncated_normal_positive(0.7, 0.0, 4, rng), np.full(4, 0.7))
