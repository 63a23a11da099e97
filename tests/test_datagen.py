"""Generator tests: rescoring maps, the rounding/trimming rules, the
bootstrap injection bookkeeping identity, latent progression, and the
synthetic reference pool's calibration checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import psprsim as ps
from psprsim.datagen import (
    _discretize,
    inject_bootstrap_effect,
    inject_item_effect,
    progressed_latent,
    sample_grm_scores,
)
from psprsim.errors import ValidationError
from psprsim.scales import N_ITEMS, get_scheme, load_scheme


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
    """Schemes, generated ids and the MVN factor are built once and shared,
    so writing into them must fail instead of corrupting later replicates."""

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
        for data, first in ((a, "S00000"), (boot, "B00000"), (irt, "I00000")):
            assert data.ids[0] == first and len(data.ids) == 40
            with pytest.raises(ValueError):
                data.ids[0] = "X"

    def test_mvn_params_factor_once_and_read_only(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        F = params.spec.factor()
        assert np.array_equal(F, ps.cholesky(params.cov20))
        for a in (params.mean20, params.cov20, F):
            with pytest.raises(ValueError):
                a[0] = 0.0


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

    def test_null_scenario_uniform_pvalues(self, reference_pool):
        params = ps.DiscretizedMvnParams.estimate(reference_pool)
        null = ps.builtin_scenarios()["d0"]
        pvals = np.empty(2000)
        for i in range(2000):
            data = ps.gen_discretized_mvn(params, null, 20, ps.RngStream(1000 + i))
            base, week = data.sum_scores()
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
            expected = ps.grm_category_probs(grm_model.items[k], 0.0)
            freq = np.bincount(rows[:, k], minlength=len(expected)) / 20_000
            assert np.abs(freq - expected).max() < 0.02


class TestSyntheticReference:
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
