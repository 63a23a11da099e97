"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion. Tolerances are pinned
here, not configurable: type-I control at alpha + 3 SE over 5000
replicates, power orderings at 3x (strict) or 2x (non-inferiority)
combined Monte-Carlo standard errors over 2000, the rescoring power drop
at 2x SE over 5000, the modified-df arithmetic identity, the oracle
families, and byte-identical determinism across reruns and worker counts.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import psprsim as ps
from psprsim.datagen import inject_bootstrap_effect, sample_grm_scores
from psprsim.engine import StudyPlan, prepare_auxiliaries, run_study
from psprsim.procedures import (
    bonferroni_adjust,
    holm_adjust,
    hommel_adjust,
    modified_df,
    simes_global,
)

# minutes of simulation: deselect with `pytest -m "not slow"` for a quick loop
pytestmark = pytest.mark.slow

ALPHA = 0.025
MASTER = 20_260_811


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def se_c(table, k1, k2):
    return math.sqrt(table.se(*k1) ** 2 + table.se(*k2) ** 2)


@pytest.fixture(scope="module")
def aux():
    base = StudyPlan(generator="mvn", calibration_reps=100_000)
    return prepare_auxiliaries(base)


def _plan(**kw):
    defaults = dict(
        generator="mvn",
        schemes=["original", "fda"],
        master_seed=MASTER,
        n_per_group=70,
        alpha=ALPHA,
        calibration_reps=100_000,
        maxt_tol=1e-3,
    )
    defaults.update(kw)
    return StudyPlan(**defaults)


class TestCriterion1TypeIControl:
    """No method exceeds alpha + 3 SE under the null, any generator/scheme."""

    BOUND = ALPHA + 3 * math.sqrt(ALPHA * (1 - ALPHA) / 5000)

    def _check(self, generator, scenario, aux):
        plan = _plan(generator=generator, scenarios=[scenario], n_reps=5000)
        table = run_study(plan, aux=aux)
        worst = max(table.rows, key=lambda r: r.rejection_rate)
        ok = all(r.rejection_rate <= self.BOUND for r in table.rows)
        report(
            f"1 type-I ({generator})",
            ok,
            f"max rate {worst.rejection_rate:.4f} ({worst.method}/{worst.scheme}) "
            f"<= bound {self.BOUND:.4f} over {len(table.rows)} cells",
        )

    def test_mvn_null(self, aux):
        self._check("mvn", "d0", aux)

    def test_bootstrap_null(self, aux):
        self._check("bootstrap", "d0", aux)

    def test_irt_null(self, aux):
        self._check("irt", "rho=1", aux)


class TestCriterion2HomogeneousOrdering:
    """Under homogeneous shifts the sum score dominates the multiplicity
    procedures, with GLS close behind."""

    def test_sum_score_dominates(self, aux):
        failures = []
        details = []
        for generator in ("mvn", "bootstrap"):
            plan = _plan(
                generator=generator,
                scenarios=["d1", "d2", "d3"],
                schemes=["original"],
                methods=["SumS", "GLS", "Bonf", "Simes"],
                n_reps=2000,
            )
            table = run_study(plan, aux=aux)
            for scen in ("d1", "d2", "d3"):
                sums = table.rate(scen, "original", "SumS")
                for other in ("Bonf", "Simes"):
                    gap = sums - table.rate(scen, "original", other)
                    need = 3 * se_c(table, (scen, "original", "SumS"),
                                    (scen, "original", other))
                    if not gap > need:
                        failures.append(f"{generator}/{scen}: SumS vs {other} "
                                        f"gap {gap:.4f} <= {need:.4f}")
                gls_gap = abs(table.rate(scen, "original", "GLS") - sums)
                if not gls_gap <= 0.05:
                    failures.append(f"{generator}/{scen}: |GLS-SumS| {gls_gap:.4f} > 0.05")
                details.append(f"{generator}/{scen} SumS {sums:.3f}")
        report("2 homogeneous ordering", not failures,
               "; ".join(failures) if failures else "; ".join(details))


class TestCriterion3LocalizedOrdering:
    """Single-item effects: MaxT and Bonferroni beat the sum score."""

    def test_multiplicity_beats_sum(self, aux):
        plan = _plan(
            scenarios=["d10", "d11", "d12"],
            schemes=["original"],
            methods=["SumS", "Bonf", "MaxT"],
            n_reps=2000,
        )
        table = run_study(plan, aux=aux)
        failures = []
        details = []
        for scen in ("d10", "d11", "d12"):
            sums = table.rate(scen, "original", "SumS")
            for better in ("MaxT", "Bonf"):
                gap = table.rate(scen, "original", better) - sums
                need = 3 * se_c(table, (scen, "original", better),
                                (scen, "original", "SumS"))
                if not gap > need:
                    failures.append(f"{scen}: {better} vs SumS gap {gap:.4f} <= {need:.4f}")
            details.append(
                f"{scen} SumS {sums:.3f} MaxT {table.rate(scen, 'original', 'MaxT'):.3f} "
                f"Bonf {table.rate(scen, 'original', 'Bonf'):.3f}"
            )
        report("3 localized ordering", not failures,
               "; ".join(failures) if failures else "; ".join(details))


class TestCriterion4IrtSupremacy:
    """Under IRT-generated data the IRT-based test leads every method."""

    def test_irt_test_leads(self, aux):
        plan = _plan(
            generator="irt",
            scenarios=["rho=0.55", "rho=0.65"],
            schemes=["original"],
            n_reps=2000,
        )
        table = run_study(plan, aux=aux)
        failures = []
        details = []
        for scen in ("rho=0.55", "rho=0.65"):
            irt = table.rate(scen, "original", "IRT")
            for method in ps.METHODS:
                if method == "IRT":
                    continue
                other = table.rate(scen, "original", method)
                slack = 2 * se_c(table, (scen, "original", "IRT"),
                                 (scen, "original", method))
                if not irt >= other - slack:
                    failures.append(f"{scen}: IRT {irt:.4f} < {method} {other:.4f} - {slack:.4f}")
            bonf = table.rate(scen, "original", "Bonf")
            need = 3 * se_c(table, (scen, "original", "IRT"), (scen, "original", "Bonf"))
            if not irt - bonf > need:
                failures.append(f"{scen}: IRT vs Bonf gap {irt - bonf:.4f} <= {need:.4f}")
            details.append(f"{scen} IRT {irt:.3f} Bonf {bonf:.3f}")
        report("4 IRT-generated supremacy", not failures,
               "; ".join(failures) if failures else "; ".join(details))


class TestCriterion5RescoringDrop:
    """Collapsing item levels costs sum-score power under d2."""

    def test_fda_rescoring_costs_power(self, aux):
        plan = _plan(scenarios=["d2"], methods=["SumS"], n_reps=5000)
        table = run_study(plan, aux=aux)
        orig = table.rate("d2", "original", "SumS")
        fda = table.rate("d2", "fda", "SumS")
        gap = orig - fda
        need = 2 * se_c(table, ("d2", "original", "SumS"), ("d2", "fda", "SumS"))
        report("5 rescoring power drop", gap > need,
               f"original {orig:.4f} fda {fda:.4f} gap {gap:.4f} > {need:.4f}")


class TestCriterion6ModifiedDf:
    def test_df_formula(self):
        value = modified_df(70, 10)
        report("6 modified df", value == 0.5 * (2 * 70 - 3) * (1 + 1 / 10**2)
               and abs(value - 69.185) < 1e-12, f"df(70,10) = {value}")


class TestCriterion7OracleSuites:
    """Compressed re-run of each oracle family (full versions live in the
    module suites)."""

    def test_ancova_normal_equations(self):
        rng = np.random.default_rng(1)
        n = 30
        b = rng.normal(2, 1, n)
        g = np.r_[np.zeros(15), np.ones(15)]
        y = 1 + 0.5 * b - 0.2 * g + rng.normal(0, 1, n)
        X = np.column_stack([np.ones(n), b, g])
        coef = np.linalg.solve(X.T @ X, X.T @ y)
        fit = ps.fit_ancova(y, b, g)
        ok = abs(fit.coef_treatment - coef[2]) < 1e-10
        report("7a ANCOVA oracle", ok, f"delta {abs(fit.coef_treatment - coef[2]):.2e}")

    def test_eap_dense_grid(self, aux):
        model = aux.grm["original"]
        resp = np.array([2, 1, 3, 2, 1, 2, 3, 2, 3, 2])
        grid = np.linspace(-8, 8, 20_001)
        log_post = -0.5 * grid**2
        for k, item in enumerate(model.items):
            probs = np.array([ps.grm_category_probs(item, t)[model.category_maps[k][resp[k]]]
                              for t in grid])
            log_post += np.log(np.clip(probs, 1e-300, None))
        w = np.exp(log_post - log_post.max())
        oracle = float(np.trapezoid(grid * w, grid) / np.trapezoid(w, grid))
        fast = ps.eap_score(model, resp).theta
        report("7b EAP dense-grid oracle", abs(fast - oracle) < 1e-6,
               f"delta {abs(fast - oracle):.2e}")

    def test_mvn_oracles(self):
        from scipy.special import ndtr

        R = np.full((3, 3), 0.5)
        np.fill_diagonal(R, 1.0)
        rng = np.random.default_rng(2)
        L = np.linalg.cholesky(R)
        hits = 0
        n = 10_000_000
        for _ in range(10):
            z = rng.standard_normal((n // 10, 3)) @ L.T
            hits += int(np.all(z <= 1.0, axis=1).sum())
        p_mc = hits / n
        se_mc = math.sqrt(p_mc * (1 - p_mc) / n)
        p, err = ps.mvn_rect_upper(np.ones(3), R, tol=1e-4, rng=ps.RngStream(5))
        ok1 = abs(p - p_mc) < 3 * math.sqrt(se_mc**2 + (err / 3) ** 2)
        p10, err10 = ps.mvn_rect_upper(np.full(10, 1.5), np.eye(10), tol=1e-4,
                                       rng=ps.RngStream(6))
        ok2 = abs(p10 - ndtr(1.5) ** 10) <= 1e-4
        report("7c MVN oracles", ok1 and ok2,
               f"MC delta {abs(p - p_mc):.2e}, independence delta "
               f"{abs(p10 - ndtr(1.5) ** 10):.2e}")

    def test_grm_recovery(self):
        items = [
            ps.GrItemParams(1.3, np.array([-1.2, 0.0, 1.2])),
            ps.GrItemParams(1.7, np.array([-0.8, 0.4, 1.6])),
            ps.GrItemParams(1.0, np.array([-1.5, -0.3, 0.9])),
        ]
        truth = ps.GrModel(items=items)
        rng = ps.RngStream(7)
        rows = sample_grm_scores(truth, rng.gen.standard_normal(2000), rng)
        model = ps.fit_grm(rows, category_counts=np.full(3, 4))
        worst = 0.0
        for fit, true in zip(model.items, items):
            worst = max(worst, abs(fit.discrimination - true.discrimination))
            worst = max(worst, float(np.abs(fit.thresholds - true.thresholds).max()))
        report("7d GRM parameter recovery", worst < 0.15, f"worst |delta| {worst:.3f}")

    def test_dominance(self):
        rng = np.random.default_rng(8)
        ok = True
        for _ in range(10_000):
            p = rng.uniform(0, 1, 10)
            hom, holm, bonf = hommel_adjust(p), holm_adjust(p), bonferroni_adjust(p)
            if simes_global(p) > min(1.0, 10 * p.min()) + 1e-12 or \
               np.any(hom > holm + 1e-12) or np.any(holm > bonf + 1e-12):
                ok = False
                break
        report("7e Simes/Hommel/Holm dominance", ok, "10^4 random p-vectors")

    def test_bootstrap_identity(self):
        rng = ps.RngStream(9)
        ok = True
        for label in ("d1", "d2", "d5", "d10"):
            d = ps.builtin_scenarios()[label].d
            week = rng.gen.integers(0, 5, size=(70, 10))
            _, pre = inject_bootstrap_effect(week, d, rng)
            shift = week.mean(axis=0) - pre.mean(axis=0)
            expected = np.floor(d) + np.rint(70 * (d - np.floor(d))) / 70
            if not np.allclose(shift, expected, atol=1e-12):
                ok = False
        report("7f bootstrap bookkeeping identity", ok, "per-replicate exact")


class TestCriterion8Determinism:
    def test_byte_identical_tables(self, aux):
        plan = _plan(scenarios=["d0"], n_reps=150,
                     methods=["SumS", "GLS", "MaxT", "Omnibus"])
        t1 = run_study(plan, aux=aux, workers=1)
        t8 = run_study(plan, aux=aux, workers=8)
        t_again = run_study(plan, aux=aux, workers=1)
        ok = t1.to_csv_text() == t8.to_csv_text() == t_again.to_csv_text()
        report("8 determinism", ok,
               "1-worker, 8-worker, and re-run tables byte-identical")
