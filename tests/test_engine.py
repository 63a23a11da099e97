"""Engine tests: the replicate seed tree, plan round trips, failure
accounting, and the worker-count / re-run determinism contract."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import psprsim as ps
from psprsim.engine import (
    PowerRow,
    PowerTable,
    StudyPlan,
    prepare_auxiliaries,
    run_single_replicate,
    run_study,
)
from psprsim.errors import NumericalError, ValidationError
from psprsim.procedures import METHODS
from psprsim.scales import DOMAINS

from conftest import item_fits


@pytest.fixture(scope="module")
def small_plan():
    return StudyPlan(
        generator="mvn",
        scenarios=["d0"],
        schemes=["original", "fda"],
        n_reps=200,
        calibration_reps=5000,
        maxt_tol=1e-3,
    )


@pytest.fixture(scope="module")
def aux(small_plan):
    return prepare_auxiliaries(small_plan)


def replicate_seeds(master, scenario_id, reps):
    stream = ps.RngStream(master).child(scenario_id)
    return np.fromiter((stream.child(int(r)).seed for r in reps), dtype=np.uint64,
                       count=len(reps))


class TestSeedDerivation:
    """A replicate's stream is RngStream(master).child(scenario).child(rep)."""

    # the splitmix64(master, scenario, rep) chain as the engine computed it
    # before the stream tree was its only owner
    PINNED = {
        (0, 0, 0): 0xA706DD2F4D197E6F,
        (0, 4, 49): 0xE4B1520C0DAD1211,
        (2**64 - 1, 2, 7): 0x1030C6AEEFD36F07,
        (-1, 1, 3): 0x3577E670801B64BF,
        (-202_400, 3, 12_345): 0x23FF77320DBB4A08,
    }

    def test_pinned_seeds(self):
        for (master, scenario_id, rep), seed in self.PINNED.items():
            assert ps.RngStream(master).child(scenario_id).child(rep).seed == seed

    def test_deterministic(self):
        assert replicate_seeds(42, 3, [1000])[0] == replicate_seeds(42, 3, [1000])[0]

    def test_seeds_no_collision(self):
        seeds = replicate_seeds(123456, 0, range(200_000))
        assert len(np.unique(seeds)) == 200_000

    def test_avalanche(self):
        reps = np.arange(10_000)
        a = replicate_seeds(7, 0, reps)
        b = replicate_seeds(7, 0, reps + 1)
        flips = np.unpackbits((a ^ b).view(np.uint8)).reshape(len(reps), 64).sum(axis=1)
        assert flips.mean() >= 20

    def test_distinct_across_scenarios(self):
        a = replicate_seeds(7, 0, range(1000))
        b = replicate_seeds(7, 1, range(1000))
        assert len(np.intersect1d(a, b)) == 0


class TestStudyPlan:
    def test_json_round_trip(self, tmp_path, small_plan):
        path = tmp_path / "plan.json"
        small_plan.save(path)
        back = StudyPlan.load(path)
        assert back == small_plan

    def test_validation(self):
        with pytest.raises(ValidationError):
            StudyPlan(generator="gibbs")
        with pytest.raises(ValidationError):
            StudyPlan(generator="mvn", n_reps=10)
        with pytest.raises(ValidationError):
            StudyPlan(generator="mvn", alpha=0.7)
        with pytest.raises(ValidationError):
            StudyPlan(generator="mvn", methods=["SumS", "Hotelling"])
        with pytest.raises(ValidationError):
            StudyPlan(generator="mvn", scenarios=["d99"]).resolve_scenarios()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="n_rep"):
            StudyPlan.from_doc({"generator": "mvn", "n_rep": 100})
        with pytest.raises(ValidationError, match="slope_men"):
            StudyPlan.from_doc({"generator": "irt", "irt_population": {"slope_men": 0.5}})
        with pytest.raises(ValidationError, match="JSON object"):
            StudyPlan.from_doc(["mvn"])
        with pytest.raises(ValidationError, match="irt_population must be a JSON object"):
            StudyPlan.from_doc({"generator": "irt", "irt_population": 3})
        with pytest.raises(ValidationError, match="generator"):
            StudyPlan.from_doc({"n_reps": 100})

    def test_inline_scenarios(self):
        # one plan per kind: a generator applies only its own scenario kind
        shift = StudyPlan(generator="mvn", scenarios=[{"label": "custom", "d": [0.1] * 10}])
        ratio = StudyPlan(generator="irt", scenarios=[{"label": "r", "rho": 0.5}])
        assert shift.resolve_scenarios()[0].kind == "item-shift"
        assert ratio.resolve_scenarios()[0].rho == 0.5

    def test_generator_scenario_mismatch(self, small_plan):
        # caught when the plan is built, before any fit phase
        from dataclasses import replace

        with pytest.raises(ValidationError, match="item-shift scenarios"):
            replace(small_plan, scenarios=["rho=0.55"])
        with pytest.raises(ValidationError, match="item-shift scenarios"):
            replace(small_plan, generator="bootstrap", scenarios=["d0", "rho=0.55"])
        with pytest.raises(ValidationError, match=r"slope-ratio scenarios, got \['d1'\]"):
            replace(small_plan, generator="irt", scenarios=["d1"])


class TestPowerTable:
    def test_mc_se_formula_exact(self, small_plan, aux):
        rows = run_study(small_plan, aux=aux, workers=1).rows
        for r in rows:
            assert r.mc_se == np.sqrt(r.rejection_rate * (1 - r.rejection_rate) / r.n_reps)

    def test_sorted_output_and_lookup(self):
        rows = [
            PowerRow("mvn", "d1", "original", "SumS", 0.5, 0.01, 100),
            PowerRow("mvn", "d0", "original", "Bonf", 0.02, 0.002, 100),
        ]
        table = PowerTable(rows).sorted()
        assert [r.scenario for r in table.rows] == ["d0", "d1"]
        assert table.rate("d1", "original", "SumS") == 0.5
        with pytest.raises(KeyError):
            table.rate("d9", "original", "SumS")

    def test_rate_and_se_share_one_lookup(self):
        table = PowerTable([PowerRow("mvn", "d0", "original", "SumS", 0.025, 0.0049, 1000),
                            PowerRow("mvn", "d0", "fda", "SumS", 0.03, 0.0054, 1000)])
        assert table.rate("d0", "fda", "SumS") == 0.03
        assert table.se("d0", "fda", "SumS") == 0.0054
        with pytest.raises(KeyError):
            table.se("d0", "fda", "Bonf")

    def test_csv_and_json_emission(self, tmp_path):
        table = PowerTable([PowerRow("mvn", "d0", "original", "SumS", 0.025, 0.0049, 1000)])
        table.save_csv(tmp_path / "t.csv")
        table.save_json(tmp_path / "t.json")
        text = (tmp_path / "t.csv").read_text()
        assert text.startswith(PowerTable.HEADER)
        assert "0.025" in text

    def test_pivot_flags_null_rates_above_bound(self, tmp_path):
        plan = StudyPlan(generator="mvn", methods=["SumS", "Bonf"], n_reps=1000,
                         scenarios=["d1", "d0", {"label": "zero", "d": [0.0] * 10}])
        bound = plan.alpha + 3 * math.sqrt(plan.alpha * (1 - plan.alpha) / plan.n_reps)
        above = bound + 0.001
        rates = {("d1", "original", "SumS"): above, ("d0", "original", "SumS"): above,
                 ("d0", "original", "Bonf"): bound, ("zero", "fda", "Bonf"): above}
        table = PowerTable([
            PowerRow("mvn", scen, scheme, method, rates.get((scen, scheme, method), 0.02),
                     0.0, plan.n_reps)
            for scen in ("d0", "d1", "zero") for scheme in plan.schemes
            for method in plan.methods
        ])
        table.save_pivot(plan, tmp_path / "pivot.txt")
        cells = [line.split() for line in (tmp_path / "pivot.txt").read_text().splitlines()]
        hi, at = f"{above:.4f}", f"{bound:.4f}"
        assert cells == [
            ["scheme", "scenario", "SumS", "Bonf"],
            ["original", "d1", hi, "0.0200"],  # an alternative is never flagged
            ["original", "d0", hi + "*", at],  # a rate equal to the bound is not flagged
            ["original", "zero", "0.0200", "0.0200"],
            ["fda", "d1", "0.0200", "0.0200"],
            ["fda", "d0", "0.0200", "0.0200"],
            ["fda", "zero", "0.0200", hi + "*"],  # an inline all-zero shift is a null
        ]


class TestDeterminism:
    def test_single_replicate_reproducible(self, small_plan, aux):
        scen = small_plan.resolve_scenarios()[0]
        a = run_single_replicate(small_plan, scen, 0, 7, aux)
        b = run_single_replicate(small_plan, scen, 0, 7, aux)
        assert np.array_equal(a[0], b[0])

    def test_worker_count_invariance(self, small_plan, aux):
        from dataclasses import replace

        plan = replace(small_plan, scenarios=["d0", "d3", "d10"], n_reps=100)
        t1 = run_study(plan, aux=aux, workers=1)
        assert len(t1.rows) == 3 * len(plan.schemes) * len(plan.methods)
        for workers in (2, 8):
            assert run_study(plan, aux=aux, workers=workers).to_csv_text() == t1.to_csv_text()

    def test_one_process_pool_per_study(self, small_plan, aux, monkeypatch):
        import psprsim.engine as eng
        from dataclasses import replace

        made = []

        class CountingPool(eng.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(eng, "ProcessPoolExecutor", CountingPool)
        plan = replace(small_plan, scenarios=["d0", "d3", "d10"], methods=["SumS"], n_reps=100)
        assert len(run_study(plan, aux=aux, workers=2).rows) == 3 * len(plan.schemes)
        assert made == [2]

    def test_rerun_byte_identical(self, small_plan, aux):
        t1 = run_study(small_plan, aux=aux, workers=2)
        t2 = run_study(small_plan, aux=aux, workers=2)
        assert t1.to_csv_text() == t2.to_csv_text()


class TestPinnedTables:
    # sha256 of power_table.csv for 100 replicates per generator, computed
    # when fit_ancova still returned one object per column
    PINNED_SHA256 = {
        ("mvn", "d3"): "ff2d1e9010ae79c9b85477ccf3daf67f8618ae4c787d29f0f001dd8e664c76fd",
        ("bootstrap", "d3"): "01bbd9cc16b7c0b4ddf31c851e11219519f5e42ccb0ced694abbe0801a644a3f",
        ("irt", "rho=0.6"): "9231c9ead765b18f7eac4d3c1ba2d036ae0fd33d687c0f5d1d6792a05d5775ab",
    }

    @pytest.mark.parametrize("generator, scenario", list(PINNED_SHA256))
    def test_power_table_bytes_pinned(self, small_plan, aux, generator, scenario):
        import hashlib
        from dataclasses import replace

        plan = replace(small_plan, generator=generator, scenarios=[scenario], n_reps=100)
        text = run_study(plan, aux=aux, workers=1).to_csv_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.PINNED_SHA256[generator, scenario]


class TestMethodTable:
    def test_one_entry_per_method_in_order(self):
        import psprsim.engine as eng

        assert tuple(eng.METHOD_TABLE) == METHODS

    def test_tracer_call_sites_exist_and_are_restored(self, small_plan, aux):
        # perfbench/tracing.py wraps functions at the module attributes their
        # callers look up; a refactor that drops one of those names must fail
        # here, and every patched attribute must be restored afterwards
        from psprsim import cli, engine, irt, marginal, procedures, reports

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        modules = dict(engine=engine, cli=cli, procedures=procedures,
                       marginal=marginal, reports=reports, irt=irt)
        owners = [*modules.values(), irt.GrModel, irt.LinearLatentApprox]
        before = [dict(vars(owner)) for owner in owners]
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            assert engine.test_sum_score is not before[0]["test_sum_score"]
            engine.run_single_replicate(small_plan, small_plan.resolve_scenarios()[0], 0, 3, aux)
        for owner, attrs in zip(owners, before):
            assert {k: v for k, v in vars(owner).items() if k in attrs} == attrs, owner
        names = set(tracer.names)
        assert {f"procedures.{m}" for m in METHODS} <= names
        assert {"marginal.fit_marginals", "marginal.estimate_corr",
                "numkit.fit_ancova"} <= names

        # the replicate's EAP scoring is traced inside the replicate's span
        def in_replicate(i):
            while i >= 0 and tracer.names[i] != "engine.run_single_replicate":
                i = tracer.parent[i]
            return i >= 0

        eap = [i for i, name in enumerate(tracer.names) if name == "irt.eap_scores"]
        assert len(eap) == len(small_plan.schemes) and all(map(in_replicate, eap))

    # every method's full-precision p-value on one d3 dataset in both schemes;
    # GLS-drop drops an item in both, so each code path is pinned
    PINNED_P = {
        ("original", "SumS"): "0x1.154bddab8deb1p-7",
        ("original", "IRT"): "0x1.571d150457a82p-7",
        ("original", "LM"): "0x1.462ff815f6ad9p-5",
        ("original", "OLS"): "0x1.2d802d3ed5314p-7",
        ("original", "GLS"): "0x1.738e90b047a70p-8",
        ("original", "GLS-drop"): "0x1.e048dc0d350e1p-8",
        ("original", "Bonf"): "0x1.596a27d5a5e7bp-5",
        ("original", "MaxT"): "0x1.e44ea588b5240p-6",
        ("original", "Simes"): "0x1.bd63bb14b2bccp-6",
        ("original", "Omnibus"): "0x1.1d064bdcfc77dp-6",
        ("original", "Omnibus-dom"): "0x1.89232ad8885eap-7",
        ("fda", "SumS"): "0x1.4d3961e76417dp-7",
        ("fda", "IRT"): "0x1.706dd3e8fb5c5p-7",
        ("fda", "LM"): "0x1.e9a7998e93556p-2",
        ("fda", "OLS"): "0x1.aa11046fe7ab4p-7",
        ("fda", "GLS"): "0x1.267d2a0811da3p-5",
        ("fda", "GLS-drop"): "0x1.295499286bf02p-5",
        ("fda", "Bonf"): "0x1.2e12bf3a8f54fp-7",
        ("fda", "MaxT"): "0x1.11069e89cad40p-7",
        ("fda", "Simes"): "0x1.2e12bf3a8f54fp-7",
        ("fda", "Omnibus"): "0x1.33f525d448b08p-7",
        ("fda", "Omnibus-dom"): "0x1.4e2ab1380d83ap-7",
    }

    def test_p_values_pinned(self, small_plan, aux):
        import psprsim.engine as eng

        base = ps.RngStream(small_plan.master_seed).child(0).child(16)
        data0 = eng._generate(small_plan, ps.builtin_scenarios()["d3"], aux, base.child(0))
        got = {}
        for si, tag in enumerate(small_plan.schemes):
            ctx = eng.MethodContext(
                data=eng.ensure_scheme(data0, tag), grm=aux.grm[tag],
                approx=aux.approx[tag], calib_items=aux.calib_items,
                calib_domains=aux.calib_domains, maxt_tol=small_plan.maxt_tol,
                rng=base.child(1 + si),
            )
            for method, out in zip(METHODS, eng.run_methods(ctx, METHODS)):
                got[tag, method] = float(out.p_one_sided).hex()
        assert got == self.PINNED_P


class TestFailureAccounting:
    def test_rare_failures_count_as_nonrejection(self, small_plan, aux, monkeypatch):
        import psprsim.engine as eng

        real = eng.test_sum_score
        calls = {"n": 0}

        def flaky(data):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("synthetic failure")
            return real(data)

        monkeypatch.setattr(eng, "test_sum_score", flaky)
        from dataclasses import replace

        plan = replace(small_plan, methods=["SumS"], schemes=["original"], n_reps=150)
        rows = run_study(plan, aux=aux, workers=1).rows
        assert rows[0].n_failures == 1

    def test_failure_rate_over_one_percent_fails_run(self, small_plan, aux, monkeypatch):
        import psprsim.engine as eng

        def broken(data):
            raise NumericalError("always down")

        monkeypatch.setattr(eng, "test_sum_score", broken)
        from dataclasses import replace

        plan = replace(small_plan, methods=["SumS"], schemes=["original"], n_reps=150)
        with pytest.raises(NumericalError, match="1%"):
            run_study(plan, aux=aux, workers=1)

    def test_failing_scenario_stops_the_study(self, small_plan, aux, monkeypatch):
        # chunks come back in scenario order, so the 1% rule fails the study
        # on its first scenario before any replicate of the second runs
        import psprsim.engine as eng
        from dataclasses import replace

        def broken(data):
            raise NumericalError("always down")

        real = eng.run_single_replicate
        seen = set()

        def recording(plan, scenario, scenario_id, rep, aux):
            seen.add(scenario_id)
            return real(plan, scenario, scenario_id, rep, aux)

        monkeypatch.setattr(eng, "test_sum_score", broken)
        monkeypatch.setattr(eng, "run_single_replicate", recording)
        plan = replace(small_plan, scenarios=["d0", "d3"], methods=["SumS"],
                       schemes=["original"], n_reps=150)
        for workers in (1, 2):
            with pytest.raises(NumericalError, match=r"SumS/original failed on 150/150"):
                run_study(plan, aux=aux, workers=workers)
        assert seen == {0}  # recorded at one worker; pool workers record their own copy


def degenerate_replicate(small_plan, aux, monkeypatch, visit, value, items=(0,)):
    """One replicate whose `items` (the first by default) are set to `value`
    at `visit`, with the number of fit_marginals and estimate_corr calls it
    made: one fit_marginals call fits every scheme's endpoints."""
    import psprsim.engine as eng

    real = eng._generate
    calls = {"fit_marginals": 0, "estimate_corr": 0}

    def degenerate(plan, scenario, aux, rng):
        data = real(plan, scenario, aux, rng)
        getattr(data, visit)[:, list(items)] = value
        return data

    def counted(name):
        fn = getattr(eng, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(eng, "_generate", degenerate)
    for name in calls:
        monkeypatch.setattr(eng, name, counted(name))
    scen = small_plan.resolve_scenarios()[0]
    return run_single_replicate(small_plan, scen, 0, 3, aux), calls


class TestDegenerateData:
    def test_zero_week52_item_is_a_counted_failure(self, small_plan, aux, monkeypatch):
        # an item whose week-52 scores are all zero fits exactly: zero
        # residuals, zero sandwich variance for the correlation, which each
        # scheme computes once although four methods read it
        (rejected, failed, messages), calls = degenerate_replicate(
            small_plan, aux, monkeypatch, "week52", 0)
        corr_methods = {"OLS", "GLS", "GLS-drop", "MaxT"}
        expect = [m in corr_methods for m in small_plan.methods]
        for si in range(len(small_plan.schemes)):
            assert failed[si].astype(bool).tolist() == expect
        assert all("zero sandwich variance" in m for m in messages)
        assert calls == {"fit_marginals": 1, "estimate_corr": 2}

    def test_constant_baseline_item_fits_once_per_scheme(self, small_plan, aux, monkeypatch):
        # a constant baseline item makes the 10-item block singular; the
        # seven methods that read the fits each count the one fit's error
        (rejected, failed, messages), calls = degenerate_replicate(
            small_plan, aux, monkeypatch, "baseline", 2)
        fits_methods = ["OLS", "GLS", "GLS-drop", "Bonf", "MaxT", "Simes", "Omnibus"]
        expect = [m in fits_methods for m in small_plan.methods]
        for si in range(len(small_plan.schemes)):
            assert failed[si].astype(bool).tolist() == expect
        assert [m.split(": ", 1)[0] for m in messages] == [
            f"{m}/{tag}/rep=3" for tag in small_plan.schemes for m in fits_methods]
        assert len({m.split(": ", 1)[1] for m in messages}) == 1
        assert "singular ANCOVA design for item item03" in messages[0]
        assert calls == {"fit_marginals": 1, "estimate_corr": 0}

    def test_constant_history_baseline_fails_only_the_rows_read(self, small_plan, aux,
                                                                monkeypatch):
        # the three History items constant at baseline make the 10 item rows
        # and the History domain row singular; SumS, IRT and LM read other
        # rows of the same block and stay defined
        (rejected, failed, messages), calls = degenerate_replicate(
            small_plan, aux, monkeypatch, "baseline", 2, items=DOMAINS["history"])
        broken = ["OLS", "GLS", "GLS-drop", "Bonf", "MaxT", "Simes", "Omnibus", "Omnibus-dom"]
        expect = [m in broken for m in small_plan.methods]
        for si in range(len(small_plan.schemes)):
            assert failed[si].astype(bool).tolist() == expect
        dom = [m for m in messages if m.startswith("Omnibus-dom/")]
        assert len(dom) == len(small_plan.schemes)
        assert all("singular ANCOVA design for domain history" in m for m in dom)
        assert calls == {"fit_marginals": 1, "estimate_corr": 0}

    @pytest.mark.parametrize("visit, value", [(None, None), ("baseline", 2), ("week52", 0)])
    def test_one_block_fit_and_one_eap_call_per_scheme(self, small_plan, aux, monkeypatch,
                                                       visit, value):
        # each scheme scores its data in one eap_scores call, and one
        # fit_ancova call fits the endpoint blocks of all schemes
        import psprsim.engine as eng
        import psprsim.marginal as marginal
        import psprsim.procedures as procedures

        calls = {"fit_ancova": 0, "eap_scores": 0}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner in (marginal, procedures):
            count(owner, "fit_ancova")
        for owner in (eng, procedures):
            count(owner, "eap_scores")
        scen = small_plan.resolve_scenarios()[0]
        if visit is None:
            run_single_replicate(small_plan, scen, 0, 3, aux)
        else:
            degenerate_replicate(small_plan, aux, monkeypatch, visit, value)
        n = len(small_plan.schemes)
        assert calls == {"fit_ancova": 1, "eap_scores": n}


def _outcomes(contexts, joint):
    """Each method's p-value (as hex) or failure message for each context:
    with the endpoints of all contexts fitted in one pass when ``joint``,
    else with each context fitting its own on first use."""
    import psprsim.engine as eng

    if joint:
        eng.fit_endpoints(contexts)
    return [[out.p_one_sided.hex() if not isinstance(out, Exception)
             else f"{type(out).__name__}: {out}" for out in eng.run_methods(ctx, METHODS)]
            for ctx in contexts]


class TestSharedEndpointPass:
    """fit_endpoints fits the endpoint blocks of all schemes of a dataset in
    one fit_marginals call; every method's result must equal the one each
    scheme gets from fitting its own block alone."""

    @staticmethod
    def contexts(plan, aux, data0, alpha=None):
        import psprsim.engine as eng

        base = ps.RngStream(plan.master_seed).child(5)
        return [eng.MethodContext(
            data=eng.ensure_scheme(data0, tag), grm=aux.grm[tag], approx=aux.approx[tag],
            calib_items=aux.calib_items, calib_domains=aux.calib_domains,
            maxt_tol=plan.maxt_tol, rng=base.child(si), alpha=alpha,
        ) for si, tag in enumerate(plan.schemes)]

    @staticmethod
    def dataset(plan, aux, rep, odd):
        import psprsim.engine as eng

        base = ps.RngStream(plan.master_seed).child(0).child(rep)
        data = eng._generate(plan, ps.builtin_scenarios()["d3"], aux, base.child(0))
        if odd:  # one subject fewer: an odd subject count
            data = ps.ItemDataset(data.ids[:-1], data.arm[:-1], data.baseline[:-1],
                                  data.week52[:-1])
        return data

    @pytest.mark.parametrize("odd", [False, True], ids=["even-n", "odd-n"])
    @pytest.mark.parametrize("alpha", [None, 0.025], ids=["full-p", "decision"])
    def test_joint_pass_equals_each_scheme_alone(self, small_plan, aux, odd, alpha):
        for rep in range(3):
            data = self.dataset(small_plan, aux, rep, odd)
            joint = _outcomes(self.contexts(small_plan, aux, data, alpha), joint=True)
            alone = _outcomes(self.contexts(small_plan, aux, data, alpha), joint=False)
            assert joint == alone
            assert not any("Error" in p for row in joint for p in row)

    @pytest.mark.parametrize("odd", [False, True], ids=["even-n", "odd-n"])
    def test_singular_item_in_one_scheme_only(self, small_plan, aux, odd):
        # the fda scheme maps item25's levels 0, 1 and 2 to 0, so a baseline
        # item25 drawn from them is constant in fda only: the fda item rows
        # are singular and the original ones are not
        from psprsim.scales import ITEM_COLUMNS

        data = self.dataset(small_plan, aux, 0, odd)
        k = ITEM_COLUMNS.index("item25")
        data.baseline[:, k] = np.arange(data.n_subjects) % 3
        joint = _outcomes(self.contexts(small_plan, aux, data), joint=True)
        assert joint == _outcomes(self.contexts(small_plan, aux, data), joint=False)
        original, fda = joint
        fits_methods = {"OLS", "GLS", "GLS-drop", "Bonf", "MaxT", "Simes", "Omnibus"}
        assert not any("Error" in p for p in original)
        assert [("singular ANCOVA design for item item25" in p) for p in fda] == [
            m in fits_methods for m in METHODS]

    @pytest.mark.parametrize("odd", [False, True], ids=["even-n", "odd-n"])
    def test_zero_variance_item(self, small_plan, aux, odd):
        data = self.dataset(small_plan, aux, 1, odd)
        data.week52[:, 0] = 0
        joint = _outcomes(self.contexts(small_plan, aux, data), joint=True)
        assert joint == _outcomes(self.contexts(small_plan, aux, data), joint=False)
        corr_methods = {"OLS", "GLS", "GLS-drop", "MaxT"}
        for row in joint:
            assert [("zero sandwich variance" in p) for p in row] == [
                m in corr_methods for m in METHODS]

    def test_error_in_the_joint_pass_fails_only_its_scheme(self, small_plan, aux,
                                                          monkeypatch):
        # an error while scoring one scheme fails that scheme's methods; the
        # other scheme's results are those of a replicate without the error
        import psprsim.engine as eng

        scen = small_plan.resolve_scenarios()[0]
        clean = run_single_replicate(small_plan, scen, 0, 3, aux)
        real = eng.eap_scores

        def failing(model, responses):
            if model is aux.grm["fda"]:
                raise NumericalError("synthetic scoring failure")
            return real(model, responses)

        monkeypatch.setattr(eng, "eap_scores", failing)
        rejected, failed, messages = run_single_replicate(small_plan, scen, 0, 3, aux)
        fda = small_plan.schemes.index("fda")
        for si in range(len(small_plan.schemes)):
            assert failed[si].all() == (si == fda) and failed[si].any() == (si == fda)
            if si != fda:
                assert np.array_equal(rejected[si], clean[0][si])
        assert len(messages) == len(small_plan.methods)
        assert all("synthetic scoring failure" in m for m in messages)


class TestReplicateContract:
    """perfbench times each engine.run_single_replicate call, so run_study
    must call it, looked up on the module, once per (scenario, replicate)."""

    def test_one_call_per_replicate_at_one_worker(self, small_plan, aux, monkeypatch):
        import psprsim.engine as eng
        from dataclasses import replace

        real = eng.run_single_replicate
        seen = []

        def recording(plan, scenario, scenario_id, rep, aux):
            seen.append((scenario.label, scenario_id, rep))
            return real(plan, scenario, scenario_id, rep, aux)

        monkeypatch.setattr(eng, "run_single_replicate", recording)
        plan = replace(small_plan, scenarios=["d0", "d3"], methods=["SumS"], n_reps=100)
        run_study(plan, aux=aux, workers=1)
        assert sorted(seen) == [(label, sid, rep) for sid, label in enumerate(["d0", "d3"])
                                for rep in range(100)]

    def test_task_list_covers_each_replicate_once_at_two_workers(self, small_plan, aux,
                                                               monkeypatch):
        import psprsim.engine as eng
        from dataclasses import replace

        tasks = []

        class RecordingPool(eng.ProcessPoolExecutor):
            def map(self, fn, iterable, **kwargs):
                tasks.extend(iterable)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(eng, "ProcessPoolExecutor", RecordingPool)
        plan = replace(small_plan, scenarios=["d0", "d3"], methods=["SumS"], n_reps=101)
        run_study(plan, aux=aux, workers=2)
        covered = sorted((sid, scenario.label, rep) for scenario, sid, start, stop in tasks
                         for rep in range(start, stop))
        assert covered == [(sid, label, rep) for sid, label in enumerate(["d0", "d3"])
                           for rep in range(101)]


class TestMaxTDecisionPath:
    def test_tables_and_full_precision_decisions(self, small_plan, aux):
        # the engine asks MaxT for the decision at plan.alpha; its rejection
        # counts match the full-precision p-values replicate by replicate, and
        # the table does not depend on the worker count
        from dataclasses import replace

        import psprsim.engine as eng

        plan = replace(small_plan, scenarios=["d3"], methods=["MaxT"], n_reps=120)
        t1 = run_study(plan, aux=aux, workers=1)
        t2 = run_study(plan, aux=aux, workers=2)
        assert t1.to_csv_text() == t2.to_csv_text()
        scen = plan.resolve_scenarios()[0]
        for si, tag in enumerate(plan.schemes):
            hits = 0
            for rep in range(plan.n_reps):
                base = ps.RngStream(plan.master_seed).child(0).child(rep)
                data = eng.ensure_scheme(eng._generate(plan, scen, aux, base.child(0)), tag)
                fits = item_fits(data)
                out = ps.test_maxt(fits, ps.estimate_corr(data, fits), tol=plan.maxt_tol,
                                   rng=base.child(1 + si))
                hits += out.p_one_sided <= plan.alpha
            assert t1.rate("d3", tag, "MaxT") * plan.n_reps == hits

    def test_one_generator_when_the_bounds_settle(self, small_plan, aux, monkeypatch):
        # deriving the replicate's streams builds no generator: the data's
        # stream builds the only one when MaxT needs no integration
        import psprsim.procedures as procedures

        built, integrated = [], []
        philox, mvn = np.random.Philox, procedures.mvn_rect_upper
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: built.append(1) or philox(*a, **k))
        monkeypatch.setattr(procedures, "mvn_rect_upper",
                            lambda *a, **k: integrated.append(1) or mvn(*a, **k))
        run_single_replicate(small_plan, small_plan.resolve_scenarios()[0], 0, 16, aux)
        assert integrated == []
        assert len(built) == 1


class TestWorkerResolution:
    def test_env_var_override(self, monkeypatch):
        from psprsim.engine import WORKER_ENV_VAR, resolve_workers

        monkeypatch.setenv(WORKER_ENV_VAR, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5  # explicit argument wins
        monkeypatch.delenv(WORKER_ENV_VAR)
        assert resolve_workers(None) >= 1

    def test_non_integer_env_var_rejected(self, monkeypatch):
        from psprsim.engine import WORKER_ENV_VAR, resolve_workers

        monkeypatch.setenv(WORKER_ENV_VAR, "two")
        with pytest.raises(ValidationError, match=WORKER_ENV_VAR):
            resolve_workers(None)


class TestGeneratorDispatch:
    def test_bootstrap_and_irt_paths(self, aux, small_plan):
        from dataclasses import replace

        boot = replace(small_plan, generator="bootstrap", scenarios=["d1"], n_reps=100)
        t = run_study(boot, aux=aux, workers=2)
        assert t.rate("d1", "original", "SumS") > 0.2
        irt = replace(small_plan, generator="irt", scenarios=["rho=0.55"], n_reps=100)
        t2 = run_study(irt, aux=aux, workers=2)
        assert t2.rate("rho=0.55", "original", "IRT") > 0.2
