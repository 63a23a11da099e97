"""Trial CSV ingestion, descriptive tables, report emission, and the
command-line workflow end to end."""

import csv
import json
import logging
import zipfile

import numpy as np
import pytest

import psprsim as ps
from psprsim.cli import main
from psprsim.errors import ValidationError
from psprsim.procedures import get_omnibus_calibration
from psprsim.reports import (
    CSV_HEADER,
    DESCRIPTIVE_COLUMNS,
    TableDoc,
    descriptive_table,
    emit_report,
    load_trial_csv,
    write_trial_csv,
)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(rows)


def subject_rows(sid, arm, baseline, week52):
    return [
        [sid, arm, "baseline", *baseline],
        [sid, arm, "week52", *week52],
    ]


@pytest.fixture()
def trial_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(24):
        arm = ["drug", "placebo"][i % 2]
        rows += subject_rows(
            f"P{i:03d}", arm,
            rng.integers(0, 5, 10).tolist(), rng.integers(0, 5, 10).tolist(),
        )
    path = tmp_path / "trial.csv"
    write_rows(path, rows)
    return path


ARM_MAP = {"drug": "treatment", "placebo": "control"}


class TestLoadTrialCsv:
    def test_basic_load(self, trial_csv):
        data = load_trial_csv(trial_csv, ARM_MAP)
        assert data.n_subjects == 24
        assert data.n_per_arm() == (12, 12)

    def test_incomplete_subject_excluded_and_logged(self, tmp_path, caplog):
        rows = []
        rng = np.random.default_rng(1)
        for i in range(8):
            rows += subject_rows(f"S{i}", "drug" if i % 2 else "placebo",
                                 rng.integers(0, 5, 10).tolist(),
                                 rng.integers(0, 5, 10).tolist())
        rows[1] = rows[1][:5] + [""] + rows[1][6:]  # S0 missing one week52 item
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        with caplog.at_level(logging.INFO):
            data = load_trial_csv(path, ARM_MAP)
        assert data.n_subjects == 7
        assert "S0" not in data.ids
        assert any("excluding subject S0" in r.message for r in caplog.records)

    def test_subject_missing_visit_excluded(self, tmp_path):
        rows = subject_rows("A", "drug", [1] * 10, [2] * 10)
        rows += subject_rows("B", "placebo", [1] * 10, [2] * 10)
        rows += subject_rows("C", "placebo", [0, 1] * 5, [1, 2] * 5)
        rows += [["D", "drug", "baseline", *([1] * 10)]]  # no week52 row
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        data = load_trial_csv(path, ARM_MAP)
        assert sorted(data.ids) == ["A", "B", "C"]

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,arm,visit\nx,y,z\n")
        with pytest.raises(ValidationError, match="header"):
            load_trial_csv(path, ARM_MAP)

    def test_unknown_arm_label_lists_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, subject_rows("A", "mystery", [1] * 10, [1] * 10))
        with pytest.raises(ValidationError) as exc:
            load_trial_csv(path, ARM_MAP)
        assert "mystery" in str(exc.value) and "drug" in str(exc.value)

    def test_drop_unmapped_skips_other_arms(self, tmp_path):
        rows = subject_rows("A", "drug", [1] * 10, [1] * 10)
        rows += subject_rows("B", "placebo", [1, 2] * 5, [2, 2] * 5)
        rows += subject_rows("C", "dose-2", [1] * 10, [1] * 10)
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        data = load_trial_csv(path, ARM_MAP, drop_unmapped=True)
        assert sorted(data.ids) == ["A", "B"]

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = subject_rows("A", "drug", [1] * 10, [1] * 10)
        rows.append(["B", "placebo", "baseline", "x", *([1] * 9)])
        write_rows(path, rows)
        with pytest.raises(ValidationError, match=":4"):
            load_trial_csv(path, ARM_MAP)

    def test_duplicate_visit_rejected(self, tmp_path):
        rows = subject_rows("A", "drug", [1] * 10, [1] * 10)
        rows.append(rows[0])
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        with pytest.raises(ValidationError, match="duplicate"):
            load_trial_csv(path, ARM_MAP)

    def test_round_trip(self, trial_csv, tmp_path):
        data = load_trial_csv(trial_csv, ARM_MAP)
        out = tmp_path / "echo.csv"
        write_trial_csv(data, out, arm_labels=("placebo", "drug"))
        back = load_trial_csv(out, ARM_MAP)
        order = np.argsort(data.ids)
        order_b = np.argsort(back.ids)
        assert np.array_equal(data.ids[order], back.ids[order_b])
        assert np.array_equal(data.baseline[order], back.baseline[order_b])
        assert np.array_equal(data.week52[order], back.week52[order_b])
        assert np.array_equal(data.arm[order], back.arm[order_b])


class TestDescriptiveTable:
    def test_constant_item_zero_se(self):
        data = ps.ItemDataset(
            ids=np.array(["a", "b", "c", "d", "e", "f"]),
            arm=np.array([0, 0, 0, 1, 1, 1], dtype=np.int8),
            baseline=np.tile(np.arange(6)[:, None] % 5, (1, 10)),
            week52=np.full((6, 10), 2),
        )
        rows = descriptive_table(data, ps.fit_marginals(data))
        assert all(r["week52_se"] == 0.0 for r in rows)

    def test_spreadsheet_oracle(self, two_arm_dataset):
        rows = descriptive_table(two_arm_dataset, ps.fit_marginals(two_arm_dataset))
        for r in rows:
            mask = two_arm_dataset.arm == (1 if r["arm"] == "treatment" else 0)
            j = list(ps.scales.ITEM_COLUMNS).index(r["item"])
            base = two_arm_dataset.baseline[mask, j]
            week = two_arm_dataset.week52[mask, j]
            n = mask.sum()
            assert r["baseline_mean"] == pytest.approx(base.mean(), abs=1e-12)
            assert r["baseline_se"] == pytest.approx(base.std(ddof=1) / np.sqrt(n), abs=1e-12)
            assert r["diff_mean"] == pytest.approx((week - base).mean(), abs=1e-12)
            if r["arm"] == "treatment":
                fit = ps.fit_ancova(two_arm_dataset.week52[:, j],
                                    two_arm_dataset.baseline[:, j], two_arm_dataset.arm)
                assert r["ancova_coef"] == fit.coef[0, 2]
                assert r["ancova_se"] == fit.se[0]
                assert r["p_value"] == fit.p[0]

    def test_failed_fits_give_null_ancova_columns(self, two_arm_dataset):
        rows = descriptive_table(two_arm_dataset, None)
        assert len(rows) == 20
        for r in rows:
            assert r["ancova_coef"] is r["ancova_se"] is r["p_value"] is None
            assert r["baseline_se"] > 0

    def test_column_schema(self, two_arm_dataset):
        rows = descriptive_table(two_arm_dataset, ps.fit_marginals(two_arm_dataset))
        assert len(rows) == 20
        for r in rows:
            assert tuple(r.keys()) == DESCRIPTIVE_COLUMNS


class TestEmitReport:
    def test_empty_results_header_only(self, tmp_path):
        doc = TableDoc(header=["a", "b"], rows=[])
        path = emit_report(doc, "csv", tmp_path / "x.csv")
        assert path.read_text() == "a,b\n"

    def test_csv_full_precision(self, tmp_path):
        doc = TableDoc(header=["v"], rows=[[0.1234567890123456789]])
        path = emit_report(doc, "csv", tmp_path / "x.csv")
        assert repr(0.1234567890123456789) in path.read_text()

    def test_structured_doc(self, tmp_path):
        doc = TableDoc(header=["k", "p"], rows=[["SumS", 0.5]])
        path = emit_report(doc, "structured-doc", tmp_path / "x.json")
        assert json.loads(path.read_text()) == [{"k": "SumS", "p": 0.5}]

    def test_plain_table_rounds(self, tmp_path):
        doc = TableDoc(header=["method", "p"], rows=[["SumS", 0.23456]])
        path = emit_report(doc, "plain-table", tmp_path / "x.txt")
        assert "0.23" in path.read_text()
        assert "0.2345" not in path.read_text()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report(TableDoc(["a"], []), "parquet", tmp_path / "x")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(TableDoc(["a"], []), "csv", tmp_path / "no" / "dir" / "x.csv")


@pytest.fixture(scope="module")
def reference_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "reference.csv"
    rc = main(["make-reference", "--n", "120", "--seed", "3",
               "--two-arm-labels", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_args(reference_csv, tmp_path_factory):
    """analyze flags naming a GRM and an approximation per scheme, fitted
    once on the reference CSV."""
    directory = tmp_path_factory.mktemp("models")
    args = []
    for tag, suffix in (("original", ""), ("fda", "-fda")):
        model, approx = directory / f"grm_{tag}.json", directory / f"approx_{tag}.json"
        assert main(["fit-irt", str(reference_csv), "--scheme", tag, "--out", str(model)]) == 0
        assert main(["fit-approx", str(reference_csv), "--model", str(model),
                     "--out", str(approx)]) == 0
        args += [f"--model{suffix}", str(model), f"--approx{suffix}", str(approx)]
    return args


def analyze(csv_path, out, *flags):
    return main(["analyze", str(csv_path), "--arm-a", "dose-a", "--arm-b", "placebo",
                 "--out", str(out), "--seed", "1", "--calibration-reps", "2000", *flags])


class TestCli:
    def test_make_reference(self, reference_csv):
        data = load_trial_csv(reference_csv, {"placebo": "control", "dose-a": "treatment"})
        assert data.n_subjects == 120

    def test_fit_irt_and_approx_and_analyze(self, reference_csv, tmp_path):
        model_path = tmp_path / "grm.json"
        rc = main(["fit-irt", str(reference_csv), "--out", str(model_path)])
        assert rc == 0
        model = ps.GrModel.load(model_path)
        assert model.scheme == "original"

        approx_path = tmp_path / "approx.json"
        rc = main(["fit-approx", str(reference_csv), "--model", str(model_path),
                   "--out", str(approx_path)])
        assert rc == 0

        out_dir = tmp_path / "reanalysis"
        rc = main([
            "analyze", str(reference_csv),
            "--arm-a", "dose-a", "--arm-b", "placebo",
            "--scheme", "both", "--model", str(model_path),
            "--approx", str(approx_path),
            "--out", str(out_dir), "--seed", "1",
            "--calibration-reps", "2000",
        ])
        assert rc == 0
        results = json.loads((out_dir / "analysis_results.json").read_text())
        rows = results["results"]
        # 11 methods x 2 schemes per comparison
        assert len(rows) == 22
        assert {r["method"] for r in rows} == set(ps.METHODS)
        for r in rows:
            assert 0.0 <= r["p_one_sided"] <= 1.0
        # fda scheme self-fitted: bias caveat recorded
        assert any("bias" in n for n in results["notes"])
        assert (out_dir / "descriptives_original.csv").exists()
        assert (out_dir / "descriptives_fda.csv").exists()
        assert (out_dir / "analysis_table.txt").exists()

        # second comparison gives the other 22 rows (44 total, table shape)
        out2 = tmp_path / "reanalysis2"
        rc = main([
            "analyze", str(reference_csv),
            "--arm-a", "placebo", "--arm-b", "dose-a",
            "--scheme", "both", "--out", str(out2), "--seed", "1",
            "--calibration-reps", "2000",
        ])
        assert rc == 0
        rows2 = json.loads((out2 / "analysis_results.json").read_text())["results"]
        assert len(rows) + len(rows2) == 44

    def test_rescore_round_trip(self, reference_csv, tmp_path):
        out = tmp_path / "rescored.csv"
        rc = main(["rescore", str(reference_csv), "--scheme", "fda", "--out", str(out)])
        assert rc == 0
        arm_map = {"placebo": "control", "dose-a": "treatment"}
        rescored = load_trial_csv(out, arm_map)  # original labels preserved
        original = load_trial_csv(reference_csv, arm_map)
        assert np.array_equal(np.sort(rescored.ids), np.sort(original.ids))
        assert rescored.baseline.max() <= 4
        assert rescored.baseline.sum() <= original.baseline.sum()

    def test_calibrate_omnibus(self, tmp_path):
        out = tmp_path / "calib.npz"
        rc = main(["calibrate-omnibus", "--m", "3", "--reps", "1000",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        from psprsim.procedures import load_omnibus_calibration

        calib = load_omnibus_calibration(out)
        assert calib.m == 3 and calib.reps == 1000

    def test_simulate_plan(self, tmp_path):
        plan = ps.StudyPlan(generator="mvn", scenarios=["d0"], schemes=["original"],
                            methods=["SumS", "Bonf"], n_reps=100,
                            calibration_reps=1000, maxt_tol=1e-3)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        out = tmp_path / "results"
        rc = main(["simulate", str(plan_path), "--out", str(out), "--workers", "2"])
        assert rc == 0
        text = (out / "power_table.csv").read_text()
        assert text.startswith("generator,scenario,scheme,method")
        assert len(text.strip().splitlines()) == 3  # header + 2 rows

    def test_plan_with_unknown_field_exit_code(self, tmp_path, capsys):
        for doc, name in (({"generator": "mvn", "n_rep": 100}, "n_rep"),
                          ({"generator": "irt", "irt_population": {"rho": 0.5}}, "rho"),
                          (["mvn"], "JSON object")):
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps(doc))
            rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert name in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, message", [
        *(pytest.param(name, value, f"plan field {name!r}", id=f"{name}-{value}")
          for name, value in [
            ("n_reps", "100"), ("n_reps", True), ("calibration_reps", 1000.0),
            ("alpha", "0.025"), ("maxt_tol", None), ("scenarios", "d0"),
            ("schemes", "original"), ("methods", "SumS"), ("bootstrap_replace", 1),
        ]),
        # nested objects go through the same key and type checks
        pytest.param("scenarios", [{"label": "x", "d": "abc"}], "inline scenario field 'd'",
                     id="scenarios-inline-d"),
        pytest.param("scenarios", [{"d": [0.1] * 10}], "missing required fields ['label']",
                     id="scenarios-inline-no-label"),
        pytest.param("irt_population", {"slope_sd": "0.3"}, "irt_population field 'slope_sd'",
                     id="irt_population-slope_sd"),
        # a repeated entry would write rows with the same key and different rates
        *(pytest.param(name, value, f"plan field {name!r} repeats", id=f"{name}-repeated-{i}")
          for i, (name, value) in enumerate([
            ("scenarios", ["d0", "d0"]), ("scenarios", ["d1", {"label": "d1", "d": [0.1] * 10}]),
            ("schemes", ["fda", "fda"]), ("methods", ["SumS", "Bonf", "SumS"]),
        ])),
    ])
    def test_plan_field_type_exit_code(self, tmp_path, capsys, name, value, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"generator": "mvn", name: value}))
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    # the third is a slope-ratio scenario for the mvn generator
    @pytest.mark.parametrize("scenarios", [["d99"], [{"label": "x", "rho": "0.5"}],
                                           ["rho=0.6"]])
    def test_bad_scenario_fails_before_fit_phase(self, tmp_path, monkeypatch, capsys,
                                                 scenarios):
        def fit_phase(*args, **kwargs):
            raise AssertionError("the fit phase started")

        monkeypatch.setattr(ps.engine, "prepare_auxiliaries", fit_phase)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"generator": "mvn", "scenarios": scenarios}))
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario" in capsys.readouterr().err

    def test_non_integer_worker_env_exit_code(self, tmp_path, monkeypatch, capsys):
        plan = ps.StudyPlan(generator="mvn", scenarios=["d0"], schemes=["original"],
                            methods=["SumS"], n_reps=100, calibration_reps=1000)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        monkeypatch.setenv("PSPRSIM_WORKERS", "two")
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "PSPRSIM_WORKERS" in capsys.readouterr().err

    def test_validation_exit_code(self, reference_csv, tmp_path):
        rc = main(["analyze", str(reference_csv), "--arm-a", "nope", "--arm-b", "placebo",
                   "--out", str(tmp_path / "x"), "--calibration-reps", "2000"])
        assert rc == 2

    def test_numerical_exit_code(self, tmp_path):
        # constant baseline for one item makes every marginal design singular
        rows = []
        rng = np.random.default_rng(5)
        for i in range(12):
            base = rng.integers(0, 5, 10).tolist()
            base[0] = 2  # item03 constant at baseline
            rows += subject_rows(f"S{i}", ["drug", "placebo"][i % 2], base,
                                 rng.integers(0, 5, 10).tolist())
        path = tmp_path / "degenerate.csv"
        write_rows(path, rows)
        rc = main(["analyze", str(path), "--arm-a", "drug", "--arm-b", "placebo",
                   "--out", str(tmp_path / "y"), "--calibration-reps", "2000"])
        assert rc == 3

    def test_failed_methods_give_null_rows_and_exit_code(
        self, reference_csv, model_args, tmp_path, capsys
    ):
        # item04 all zero at week 52 fits exactly: its zero sandwich variance
        # fails the four methods that use the correlation, and only those
        data, labels = load_trial_csv(reference_csv, return_labels=True)
        data.week52[:, 3] = 0
        path = tmp_path / "floored.csv"
        write_trial_csv(data, path, labels=labels)
        out = tmp_path / "out"
        assert analyze(path, out, *model_args) == 3
        assert "8 of 22 methods failed" in capsys.readouterr().err
        results = json.loads((out / "analysis_results.json").read_text())
        rows = results["results"]
        assert len(rows) == 22
        corr_methods = {"OLS", "GLS", "GLS-drop", "MaxT"}
        for r in rows:
            if r["method"] in corr_methods:
                assert r["statistic"] is None and r["p_one_sided"] is None
                assert any(n.startswith(f"{r['scheme']}/{r['method']}: ")
                           for n in results["notes"])
            else:
                assert 0.0 <= r["p_one_sided"] <= 1.0
        for tag in ("original", "fda"):
            diag = results["diagnostics"]["schemes"][tag]
            assert diag["gls_weights"] is None and diag["gls_dropped_items"] is None
            assert len(diag["marginal_p"]) == 10  # the fits themselves succeeded
            assert (out / f"descriptives_{tag}.csv").exists()
        assert len((out / "analysis_results.csv").read_text().splitlines()) == 23

    def test_legacy_compressed_cache_gives_identical_results(
        self, reference_csv, model_args, tmp_path
    ):
        fresh, legacy = tmp_path / "fresh", tmp_path / "legacy"
        assert analyze(reference_csv, tmp_path / "a", "--cache-dir", str(fresh), *model_args) == 0
        legacy.mkdir()
        for path in fresh.iterdir():
            with np.load(path) as doc:
                np.savez_compressed(legacy / path.name, **doc)
            with zipfile.ZipFile(legacy / path.name) as zf:
                assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        assert analyze(reference_csv, tmp_path / "b", "--cache-dir", str(legacy), *model_args) == 0
        assert ((tmp_path / "a" / "analysis_results.json").read_bytes()
                == (tmp_path / "b" / "analysis_results.json").read_bytes())

    def test_truncated_cache_exit_code(self, reference_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        get_omnibus_calibration(cache, m=10, reps=2000, seed=1)
        (path,) = cache.iterdir()
        path.write_bytes(path.read_bytes()[:1000])
        assert analyze(reference_csv, tmp_path / "x", "--cache-dir", str(cache)) == 2
        assert path.name in capsys.readouterr().err
