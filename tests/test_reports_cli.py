"""Trial CSV ingestion, descriptive tables, report emission, and the
command-line workflow end to end."""

import csv
import hashlib
import json
import logging

import numpy as np
import pytest

import psprsim as ps
from psprsim import cli, engine
from psprsim.cli import main
from psprsim.errors import NumericalError, ValidationError
from psprsim.procedures import get_omnibus_calibration
from psprsim.reports import (
    CSV_HEADER,
    DESCRIPTIVE_COLUMNS,
    VISITS,
    descriptive_table,
    emit_report,
    load_trial_csv,
    write_trial_csv,
)
from psprsim.scales import ITEM_COLUMNS, ITEM_LABELS, N_ITEMS

from conftest import item_fits


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
        assert (data.arm == 0).sum() == (data.arm == 1).sum() == 12

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

    @pytest.mark.parametrize("cell", ["-1", "-3", "5", "99999999999999999999"])
    def test_score_outside_range_reports_line(self, tmp_path, cell):
        # "" is the only missing marker: a negative score is not read as missing
        rows = subject_rows("A", "drug", [1] * 10, [1] * 10)
        rows += subject_rows("B", "placebo", [1] * 10, [1] * 3 + [cell] + [1] * 6)
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        with pytest.raises(ValidationError) as exc:
            load_trial_csv(path, ARM_MAP)
        assert str(exc.value) == f"{path}:5: column {ITEM_COLUMNS[3]} has value {cell} outside 0-4"

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


def per_row_load_trial_csv(path, arm_map=None, drop_unmapped=False, return_labels=False):
    """Reference trial CSV parser, one np.full per row and one int() per
    cell; load_trial_csv must give its arrays, errors and log lines."""
    pooled = arm_map is None
    if not pooled:
        for target in arm_map.values():
            if target not in ("treatment", "control", "drop"):
                raise ValidationError(
                    f"arm_map values must be treatment/control/drop, got {target!r}"
                )
    records = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if tuple(header) != CSV_HEADER:
            raise ValidationError(
                f"{path}: header {header} does not match required schema {list(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            sid, arm_label, visit = row[0], row[1], row[2]
            if visit not in VISITS:
                raise ValidationError(
                    f"{path}:{lineno}: visit must be one of {VISITS}, got {visit!r}"
                )
            if pooled:
                mapped = "control"
            elif arm_label not in arm_map:
                if drop_unmapped:
                    continue
                raise ValidationError(
                    f"{path}:{lineno}: unknown arm label {arm_label!r}; "
                    f"allowed: {sorted(arm_map)}"
                )
            else:
                mapped = arm_map[arm_label]
            if mapped == "drop":
                continue
            scores = np.full(N_ITEMS, -1, dtype=np.int64)
            for j, cell in enumerate(row[3:]):
                if cell == "":
                    continue
                try:
                    value = int(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: column {ITEM_COLUMNS[j]} has "
                        f"non-integer value {cell!r}"
                    ) from None
                if not 0 <= value <= 4:
                    raise ValidationError(
                        f"{path}:{lineno}: column {ITEM_COLUMNS[j]} has value {value} "
                        "outside 0-4"
                    )
                scores[j] = value
            rec = records.setdefault(sid, {"arm": mapped, "label": arm_label})
            if rec["label"] != arm_label:
                raise ValidationError(
                    f"{path}:{lineno}: subject {sid} appears under two arms"
                )
            if visit in rec:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate row for subject {sid}, visit {visit}"
                )
            rec[visit] = scores

    ids, arm, baseline, week52, labels = [], [], [], [], []
    kept = {"treatment": 0, "control": 0}
    log = logging.getLogger("psprsim.reports")
    for sid in records:
        rec = records[sid]
        missing = [v for v in VISITS if v not in rec]
        if not missing:
            for v in VISITS:
                if np.any(rec[v] < 0):
                    missing.append(v)
        if missing:
            log.info("excluding subject %s: incomplete at %s", sid, ",".join(missing))
            continue
        ids.append(sid)
        arm.append(1 if rec["arm"] == "treatment" else 0)
        baseline.append(rec["baseline"])
        week52.append(rec["week52"])
        labels.append(rec["label"])
        kept[rec["arm"]] += 1
    if not ids:
        raise ValidationError(f"{path}: no complete cases after filtering")
    log.info(
        "%s: retained %d treatment / %d control complete cases",
        path, kept["treatment"], kept["control"],
    )
    data = ps.ItemDataset(
        ids=np.array(ids),
        arm=np.array(arm, dtype=np.int8),
        baseline=np.array(baseline),
        week52=np.array(week52),
        scheme=ps.original_scheme(),
    )
    if return_labels:
        return data, np.array(labels)
    return data


# cells and their weights: valid scores, missing (""), cells int() accepts
# in other spellings, and refused cells: integers outside 0-4 and cells
# int() refuses
CELLS = ["0", "1", "2", "3", "4", "", " 3", "+2", "-1", "5", "3.0", "x"]
CELL_WEIGHTS = np.array([20, 20, 20, 20, 20, 1.5, 1, 1, 0, 0, 0, 0])


def random_trial_rows(rng):
    """Rows of a small trial CSV with rare defects: odd cells, a missing
    visit, a subject under two arms, a duplicate visit, a wrong field count
    and a bad visit name."""
    weights = CELL_WEIGHTS.copy()
    weights[-4:] = rng.choice([0.0, 0.15])  # refused cells in some files only
    weights /= weights.sum()
    rows = []
    for i in range(rng.integers(1, 9)):
        label = str(rng.choice(["drug", "placebo", "other", "gone"], p=[0.4, 0.4, 0.1, 0.1]))
        for visit in VISITS:
            if rng.random() < 0.05:
                continue
            row = [f"S{i}", label, visit, *rng.choice(CELLS, N_ITEMS, p=weights)]
            defect = rng.random()
            if defect < 0.01:
                row[1] = "placebo" if label == "drug" else "drug"
            elif defect < 0.02:
                rows.append(list(row))
            elif defect < 0.03:
                del row[rng.integers(len(row))]
            elif defect < 0.04:
                row[2] = "week26"
            rows.append(row)
    return rows


# rows where two checks fail at once, so the order of the checks shows
CHECK_ORDER_CASES = [
    subject_rows("A", "drug", [1] * 10, [1] * 10) + [["A", "drug", "baseline", "x", *[1] * 9]],
    [["A", "drug", "baseline", *[1] * 10], ["A", "placebo", "week52", "x", *[1] * 9]],
    [["A", "drug", "baseline", *[1] * 10], ["A", "placebo", "baseline", *[1] * 10]],
    [["A", "mystery", "week26", *[1] * 10]],
    [["A", "drug", "week26", 1]],
    [["A", "mystery", "baseline", "x", *[1] * 9]],
    [["A", "gone", "baseline", "x", *[1] * 9]],
]

ARM_MODES = {
    "strict": (ARM_MAP, False),
    "drop-unmapped": (ARM_MAP, True),
    "drop-label": ({**ARM_MAP, "gone": "drop", "other": "drop"}, False),
    "pooled": (None, False),
}
ERROR_KINDS = ("non-integer", "outside 0-4", "two arms", "duplicate row", "fields", "visit must",
               "unknown arm", "no complete cases", "empty file", "header")


class TestLoadTrialCsvAgainstPerRowParser:
    @staticmethod
    def outcome(loader, path, arm_map, drop, caplog):
        caplog.clear()
        try:
            data, labels = loader(path, arm_map, drop_unmapped=drop, return_labels=True)
        except ValidationError as exc:
            return str(exc), None, [r.getMessage() for r in caplog.records]
        return None, (data, labels), [r.getMessage() for r in caplog.records]

    def test_same_arrays_or_same_error(self, tmp_path, caplog):
        rng = np.random.default_rng(2024)
        paths = [tmp_path / "empty.csv", tmp_path / "header.csv"]
        paths[0].write_text("")
        paths[1].write_text("subject_id,arm,visit\nA,drug,baseline\n")
        for k, rows in enumerate(CHECK_ORDER_CASES):
            paths.append(tmp_path / f"order{k}.csv")
            write_rows(paths[-1], rows)
        for k in range(150):
            paths.append(tmp_path / f"t{k}.csv")
            write_rows(paths[-1], random_trial_rows(rng))
        loaded, errors = 0, set()
        with caplog.at_level(logging.INFO, logger="psprsim.reports"):
            for mode, (arm_map, drop) in ARM_MODES.items():
                for path in paths:
                    want = self.outcome(per_row_load_trial_csv, path, arm_map, drop, caplog)
                    got = self.outcome(load_trial_csv, path, arm_map, drop, caplog)
                    assert got[0] == want[0], (mode, path.name)
                    assert got[2] == want[2], (mode, path.name)
                    if want[0] is not None:
                        errors.update(k for k in ERROR_KINDS if k in want[0])
                        continue
                    loaded += 1
                    (data, labels), (ref, ref_labels) = got[1], want[1]
                    for name in ("ids", "arm", "baseline", "week52"):
                        a, b = getattr(data, name), getattr(ref, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b), (mode, path.name)
                    assert labels.dtype == ref_labels.dtype
                    assert np.array_equal(labels, ref_labels)
        # the generated files reach every outcome
        assert loaded >= 100
        assert errors == set(ERROR_KINDS)


class TestDescriptiveTable:
    def test_constant_item_zero_se(self):
        data = ps.ItemDataset(
            ids=np.array(["a", "b", "c", "d", "e", "f"]),
            arm=np.array([0, 0, 0, 1, 1, 1], dtype=np.int8),
            baseline=np.tile(np.arange(6)[:, None] % 5, (1, 10)),
            week52=np.full((6, 10), 2),
        )
        rows = descriptive_table(data, item_fits(data))
        assert all(r["week52_se"] == 0.0 for r in rows)

    def test_spreadsheet_oracle(self, two_arm_dataset):
        rows = descriptive_table(two_arm_dataset, item_fits(two_arm_dataset))
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
        rows = descriptive_table(two_arm_dataset, item_fits(two_arm_dataset))
        assert len(rows) == 20
        for r in rows:
            assert tuple(r.keys()) == DESCRIPTIVE_COLUMNS


def per_cell_descriptive_table(data, fits):
    """Reference descriptive table, one mean and one sd call per item, arm
    and column; descriptive_table must give its values bit for bit."""
    def mean_se(x):
        n = x.shape[0]
        sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
        return float(np.mean(x)), sd / np.sqrt(n)

    if fits is not None:
        coef, se, p = fits.coef[:, 2].tolist(), fits.se.tolist(), fits.p.tolist()
    rows = []
    for j in range(N_ITEMS):
        for arm_value, arm_name in ((1, "treatment"), (0, "control")):
            mask = data.arm == arm_value
            base = data.baseline[mask, j].astype(float)
            week = data.week52[mask, j].astype(float)
            bm, bs = mean_se(base)
            wm, ws = mean_se(week)
            dm, ds = mean_se(week - base)
            fitted = fits is not None and arm_value == 1
            rows.append({
                "item": ITEM_COLUMNS[j], "label": ITEM_LABELS[j], "arm": arm_name,
                "n": int(mask.sum()),
                "baseline_mean": bm, "baseline_se": bs,
                "week52_mean": wm, "week52_se": ws,
                "diff_mean": dm, "diff_se": ds,
                "ancova_coef": coef[j] if fitted else None,
                "ancova_se": se[j] if fitted else None,
                "p_value": p[j] if fitted else None,
            })
    return rows


class TestDescriptiveTableAgainstPerCellTable:
    def test_every_value_bit_for_bit(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n_treat, n_control = rng.integers(2, 81, size=2)
            n = n_treat + n_control
            data = ps.ItemDataset(
                ids=np.arange(n).astype(str),
                arm=rng.permutation(np.r_[np.ones(n_treat), np.zeros(n_control)]),
                baseline=rng.integers(0, 5, size=(n, N_ITEMS)),
                week52=rng.integers(0, 5, size=(n, N_ITEMS)),
            )
            for fits in (None, item_fits(data)):
                got = descriptive_table(data, fits)
                want = per_cell_descriptive_table(data, fits)
                assert [tuple(r) for r in got] == [tuple(r) for r in want]
                for g, w in zip(got, want):
                    for key, value in w.items():
                        if isinstance(value, float):
                            assert type(g[key]) is float
                            assert g[key].hex() == float(value).hex(), key
                        else:
                            assert g[key] == value, key


class TestEmitReport:
    def test_empty_results_header_only(self, tmp_path):
        path = emit_report(["a", "b"], [], "csv", tmp_path / "x.csv")
        assert path.read_text() == "a,b\n"

    def test_csv_full_precision(self, tmp_path):
        path = emit_report(["v"], [{"v": 0.1234567890123456789}], "csv", tmp_path / "x.csv")
        assert repr(0.1234567890123456789) in path.read_text()

    def test_csv_writes_numpy_floats_as_plain_floats(self, tmp_path):
        rows = [{"v": np.float64(-1.7), "w": np.float64(0.1)}]
        path = emit_report(["v", "w"], rows, "csv", tmp_path / "x.csv")
        assert path.read_text() == "v,w\n-1.7,0.1\n"

    def test_missing_key_is_empty_cell(self, tmp_path):
        rows = [{"a": 1, "extra": 5}, {"b": 2.5}]
        assert emit_report(["a", "b"], rows, "csv", tmp_path / "x.csv").read_text() == (
            "a,b\n1,\n,2.5\n")
        table = emit_report(["a", "b"], rows, "plain-table", tmp_path / "x.txt").read_text()
        assert table.splitlines() == ["a  b", "1  -", "-  2.50"]

    def test_plain_table_rounds(self, tmp_path):
        rows = [{"method": "SumS", "p": 0.23456}]
        path = emit_report(["method", "p"], rows, "plain-table", tmp_path / "x.txt")
        assert "0.23" in path.read_text()
        assert "0.2345" not in path.read_text()

    def test_unknown_format(self, tmp_path):
        for fmt in ("parquet", "structured-doc"):
            with pytest.raises(ValidationError):
                emit_report(["a"], [], fmt, tmp_path / "x")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(["a"], [], "csv", tmp_path / "no" / "dir" / "x.csv")


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

    def test_fit_irt_outputs_pinned(self, tmp_path):
        # sha256 of the model files the per-item M-step wrote for the
        # reference pool; the lockstep M-step must write the same bytes
        pool = tmp_path / "pool.csv"
        assert main(["make-reference", "--seed", "1", "--out", str(pool)]) == 0
        pinned = {
            "original": "c9568ab8f39080be9eccd09a3db4c2f45ac336b918051df5a5685fdbd8257ece",
            "fda": "d4261728ce7cfe68ab4d613d43b36bb4c2f03fbe4b7fb1997f990377f7ac4fff",
        }
        for tag, digest in pinned.items():
            out = tmp_path / f"{tag}.json"
            assert main(["fit-irt", str(pool), "--scheme", tag, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, tag

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

    def test_rescore_with_arm_map(self, reference_csv, tmp_path):
        # a valid --arm-map reaches load_trial_csv: the dropped arm is not written
        out = tmp_path / "placebo.csv"
        rc = main(["rescore", str(reference_csv), "--scheme", "original", "--arm-map",
                   '{"placebo": "control", "dose-a": "drop"}', "--out", str(out)])
        assert rc == 0
        _, labels = load_trial_csv(out, return_labels=True)
        _, all_labels = load_trial_csv(reference_csv, return_labels=True)
        assert set(labels) == {"placebo"}
        assert labels.size == (all_labels == "placebo").sum() > 0

    def test_simulate_failing_plan_exit_code(self, tmp_path, monkeypatch, capsys):
        # a method that fails on more than 1% of replicates fails the study
        def broken(data):
            raise NumericalError("always down")

        monkeypatch.setattr(engine, "test_sum_score", broken)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"generator": "mvn", "schemes": ["original"],
                                    "methods": ["SumS"], "n_reps": 100,
                                    "calibration_reps": 100}))
        assert main(["simulate", str(plan), "--out", str(tmp_path / "o"), "--workers", "1"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: SumS/original failed on 100/100 replicates (> 1%)" in err

    def test_calibrate_omnibus(self, tmp_path, monkeypatch):
        # it builds the one file that analyze and simulate read from the
        # same --cache-dir, which then needs no building
        cache = tmp_path / "cache"
        rc = main(["calibrate-omnibus", "--m", "3", "--reps", "1000",
                   "--seed", "2", "--cache-dir", str(cache)])
        assert rc == 0
        assert len(list(cache.iterdir())) == 1
        built = ps.build_omnibus_calibration(3, 1000, 2)

        def build(*args, **kwargs):
            raise AssertionError("the cached calibration was built again")

        monkeypatch.setattr(ps.procedures, "build_omnibus_calibration", build)
        calib = get_omnibus_calibration(cache, m=3, reps=1000, seed=2)
        assert calib.tables.tobytes() == built.tables.tobytes()

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

    # the third is a slope-ratio scenario for the mvn generator; the other
    # fields are values the generator, MaxT or the calibration would reject
    @pytest.mark.parametrize("fields, message", [
        *(pytest.param({"scenarios": s}, "scenario", id=f"scenarios{i}") for i, s in enumerate(
            [["d99"], [{"label": "x", "rho": "0.5"}], ["rho=0.6"]])),
        pytest.param({"maxt_tol": 0.02}, "maxt_tol must lie in (0, 0.01]", id="maxt_tol-high"),
        pytest.param({"maxt_tol": 0.0}, "maxt_tol must lie in (0, 0.01]", id="maxt_tol-zero"),
        pytest.param({"n_per_group": 1}, "need n_per_group >= 2", id="n_per_group"),
        pytest.param({"calibration_reps": 99}, "need calibration_reps >= 100",
                     id="calibration_reps"),
        # json writes NaN as the bare NaN token, which a plan reader accepts
        pytest.param({"scenarios": [{"label": "nan-d", "d": [0.3] * 9 + [float("nan")]}]},
                     "scenario 'nan-d' needs a finite", id="scenarios-nan-d"),
        pytest.param({"generator": "irt", "scenarios": [{"label": "nan-rho",
                                                         "rho": float("nan")}]},
                     "(scenario 'nan-rho')", id="scenarios-nan-rho"),
        pytest.param({"generator": "irt", "scenarios": ["rho=0.6"],
                      "irt_population": {"intercept_sd": float("nan")}},
                     "irt_population fields ['intercept_sd'] must be finite",
                     id="irt_population-nan-sd"),
        pytest.param({"generator": "irt", "scenarios": ["rho=0.6"],
                      "irt_population": {"horizon_years": -1.0}},
                     "horizon_years must be positive", id="irt_population-negative-horizon"),
    ])
    def test_bad_scenario_fails_before_fit_phase(self, tmp_path, monkeypatch, capsys,
                                                 fields, message):
        def fit_phase(*args, **kwargs):
            raise AssertionError("the fit phase started")

        monkeypatch.setattr(ps.engine, "prepare_auxiliaries", fit_phase)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"generator": "mvn", **fields}))
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_integer_worker_env_exit_code(self, tmp_path, monkeypatch, capsys):
        plan = ps.StudyPlan(generator="mvn", scenarios=["d0"], schemes=["original"],
                            methods=["SumS"], n_reps=100, calibration_reps=1000)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        monkeypatch.setenv("PSPRSIM_WORKERS", "two")
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "PSPRSIM_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, env, message", [
        pytest.param(["--workers", "0"], None, "--workers must be at least 1", id="flag-0"),
        pytest.param(["--workers", "-3"], None, "--workers must be at least 1", id="flag-neg"),
        pytest.param([], "0", "PSPRSIM_WORKERS must be at least 1", id="env-0"),
    ])
    def test_worker_count_below_one_exit_code(self, tmp_path, monkeypatch, capsys,
                                              flags, env, message):
        def fit_phase(*args, **kwargs):
            raise AssertionError("the fit phase started")

        monkeypatch.setattr(ps.engine, "prepare_auxiliaries", fit_phase)
        if env is None:
            monkeypatch.delenv("PSPRSIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PSPRSIM_WORKERS", env)
        plan_path = tmp_path / "plan.json"
        ps.StudyPlan(generator="mvn", n_reps=100).save(plan_path)
        rc = main(["simulate", str(plan_path), "--out", str(tmp_path / "out"), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--maxt-tol", "0.5"], "--maxt-tol must lie in (0, 0.01], got 0.5",
                     id="maxt-tol"),
        pytest.param(["--calibration-reps", "99"], "need --calibration-reps >= 100, got 99",
                     id="calibration-reps"),
    ])
    def test_analyze_flags_checked_before_self_fit(self, reference_csv, tmp_path, monkeypatch,
                                                   capsys, flags, message):
        def self_fit(*args, **kwargs):
            raise AssertionError("the self-fit started")

        monkeypatch.setattr(cli, "fit_grm", self_fit)
        assert analyze(reference_csv, tmp_path / "out", *flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        pytest.param(["analyze", "{csv}", "--arm-a", "drug", "--arm-b", "placebo",
                      "--out", "{tmp}/o"], id="analyze"),
        pytest.param(["fit-irt", "{csv}", "--out", "{tmp}/g.json"], id="fit-irt"),
    ])
    def test_score_outside_range_exit_code(self, tmp_path, capsys, command):
        rows = []
        for i in range(6):
            rows += subject_rows(f"S{i}", ["drug", "placebo"][i % 2], [1] * 10, [2] * 10)
        rows[7][5] = "-1"  # S3's week52 item03
        path = tmp_path / "t.csv"
        write_rows(path, rows)
        assert main([a.format(csv=path, tmp=tmp_path) for a in command]) == 2
        err = capsys.readouterr().err
        assert f"{path}:9: column {ITEM_COLUMNS[2]} has value -1 outside 0-4" in err

    def test_validation_exit_code(self, reference_csv, tmp_path):
        rc = main(["analyze", str(reference_csv), "--arm-a", "nope", "--arm-b", "placebo",
                   "--out", str(tmp_path / "x"), "--calibration-reps", "2000"])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["make-reference", "--n", "0", "--out", "{tmp}/r.csv"],
                     "n_subjects >= 1, got 0", id="make-reference-n-0"),
        pytest.param(["make-reference", "--n", "-3", "--out", "{tmp}/r.csv"],
                     "n_subjects >= 1, got -3", id="make-reference-n-negative"),
        pytest.param(["analyze", "{tmp}/missing.csv", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--out", "{tmp}/o"], "{tmp}/missing.csv", id="analyze-csv"),
        pytest.param(["fit-approx", "{csv}", "--model", "{tmp}/missing.json",
                      "--out", "{tmp}/a.json"], "{tmp}/missing.json", id="fit-approx-model"),
        pytest.param(["rescore", "{csv}", "--scheme", "{tmp}/missing_scheme.json",
                      "--out", "{tmp}/r.csv"], "{tmp}/missing_scheme.json", id="rescore-scheme"),
        pytest.param(["simulate", "{tmp}/missing_plan.json", "--out", "{tmp}/o"],
                     "{tmp}/missing_plan.json", id="simulate-plan"),
        pytest.param(["fit-irt", "{csv}", "--arm-map", "notjson", "--out", "{tmp}/g.json"],
                     "--arm-map is not JSON", id="arm-map-notjson"),
        pytest.param(["rescore", "{csv}", "--arm-map", '{{"placebo": 1}}', "--out", "{tmp}/r.csv"],
                     "--arm-map must be a JSON object of strings", id="arm-map-not-strings"),
        # a path of the wrong kind: a directory, a file used as a directory
        pytest.param(["fit-approx", "{csv}", "--model", "{tmp}", "--out", "{tmp}/a.json"],
                     "Is a directory: '{tmp}'", id="fit-approx-model-dir"),
        pytest.param(["analyze", "{tmp}", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--out", "{tmp}/o"], "Is a directory: '{tmp}'", id="analyze-csv-dir"),
        pytest.param(["simulate", "{tmp}", "--out", "{tmp}/o"],
                     "Is a directory: '{tmp}'", id="simulate-plan-dir"),
        pytest.param(["rescore", "{csv}", "--scheme", "{tmp}", "--out", "{tmp}/r.csv"],
                     "Is a directory: '{tmp}'", id="rescore-scheme-dir"),
        pytest.param(["fit-approx", "{csv}", "--model", "{csv}/x.json", "--out", "{tmp}/a.json"],
                     "Not a directory: '{csv}/x.json'", id="fit-approx-model-under-file"),
        pytest.param(["analyze", "{csv}", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--out", "{csv}"], "File exists: '{csv}'", id="analyze-out-file"),
        pytest.param(["analyze", "{csv}", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--out", "{tmp}/o", "--calibration-reps", "1000", "--cache-dir", "{csv}"],
                     "File exists: '{csv}'", id="analyze-cache-dir-file"),
        pytest.param(["analyze", "{csv}", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--scheme", "original", "--model", "{model}", "--approx", "{approx3}",
                      "--calibration-reps", "1000", "--out", "{tmp}/o"],
                     "approximation has 3 weights, responses have 10 items",
                     id="analyze-approx-3-weights"),
    ])
    def test_bad_input_exit_code(self, reference_csv, model_args, tmp_path, capsys, argv,
                                 message):
        approx3 = tmp_path / "approx3.json"
        approx3.write_text(json.dumps({"format_version": 1, "scheme": "original",
                                       "intercept": 0.5, "weights": [0.1, 0.2, 0.3],
                                       "r_squared": 0.9}))

        def fill(text):
            return text.format(csv=reference_csv, tmp=tmp_path, approx3=approx3,
                               model=model_args[model_args.index("--model") + 1])

        assert main([fill(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert fill(message) in err

    # a model or scheme file that is not a JSON object of the expected fields
    @pytest.mark.parametrize("argv, bad", [
        pytest.param(["fit-approx", "{csv}", "--model", "{bad}", "--out", "{tmp}/a.json"],
                     "not json", id="fit-approx-model-notjson"),
        pytest.param(["fit-approx", "{csv}", "--model", "{bad}", "--out", "{tmp}/a.json"],
                     "[1, 2]", id="fit-approx-model-list"),
        pytest.param(["fit-approx", "{csv}", "--model", "{bad}", "--out", "{tmp}/a.json"],
                     '{"format_version": 1}', id="fit-approx-model-no-items"),
        pytest.param(["fit-approx", "{csv}", "--model", "{bad}", "--out", "{tmp}/a.json"],
                     json.dumps({"format_version": 1, "scheme": "original", "items": [
                         {"discrimination": "1", "thresholds": [0.0], "category_map": [0, 1]}]}),
                     id="fit-approx-model-mistyped"),
        pytest.param(["analyze", "{csv}", "--arm-a", "dose-a", "--arm-b", "placebo",
                      "--scheme", "original", "--model", "{bad}", "--calibration-reps", "1000",
                      "--out", "{tmp}/o"], '{"format_version": 1}', id="analyze-model-no-items"),
        pytest.param(["rescore", "{csv}", "--scheme", "{bad}", "--out", "{tmp}/r.csv"],
                     "not json", id="rescore-scheme-notjson"),
        pytest.param(["rescore", "{csv}", "--scheme", "{bad}", "--out", "{tmp}/r.csv"],
                     json.dumps({"name": "x", "maps": {c: ["a"] * 5 for c in ITEM_COLUMNS}}),
                     id="rescore-scheme-string-levels"),
    ])
    def test_bad_model_or_scheme_file_exit_code(self, reference_csv, tmp_path, capsys,
                                                argv, bad):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(bad)
        argv = [a.format(csv=reference_csv, tmp=tmp_path, bad=bad_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(bad_path) in err

    def test_parser_is_built_once_and_parses_each_call_afresh(self, tmp_path):
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        first = parser.parse_args(["simulate", "a.json", "--out", "o1", "--workers", "2",
                                   "--cache-dir", "c"])
        middle = parser.parse_args(["analyze", "t.csv", "--arm-a", "x", "--arm-b", "y",
                                    "--seed", "4"])
        last = parser.parse_args(["simulate", "b.json"])
        assert (first.plan, first.out, first.workers, first.cache_dir) == ("a.json", "o1", 2, "c")
        assert (middle.csv, middle.arm_a, middle.seed, middle.out) == ("t.csv", "x", 4,
                                                                      "reanalysis")
        assert (last.plan, last.out, last.workers, last.cache_dir) == ("b.json", "results",
                                                                      None, None)
        assert not hasattr(middle, "plan") and not hasattr(last, "csv")
        assert [a.func for a in (first, middle, last)] == [
            cli._cmd_simulate, cli._cmd_analyze, cli._cmd_simulate]
        for _ in range(2):
            assert main(["make-reference", "--n", "0", "--out", str(tmp_path / "r.csv")]) == 2
        assert cli.build_parser() is parser
        assert cli.build_parser.cache_info().misses == 1

    def test_numerical_exit_code(self, tmp_path, monkeypatch):
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
        fitted = []

        def spy_fit_grm(data):
            model = ps.fit_grm(data)
            fitted.append(hashlib.sha256(json.dumps(model.to_doc(), indent=2).encode()).hexdigest())
            return model

        monkeypatch.setattr(cli, "fit_grm", spy_fit_grm)
        rc = main(["analyze", str(path), "--arm-a", "drug", "--arm-b", "placebo",
                   "--out", str(tmp_path / "y"), "--calibration-reps", "2000"])
        assert rc == 3
        # the self-fitted models (189 and 238 EM iterations) are byte for
        # byte those of the per-item M-step
        assert fitted == [
            "eb5953df54e06040183bcd7649531151de823255e6ff4955f8283781e6fe975c",
            "0426af33cbd82b536251fb276981246684fae8c71a11c4c7c3022c2964a401c6",
        ]

    def test_self_fit_scores_each_visit_once(self, reference_csv, tmp_path, monkeypatch):
        # without --model/--approx the LM self-fit and the IRT row share one
        # eap_scores call per scheme; the digest is of the results written
        # when the self-fit scored the visits a second time, as one 240-row
        # block, which gives the same bits as the stack at an even subject
        # count (test_self_fit_approx_equals_fit_approx covers an odd one)
        from psprsim import engine

        shapes = []

        def counted(model, responses):
            shapes.append(np.shape(responses))
            return ps.eap_scores(model, responses)

        monkeypatch.setattr(cli, "eap_scores", counted)
        monkeypatch.setattr(engine, "eap_scores", counted)
        assert analyze(reference_csv, tmp_path / "out") == 0
        assert shapes == [(2, 120, N_ITEMS)] * 2
        results = (tmp_path / "out" / "analysis_results.json").read_bytes()
        assert hashlib.sha256(results).hexdigest() == (
            "fe56f168703e6012814c3d56e3398826e4d07c2d618f60e73d4579ac93dfe6db")

    def test_self_fit_approx_equals_fit_approx(self, tmp_path, monkeypatch):
        # with an odd subject count, scoring the visits as one block rounds
        # some EAP scores differently in the last bit from scoring them as
        # the (2, subjects) stack; analyze's self-fit, fit-approx and the
        # IRT row all score the stack, so the self-fitted approximation and
        # every result row equal those of analyze --approx bit for bit
        trial = tmp_path / "odd.csv"
        assert main(["make-reference", "--n", "119", "--seed", "3",
                     "--two-arm-labels", "--out", str(trial)]) == 0
        model, approx = tmp_path / "grm.json", tmp_path / "approx.json"
        assert main(["fit-irt", str(trial), "--out", str(model)]) == 0
        assert main(["fit-approx", str(trial), "--model", str(model),
                     "--out", str(approx)]) == 0
        fitted = []

        def fit(data, thetas):
            fitted.append(ps.fit_linear_latent_approx(data, thetas))
            return fitted[-1]

        monkeypatch.setattr(cli, "fit_linear_latent_approx", fit)
        common = ("--scheme", "original", "--model", str(model))
        assert analyze(trial, tmp_path / "self", *common) == 0
        assert analyze(trial, tmp_path / "file", *common, "--approx", str(approx)) == 0
        assert [a.to_doc() for a in fitted] == [ps.LinearLatentApprox.load(approx).to_doc()]
        rows = [json.loads((tmp_path / out / "analysis_results.json").read_text())["results"]
                for out in ("self", "file")]
        assert rows[0] == rows[1]

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
        # the v1 cache of earlier versions: one .npz per calibration with the
        # same keys, stored (m = 10) or deflated (m = 3); it is never opened
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        v1_files = {}
        for m, write in ((10, np.savez), (3, np.savez_compressed)):
            built = ps.build_omnibus_calibration(m, reps=2000, seed=1)
            path = legacy / f"omnibus_m{m}_reciprocal_r2000_s1_v1.npz"
            write(path, format_version=1, m=m, transform="reciprocal", reps=2000, seed=1,
                  sorted_partial_stats=built.sorted_partial_stats,
                  sorted_null_stats=built.sorted_null_stats)
            v1_files[path.name] = path.read_bytes()
        assert analyze(reference_csv, tmp_path / "a", "--cache-dir", str(tmp_path / "empty"),
                       *model_args) == 0
        assert analyze(reference_csv, tmp_path / "b", "--cache-dir", str(legacy), *model_args) == 0
        assert sorted(p.name for p in legacy.iterdir()) == sorted(
            [*v1_files, "omnibus_m10_reciprocal_r2000_s1_v2.npy",
             "omnibus_m3_reciprocal_r2000_s1_v2.npy"])
        for name, raw in v1_files.items():
            assert (legacy / name).read_bytes() == raw
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_cache_exit_code(self, reference_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        get_omnibus_calibration(cache, m=10, reps=2000, seed=1)
        (path,) = cache.iterdir()
        path.write_bytes(path.read_bytes()[:1000])
        assert analyze(reference_csv, tmp_path / "x", "--cache-dir", str(cache)) == 2
        assert path.name in capsys.readouterr().err

    def test_second_analyze_on_built_cache_writes_identical_files(
        self, reference_csv, model_args, tmp_path
    ):
        cache = tmp_path / "cache"
        for out in ("built", "mapped"):
            assert analyze(reference_csv, tmp_path / out, "--cache-dir", str(cache),
                           *model_args) == 0
        names = sorted(p.name for p in (tmp_path / "built").iterdir())
        assert names == ["analysis_results.csv", "analysis_results.json", "analysis_table.txt",
                         "descriptives_fda.csv", "descriptives_original.csv"]
        for name in names:
            assert ((tmp_path / "built" / name).read_bytes()
                    == (tmp_path / "mapped" / name).read_bytes()), name

    def test_csv_outputs_hold_plain_numbers(self, reference_csv, model_args, tmp_path):
        out = tmp_path / "out"
        assert analyze(reference_csv, out, *model_args) == 0
        tables = {"analysis_results.csv": ("statistic", "p_one_sided"),
                  **{f"descriptives_{tag}.csv": DESCRIPTIVE_COLUMNS[3:]
                     for tag in ("original", "fda")}}
        for name, columns in tables.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, name
            cells = [r[c] for r in rows for c in columns if r[c] != ""]
            assert cells, name
            for cell in cells:
                float(cell)  # raises on text such as np.float64(...)

    def test_simulate_on_warm_cache_at_two_workers_matches_no_cache(self, tmp_path):
        plan = ps.StudyPlan(generator="mvn", scenarios=["d0", "d6"], schemes=["original"],
                            methods=["Omnibus", "Omnibus-dom"], n_reps=100,
                            calibration_reps=1000, maxt_tol=1e-3)
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        cache = tmp_path / "cache"
        # the run without a cache is also the one-worker run
        runs = {"none": ["--workers", "1"], "cold": ["--workers", "2", "--cache-dir", str(cache)],
                "warm": ["--workers", "2", "--cache-dir", str(cache)]}
        for name, flags in runs.items():
            assert main(["simulate", str(plan_path), "--out", str(tmp_path / name),
                         *flags]) == 0
        assert len(list(cache.iterdir())) == 2
        for output in ("power_table.csv", "power_pivot.txt"):
            tables = {name: (tmp_path / name / output).read_bytes() for name in runs}
            assert tables["warm"] == tables["none"] == tables["cold"], output
        pivot = tables["none"].decode().splitlines()
        assert pivot[0].split() == ["scheme", "scenario", "Omnibus", "Omnibus-dom"]
        assert [line.split()[:2] for line in pivot[1:]] == [["original", "d0"],
                                                            ["original", "d6"]]
