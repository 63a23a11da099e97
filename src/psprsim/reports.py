"""Trial CSV ingestion, descriptive tables, and report emission.

CSV schema (bit-exact header): subject_id, arm, visit, then the ten item
columns. One row per (subject, visit); visit is "baseline" or "week52";
item cells are integers 0-4 or empty for missing, and any other integer is
a validation error naming its line. Ingestion is the only place missing
values exist; everything downstream is complete-case.
"""

from __future__ import annotations

import csv
import io
import logging
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numkit import AncovaFit
from .scales import ITEM_COLUMNS, ITEM_LABELS, N_ITEMS, RAW_LEVELS, ItemDataset, original_scheme

log = logging.getLogger(__name__)

CSV_HEADER = ("subject_id", "arm", "visit", *ITEM_COLUMNS)
VISITS = ("baseline", "week52")

DESCRIPTIVE_COLUMNS = (
    "item",
    "label",
    "arm",
    "n",
    "baseline_mean",
    "baseline_se",
    "week52_mean",
    "week52_se",
    "diff_mean",
    "diff_se",
    "ancova_coef",
    "ancova_se",
    "p_value",
)


def load_trial_csv(
    path: str | Path,
    arm_map: dict[str, str] | None = None,
    drop_unmapped: bool = False,
    return_labels: bool = False,
) -> ItemDataset:
    """Read a trial CSV into a complete-case dataset.

    arm_map sends raw arm labels to "treatment", "control", or "drop";
    labels absent from the map raise unless drop_unmapped is set (the
    pairwise-comparison mode). arm_map=None is the pooled mode: every
    label is accepted and the arm coding is all-control (consumers that
    pool across arms ignore it). Subjects missing any item at either
    visit are excluded; exclusions and per-arm retained counts are logged.

    return_labels additionally returns the per-subject raw labels, so
    pooled round trips can preserve them.
    """
    pooled = arm_map is None
    if not pooled:
        for target in arm_map.values():
            if target not in ("treatment", "control", "drop"):
                raise ValidationError(
                    f"arm_map values must be treatment/control/drop, got {target!r}"
                )
    records: dict[str, dict] = {}
    # each distinct cell string is converted and range-checked once; "" is
    # the only missing marker, held as -1
    values = {"": -1}
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
            cells = row[3:]
            try:
                scores = [values[cell] for cell in cells]
            except KeyError:
                for j, cell in enumerate(cells):
                    if cell not in values:
                        try:
                            value = int(cell)
                        except ValueError:
                            raise ValidationError(
                                f"{path}:{lineno}: column {ITEM_COLUMNS[j]} has "
                                f"non-integer value {cell!r}"
                            ) from None
                        if not 0 <= value < RAW_LEVELS:
                            raise ValidationError(
                                f"{path}:{lineno}: column {ITEM_COLUMNS[j]} has value "
                                f"{value} outside 0-{RAW_LEVELS - 1}"
                            )
                        values[cell] = value
                scores = [values[cell] for cell in cells]
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
    for sid in records:
        rec = records[sid]
        missing = [v for v in VISITS if v not in rec]
        if not missing:
            missing = [v for v in VISITS if min(rec[v]) < 0]
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
    data = ItemDataset(
        ids=np.array(ids),
        arm=np.array(arm, dtype=np.int8),
        baseline=np.array(baseline, dtype=np.int64),
        week52=np.array(week52, dtype=np.int64),
        scheme=original_scheme(),
    )
    if return_labels:
        return data, np.array(labels)
    return data


def write_trial_csv(
    data: ItemDataset,
    path: str | Path,
    arm_labels: tuple[str, str] = ("control", "treatment"),
    labels: np.ndarray | None = None,
) -> None:
    """Emit a dataset in the trial CSV schema (lossless round trip).

    Explicit per-subject labels override the binary arm_labels pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(data.n_subjects):
            label = str(labels[i]) if labels is not None else arm_labels[int(data.arm[i])]
            writer.writerow(
                [str(data.ids[i]), label, "baseline", *data.baseline[i].tolist()]
            )
            writer.writerow(
                [str(data.ids[i]), label, "week52", *data.week52[i].tolist()]
            )


def _mean_se(block: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-row mean and sd / sqrt(n) of a C-contiguous (items, n) block.

    Each row is reduced along its contiguous axis, the pairwise summation
    that np.mean and np.std take on the row alone, so every value has the
    bits of the 1-D call."""
    n = block.shape[1]
    sd = np.std(block, axis=1, ddof=1) if n > 1 else np.zeros(block.shape[0])
    return np.mean(block, axis=1).tolist(), (sd / np.sqrt(n)).tolist()


def descriptive_table(data: ItemDataset, fits: AncovaFit | None) -> list[dict]:
    """Per item x arm summary rows plus the marginal ANCOVA columns.

    Standard errors are sample sd / sqrt(n); the difference column is the
    within-subject week52 - baseline change. ANCOVA columns appear on
    treatment rows only (the comparison against control), taken from
    `fits`, the item rows of `data`'s endpoint fits; they are null
    everywhere when `fits` is None (the item fits failed).
    """
    if fits is not None:
        coef, se, p = fits.coef[:, 2].tolist(), fits.se.tolist(), fits.p.tolist()
    arms = []
    for arm_value, arm_name in ((1, "treatment"), (0, "control")):
        mask = data.arm == arm_value
        base = data.baseline[mask].T.astype(float, order="C")
        week = data.week52[mask].T.astype(float, order="C")
        arms.append((arm_value, arm_name, int(mask.sum()),
                     _mean_se(base), _mean_se(week), _mean_se(week - base)))
    rows = []
    for j in range(N_ITEMS):
        for arm_value, arm_name, n, (bm, bs), (wm, ws), (dm, ds) in arms:
            fitted = fits is not None and arm_value == 1
            row = {
                "item": ITEM_COLUMNS[j],
                "label": ITEM_LABELS[j],
                "arm": arm_name,
                "n": n,
                "baseline_mean": bm[j],
                "baseline_se": bs[j],
                "week52_mean": wm[j],
                "week52_se": ws[j],
                "diff_mean": dm[j],
                "diff_se": ds[j],
                "ancova_coef": coef[j] if fitted else None,
                "ancova_se": se[j] if fitted else None,
                "p_value": p[j] if fitted else None,
            }
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# generic report emission
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("csv", "plain-table")


def _cell_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # numpy 2 writes np.float64(...) for its own repr
    return str(v)


def _cell_display(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def csv_text(header: list[str], rows: list[dict]) -> str:
    """The `header` columns of dict rows as CSV text, floats at full
    precision; a key missing from a row is an empty cell. A field with a
    comma, a quote or a line break is quoted, every other field is written
    as it is."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell_csv(r.get(h)) for h in header] for r in rows)
    return out.getvalue()


def emit_report(header: list[str], rows: list[dict], fmt: str, path: str | Path) -> Path:
    """Write the `header` columns of dict rows in the requested format (a
    key missing from a row is a null cell); deterministic row order is the
    caller's responsibility. No rows produce a header-only file.

    csv: csv_text. plain-table: fixed-width display with floats at 2
    decimals.
    """
    path = Path(path)
    if fmt == "csv":
        text = csv_text(header, rows)
    elif fmt == "plain-table":
        cells = [header] + [[_cell_display(r.get(h)) for h in header] for r in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
        text = "\n".join(
            "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
            for row in cells
        ) + "\n"
    else:
        raise ValidationError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
    path.write_text(text, encoding="utf-8")
    return path
