"""Trial CSV ingestion, descriptive tables, and report emission.

CSV schema (bit-exact header): subject_id, arm, visit, then the ten item
columns. One row per (subject, visit); visit is "baseline" or "week52";
item cells are integers 0-4 or empty for missing. Ingestion is the only
place missing values exist; everything downstream is complete-case.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numkit import AncovaFit
from .scales import ITEM_COLUMNS, ITEM_LABELS, N_ITEMS, ItemDataset, original_scheme

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
                    scores[j] = int(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: column {ITEM_COLUMNS[j]} has "
                        f"non-integer value {cell!r}"
                    ) from None
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
    data = ItemDataset(
        ids=np.array(ids),
        arm=np.array(arm, dtype=np.int8),
        baseline=np.array(baseline),
        week52=np.array(week52),
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


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    return float(np.mean(x)), sd / np.sqrt(n)


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
    rows = []
    for j in range(N_ITEMS):
        for arm_value, arm_name in ((1, "treatment"), (0, "control")):
            mask = data.arm == arm_value
            base = data.baseline[mask, j].astype(float)
            week = data.week52[mask, j].astype(float)
            bm, bs = _mean_se(base)
            wm, ws = _mean_se(week)
            dm, ds = _mean_se(week - base)
            fitted = fits is not None and arm_value == 1
            row = {
                "item": ITEM_COLUMNS[j],
                "label": ITEM_LABELS[j],
                "arm": arm_name,
                "n": int(mask.sum()),
                "baseline_mean": bm,
                "baseline_se": bs,
                "week52_mean": wm,
                "week52_se": ws,
                "diff_mean": dm,
                "diff_se": ds,
                "ancova_coef": coef[j] if fitted else None,
                "ancova_se": se[j] if fitted else None,
                "p_value": p[j] if fitted else None,
            }
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# generic report emission
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("csv", "structured-doc", "plain-table")


@dataclass
class TableDoc:
    """A header plus rows of primitives, ready for any emission format."""

    header: list[str]
    rows: list[list]

    @classmethod
    def from_dicts(cls, rows: list[dict], header: list[str] | None = None) -> "TableDoc":
        if header is None:
            header = list(rows[0]) if rows else []
        return cls(header=header, rows=[[r.get(h) for h in header] for r in rows])


def _cell_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _cell_display(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def emit_report(results: TableDoc, fmt: str, path: str | Path) -> Path:
    """Write one table in the requested format; deterministic row order is
    the caller's responsibility. Empty results produce a header-only file.

    csv: full-precision floats. structured-doc: JSON records, full
    precision. plain-table: fixed-width display with floats at 2 decimals.
    """
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(results.header)]
        lines += [",".join(_cell_csv(v) for v in row) for row in results.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "structured-doc":
        docs = [dict(zip(results.header, row)) for row in results.rows]
        path.write_text(json.dumps(docs, indent=2), encoding="utf-8")
    elif fmt == "plain-table":
        cells = [results.header] + [
            [_cell_display(v) for v in row] for row in results.rows
        ]
        widths = [max(len(r[c]) for r in cells) for c in range(len(results.header))]
        lines = [
            "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
            for row in cells
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValidationError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
    return path
