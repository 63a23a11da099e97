"""Scoring schemes and the item-level dataset type.

The instrument is the 10-item subset of the PSPRS, every item scored 0-4 at
two visits (baseline, week 52), higher = worse. Items fall into three
domains; rescoring collapse maps are configuration, loaded from JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError, read_json_object

# column order is fixed everywhere: History, Bulbar, Gait/Midline
ITEM_COLUMNS = (
    "item03",
    "item04",
    "item05",
    "item12",
    "item13",
    "item24",
    "item25",
    "item26",
    "item27",
    "item28",
)
ITEM_LABELS = (
    "Dysp.FS",
    "Use.KF",
    "Fall",
    "Dysa.",
    "Dysp.",
    "Neck.Ri",
    "Ari.FC",
    "Gait",
    "Pos.St",
    "Sit",
)
N_ITEMS = len(ITEM_COLUMNS)
RAW_LEVELS = 5  # original scores run 0..4

DOMAINS = {
    "history": (0, 1, 2),
    "bulbar": (3, 4),
    "gait_midline": (5, 6, 7, 8, 9),
}

ORIGINAL = "original"
FDA = "fda"


@dataclass(frozen=True)
class ScoringScheme:
    """Per-item monotone surjective maps from raw levels onto collapsed ones.

    Immutable (the maps are a read-only copy), so one instance can be shared
    by every dataset and replicate.
    """

    name: str
    collapse_maps: np.ndarray  # (N_ITEMS, RAW_LEVELS) int

    def __post_init__(self):
        maps = np.array(self.collapse_maps, dtype=np.int64)
        if maps.shape != (N_ITEMS, RAW_LEVELS):
            raise ValidationError(
                f"collapse maps must be {N_ITEMS}x{RAW_LEVELS}, got {maps.shape}"
            )
        for i, row in enumerate(maps):
            if row[0] != 0:
                raise ValidationError(f"{ITEM_COLUMNS[i]}: map must start at 0")
            steps = np.diff(row)
            if np.any(steps < 0) or np.any(steps > 1):
                raise ValidationError(
                    f"{ITEM_COLUMNS[i]}: map must be monotone and onto "
                    f"(steps of 0 or 1), got {row.tolist()}"
                )
        maps.flags.writeable = False
        object.__setattr__(self, "collapse_maps", maps)

    @property
    def category_counts(self) -> np.ndarray:
        """Number of levels per item after collapsing."""
        return self.collapse_maps.max(axis=1) + 1

    def is_identity(self) -> bool:
        return bool(np.all(self.collapse_maps == np.arange(RAW_LEVELS)))


@lru_cache(maxsize=None)
def original_scheme() -> ScoringScheme:
    maps = np.tile(np.arange(RAW_LEVELS), (N_ITEMS, 1))
    return ScoringScheme(ORIGINAL, maps)


def load_scheme(path: str | Path) -> ScoringScheme:
    """Load a scheme config (JSON: {"name": ..., "maps": {item: [5 ints]}})."""
    return _scheme_from_doc(read_json_object(path, "scheme"), source=str(path))


def _scheme_from_doc(doc: dict, source: str) -> ScoringScheme:
    try:
        name = doc["name"]
        maps_doc = doc["maps"]
        maps = np.array([maps_doc[col] for col in ITEM_COLUMNS], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad scheme config {source}: {exc}") from exc
    return ScoringScheme(name, maps)


@lru_cache(maxsize=None)
def fda_scheme() -> ScoringScheme:
    """The bundled default FDA collapse maps (see configs/fda_collapse.json),
    read once per process.

    The exact recommended collapse table is not public; the bundled default
    is NON-AUTHORITATIVE and meant to be replaced by a site-specific config.
    """
    doc = json.loads(
        resources.files("psprsim.configs").joinpath("fda_collapse.json").read_text()
    )
    return _scheme_from_doc(doc, source="configs/fda_collapse.json")


def get_scheme(tag: str) -> ScoringScheme:
    if tag == ORIGINAL:
        return original_scheme()
    if tag == FDA:
        return fda_scheme()
    raise ValidationError(f"unknown scheme tag {tag!r}; use 'original' or 'fda'")


@dataclass
class ItemDataset:
    """Per-subject item scores at two visits plus the arm label.

    arm is coded 1 = treatment, 0 = control. Scores are integers within the
    active scheme's category ranges; the dataset holds complete cases only.
    """

    ids: np.ndarray
    arm: np.ndarray
    baseline: np.ndarray  # (n, N_ITEMS) int
    week52: np.ndarray  # (n, N_ITEMS) int
    scheme: ScoringScheme = field(default_factory=original_scheme)

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        self.arm = np.asarray(self.arm, dtype=np.int8)
        self.baseline = np.asarray(self.baseline, dtype=np.int64)
        self.week52 = np.asarray(self.week52, dtype=np.int64)
        n = self.ids.shape[0]
        for name, a, shape in (
            ("arm", self.arm, (n,)),
            ("baseline", self.baseline, (n, N_ITEMS)),
            ("week52", self.week52, (n, N_ITEMS)),
        ):
            if a.shape != shape:
                raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
        if not ((self.arm == 0) | (self.arm == 1)).all():
            raise ValidationError("arm must be 0 (control) or 1 (treatment)")
        top = self.scheme.category_counts - 1
        for name, a in (("baseline", self.baseline), ("week52", self.week52)):
            if a.min(initial=0) < 0 or (a > top).any():
                raise ValidationError(
                    f"{name} scores fall outside the {self.scheme.name} scheme ranges"
                )

    @property
    def n_subjects(self) -> int:
        return self.ids.shape[0]

    def flatten_visits(self) -> np.ndarray:
        """Stack baseline and week52 rows; each visit becomes one row."""
        return np.vstack([self.baseline, self.week52])


def apply_rescoring(data: ItemDataset, scheme: ScoringScheme) -> ItemDataset:
    """Map a dataset in original scoring through a collapse scheme."""
    if not data.scheme.is_identity():
        raise ValidationError(
            f"rescoring expects original-scored input, got scheme {data.scheme.name!r}"
        )
    cols = np.arange(N_ITEMS)
    return ItemDataset(
        ids=data.ids.copy(),
        arm=data.arm.copy(),
        baseline=scheme.collapse_maps[cols, data.baseline],
        week52=scheme.collapse_maps[cols, data.week52],
        scheme=scheme,
    )


def ensure_scheme(data: ItemDataset, scheme: ScoringScheme | str) -> ItemDataset:
    """Return the dataset rescored into `scheme` (no-op when already there)."""
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    if data.scheme.name == scheme.name:
        return data
    return apply_rescoring(data, scheme)
