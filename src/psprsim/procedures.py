"""The eleven testing procedures.

Every procedure maps exactly what it reads to a TestOutcome with a one-sided
p-value under the benefit-negative convention: treatment coded 1, lower item
scores beneficial, so evidence of benefit is negative t.

The procedures read rows of one dataset's endpoint ANCOVA block
(marginal.fit_marginals): SumS, IRT and LM their one row, Omnibus-dom the 3
domain rows, and OLS/GLS/GLS-drop, Bonf, Simes and MaxT the 10 item rows
(with the stacked-sandwich correlation of the item fits); Omnibus reads the
item p-values. Rescoring the data, scoring it with the models and fitting
the block is the caller's step: engine.MethodContext does it once per
dataset and scheme.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .errors import NumericalError, ValidationError
from .marginal import CorrelationEstimate, subset_corr
from .mvnorm import mvn_rect_upper
from .numkit import AncovaFit, RngStream, normal_cdf, student_t_cdf
from .scales import N_ITEMS

# unused here, but perfbench/tracing.py patches these names
from .irt import eap_scores  # noqa: F401
from .numkit import fit_ancova  # noqa: F401

METHODS = (
    "SumS",
    "IRT",
    "LM",
    "OLS",
    "GLS",
    "GLS-drop",
    "Bonf",
    "MaxT",
    "Simes",
    "Omnibus",
    "Omnibus-dom",
)

P_FLOOR = 1e-12  # floor inside the reciprocal transform
CALIBRATION_FORMAT_VERSION = 2


@dataclass
class TestOutcome:
    method: str
    statistic: float
    p_one_sided: float
    weights: np.ndarray | None = None
    dropped_items: list[int] | None = None
    diagnostics: dict = field(default_factory=dict)


def modified_df(n_per_group: float, m: int) -> float:
    """Small-sample df for the OLS/GLS reference: 0.5(2n-3)(1+1/m^2)."""
    return 0.5 * (2.0 * n_per_group - 3.0) * (1.0 + 1.0 / m**2)


# ---------------------------------------------------------------------------
# adjusted p-values
# ---------------------------------------------------------------------------


def bonferroni_adjust(p: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=float) * p.size, 0.0, 1.0)


def holm_adjust(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    n = p.size
    o = np.argsort(p, kind="stable")
    adj = np.maximum.accumulate(p[o] * (n - np.arange(n)))
    out = np.empty(n)
    out[o] = adj
    return np.clip(out, 0.0, 1.0)


def hommel_adjust(p: np.ndarray) -> np.ndarray:
    """Closed-testing (Hommel) adjusted p-values; mirrors the classic
    stagewise algorithm."""
    p = np.asarray(p, dtype=float)
    n = p.size
    if n == 1:
        return p.copy()
    o = np.argsort(p, kind="stable")
    ps = p[o]
    i = np.arange(1, n + 1)
    q = np.full(n, (n * ps / i).min())
    pa = q.copy()
    for m in range(n - 1, 1, -1):
        i1 = np.arange(n - m + 1)
        i2 = np.arange(n - m + 1, n)
        q1 = (m * ps[i2] / np.arange(2, m + 1)).min()
        q[i1] = np.minimum(m * ps[i1], q1)
        q[i2] = q[n - m]
        pa = np.maximum(pa, q)
    pa = np.maximum(pa, ps)
    out = np.empty(n)
    out[o] = pa
    return np.clip(out, 0.0, 1.0)


def simes_global(p: np.ndarray) -> float:
    p = np.sort(np.asarray(p, dtype=float))
    n = p.size
    return float(min(1.0, (n * p / np.arange(1, n + 1)).min()))


# ---------------------------------------------------------------------------
# univariate endpoint tests
# ---------------------------------------------------------------------------


def _endpoint_outcome(method: str, fit: AncovaFit) -> TestOutcome:
    return TestOutcome(
        method=method,
        statistic=float(fit.t[0]),
        p_one_sided=float(fit.p[0]),
        diagnostics={"coef": float(fit.coef[0, 2]), "se": float(fit.se[0]), "df": fit.df},
    )


def test_sum_score(fit: AncovaFit) -> TestOutcome:
    """ANCOVA on the plain item sum score (its one-row fit)."""
    return _endpoint_outcome("SumS", fit)


def test_irt(fit: AncovaFit) -> TestOutcome:
    """ANCOVA on EAP latent-trait estimates from a pre-fitted model (its
    one-row fit)."""
    return _endpoint_outcome("IRT", fit)


def test_lm_approx(fit: AncovaFit) -> TestOutcome:
    """ANCOVA on the weighted-sum latent surrogate (its one-row fit)."""
    return _endpoint_outcome("LM", fit)


# ---------------------------------------------------------------------------
# combined-t procedures
# ---------------------------------------------------------------------------


def test_obrien(fits: AncovaFit, corr: CorrelationEstimate,
                variant: str = "OLS") -> TestOutcome:
    """Directional global tests on the vector of per-item t-statistics.

    OLS: equal weights, statistic 1't / sqrt(1'R1). GLS: weights R^-1 1.
    GLS-drop: when the GLS weight vector has a negative entry, drop the item
    with the most negative weight (once) and recompute on the remainder.
    The reference distribution is Student t with the modified df.
    """
    if variant not in ("OLS", "GLS", "GLS-drop"):
        raise ValidationError(f"unknown variant {variant!r}")
    t = fits.t
    n_group = fits.residuals.shape[1] / 2.0
    diagnostics: dict = {}
    dropped: list[int] | None = None

    R = corr.R
    ones = np.ones(t.size)
    w = ones  # OLS is GLS with unit weights
    if variant != "OLS":
        try:
            w = np.linalg.solve(R, ones)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular correlation matrix: {exc}") from exc
        if variant == "GLS-drop" and w.min() < 0:
            drop = int(np.argmin(w))
            keep = np.array([j for j in range(t.size) if j != drop])
            dropped = [drop]
            sub = subset_corr(corr, keep)
            R = sub.R
            t = t[keep]
            ones = np.ones(t.size)
            try:
                w = np.linalg.solve(R, ones)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular correlation after drop: {exc}") from exc
            if w.min() < 0:
                diagnostics["negative_weights_after_drop"] = keep[w < 0].tolist()
        elif variant == "GLS-drop":
            diagnostics["no_negative_weight"] = True
    denom = float(w @ R @ w)
    if denom <= 0:
        raise NumericalError(f"nonpositive {variant[:3]} variance (degenerate correlation)")
    stat = float(w @ t) / np.sqrt(denom)
    m_active = t.size
    df_mod = modified_df(n_group, m_active)
    p = student_t_cdf(stat, df_mod)
    return TestOutcome(
        method=variant,
        statistic=stat,
        p_one_sided=p,
        weights=w,
        dropped_items=dropped,
        diagnostics={**diagnostics, "df_modified": df_mod, "m_active": m_active},
    )


# ---------------------------------------------------------------------------
# multiplicity-adjusted per-item procedures
# ---------------------------------------------------------------------------


def test_bonferroni(fits: AncovaFit) -> TestOutcome:
    """Global min-p Bonferroni test (per-item adjusted p-values are
    bonferroni_adjust and holm_adjust of fits.p)."""
    p = fits.p
    return TestOutcome(
        method="Bonf",
        statistic=float(p.min()),
        p_one_sided=float(min(1.0, p.size * p.min())),
    )


def test_simes_hommel(fits: AncovaFit) -> TestOutcome:
    """Simes global test, the global step of Hommel's closed testing (its
    per-item adjusted p-values are hommel_adjust of fits.p)."""
    g = simes_global(fits.p)
    return TestOutcome(method="Simes", statistic=g, p_one_sided=g)


def test_maxt(
    fits: AncovaFit,
    corr: CorrelationEstimate,
    tol: float = 1e-4,
    rng: RngStream | None = None,
    alpha: float | None = None,
) -> TestOutcome:
    """Correlation-aware max test on transformed z-values.

    z_i = Phi^-1(F_t(-t_i, df)) with the marginal df, so large positive z
    means benefit; the adjusted p is 1 - P(Z <= z_max 1) under N(0, R).

    Without alpha the p-value is integrated to tol. With alpha only the
    decision p <= alpha is guaranteed: the exact Bonferroni bounds
    p_min <= p <= min(1, m p_min) over the m items, p_min = 1 - Phi(z_max),
    settle it without integrating (rng is then not used, and the bound on
    alpha's side is returned), and otherwise the integration stops once its
    error estimate excludes alpha.
    """
    t = fits.t
    u = np.clip(special.stdtr(fits.df, -t), 1e-300, 1.0 - 1e-16)
    # an infinitely beneficial t maps to +inf z, which the clip would cap
    z = np.where(np.isinf(t), -t, special.ndtri(u))
    z_max = float(z.max())
    diagnostics: dict = {"z_values": z}
    p_min = float(normal_cdf(-z_max))
    p_max = min(1.0, N_ITEMS * p_min)
    if alpha is not None and (p_min > alpha or p_max <= alpha):
        p = p_min if p_min > alpha else p_max
        diagnostics.update(bound_settled=True, p_bounds=(p_min, p_max))
    else:
        # mvn_rect_upper validates and, if needed, repairs the correlation
        prob, err = mvn_rect_upper(
            np.full(N_ITEMS, z_max), corr.R, tol=tol, rng=rng,
            decide_at=None if alpha is None else 1.0 - alpha,
        )
        p = float(min(max(1.0 - prob, 0.0), 1.0))
        diagnostics["mvn_error_estimate"] = err
    return TestOutcome(
        method="MaxT",
        statistic=z_max,
        p_one_sided=p,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# omnibus tests on sorted transformed p-values
# ---------------------------------------------------------------------------


def _reciprocal(p: np.ndarray) -> np.ndarray:
    return 1.0 / np.maximum(p, P_FLOOR)

TRANSFORM = "reciprocal"  # the name cache file names give _reciprocal


@dataclass
class OmnibusCalibration:
    """Monte-Carlo null tables for the omnibus combination test.

    tables is one (m + 1, reps) float64 array. Its rows 0..m-1 are
    sorted_partial_stats: row s holds the ascending null distribution of
    the partial sum S_{s+1}. Its row m is sorted_null_stats, the ascending
    null distribution of the combined statistic (the minimum per-s
    marginal p).
    """

    tables: np.ndarray

    @property
    def m(self) -> int:
        return self.tables.shape[0] - 1

    @property
    def reps(self) -> int:
        return self.tables.shape[1]

    @property
    def sorted_partial_stats(self) -> np.ndarray:
        return self.tables[:-1]

    @property
    def sorted_null_stats(self) -> np.ndarray:
        return self.tables[-1]

    def partial_p(self, partial_sums: np.ndarray) -> np.ndarray:
        """Marginal Monte-Carlo p of each observed partial sum (large = extreme)."""
        tables, reps = self.tables, self.reps
        ge = reps - np.array(
            [
                np.searchsorted(tables[s], partial_sums[s], side="left")
                for s in range(self.m)
            ]
        )
        return (1.0 + ge) / (reps + 1.0)

    def combined_statistic(self, pvalues: np.ndarray) -> float:
        partial = np.cumsum(_reciprocal(np.sort(pvalues)))
        return float(self.partial_p(partial).min())

    def global_p(self, combined: float) -> float:
        le = np.searchsorted(self.sorted_null_stats, combined, side="right")
        return (1.0 + le) / (self.reps + 1.0)


def check_calibration_reps(reps: int, name: str = "reps") -> None:
    if reps < 100:
        raise ValidationError(f"need {name} >= 100, got {reps}")


def build_omnibus_calibration(m: int, reps: int = 100_000, seed: int = 0) -> OmnibusCalibration:
    """Simulate the null tables under independent uniform p-values."""
    if m < 2:
        raise ValidationError(f"need m >= 2, got {m}")
    check_calibration_reps(reps)
    rng = RngStream(seed)
    u = rng.gen.random((reps, m))
    u.sort(axis=1)
    S = np.cumsum(_reciprocal(u), axis=1)  # (reps, m)
    tables = np.empty((m + 1, reps))
    # each calibration replicate's own combined statistic, same convention:
    # a row ranks its replicates by its own sort, and ties rank by value, so
    # any sort order gives each replicate the left index of its value
    idx = np.empty(reps, dtype=np.intp)
    low = np.full(reps, np.inf)
    for s in range(m):
        col = np.ascontiguousarray(S[:, s])
        order = np.argsort(col)
        tables[s] = col[order]
        idx[order] = np.searchsorted(tables[s], tables[s], side="left")
        np.minimum(low, (1.0 + reps - idx) / (reps + 1.0), out=low)
    tables[m] = np.sort(low)
    return OmnibusCalibration(tables)


def save_omnibus_calibration(calib: OmnibusCalibration, path: str | Path) -> Path:
    """Write the calibration's tables as one .npy and return its path
    (".npy" is appended to a path without it, as numpy does).

    The file is written next to its target, flushed to disk and renamed
    into place, so neither a killed or concurrent writer nor a crash of the
    machine leaves a truncated file under the final name.
    """
    path = Path(path)
    if path.suffix != ".npy":
        path = path.with_name(path.name + ".npy")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, calib.tables, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_omnibus_calibration(path: str | Path) -> OmnibusCalibration:
    """Map a calibration written by save_omnibus_calibration.

    The tables are a read-only view of the file's pages, so the file must
    be replaced by renaming, as the writer does, never rewritten in place.
    """
    try:
        tables = np.asarray(np.load(path, mmap_mode="r", allow_pickle=False))
    except (OSError, EOFError, ValueError) as exc:
        raise ValidationError(
            f"{path}: unreadable omnibus calibration ({type(exc).__name__}: {exc}); "
            "delete the file to rebuild it"
        ) from exc
    if tables.dtype != np.float64 or tables.ndim != 2 or not tables.flags.c_contiguous:
        raise ValidationError(
            f"{path}: omnibus calibration is not a C-ordered 2-D float64 table "
            f"(dtype {tables.dtype}, shape {tables.shape})"
        )
    if tables.shape[0] < 3:
        raise ValidationError(
            f"{path}: omnibus calibration has {tables.shape[0]} rows, need m + 1 >= 3"
        )
    return OmnibusCalibration(tables)


def get_omnibus_calibration(
    cache_dir: str | Path | None,
    m: int,
    reps: int = 100_000,
    seed: int = 0,
) -> OmnibusCalibration:
    """Build or reuse a cached calibration keyed by (m, reps, seed)."""
    if cache_dir is None:
        return build_omnibus_calibration(m, reps, seed)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"omnibus_m{m}_{TRANSFORM}_r{reps}_s{seed}_v{CALIBRATION_FORMAT_VERSION}.npy"
    if path.exists():
        calib = load_omnibus_calibration(path)
        if calib.tables.shape != (m + 1, reps):
            raise ValidationError(
                f"{path}: omnibus calibration has shape {calib.tables.shape}, "
                f"expected {(m + 1, reps)}; delete the file to rebuild it"
            )
        return calib
    calib = build_omnibus_calibration(m, reps, seed)
    save_omnibus_calibration(calib, path)
    return calib


def test_omnibus(pvalues, calib: OmnibusCalibration) -> TestOutcome:
    """Combination test over cumulative sums of transformed sorted p-values."""
    p = np.asarray(pvalues, dtype=float)
    if p.size != calib.m:
        raise ValidationError(
            f"calibration is for m={calib.m} but got {p.size} p-values"
        )
    combined = calib.combined_statistic(p)
    return TestOutcome(
        method="Omnibus",
        statistic=combined,
        p_one_sided=calib.global_p(combined),
    )


def test_omnibus_domains(fits: AncovaFit, calib: OmnibusCalibration) -> TestOutcome:
    """Omnibus combination of the domain sum-score ANCOVAs (the 3 domain
    rows; test_omnibus rejects a calibration whose m is not the domain
    count)."""
    out = test_omnibus(fits.p, calib)
    out.method = "Omnibus-dom"
    return out
