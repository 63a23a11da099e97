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
from .marginal import CorrelationEstimate, solve_gls_weights
from .mvnorm import (
    bivariate_upper_orthant,
    dawson_sankoff_lower,
    max_spanning_tree_weight,
    mvn_rect_upper,
    validate_correlation,
)
from .numkit import AncovaFit, RngStream
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
SETTLE_MARGIN = 1e-12  # a second-order bound settles p <= alpha only this clear of alpha
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
    w = np.ones(t.size)  # OLS is GLS with unit weights
    if variant != "OLS":
        w = corr.gls_weights
        if variant == "GLS-drop" and w.min() < 0:
            drop = int(np.argmin(w))
            keep = np.arange(t.size - 1)
            keep[drop:] += 1
            dropped = [drop]
            R = R[keep[:, None], keep]
            t = t[keep]
            w = solve_gls_weights(R, "correlation after drop")
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
    p = float(special.stdtr(df_mod, stat))
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


_PAIRS = np.triu_indices(N_ITEMS, 1)


def _second_order_bounds(h: float, R: np.ndarray, p_min: float, p_max: float,
                         alpha: float) -> tuple[float, float] | None:
    """Bounds (lower, upper) on P(Z_i > h for some i), Z ~ N(0, R), when one
    of them clears alpha by SETTLE_MARGIN; None when neither does.

    S1 = m p_min and S2 is the sum of the pair probabilities. The
    Dawson-Sankoff lower bound needs only S1 and S2, so it comes first; the
    Hunter-Worsley upper bound S1 - (maximum spanning tree of the pair
    probabilities) is computed only when the lower bound does not settle.
    Each is tightened by its Bonferroni counterpart p_min or p_max.
    """
    pairs = bivariate_upper_orthant(h, R[_PAIRS])
    s1 = N_ITEMS * p_min
    lower = max(p_min, dawson_sankoff_lower(s1, float(pairs.sum())))
    if lower > alpha + SETTLE_MARGIN:
        return lower, p_max
    W = np.zeros((N_ITEMS, N_ITEMS))
    W[_PAIRS] = pairs
    upper = min(p_max, s1 - max_spanning_tree_weight(W + W.T))
    if upper <= alpha - SETTLE_MARGIN:
        return lower, upper
    return None


def test_maxt(
    fits: AncovaFit,
    corr: CorrelationEstimate,
    tol: float = 1e-4,
    rng: RngStream | None = None,
    alpha: float | None = None,
) -> TestOutcome:
    """Correlation-aware max test on transformed z-values.

    z_i = Phi^-1(F_t(-t_i, df)) with the marginal df, so large positive z
    means benefit; the adjusted p is 1 - P(Z <= z_max 1) under N(0, R),
    the probability that some Z_i exceeds z_max.

    Without alpha the p-value is integrated to tol. With alpha only the
    decision p <= alpha is guaranteed, and exact bounds on p settle it
    without integrating where they can, in this order:

    1. the Bonferroni bounds p_min <= p <= min(1, m p_min) over the m
       items, p_min = 1 - Phi(z_max), when alpha lies outside them
       (bound_settled="bonferroni");
    2. the second-order bounds from the m(m-1)/2 pair probabilities, the
       Dawson-Sankoff (1967) lower bound and then the Hunter (1976) /
       Worsley (1982) upper bound, when one clears alpha by SETTLE_MARGIN
       (bound_settled="second-order"). They read the correlation as
       mvn_rect_upper integrates it, validated and, if needed, repaired
       by validate_correlation.

    A settled p is the bound on alpha's side, diagnostics["p_bounds"]
    holds both bounds, and rng is not used. Otherwise the integration stops
    once its error estimate excludes alpha, on the same rng and the same
    correlation as without the bounds.
    """
    t = fits.t
    u = np.clip(special.stdtr(fits.df, -t), 1e-300, 1.0 - 1e-16)
    # an infinitely beneficial t maps to +inf z, which the clip would cap
    z = np.where(np.isinf(t), -t, special.ndtri(u))
    z_max = float(z.max())
    diagnostics: dict = {"z_values": z}
    p_min = float(special.ndtr(-z_max))
    p_max = min(1.0, N_ITEMS * p_min)
    bounds = None
    if alpha is not None:
        if p_min > alpha or p_max <= alpha:
            bounds = "bonferroni", (p_min, p_max)
        else:
            R = validate_correlation(corr.R)
            found = _second_order_bounds(z_max, R, p_min, p_max, alpha)
            if found is not None:
                bounds = "second-order", found
    if bounds is not None:
        kind, (lower, upper) = bounds
        p = lower if lower > alpha else upper
        diagnostics.update(bound_settled=kind, p_bounds=(lower, upper))
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
    q = np.maximum(p, P_FLOOR)
    return np.divide(1.0, q, out=q)

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
        rows = zip(self.sorted_partial_stats, partial_sums)
        ge = self.reps - np.array([row.searchsorted(x, side="left") for row, x in rows])
        return (1.0 + ge) / (self.reps + 1.0)

    def combined_statistic(self, pvalues: np.ndarray) -> float:
        """partial_p(partial sums).min(), the smallest marginal p.

        The p of a sum falls as its left index in its row rises, so this is
        the p of the highest index. A row whose entry at the highest index
        so far is not below its sum ranks the sum no higher, and is not
        searched.
        """
        partial = np.cumsum(_reciprocal(np.sort(pvalues))).tolist()
        reps, top = self.reps, 0
        for row, x in zip(self.sorted_partial_stats, partial):
            if top == reps:
                break
            if row[top] < x:
                top = int(row.searchsorted(x, side="left"))
        return (1.0 + (reps - top)) / (reps + 1.0)

    def global_p(self, combined: float) -> float:
        le = self.sorted_null_stats.searchsorted(combined, side="right")
        return (1.0 + le) / (self.reps + 1.0)


def check_calibration_reps(reps: int, name: str = "reps") -> None:
    if reps < 100:
        raise ValidationError(f"need {name} >= 100, got {reps}")


CALIBRATION_CHUNK = 8192  # calibration replicates drawn and summed at a time


def build_omnibus_calibration(m: int, reps: int = 100_000, seed: int = 0) -> OmnibusCalibration:
    """Simulate the null tables under independent uniform p-values."""
    if m < 2:
        raise ValidationError(f"need m >= 2, got {m}")
    check_calibration_reps(reps)
    gen = RngStream(seed).gen
    tables = np.empty((m + 1, reps))
    # the replicates' partial sums, column s into row s, a chunk of
    # replicates at a time: consecutive draws continue one stream
    for start in range(0, reps, CALIBRATION_CHUNK):
        u = gen.random((min(CALIBRATION_CHUNK, reps - start), m))
        u.sort(axis=1)
        S = _reciprocal(u)
        np.cumsum(S, axis=1, out=S)
        tables[:m, start:start + len(S)] = S.T
    # each calibration replicate's own combined statistic, same convention:
    # a row ranks its replicates by its own sort, and ties rank by value, so
    # any sort order gives each replicate the left index of its value: the
    # start of its run of equal values, carried forward in one pass. The
    # work runs in reused buffers; the float buffer p shares left's memory,
    # as each use of one ends before the other's begins.
    positions = np.arange(reps)
    first = np.ones(reps, dtype=bool)  # where each run of equal values starts
    left = np.empty(reps, dtype=np.intp)
    idx = np.empty(reps, dtype=np.intp)
    p = left.view(np.float64)
    low = tables[m]
    low.fill(np.inf)
    for row in tables[:m]:
        order = row.argsort()
        row[:] = row.take(order, out=p, mode="clip")
        np.not_equal(row[1:], row[:-1], out=first[1:])
        np.maximum.accumulate(np.multiply(positions, first, out=left), out=left)
        idx[order] = left
        np.subtract(1.0 + reps, idx, out=p)
        p /= reps + 1.0
        np.minimum(low, p, out=low)
    low.sort()
    return OmnibusCalibration(tables)


def save_omnibus_calibration(calib: OmnibusCalibration, path: str | Path) -> None:
    """Write the calibration's tables as one .npy file at ``path``.

    The file is written next to its target, flushed to disk and renamed
    into place, so neither a killed or concurrent writer nor a crash of the
    machine leaves a truncated file under the final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, calib.tables, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
