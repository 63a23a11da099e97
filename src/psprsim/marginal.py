"""The endpoint ANCOVA fits of one dataset and the joint correlation of the
item fits' treatment-coefficient estimators.

Every procedure is an ANCOVA on some endpoint of the same subjects, so one
fit_marginals block holds them all: the 10 items, the 3 domain sums, the sum
score and the two model scores (the EAP theta and the LM surrogate), in the
order of ENDPOINTS.

The cross-item covariance comes from stacking the least-squares estimating
equations and applying a plain HC0 sandwich: with per-item design X_j and
residuals r_j, Cov(b_j, b_k) = (X_j'X_j)^-1 (sum_i x_ij x_ik' r_ij r_ik)
(X_k'X_k)^-1. Writing h_j = X_j (X_j'X_j)^-1 e_treat * r_j reduces the
treatment block to H'H, which is symmetric PSD by construction. No
small-sample factor is applied (SANDWICH_CORRECTION below); small-sample
calibration is handled downstream by the modified-df rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, SingularDesignError, ValidationError
from .numkit import AncovaFit, ancova_design, fit_ancova
from .scales import DOMAINS, ITEM_COLUMNS, N_ITEMS, ItemDataset

SANDWICH_CORRECTION = "HC0"  # plain cross-products, no df adjustment

# the rows of the fit_marginals block, as a SingularDesignError names them
ENDPOINTS = (
    *(f"item {c}" for c in ITEM_COLUMNS),
    *(f"domain {d}" for d in DOMAINS),
    "the sum score",
    "the EAP score",
    "the LM score",
)
ITEM_ROWS = slice(0, N_ITEMS)
DOMAIN_ROWS = slice(N_ITEMS, N_ITEMS + len(DOMAINS))
SUM_ROW, IRT_ROW, LM_ROW = slice(13, 14), slice(14, 15), slice(15, 16)

# item scores @ _SCORE_MAP are the item, domain-sum and sum-score endpoints
_SCORE_MAP = np.column_stack([
    np.eye(N_ITEMS),
    *(np.isin(np.arange(N_ITEMS), items) for items in DOMAINS.values()),
    np.ones(N_ITEMS),
])


@dataclass
class CorrelationEstimate:
    """Correlation of the stacked treatment-coefficient estimators."""

    R: np.ndarray
    method: str = "stacked-score sandwich"


def fit_marginals(data: ItemDataset, theta: np.ndarray, latent: np.ndarray) -> AncovaFit:
    """Fit every endpoint's week52 ~ baseline + treatment ANCOVA as one block.

    ``theta`` and ``latent`` are (2, n) model scores, baseline visit first.
    The rows follow ENDPOINTS; the item, domain and sum scores are exact
    integer sums, and each row equals the fit of its endpoint alone, bit for
    bit. A singular row is marked, not raised: endpoint_rows names it when
    a procedure reads it.
    """
    base = np.column_stack([data.baseline @ _SCORE_MAP, theta[0], latent[0]])
    week = np.column_stack([data.week52 @ _SCORE_MAP, theta[1], latent[1]])
    return fit_ancova(week, base, data.arm)


def endpoint_rows(fits: AncovaFit, rows: slice) -> AncovaFit:
    """The rows of a fit_marginals block that one procedure reads; a
    singular one raises SingularDesignError naming its endpoint."""
    try:
        return fits.rows(rows)
    except SingularDesignError as exc:
        raise SingularDesignError(
            f"singular ANCOVA design for {ENDPOINTS[exc.column]}: {exc}", column=exc.column
        ) from exc


def sandwich_treatment_correlation(
    baseline: np.ndarray, arm: np.ndarray, residuals: np.ndarray
) -> np.ndarray:
    """Correlation of treatment coefficients from stacked estimating
    equations, given per-item baselines and per-item fit residuals.

    Works on float matrices so known-truth continuous oracles can exercise
    the estimator directly.
    """
    m = residuals.shape[1]
    # the (X_j'X_j) a_j = e_treat solves of all items as one stacked call;
    # each item goes through the kernels a per-item loop would use
    X = ancova_design(baseline, arm)
    e_treat = np.zeros((m, 3, 1))
    e_treat[:, 2] = 1.0
    a = np.linalg.solve(X.transpose(0, 2, 1) @ X, e_treat)
    H = np.ascontiguousarray(((X @ a)[:, :, 0] * residuals.T).T)
    V = H.T @ H
    d = np.sqrt(np.diag(V))
    if np.any(d <= 0):
        raise DegenerateDataError("degenerate item (zero sandwich variance)")
    R = V / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    return R


def estimate_corr(data: ItemDataset, fits: AncovaFit) -> CorrelationEstimate:
    """Sandwich correlation of the treatment coefficients across items."""
    if fits.residuals.shape != (N_ITEMS, data.n_subjects):
        raise ValidationError("fits were not computed on this dataset")
    return CorrelationEstimate(
        R=sandwich_treatment_correlation(data.baseline, data.arm, fits.residuals.T)
    )


def subset_corr(corr: CorrelationEstimate, keep: np.ndarray) -> CorrelationEstimate:
    """Correlation re-estimated on a subset of items.

    For the stacked sandwich the per-item estimating equations do not change
    when another item is dropped, so this equals the row/column restriction.
    """
    return CorrelationEstimate(R=corr.R[np.ix_(keep, keep)], method=corr.method)
