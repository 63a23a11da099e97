"""Marginal per-item ANCOVA fits and the joint correlation of their
treatment-coefficient estimators.

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
from .scales import ITEM_COLUMNS, N_ITEMS, ItemDataset

SANDWICH_CORRECTION = "HC0"  # plain cross-products, no df adjustment


@dataclass
class CorrelationEstimate:
    """Correlation of the stacked treatment-coefficient estimators."""

    R: np.ndarray
    method: str = "stacked-score sandwich"


def fit_marginals(data: ItemDataset) -> AncovaFit:
    """Fit the per-item week52 ~ baseline + treatment ANCOVAs (one block)."""
    try:
        return fit_ancova(data.week52, data.baseline, data.arm)
    except SingularDesignError as exc:
        raise SingularDesignError(
            f"singular ANCOVA design for item {ITEM_COLUMNS[exc.column]}: {exc}",
            column=exc.column,
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
