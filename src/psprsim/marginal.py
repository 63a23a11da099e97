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
small-sample factor is applied (HC0); small-sample calibration is handled
downstream by the modified-df rule. The estimating equations of one item do
not depend on the others, so the correlation of a subset of items is the
row/column restriction of R.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, NumericalError, SingularDesignError, ValidationError
from .numkit import AncovaFit, ancova_design, fit_ancova
from .scales import DOMAINS, ITEM_COLUMNS, N_ITEMS, ItemDataset

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


def solve_gls_weights(R: np.ndarray, what: str) -> np.ndarray:
    """The GLS weights R^-1 1; a singular R is a NumericalError naming `what`."""
    try:
        return np.linalg.solve(R, np.ones(R.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular {what}: {exc}") from exc


@dataclass
class CorrelationEstimate:
    """Correlation of the stacked treatment-coefficient estimators."""

    R: np.ndarray

    @cached_property
    def gls_weights(self) -> np.ndarray:
        """The GLS weights of R, solved once for the GLS and GLS-drop tests;
        read-only, as both outcomes hold them."""
        w = solve_gls_weights(self.R, "correlation matrix")
        w.flags.writeable = False
        return w


def fit_marginals(data: Sequence[ItemDataset], theta: Sequence[np.ndarray],
                  latent: Sequence[np.ndarray]) -> AncovaFit:
    """Fit every endpoint's week52 ~ baseline + treatment ANCOVA of the S
    datasets of one trial's subjects (one per scoring scheme) as one block.

    ``theta[s]`` and ``latent[s]`` are dataset s's (2, n) model scores,
    baseline visit first. Rows 16 s .. 16 s + 15 are dataset s's endpoints
    in ENDPOINTS order; the item, domain and sum scores are exact integer
    sums, and each row equals the fit of its endpoint alone, bit for bit. A
    singular row is marked, not raised: endpoint_rows names it when a
    procedure reads it.
    """
    arm = data[0].arm
    if any(d.arm is not arm and not np.array_equal(d.arm, arm) for d in data[1:]):
        raise ValidationError("the datasets of one endpoint block must share their subjects")
    base = np.column_stack([col for d, th, lt in zip(data, theta, latent)
                            for col in (d.baseline @ _SCORE_MAP, th[0], lt[0])])
    week = np.column_stack([col for d, th, lt in zip(data, theta, latent)
                            for col in (d.week52 @ _SCORE_MAP, th[1], lt[1])])
    return fit_ancova(week, base, arm)


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
