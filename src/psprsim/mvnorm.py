"""Multivariate normal sampling and upper-rectangle probabilities.

The rectangle integrator follows the classic sequential-conditioning scheme:
Cholesky-factor the correlation after sorting variables by increasing
marginal probability, then integrate the conditional product over a
randomized quasi-Monte-Carlo rule (Sobol base points, Cranley-Patterson
shifts, tent folding). The randomization shifts come from the caller's
RngStream, so results are deterministic by seed, and the spread across
shifts gives the reported error estimate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.stats import qmc

from .errors import FactorizationError, ValidationError
from .numkit import RngStream, cholesky

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR = 1e-10


@lru_cache(maxsize=64)
def _sobol_base(dim: int, log2_n: int) -> np.ndarray:
    """Deterministic (unscrambled) Sobol points, cached per (dim, 2^m)."""
    pts = qmc.Sobol(d=dim, scramble=False).random_base2(log2_n)
    pts.flags.writeable = False
    return pts


@dataclass
class MvnSpec:
    """Mean and covariance of a k-variate normal, with a cached factor."""

    mean: np.ndarray
    covariance: np.ndarray
    _factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        k = self.mean.shape[0]
        if self.covariance.shape != (k, k):
            raise ValidationError(
                f"covariance shape {self.covariance.shape} does not match mean length {k}"
            )
        sym_err = float(np.abs(self.covariance - self.covariance.T).max(initial=0.0))
        if sym_err > 1e-12 * max(1.0, float(np.abs(self.covariance).max(initial=1.0))):
            raise ValidationError(f"covariance not symmetric (max asymmetry {sym_err:.2e})")
        if np.any(np.diag(self.covariance) < 0):
            raise ValidationError("covariance has a negative diagonal entry")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def factor(self) -> np.ndarray:
        """Lower factor F with F @ F.T == covariance; tolerates PSD-singular input."""
        if self._factor is None:
            self._factor = psd_factor(self.covariance)
        return self._factor


def psd_factor(S: np.ndarray) -> np.ndarray:
    """Factor a symmetric PSD matrix, falling back to eigh for singular S."""
    try:
        return cholesky(S)
    except FactorizationError:
        w, V = np.linalg.eigh(np.asarray(S, dtype=float))
        if w.min() < -1e-8 * max(1.0, w.max(initial=1.0)):
            raise
        return V * np.sqrt(np.clip(w, 0.0, None))


def sample_mvn(spec: MvnSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw n i.i.d. rows from N(spec.mean, spec.covariance)."""
    if n < 1:
        raise ValidationError(f"need n >= 1 draws, got {n}")
    z = rng.gen.standard_normal((n, spec.dim))
    return spec.mean + z @ spec.factor().T


def repair_correlation(R: np.ndarray) -> np.ndarray:
    """Floor eigenvalues at 1e-10 and renormalize the diagonal to 1.

    Estimated correlations from small samples can be numerically singular;
    the repair is logged because it perturbs the matrix. Matrices that are
    far from PSD (not a rounding artifact) are rejected instead.
    """
    R = np.asarray(R, dtype=float)
    w, V = np.linalg.eigh((R + R.T) / 2.0)
    if w.min() >= EIGENVALUE_FLOOR:
        return R
    if w.min() < -1e-6:
        raise ValidationError(
            f"matrix is not a correlation matrix (eigenvalue {w.min():.3e})"
        )
    log.warning(
        "correlation eigenvalue floor applied (min eigenvalue %.3e)", float(w.min())
    )
    w = np.clip(w, EIGENVALUE_FLOOR, None)
    S = (V * w) @ V.T
    d = np.sqrt(np.diag(S))
    S = S / np.outer(d, d)
    np.fill_diagonal(S, 1.0)
    return S


def _validate_correlation(R: np.ndarray) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    k = R.shape[0]
    if R.shape != (k, k):
        raise ValidationError(f"correlation must be square, got shape {R.shape}")
    if k > 20:
        raise ValidationError(f"rectangle probabilities support k <= 20, got {k}")
    if not np.allclose(R, R.T, atol=1e-10):
        raise ValidationError("correlation matrix not symmetric")
    if not np.allclose(np.diag(R), 1.0, atol=1e-8):
        raise ValidationError("correlation matrix must have unit diagonal")
    return repair_correlation(R)


def check_tol(tol: float, name: str = "tol") -> None:
    if not 0.0 < tol <= 0.01:
        raise ValidationError(f"{name} must lie in (0, 0.01], got {tol}")


def mvn_rect_upper(
    upper,
    corr,
    tol: float = 1e-4,
    rng: RngStream | None = None,
    max_points: int = 1 << 17,
    decide_at: float | None = None,
) -> tuple[float, float]:
    """P(Z <= upper componentwise) for Z ~ N(0, corr).

    Returns (probability, error_estimate). The estimate is three standard
    errors over the randomized shifts; the point budget doubles until the
    estimate drops below tol or the hard cap max_points is hit, in which
    case the looser estimate is simply reported.

    With decide_at set, only the side of decide_at the probability lies on
    is wanted: the doubling also stops as soon as |probability - decide_at|
    exceeds the error estimate, which may then be larger than tol. Every
    round draws its shifts from rng exactly as without decide_at, so the
    estimate it stops at is the one the full-precision call passes through.
    """
    check_tol(tol)
    b = np.asarray(upper, dtype=float)
    R = _validate_correlation(corr)
    k = b.shape[0]
    if R.shape[0] != k:
        raise ValidationError(f"upper has length {k} but corr is {R.shape[0]}x{R.shape[0]}")
    if k == 1:
        return float(special.ndtr(b[0])), 0.0
    if rng is None:
        rng = RngStream(0x5B3C0F11)

    # sort variables by increasing marginal probability so the hardest
    # constraints are integrated first
    order = np.argsort(special.ndtr(b), kind="stable")
    b = b[order]
    R = R[np.ix_(order, order)]
    try:
        L = cholesky(R)
    except FactorizationError:
        L = psd_factor(R)
        # guard the conditional scale against exact zeros from the fallback
        d = np.sqrt(np.clip(np.diag(L @ L.T), 1e-12, None))
        L = np.tril(L)
        np.fill_diagonal(L, np.maximum(np.diag(L), 1e-6 * d))

    n_shifts = 10
    log2_n = 8
    tiny = 1e-15
    e1 = float(special.ndtr(b[0] / L[0, 0]))
    while True:
        n_points = 1 << log2_n
        base = _sobol_base(k - 1, log2_n)
        shifts = rng.gen.random((n_shifts, k - 1))
        # tent-folded shifted points in (0,1)^(k-1), all shifts at once
        u = np.abs(2.0 * np.modf(base[None, :, :] + shifts[:, None, :])[0] - 1.0)
        prod = np.full((n_shifts, n_points), e1)
        y = np.empty((n_shifts, n_points, k - 1))
        e_prev = prod
        for i in range(1, k):
            z = np.clip(u[..., i - 1] * e_prev, tiny, 1.0 - tiny)
            y[..., i - 1] = special.ndtri(z)
            cond = (b[i] - y[..., :i] @ L[i, :i]) / L[i, i]
            e_prev = special.ndtr(cond)
            prod = prod * e_prev
        means = prod.mean(axis=1)
        p = float(means.mean())
        err = 3.0 * float(means.std(ddof=1)) / np.sqrt(n_shifts)
        decided = decide_at is not None and abs(p - decide_at) > err
        if err <= tol or decided:
            return min(max(p, 0.0), 1.0), err
        if n_points * 2 > max_points:
            log.warning("mvn_rect_upper budget cap reached (err %.2e > tol %.2e)", err, tol)
            return min(max(p, 0.0), 1.0), err
        log2_n += 1
