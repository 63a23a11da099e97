"""Foundational numerical kernels.

Univariate distribution functions, the three-column ANCOVA fit used as the
per-endpoint workhorse, a small Cholesky with pivot-aware errors, and the
deterministic RNG contract shared by every stochastic component.

RNG algorithm (fixed): numpy's Philox 4x64 counter-based generator, keyed
directly with a 64-bit seed (no SeedSequence entropy pooling), so the same
seed yields the same stream on every platform and under any thread count.
Child streams are derived by splitmix64-style mixing of the parent seed with
a key, never by sharing generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import FactorizationError, SingularDesignError, ValidationError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit integers."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class RngStream:
    """Deterministic random stream keyed by a 64-bit seed."""

    __slots__ = ("seed", "gen")

    def __init__(self, seed: int):
        seed = int(seed) & _MASK64
        self.seed = seed
        self.gen = np.random.Generator(np.random.Philox(key=seed))

    def child(self, key: int) -> "RngStream":
        """Derive an independent stream; (seed, key) -> child seed is a fixed mix."""
        return RngStream(mix64((self.seed + _GOLDEN * (int(key) + 1)) & _MASK64))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def student_t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with (possibly non-integer) df > 0."""
    if not df > 0:
        raise ValidationError(f"t distribution needs df > 0, got {df}")
    return float(special.stdtr(df, x))


def normal_cdf(x):
    """Standard normal CDF (vectorized)."""
    return special.ndtr(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"normal quantile needs p in (0,1), got {p}")
    return float(special.ndtri(p))


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == S for symmetric positive-definite S.

    Raises FactorizationError carrying the failing pivot index when S is not
    positive definite. Intended for the small matrices (<= 32) used here.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValidationError(f"cholesky needs a square matrix, got shape {S.shape}")
    if not np.allclose(S, S.T, atol=1e-12 * max(1.0, float(np.abs(S).max(initial=1.0)))):
        raise ValidationError("cholesky needs a symmetric matrix")
    n = S.shape[0]
    L = np.zeros_like(S)
    for j in range(n):
        d = S[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0 or not np.isfinite(d):
            raise FactorizationError(
                f"matrix not positive definite at pivot {j} (value {d:.3e})", pivot=j
            )
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


@dataclass
class AncovaFit:
    """Result of the outcome ~ 1 + baseline + treatment least-squares fit.

    One-sided convention: treatment coded 1, control 0, lower scores are
    beneficial, so negative t means benefit and p_one_sided = F_t(t, df).
    """

    coef_treatment: float
    se: float
    t_value: float
    df: float
    p_one_sided: float
    residuals: np.ndarray = field(repr=False)
    coef_intercept: float = 0.0
    coef_baseline: float = 0.0

    design_columns = ("intercept", "baseline", "treatment")


def ancova_design(baseline: np.ndarray, arm: np.ndarray) -> np.ndarray:
    """Stacked (m, n, 3) designs [intercept, baseline, treatment], one per
    column of the (n, m) baseline block."""
    n = baseline.shape[0]
    X = np.empty((baseline.size // n, n, 3))
    X[:, :, 0] = 1.0
    X[:, :, 1] = baseline.reshape(n, -1).T
    X[:, :, 2] = arm
    return X


def fit_ancova(outcome, baseline, arm) -> AncovaFit | list[AncovaFit]:
    """ANCOVA of outcome on baseline and a binary treatment indicator.

    Least squares via QR for conditioning. The treatment coefficient's t test
    (df = n - 3) gives the one-sided p-value under the benefit-negative
    convention.

    ``outcome`` and ``baseline`` are either length-n vectors, giving one fit,
    or (n, m) column blocks sharing ``arm``, giving a list of m fits. A block
    runs as stacked LAPACK/BLAS calls on an (m, n, 3) design, each column
    through the same QR, solve, matrix-vector and dot kernels as a vector
    input, so column j equals the fit of that column alone bit for bit. A
    rank-deficient column raises SingularDesignError carrying its index.
    """
    y = np.asarray(outcome, dtype=float)
    b = np.asarray(baseline, dtype=float)
    g = np.asarray(arm, dtype=float)
    if y.ndim not in (1, 2) or b.shape != y.shape:
        raise ValidationError(
            f"outcome and baseline must be matching vectors or (n, m) blocks, "
            f"got shapes {y.shape} and {b.shape}"
        )
    n = y.shape[0]
    if g.shape != (n,):
        raise ValidationError(f"length mismatch: outcome {n}, arm {g.shape}")
    if n < 4:
        raise ValidationError(f"ANCOVA needs at least 4 subjects, got {n}")
    treated = g == 1.0
    if not np.all(treated | (g == 0.0)):
        raise ValidationError("arm must be coded 0 (control) / 1 (treatment)")
    if treated.all() or not treated.any():
        raise ValidationError("both arms must be present")

    # one contiguous row per column: BLAS then sees every column as it sees a
    # contiguous vector input, whatever the caller's layout
    Y = np.ascontiguousarray(y.reshape(n, -1).T)
    m = Y.shape[0]
    X = ancova_design(b, g)
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    singular = np.any(diag < 1e-10 * np.maximum(diag.max(axis=1), 1.0)[:, None], axis=1)
    if singular.any():
        raise SingularDesignError(
            "ANCOVA design matrix is rank deficient (constant baseline?)",
            column=int(np.argmax(singular)),
        )
    # one gufunc call solves R coef = Q'y and, for (X'X)^-1 = R^-1 R^-T (only
    # its treatment diagonal entry is needed), R' r = e_treat; each 3x3
    # system is still its own LAPACK gesv
    rhs = np.zeros((2 * m, 3, 1))
    rhs[:m] = Q.transpose(0, 2, 1) @ Y[:, :, None]
    rhs[m:, 2] = 1.0
    sol = np.linalg.solve(np.concatenate([R, R.transpose(0, 2, 1)]), rhs)
    coef, rinv_row = sol[:m], sol[m:]
    resid = Y - (X @ coef)[:, :, 0]
    rss = (resid[:, None, :] @ resid[:, :, None]).ravel().tolist()
    yy = (Y[:, None, :] @ Y[:, :, None]).ravel().tolist()
    var_unit = (rinv_row.transpose(0, 2, 1) @ rinv_row).ravel().tolist()
    df = n - 3
    fits = []
    for j, (c0, c1, coef_t) in enumerate(coef[:, :, 0].tolist()):
        scale = 1.0 + yy[j]
        if rss[j] <= 1e-20 * scale:
            # perfect fit: zero residuals force se = 0; a (numerically) zero
            # coefficient is then an exact null result, a nonzero one is
            # infinitely significant
            se = 0.0
            t = 0.0 if abs(coef_t) <= 1e-8 * math.sqrt(scale) else math.copysign(math.inf, coef_t)
        else:
            se = math.sqrt(rss[j] / df * var_unit[j])
            t = coef_t / se
        if math.isinf(t):
            p = 0.0 if t < 0 else 1.0
        else:
            p = student_t_cdf(t, df)
        fits.append(AncovaFit(
            coef_treatment=coef_t,
            se=se,
            t_value=t,
            df=float(df),
            p_one_sided=p,
            residuals=resid[j],
            coef_intercept=c0,
            coef_baseline=c1,
        ))
    return fits[0] if y.ndim == 1 else fits
