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
    """Results of the outcome ~ 1 + baseline + treatment least-squares fits of
    m columns sharing one arm, as arrays over the columns.

    One-sided convention: treatment coded 1, control 0, lower scores are
    beneficial, so negative t means benefit and p = F_t(t, df).

    A column whose design is rank deficient is marked in ``singular`` and
    holds NaN in every other field; ``rows`` refuses to hand it out.
    """

    coef: np.ndarray  # (m, 3): intercept, baseline, treatment
    se: np.ndarray  # (m,) standard error of the treatment coefficient
    t: np.ndarray  # (m,)
    p: np.ndarray  # (m,) one-sided
    df: float
    residuals: np.ndarray = field(repr=False)  # (m, n)
    singular: np.ndarray = field(repr=False)  # (m,) bool

    def rows(self, index: slice) -> "AncovaFit":
        """The fits of the rows ``index`` selects, as a block of their own.

        Raises SingularDesignError carrying the block index of the first
        singular row selected.
        """
        bad = np.flatnonzero(self.singular[index])
        if bad.size:
            raise SingularDesignError(
                "ANCOVA design matrix is rank deficient (constant baseline?)",
                column=range(self.singular.size)[index][bad[0]],
            )
        return AncovaFit(coef=self.coef[index], se=self.se[index], t=self.t[index],
                         p=self.p[index], df=self.df, residuals=self.residuals[index],
                         singular=self.singular[index])


def ancova_design(baseline: np.ndarray, arm: np.ndarray) -> np.ndarray:
    """Stacked (m, n, 3) designs [intercept, baseline, treatment], one per
    column of the (n, m) baseline block."""
    n = baseline.shape[0]
    X = np.empty((baseline.size // n, n, 3))
    X[:, :, 0] = 1.0
    X[:, :, 1] = baseline.reshape(n, -1).T
    X[:, :, 2] = arm
    return X


def fit_ancova(outcome, baseline, arm) -> AncovaFit:
    """ANCOVA of outcome on baseline and a binary treatment indicator.

    Least squares via QR for conditioning. The treatment coefficient's t test
    (df = n - 3) gives the one-sided p-value under the benefit-negative
    convention.

    ``outcome`` and ``baseline`` are (n, m) column blocks sharing ``arm``; a
    length-n vector is the m = 1 block. A block runs as stacked LAPACK/BLAS
    calls on an (m, n, 3) design, each column through the same QR, solve,
    matrix-vector and dot kernels as a vector input, so column j equals the
    fit of that column alone bit for bit. A rank-deficient column does not
    fail the block: it is marked in ``singular``, its fields are NaN, and
    ``AncovaFit.rows`` raises SingularDesignError when it is read.
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
        R[singular] = np.eye(3)  # keeps the stacked solve regular; NaN replaces these rows below
    # one gufunc call solves R coef = Q'y and, for (X'X)^-1 = R^-1 R^-T (only
    # its treatment diagonal entry is needed), R' r = e_treat; each 3x3
    # system is still its own LAPACK gesv
    rhs = np.zeros((2 * m, 3, 1))
    rhs[:m] = Q.transpose(0, 2, 1) @ Y[:, :, None]
    rhs[m:, 2] = 1.0
    sol = np.linalg.solve(np.concatenate([R, R.transpose(0, 2, 1)]), rhs)
    coef, rinv_row = sol[:m], sol[m:]
    resid = Y - (X @ coef)[:, :, 0]
    rss = (resid[:, None, :] @ resid[:, :, None]).ravel()
    scale = 1.0 + (Y[:, None, :] @ Y[:, :, None]).ravel()
    var_unit = (rinv_row.transpose(0, 2, 1) @ rinv_row).ravel()
    df = n - 3
    coef_t = coef[:, 2, 0]
    # perfect fit: zero residuals force se = 0; a (numerically) zero
    # coefficient is then an exact null result (t = 0, p = 1/2), a nonzero
    # one is infinitely significant (t = +-inf, which stdtr maps to p = 1, 0)
    perfect = rss <= 1e-20 * scale
    se = np.sqrt(rss / df * var_unit)
    se[perfect] = 0.0
    t = np.divide(coef_t, se, out=np.copysign(np.inf, coef_t), where=~perfect)
    t[perfect & (np.abs(coef_t) <= 1e-8 * np.sqrt(scale))] = 0.0
    fit = AncovaFit(coef=coef[:, :, 0], se=se, t=t, p=special.stdtr(df, t), df=float(df),
                    residuals=resid, singular=singular)
    if singular.any():
        for a in (fit.coef, fit.se, fit.t, fit.p, fit.residuals):
            a[singular] = np.nan
    return fit
