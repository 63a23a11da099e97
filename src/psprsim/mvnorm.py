"""Multivariate normal sampling and upper-rectangle probabilities.

The rectangle integrator follows the classic sequential-conditioning scheme:
Cholesky-factor the correlation after sorting variables by increasing
marginal probability, then integrate the conditional product over a
randomized quasi-Monte-Carlo rule (Sobol base points, Cranley-Patterson
shifts, tent folding). The randomization shifts come from the caller's
RngStream, so results are deterministic by seed, and the spread across
shifts gives the reported error estimate. The base points are the
unscrambled Sobol net of Joe & Kuo's (2008) direction numbers, built here
from their table; they equal scipy.stats.qmc.Sobol(scramble=False) point
for point, without importing scipy.stats.

The union of the upper tails {Z_i > h} also has exact second-order bounds,
the Dawson-Sankoff lower and the Hunter-Worsley upper bound. Both need only
the pair probabilities, which have a closed form in Owen's T function.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import FactorizationError, ValidationError
from .numkit import RngStream, cholesky

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR = 1e-10
SOBOL_BITS = 30
# Joe & Kuo (2008), new-joe-kuo-6.21201, dimensions 2-19 (dimension 1 is van
# der Corput): the primitive polynomial as bits, its leading and constant
# terms included, and the initial odd integers m_1..m_s, s its degree
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
)


@lru_cache(maxsize=64)
def _sobol_base(dim: int, log2_n: int) -> np.ndarray:
    """The first 2^log2_n points of the unscrambled Sobol sequence in
    [0, 1)^dim, in Gray-code order, cached per (dim, log2_n) and read-only.

    Row d of V holds dimension d's SOBOL_BITS direction integers m_j, from
    the Bratley-Fox recurrence m_j = m_{j-s} ^ 2^s m_{j-s} ^ (2^i a_i m_{j-i}
    for i < s), a_i the polynomial's interior coefficients, each shifted to
    the left of the word. Point 2^b + j is V_b XOR point 2^b - 1 - j, the
    reflection of the Gray code.
    """
    if not 1 <= dim <= len(_JOE_KUO) + 1:
        raise ValidationError(f"Sobol points support dimensions 1-{len(_JOE_KUO) + 1}, got {dim}")
    V = np.empty((dim, SOBOL_BITS), dtype=np.uint32)
    V[0] = 1 << np.arange(SOBOL_BITS - 1, -1, -1)
    for d, (poly, init) in enumerate(_JOE_KUO[: dim - 1], start=1):
        s = len(init)
        m = list(init)
        for j in range(s, SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for i in range(1, s):
                if (poly >> (s - i)) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        V[d] = [mj << (SOBOL_BITS - 1 - j) for j, mj in enumerate(m)]
    X = np.zeros((1 << log2_n, dim), dtype=np.uint32)
    for b in range(log2_n):
        h = 1 << b
        np.bitwise_xor(V[:, b], X[h - 1::-1], out=X[h : 2 * h])
    pts = X * 2.0**-SOBOL_BITS
    pts.flags.writeable = False
    return pts


def psd_factor(S: np.ndarray) -> np.ndarray:
    """Factor a symmetric PSD matrix, falling back to eigh for singular S."""
    try:
        return cholesky(S)
    except FactorizationError:
        w, V = np.linalg.eigh(np.asarray(S, dtype=float))
        if w.min() < -1e-8 * max(1.0, w.max(initial=1.0)):
            raise
        return V * np.sqrt(np.clip(w, 0.0, None))


def sample_mvn(mean: np.ndarray, factor: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """Draw n i.i.d. rows from N(mean, factor @ factor.T)."""
    if n < 1:
        raise ValidationError(f"need n >= 1 draws, got {n}")
    z = rng.gen.standard_normal((n, factor.shape[0]))
    return mean + z @ factor.T


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


def validate_correlation(R: np.ndarray) -> np.ndarray:
    """Check that R is a symmetric unit-diagonal k x k matrix, k <= 20, and
    return it repaired by repair_correlation."""
    R = np.asarray(R, dtype=float)
    k = R.shape[0]
    if R.shape != (k, k):
        raise ValidationError(f"correlation must be square, got shape {R.shape}")
    if k > 20:
        raise ValidationError(f"rectangle probabilities support k <= 20, got {k}")
    if not np.isfinite(R).all():
        raise ValidationError("correlation matrix has a non-finite entry")
    # np.allclose's rule (rtol 1e-5) for finite matrices, without its overhead
    if not (np.abs(R - R.T) <= 1e-10 + 1e-5 * np.abs(R.T)).all():
        raise ValidationError("correlation matrix not symmetric")
    if not (np.abs(np.diag(R) - 1.0) <= 1e-8 + 1e-5).all():
        raise ValidationError("correlation matrix must have unit diagonal")
    return repair_correlation(R)


def check_tol(tol: float, name: str = "tol") -> None:
    if not 0.0 < tol <= 0.01:
        raise ValidationError(f"{name} must lie in (0, 0.01], got {tol}")


def mvn_rect_upper(
    upper,
    corr,
    tol: float = 1e-4,
    *,
    rng: RngStream,
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
    R = validate_correlation(corr)
    k = b.shape[0]
    if R.shape[0] != k:
        raise ValidationError(f"upper has length {k} but corr is {R.shape[0]}x{R.shape[0]}")
    if np.isnan(b).any():  # +-inf are limits; NaN would run to the point cap
        j = int(np.argmax(np.isnan(b)))
        raise ValidationError(f"upper limit {j} is NaN")
    if k == 1:
        return float(special.ndtr(b[0])), 0.0

    # sort variables by increasing marginal probability so the hardest
    # constraints are integrated first
    order = np.argsort(special.ndtr(b), kind="stable")
    b = b[order]
    R = R[np.ix_(order, order)]
    # R has eigenvalues >= EIGENVALUE_FLOOR and k <= 20, so the Cholesky
    # pivots stay positive; a failure is a FactorizationError to the caller
    L = cholesky(R)

    n_shifts = 10
    log2_n = 8
    tiny = 1e-15
    e1 = float(special.ndtr(b[0] / L[0, 0]))
    while True:
        n_points = 1 << log2_n
        base = _sobol_base(k - 1, log2_n)
        shifts = rng.gen.random((n_shifts, k - 1))
        # tent-folded shifted points in (0,1)^(k-1), all shifts at once; the
        # sum lies in [0, 2), where subtracting 1 is exact (Sterbenz)
        u = base[None, :, :] + shifts[:, None, :]
        u -= u >= 1.0
        u *= 2.0
        u -= 1.0
        np.abs(u, out=u)
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


# ---------------------------------------------------------------------------
# second-order bounds on P(Z_i > h for some i)
# ---------------------------------------------------------------------------


def bivariate_upper_orthant(h: float, r) -> np.ndarray:
    """P(Z_1 > h, Z_2 > h) for standard normals of correlation r, vectorized
    over r.

    Owen's (1956) closed form Phi(-h) - 2 T(h, sqrt((1 - r) / (1 + r))),
    with T Owen's T function. r = 1 gives Phi(-h) (T(h, 0) = 0) and r = -1
    gives max(0, Phi(-h) - Phi(h)), both exactly. r is first clipped to
    [-1, 1], which rounding in a correlation estimate can leave.
    """
    r = np.minimum(np.maximum(np.asarray(r, dtype=float), -1.0), 1.0)
    tail = float(special.ndtr(-h))
    with np.errstate(divide="ignore"):
        slope = np.sqrt((1.0 - r) / (1.0 + r))  # r = -1 gives inf
    p = np.where(r == -1.0, max(0.0, tail - float(special.ndtr(h))),
                 tail - 2.0 * special.owens_t(h, slope))
    return np.maximum(p, 0.0)  # T >= 0 keeps p <= Phi(-h)


def dawson_sankoff_lower(s1: float, s2: float) -> float:
    """Dawson & Sankoff's (1967) lower bound on the probability of a union
    from S1 > 0 (the sum of the events' probabilities) and S2 (the sum over
    pairs of their intersections): 2 S1/(k+1) - 2 S2/(k(k+1)) with
    k = 1 + floor(2 S2 / S1), which any integer k >= 1 keeps valid."""
    k = 1.0 + math.floor(2.0 * s2 / s1)
    return 2.0 * s1 / (k + 1.0) - 2.0 * s2 / (k * (k + 1.0))


def max_spanning_tree_weight(W: np.ndarray) -> float:
    """Total weight of a maximum spanning tree of the complete graph on the
    rows of the symmetric weight matrix W (Prim's algorithm, one vectorized
    update per added vertex; the diagonal is ignored).

    S1 minus this weight of the pair intersections is the Hunter (1976) /
    Worsley (1982) upper bound on a union, the tightest over trees.
    """
    W = np.array(W, dtype=float)  # a copy: the tree's columns become -inf
    n = W.shape[0]
    W[:, 0] = -np.inf
    best = W[0].copy()  # the heaviest edge from the tree to each vertex
    total = 0.0
    for _ in range(n - 1):
        j = best.argmax()
        total += best[j]
        W[:, j] = -np.inf
        best[j] = -np.inf
        np.maximum(best, W[j], out=best)
    return float(total)
