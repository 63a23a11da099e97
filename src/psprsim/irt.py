"""Graded-response IRT machinery.

Category probabilities, EAP latent-trait scoring under a standard-normal
prior (fixed-node Gauss-Hermite), marginal maximum likelihood via EM with
damped-Newton per-item updates, and the linear weighted-sum approximation
of the latent trait.

Identifiability: the latent prior is fixed at N(0,1) and discriminations are
kept positive, so higher theta always means higher (worse) item scores.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import special

from .errors import NonConvergenceError, ValidationError
from .scales import ITEM_COLUMNS, N_ITEMS, ItemDataset

log = logging.getLogger(__name__)

DEFAULT_NODES = 101
MODEL_FORMAT_VERSION = 1


@lru_cache(maxsize=8)
def _gauss_hermite(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating against a standard normal density."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    x, w = x * np.sqrt(2.0), w / np.sqrt(np.pi)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class GrItemParams:
    """Discrimination and ordered thresholds of one graded-response item."""

    discrimination: float
    thresholds: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        if not self.discrimination > 0:
            raise ValidationError(f"discrimination must be > 0, got {self.discrimination}")
        if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
            raise ValidationError(f"thresholds must be strictly increasing, got {t}")
        object.__setattr__(self, "thresholds", t)

    @property
    def n_categories(self) -> int:
        return self.thresholds.size + 1


@dataclass
class LatentTrait:
    """Disease severity on the latent scale; higher = more severe."""

    theta: float


def grm_category_probs(item: GrItemParams, theta: float) -> np.ndarray:
    """P(Y = c | theta) for c = 0..C-1; sums to 1.

    P(Y >= c) = sigmoid(a * (theta - b_c)) with the boundary conventions
    P(Y >= 0) = 1 and P(Y >= C) = 0.
    """
    sf = special.expit(item.discrimination * (theta - item.thresholds))
    upper = np.concatenate(([1.0], sf))
    lower = np.concatenate((sf, [0.0]))
    return upper - lower


def grm_survival_grid(item: GrItemParams, thetas: np.ndarray) -> np.ndarray:
    """P(Y >= c) for c = 1..C-1 at each theta; shape (len(thetas), C-1)."""
    return special.expit(item.discrimination * (thetas[:, None] - item.thresholds))


@dataclass
class GrModel:
    """A bank of graded-response items with a fixed N(0,1) latent prior."""

    items: list[GrItemParams]
    scheme: str = "original"
    category_maps: list[np.ndarray] | None = None  # raw level -> fitted category
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.category_maps is None:
            self.category_maps = [np.arange(it.n_categories) for it in self.items]
        self._table_cache: dict[int, list[np.ndarray]] = {}

    @property
    def n_items(self) -> int:
        return len(self.items)

    def map_responses(self, responses: np.ndarray) -> np.ndarray:
        """Validate raw responses against the scheme ranges and recode them."""
        y = np.asarray(responses, dtype=np.int64)
        squeeze = y.ndim == 1
        y = np.atleast_2d(y)
        if y.shape[1] != self.n_items:
            raise ValidationError(
                f"expected {self.n_items} item responses per row, got {y.shape[1]}"
            )
        out = np.empty_like(y)
        for k, cmap in enumerate(self.category_maps):
            col = y[:, k]
            bad = (col < 0) | (col >= cmap.size)
            if np.any(bad):
                v = int(col[np.argmax(bad)])
                raise ValidationError(
                    f"response {v} out of range 0..{cmap.size - 1} for item "
                    f"{ITEM_COLUMNS[k] if self.n_items == N_ITEMS else k}"
                )
            out[:, k] = cmap[col]
        return out[0] if squeeze else out

    def log_prob_tables(self, thetas: np.ndarray) -> list[np.ndarray]:
        """Per-item log P(Y = c | theta) tables, shape (len(thetas), C_k)."""
        tables = []
        for it in self.items:
            sf = grm_survival_grid(it, thetas)
            upper = np.concatenate([np.ones((thetas.size, 1)), sf], axis=1)
            lower = np.concatenate([sf, np.zeros((thetas.size, 1))], axis=1)
            tables.append(np.log(np.clip(upper - lower, 1e-300, None)))
        return tables

    # -- serialization (JSON; floats round-trip bit-exactly via repr) --

    def to_doc(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "scheme": self.scheme,
            "items": [
                {
                    "name": ITEM_COLUMNS[k] if self.n_items == N_ITEMS else f"item{k}",
                    "discrimination": it.discrimination,
                    "thresholds": it.thresholds.tolist(),
                    "category_map": self.category_maps[k].tolist(),
                }
                for k, it in enumerate(self.items)
            ],
            "fit_meta": self.fit_meta,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2), encoding="utf-8")

    @classmethod
    def from_doc(cls, doc: dict) -> "GrModel":
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported model format version {doc.get('format_version')}"
            )
        items = [
            GrItemParams(d["discrimination"], np.array(d["thresholds"], dtype=float))
            for d in doc["items"]
        ]
        maps = [np.array(d["category_map"], dtype=np.int64) for d in doc["items"]]
        return cls(items=items, scheme=doc["scheme"], category_maps=maps,
                   fit_meta=doc.get("fit_meta", {}))

    @classmethod
    def load(cls, path: str | Path) -> "GrModel":
        return cls.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def _row_loglik(tables: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """Sum of per-item log-probs; shape (n_nodes, n_rows)."""
    n_nodes = tables[0].shape[0]
    ll = np.zeros((n_nodes, y.shape[0]))
    for k, tab in enumerate(tables):
        ll += tab[:, y[:, k]]
    return ll


def eap_scores(model: GrModel, responses: np.ndarray, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Posterior means of theta for each response row (vectorized).

    ``responses`` is one (rows, items) block, or a (k, rows, items) stack of
    blocks scored in one pass into a (k, rows) result. Each block's scores
    equal scoring that block alone, bit for bit: only the final weighted sum
    runs per block, as the same product over a contiguous block.
    """
    r = np.atleast_2d(np.asarray(responses, dtype=np.int64))
    if r.ndim > 3:
        raise ValidationError(f"responses must be rows or a stack of row blocks, got {r.shape}")
    k, rows = (1, r.shape[0]) if r.ndim == 2 else r.shape[:2]
    y = model.map_responses(r.reshape(-1, r.shape[-1]))
    thetas, weights = _gauss_hermite(n_nodes)
    tables = model._table_cache.get(n_nodes)
    if tables is None:
        tables = model.log_prob_tables(thetas)
        model._table_cache[n_nodes] = tables
    ll = _row_loglik(tables, y)
    ll -= ll.max(axis=0, keepdims=True)
    post = weights[:, None] * np.exp(ll)
    blocks = post.reshape(n_nodes, k, rows)
    num = np.stack([thetas @ np.ascontiguousarray(blocks[:, j]) for j in range(k)])
    return (num / post.sum(axis=0).reshape(k, rows)).reshape(r.shape[:-1])


def eap_score(model: GrModel, responses, n_nodes: int = DEFAULT_NODES) -> LatentTrait:
    """EAP estimate for a single response pattern."""
    y = np.asarray(responses, dtype=np.int64)
    if y.ndim != 1:
        raise ValidationError("eap_score expects a single response vector")
    return LatentTrait(theta=float(eap_scores(model, y[None, :], n_nodes)[0]))


# ---------------------------------------------------------------------------
# marginal maximum likelihood (Bock-Aitkin EM)
# ---------------------------------------------------------------------------


def _item_objective_grad(phi: np.ndarray, theta: np.ndarray, counts: np.ndarray):
    """Expected complete-data log-likelihood and gradient for one item.

    phi packs (log a, b_1, log step_2, ..., log step_{C-1}) so the Newton
    update moves in an unconstrained space.
    """
    a = np.exp(phi[0])
    steps = np.exp(phi[2:])
    b = np.concatenate(([phi[1]], phi[1] + np.cumsum(steps)))
    C = b.size + 1
    sf = special.expit(a * (theta[:, None] - b))  # (Q, C-1)
    upper = np.concatenate([np.ones((theta.size, 1)), sf], axis=1)
    lower = np.concatenate([sf, np.zeros((theta.size, 1))], axis=1)
    p = np.clip(upper - lower, 1e-300, None)
    f = float((counts * np.log(p)).sum())

    ratio = np.where(counts > 0, counts / p, 0.0)  # (Q, C)
    dsf = sf * (1.0 - sf)
    # d f / d sf_c  for c = 1..C-1: sf_c enters p_{c-1} with -1 and p_c with +1
    coef = ratio[:, 1:] - ratio[:, :-1]
    grad_b = (coef * dsf).sum(axis=0) * (-a)
    grad_a = float((coef * dsf * (theta[:, None] - b)).sum())

    # chain rule into phi space
    g = np.empty_like(phi)
    g[0] = grad_a * a
    g[1] = grad_b.sum()
    if C > 2:
        # b_j depends on step_i for i <= j; d b_j / d log step_i = step_i
        tail = np.cumsum(grad_b[::-1])[::-1]
        g[2:] = tail[1:] * steps
    return f, g


def _item_newton(phi: np.ndarray, theta: np.ndarray, counts: np.ndarray,
                 max_iter: int = 40, gtol: float = 1e-9) -> np.ndarray:
    """Damped Newton ascent; never decreases the objective."""
    f, g = _item_objective_grad(phi, theta, counts)
    for _ in range(max_iter):
        if np.abs(g).max() < gtol:
            break
        h = 1e-6
        H = np.empty((phi.size, phi.size))
        for i in range(phi.size):
            e = np.zeros_like(phi)
            e[i] = h
            _, gp = _item_objective_grad(phi + e, theta, counts)
            H[:, i] = (gp - g) / h
        H = (H + H.T) / 2.0
        def clip(s):
            n = np.abs(s).max()
            return s * (4.0 / n) if n > 4.0 else s  # trust region, unconstrained scale

        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g.copy()
        if not np.all(np.isfinite(step)):  # near-singular Hessian
            step = g.copy()
        step = clip(step)
        if step @ g <= 0:  # not an ascent direction; fall back to gradient
            step = clip(g.copy())
        scale = 1.0
        improved = False
        for _ in range(30):
            f_new, g_new = _item_objective_grad(phi + scale * step, theta, counts)
            if f_new >= f:
                phi = phi + scale * step
                f, g = f_new, g_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return phi


def _merge_unobserved(y: np.ndarray, n_categories: int, label: str):
    """Recode a response column so every fitted category is observed."""
    observed = np.isin(np.arange(n_categories), y)
    cmap = np.cumsum(observed) - 1
    cmap = np.clip(cmap, 0, None)  # leading unobserved levels fold into 0
    merged = int(n_categories - observed.sum())
    if merged:
        log.warning("item %s: %d unobserved categories merged for fitting", label, merged)
    return cmap[y], cmap, merged


def fit_grm(
    pooled: ItemDataset | np.ndarray,
    n_nodes: int = DEFAULT_NODES,
    tol: float = 1e-7,
    max_iter: int = 500,
    category_counts: np.ndarray | None = None,
) -> GrModel:
    """Marginal maximum-likelihood fit of a graded-response model.

    Accepts a visit-flattened ItemDataset (each visit one row) or a raw
    integer response matrix. The EM loop asserts a nondecreasing marginal
    log-likelihood every iteration and converges on a relative change < tol.
    """
    if n_nodes < 2:
        # one node puts every theta at 0, where no discrimination is identified
        raise ValidationError(f"need n_nodes >= 2 quadrature nodes, got {n_nodes}")
    if isinstance(pooled, ItemDataset):
        y_raw = pooled.flatten_visits()
        counts_per_item = pooled.scheme.category_counts
        scheme = pooled.scheme.name
        labels = ITEM_COLUMNS
    else:
        y_raw = np.asarray(pooled, dtype=np.int64)
        if category_counts is not None:
            counts_per_item = np.asarray(category_counts, dtype=np.int64)
        else:
            counts_per_item = y_raw.max(axis=0) + 1
        scheme = "original"
        labels = [f"item{k}" for k in range(y_raw.shape[1])]
    n_rows, n_items = y_raw.shape
    if n_rows < 200:
        log.warning("fit_grm on %d rows; >= 200 recommended", n_rows)

    y = np.empty_like(y_raw)
    cmaps: list[np.ndarray] = []
    merged_items: list[str] = []
    fitted_cats = np.empty(n_items, dtype=np.int64)
    for k in range(n_items):
        col, cmap, merged = _merge_unobserved(y_raw[:, k], int(counts_per_item[k]), labels[k])
        y[:, k] = col
        cmaps.append(cmap)
        fitted_cats[k] = cmap[-1] + 1
        if merged:
            merged_items.append(labels[k])
        if fitted_cats[k] < 2:
            raise ValidationError(f"item {labels[k]} is constant; cannot fit")

    thetas, weights = _gauss_hermite(n_nodes)
    log_w = np.log(weights)

    # initialize from overall exceedance proportions
    phis: list[np.ndarray] = []
    for k in range(n_items):
        C = int(fitted_cats[k])
        freq = np.bincount(y[:, k], minlength=C) / n_rows
        p_ge = 1.0 - np.cumsum(freq)[:-1]
        p_ge = np.clip(p_ge, 0.5 / n_rows, 1.0 - 0.5 / n_rows)
        b0 = -1.7 * special.ndtri(p_ge)
        b0 = np.maximum.accumulate(b0 + 1e-6 * np.arange(C - 1))
        phi = np.empty(C)
        phi[0] = 0.0  # a = 1
        phi[1] = b0[0]
        if C > 2:
            phi[2:] = np.log(np.maximum(np.diff(b0), 1e-3))
        phis.append(phi)

    onehots = [
        (y[:, k][:, None] == np.arange(fitted_cats[k])[None, :]).astype(float)
        for k in range(n_items)
    ]

    def unpack(phi: np.ndarray) -> GrItemParams:
        a = float(np.exp(phi[0]))
        b = np.concatenate(([phi[1]], phi[1] + np.cumsum(np.exp(phi[2:]))))
        return GrItemParams(a, b)

    trace: list[float] = []
    ll_old = -np.inf
    for iteration in range(max_iter):
        items = [unpack(phi) for phi in phis]
        model = GrModel(items=items, scheme=scheme,
                        category_maps=[np.arange(c) for c in fitted_cats])
        ll_rows = _row_loglik(model.log_prob_tables(thetas), y) + log_w[:, None]
        top = ll_rows.max(axis=0)
        post = np.exp(ll_rows - top)
        norm = post.sum(axis=0)
        ll = float((np.log(norm) + top).sum())
        trace.append(ll)
        if ll < ll_old - 1e-8 * (abs(ll_old) + 1.0):
            raise NonConvergenceError(
                f"EM log-likelihood decreased at iteration {iteration}: {ll_old} -> {ll}",
                trace,
            )
        if iteration > 0 and (ll - ll_old) < tol * (abs(ll_old) + 1.0):
            break
        ll_old = ll
        post /= norm
        for k in range(n_items):
            counts = post @ onehots[k]  # (Q, C_k)
            phis[k] = _item_newton(phis[k], thetas, counts)
    else:
        raise NonConvergenceError(
            f"EM did not converge in {max_iter} iterations", trace
        )

    items = [unpack(phi) for phi in phis]
    return GrModel(
        items=items,
        scheme=scheme,
        category_maps=cmaps,
        fit_meta={
            "log_likelihood": trace[-1],
            "iterations": len(trace),
            "n_rows": int(n_rows),
            "n_nodes": int(n_nodes),
            "tol": tol,
            "merged_items": merged_items,
        },
    )


# ---------------------------------------------------------------------------
# linear weighted-sum approximation of the latent trait
# ---------------------------------------------------------------------------

CLAMP_EPS = 1e-6


@dataclass
class LinearLatentApprox:
    """Weighted-sum surrogate for the latent trait.

    The fit regresses the logistic-transformed trait g(theta) = 1/(1+e^-theta)
    on the raw item scores; scoring back-transforms with the logit. The raw
    weights drive estimation; normalized_weights (dividing by the weight sum)
    is the reporting view.
    """

    intercept: float
    weights: np.ndarray
    r_squared: float
    scheme: str = "original"

    @property
    def normalized_weights(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def to_doc(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "scheme": self.scheme,
            "intercept": self.intercept,
            "weights": self.weights.tolist(),
            "r_squared": self.r_squared,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2), encoding="utf-8")

    @classmethod
    def from_doc(cls, doc: dict) -> "LinearLatentApprox":
        return cls(
            intercept=float(doc["intercept"]),
            weights=np.array(doc["weights"], dtype=float),
            r_squared=float(doc["r_squared"]),
            scheme=doc["scheme"],
        )

    @classmethod
    def load(cls, path: str | Path) -> "LinearLatentApprox":
        return cls.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def fit_linear_latent_approx(
    data: ItemDataset | np.ndarray, thetas: np.ndarray
) -> LinearLatentApprox:
    """Least-squares fit of g(theta) on the raw item scores plus intercept."""
    if isinstance(data, ItemDataset):
        rows = data.flatten_visits().astype(float)
        scheme = data.scheme.name
    else:
        rows = np.asarray(data, dtype=float)
        scheme = "original"
    t = np.asarray(thetas, dtype=float)
    if t.shape[0] != rows.shape[0]:
        raise ValidationError(
            f"{t.shape[0]} trait values for {rows.shape[0]} response rows"
        )
    target = special.expit(t)
    X = np.column_stack([np.ones(rows.shape[0]), rows])
    coef, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
    if rank < X.shape[1]:
        raise ValidationError("rank-deficient item matrix in linear approximation fit")
    fitted = X @ coef
    ss_res = float(((target - fitted) ** 2).sum())
    ss_tot = float(((target - target.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearLatentApprox(
        intercept=float(coef[0]), weights=coef[1:], r_squared=r2, scheme=scheme
    )


def approx_latent(approx: LinearLatentApprox, responses: np.ndarray):
    """Back-transformed weighted sum; clamps into (0,1) before the logit."""
    y = np.asarray(responses, dtype=float)
    u = approx.intercept + y @ approx.weights
    u = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    out = special.logit(u)
    return float(out) if np.isscalar(u) or u.ndim == 0 else out
