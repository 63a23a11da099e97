"""Graded-response IRT machinery.

Category probabilities, EAP latent-trait scoring under a standard-normal
prior (fixed-node Gauss-Hermite), marginal maximum likelihood via EM with
damped-Newton item updates run in lockstep blocks, and the linear
weighted-sum approximation of the latent trait.

Identifiability: the latent prior is fixed at N(0,1) and discriminations are
kept positive, so higher theta always means higher (worse) item scores.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from scipy import special

from .errors import NonConvergenceError, ValidationError, read_json_object
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


def _item_names(n: int) -> list[str]:
    """The names of an n-item model's items: the scale's columns for the
    scale's item count, item0, item1, ... otherwise."""
    return list(ITEM_COLUMNS) if n == N_ITEMS else [f"item{k}" for k in range(n)]


def _check_levels(y: np.ndarray, levels: np.ndarray, labels) -> None:
    """Reject a response outside 0..levels[k] - 1 in column k of y, naming
    the first such column by labels[k] and its first bad value."""
    bad = (y < 0) | (y >= levels)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        v = int(y[np.argmax(bad[:, k]), k])
        raise ValidationError(
            f"response {v} out of range 0..{levels[k] - 1} for item {labels[k]}"
        )


def _check_format_version(doc: dict, what: str, source: str) -> None:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported {what} format version {doc.get('format_version')} in {source}"
        )


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


def _category_probs(sf: np.ndarray) -> np.ndarray:
    """P(Y = c) from P(Y >= c), c = 1..C-1, on the last axis; floored at 1e-300."""
    edge = sf.shape[:-1] + (1,)
    upper = np.concatenate([np.ones(edge), sf], axis=-1)
    lower = np.concatenate([sf, np.zeros(edge)], axis=-1)
    return np.clip(upper - lower, 1e-300, None)


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
        # one padded table of the items: thresholds past an item's last are
        # +inf (survival 0), map entries past its last level are never read
        n_cats = np.array([it.n_categories for it in self.items])
        self._levels = np.array([m.size for m in self.category_maps])
        self._a = np.array([it.discrimination for it in self.items])
        self._B = np.full((self.n_items, n_cats.max() - 1), np.inf)
        self._maps = np.zeros((self.n_items, self._levels.max()), dtype=np.int64)
        for k, (it, cmap) in enumerate(zip(self.items, self.category_maps)):
            self._B[k, :it.thresholds.size] = it.thresholds
            self._maps[k, :cmap.size] = cmap
        if np.any((self._maps < 0) | (self._maps >= n_cats[:, None])):
            raise ValidationError("category maps must map into each item's categories")

    @property
    def n_items(self) -> int:
        return len(self.items)

    def survival(self, thetas: np.ndarray) -> np.ndarray:
        """P(Y >= c) for c = 1..C_max-1; shape (len(thetas), items, C_max-1),
        0 past an item's last category."""
        return special.expit(self._a[:, None] * (thetas[:, None, None] - self._B))

    def map_responses(self, responses: np.ndarray) -> np.ndarray:
        """Validate raw responses against the scheme ranges and recode them."""
        y = np.asarray(responses, dtype=np.int64)
        squeeze = y.ndim == 1
        y = np.atleast_2d(y)
        if y.shape[1] != self.n_items:
            raise ValidationError(
                f"expected {self.n_items} item responses per row, got {y.shape[1]}"
            )
        _check_levels(y, self._levels,
                      ITEM_COLUMNS if self.n_items == N_ITEMS else range(self.n_items))
        # one take from the flattened maps: row k starts at k * max levels
        out = self._maps.take(y + self._maps.shape[1] * np.arange(self.n_items))
        return out[0] if squeeze else out

    def log_prob_tables(self, thetas: np.ndarray) -> np.ndarray:
        """log P(Y = c | theta), shape (items, len(thetas), C_max); an item's
        categories past its last are never read."""
        return np.log(_category_probs(self.survival(thetas).transpose(1, 0, 2)))

    @cached_property
    def _eap_tables_t(self) -> np.ndarray:
        """log_prob_tables at the EAP nodes as (items, C_max, nodes), the
        layout _row_loglik gathers."""
        return _transposed(self.log_prob_tables(_gauss_hermite(DEFAULT_NODES)[0]))

    @cached_property
    def _eap_prefix(self) -> np.ndarray:
        """_prefix_table of the EAP tables, built once per model."""
        return _prefix_table(self._eap_tables_t)

    # -- serialization (JSON; floats round-trip bit-exactly via repr) --

    def to_doc(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "scheme": self.scheme,
            "items": [
                {
                    "name": name,
                    "discrimination": it.discrimination,
                    "thresholds": it.thresholds.tolist(),
                    "category_map": cmap.tolist(),
                }
                for name, it, cmap in zip(_item_names(self.n_items), self.items,
                                          self.category_maps)
            ],
            "fit_meta": self.fit_meta,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2), encoding="utf-8")

    @classmethod
    def from_doc(cls, doc: dict, source: str = "model document") -> "GrModel":
        _check_format_version(doc, "model", source)
        try:
            items = [
                GrItemParams(d["discrimination"], np.array(d["thresholds"], dtype=float))
                for d in doc["items"]
            ]
            maps = [np.array(d["category_map"], dtype=np.int64) for d in doc["items"]]
            names = [d["name"] for d in doc["items"]]
            model = cls(items=items, scheme=doc["scheme"], category_maps=maps,
                        fit_meta=doc.get("fit_meta", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad model file {source}: {exc!r}") from exc
        # the parameters are matched to response columns by position
        for k, (name, expected) in enumerate(zip(names, _item_names(len(names)))):
            if name != expected:
                raise ValidationError(f"model file {source}: item {k} is named {name!r}, "
                                      f"expected {expected!r} (items in scale order)")
        return model

    @classmethod
    def load(cls, path: str | Path) -> "GrModel":
        return cls.from_doc(read_json_object(path, "model"), source=str(path))


def _transposed(tables: np.ndarray) -> np.ndarray:
    """(items, nodes, C) log-probability tables as contiguous (items, C, nodes)."""
    return np.ascontiguousarray(tables.transpose(0, 2, 1))


PREFIX_ITEMS = 3  # items whose summed rows _prefix_table holds


def _prefix_table(tables_t: np.ndarray) -> np.ndarray:
    """The sums ((0 + T0[c0]) + T1[c1]) + T2[c2] of the first PREFIX_ITEMS
    items' table rows for every category combination, as (C^k, nodes)
    rows in row-major (c0, c1, c2) order: the sums _row_loglik's first k
    adds give, bit for bit."""
    acc = np.zeros((1, tables_t.shape[2]))
    for tab in tables_t[:PREFIX_ITEMS]:
        acc = (acc[:, None, :] + tab).reshape(-1, acc.shape[1])
    return acc


def _row_loglik(tables_t: np.ndarray, y: np.ndarray,
                prefix: np.ndarray | None = None) -> np.ndarray:
    """Sum of per-item log-probs; C-contiguous, shape (n_nodes, n_rows).

    Adds whole rows of each item's transposed (C, nodes) table item by item
    from zeros, the same adds as gathering node columns. The first
    PREFIX_ITEMS adds are one gather from ``prefix``, the _prefix_table of
    ``tables_t`` (built here when not given), which holds their sums. The
    result is returned C-contiguous: the callers' sums over nodes then take
    the same sequential path, where an F-ordered array would sum pairwise
    and change the last bits.
    """
    if prefix is None:
        prefix = _prefix_table(tables_t)
    cols = np.ascontiguousarray(y.T)
    k = min(PREFIX_ITEMS, len(cols))
    index = np.zeros(y.shape[0], dtype=np.intp)
    for col in cols[:k]:
        index *= tables_t.shape[1]
        index += col
    # the responses index their tables (map_responses checked them), so
    # mode="clip" changes nothing and lets take fill one reused buffer
    ll = prefix.take(index, axis=0, mode="clip")
    gathered = np.empty_like(ll)
    for tab, col in zip(tables_t[k:], cols[k:]):
        ll += tab.take(col, axis=0, out=gathered, mode="clip")
    return np.ascontiguousarray(ll.T)


def eap_scores(model: GrModel, responses: np.ndarray) -> np.ndarray:
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
    thetas, weights = _gauss_hermite(DEFAULT_NODES)
    post = _row_loglik(model._eap_tables_t, y, model._eap_prefix)
    post -= post.max(axis=0, keepdims=True)
    np.exp(post, out=post)
    post *= weights[:, None]
    blocks = post.reshape(DEFAULT_NODES, k, rows)
    num = np.array([thetas @ np.ascontiguousarray(blocks[:, j]) for j in range(k)])
    return (num / post.sum(axis=0).reshape(k, rows)).reshape(r.shape[:-1])


# ---------------------------------------------------------------------------
# marginal maximum likelihood (Bock-Aitkin EM)
# ---------------------------------------------------------------------------


def _objective_grads(Phi: np.ndarray, theta: np.ndarray, counts: np.ndarray,
                     grad: bool = True):
    """Expected complete-data log-likelihood, and its gradient, of B items.

    Row j of Phi (B, n) packs (log a, b_1, log step_2, ..., log step_{C-1})
    of one item, so the Newton update moves in an unconstrained space, and
    counts[j] is its (Q, C) table of expected counts; every row has the same
    C = n. Returns f (B,), and G (B, n) when ``grad``. Each row's values
    equal that row evaluated alone, bit for bit: the sums over its (Q, C)
    block run over the contiguous block, the sums over Q along axis 1.
    """
    B = Phi.shape[0]
    a = np.exp(Phi[:, 0])
    steps = np.exp(Phi[:, 2:])
    b = np.concatenate((Phi[:, 1:2], Phi[:, 1:2] + np.cumsum(steps, axis=1)), axis=1)
    dev = theta[:, None] - b[:, None, :]  # (B, Q, C-1)
    sf = special.expit(a[:, None, None] * dev)
    p = _category_probs(sf)
    f = (counts * np.log(p)).reshape(B, -1).sum(axis=1)
    if not grad:
        return f

    ratio = np.where(counts > 0, counts / p, 0.0)  # (B, Q, C)
    dsf = sf * (1.0 - sf)
    # d f / d sf_c  for c = 1..C-1: sf_c enters p_{c-1} with -1 and p_c with +1
    coef_dsf = (ratio[..., 1:] - ratio[..., :-1]) * dsf
    grad_b = coef_dsf.sum(axis=1) * (-a[:, None])  # (B, C-1)
    grad_a = (coef_dsf * dev).reshape(B, -1).sum(axis=1)

    # chain rule into phi space
    G = np.empty_like(Phi)
    G[:, 0] = grad_a * a
    G[:, 1] = grad_b.sum(axis=1)
    if Phi.shape[1] > 2:
        # b_j depends on step_i for i <= j; d b_j / d log step_i = step_i
        tail = np.cumsum(grad_b[:, ::-1], axis=1)[:, ::-1]
        G[:, 2:] = tail[:, 1:] * steps
    return f, G


def _clip(step: np.ndarray) -> np.ndarray:
    n = np.abs(step).max()
    return step * (4.0 / n) if n > 4.0 else step  # trust region, unconstrained scale


# the line search's halvings after the full step, in the chunks they are tried
_HALVINGS = (0.5 ** np.arange(1, 4), 0.5 ** np.arange(4, 30))


def _newton_block(Phi: np.ndarray, theta: np.ndarray, counts: np.ndarray,
                  max_iter: int = 40, gtol: float = 1e-9) -> np.ndarray:
    """Damped Newton ascent of k items in lockstep; never decreases an objective.

    Row j of Phi (k, n) starts item j's solve against counts[j] (Q, n). Each
    step takes a finite-difference Hessian, clips the Newton step (or the
    gradient where that fails or does not ascend) to a max-norm of 4, and
    halves it up to 29 times until the objective does not fall. A row stops
    at max_iter steps, at max |g| < gtol, or when no halving is accepted.
    The rows share only their objective calls, so row j of the result equals
    solving row j alone, bit for bit.
    """
    Phi = np.array(Phi, dtype=float)
    k, n = Phi.shape
    h = 1e-6
    probe = h * np.eye(n)
    f, G = _objective_grads(Phi, theta, counts)
    live = np.ones(k, dtype=bool)
    for _ in range(max_iter):
        live &= ~(np.abs(G).max(axis=1) < gtol)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        phi, g, f0, cnt = Phi[rows], G[rows], f[rows], counts[rows]
        m = rows.size

        _, Gp = _objective_grads((phi[:, None, :] + probe).reshape(m * n, n), theta,
                                 np.repeat(cnt, n, axis=0))
        H = ((Gp.reshape(m, n, n) - g[:, None, :]) / h).transpose(0, 2, 1)
        H = (H + H.transpose(0, 2, 1)) / 2.0
        try:
            solved = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            solved = None  # some row is singular: solve row by row
        steps = np.empty_like(g)
        for r in range(m):
            if solved is not None:
                step = solved[r]
            else:
                try:
                    step = np.linalg.solve(H[r], -g[r])
                except np.linalg.LinAlgError:
                    step = g[r]
            step = _clip(step if np.all(np.isfinite(step)) else g[r])  # near-singular
            if step @ g[r] <= 0:  # not an ascent direction; fall back to gradient
                step = _clip(g[r])
            steps[r] = step

        # line search: the full step for every row at once, then the halvings
        # of the rows it fails, each row taking its first scale that does
        # not decrease f
        trial = phi + steps
        f_new, G_new = _objective_grads(trial, theta, cnt)
        full = f_new >= f0
        ok = full.copy()
        todo = np.flatnonzero(~full)
        for scales in _HALVINGS:
            if not todo.size:
                break
            cand = phi[todo, None, :] + scales[:, None] * steps[todo, None, :]
            f_s = _objective_grads(cand.reshape(-1, n), theta,
                                   np.repeat(cnt[todo], scales.size, axis=0),
                                   grad=False).reshape(todo.size, scales.size)
            hit = f_s >= f0[todo, None]
            found = hit.any(axis=1)
            trial[todo[found]] = cand[found, hit[found].argmax(axis=1)]
            ok[todo[found]] = True
            todo = todo[~found]
        live[rows[todo]] = False  # no scale accepted: the solve stops here
        redo = np.flatnonzero(ok & ~full)
        if redo.size:
            f_new[redo], G_new[redo] = _objective_grads(trial[redo], theta, cnt[redo])
        done = rows[ok]
        Phi[done], f[done], G[done] = trial[ok], f_new[ok], G_new[ok]
    return Phi


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
    tol: float = 1e-7,
    max_iter: int = 500,
    category_counts: np.ndarray | None = None,
) -> GrModel:
    """Marginal maximum-likelihood fit of a graded-response model.

    Accepts a visit-flattened ItemDataset (each visit one row) or a raw
    integer response matrix. The EM loop asserts a nondecreasing marginal
    log-likelihood every iteration and converges on a relative change < tol.
    Its M-step runs one lockstep Newton block per fitted category count. It
    integrates over the DEFAULT_NODES Gauss-Hermite nodes that eap_scores
    scores on, so the model is fitted under the prior it is scored with.
    """
    if isinstance(pooled, ItemDataset):
        y_raw = pooled.flatten_visits()
        counts_per_item = pooled.scheme.category_counts
        scheme = pooled.scheme.name
    else:
        y_raw = np.asarray(pooled, dtype=np.int64)
        if y_raw.ndim != 2 or y_raw.size == 0:
            raise ValidationError(
                f"responses must be a non-empty (rows, items) matrix, got shape {y_raw.shape}"
            )
        if category_counts is not None:
            counts_per_item = np.asarray(category_counts, dtype=np.int64)
            if counts_per_item.shape != (y_raw.shape[1],):
                raise ValidationError(
                    f"category_counts has shape {counts_per_item.shape}, "
                    f"need one count per item ({y_raw.shape[1]})"
                )
        else:
            counts_per_item = y_raw.max(axis=0) + 1
        scheme = "original"
    n_rows, n_items = y_raw.shape
    labels = _item_names(n_items)
    _check_levels(y_raw, counts_per_item, labels)
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

    thetas, weights = _gauss_hermite(DEFAULT_NODES)
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

    # items of one fitted category count share one Newton block; items of
    # different counts are not padded together, which would change the sums
    blocks = [np.flatnonzero(fitted_cats == c) for c in np.unique(fitted_cats)]

    ll_old = -np.inf
    for iteration in range(max_iter):
        items = [unpack(phi) for phi in phis]
        model = GrModel(items=items, scheme=scheme,
                        category_maps=[np.arange(c) for c in fitted_cats])
        ll_rows = _row_loglik(_transposed(model.log_prob_tables(thetas)), y) + log_w[:, None]
        top = ll_rows.max(axis=0)
        post = np.exp(ll_rows - top)
        norm = post.sum(axis=0)
        ll = float((np.log(norm) + top).sum())
        if ll < ll_old - 1e-8 * (abs(ll_old) + 1.0):
            raise NonConvergenceError(
                f"EM log-likelihood decreased at iteration {iteration}: {ll_old} -> {ll}"
            )
        if iteration > 0 and (ll - ll_old) < tol * (abs(ll_old) + 1.0):
            break
        ll_old = ll
        post /= norm
        for block in blocks:
            counts = np.stack([post @ onehots[k] for k in block])  # (items, Q, C)
            fitted = _newton_block(np.stack([phis[k] for k in block]), thetas, counts)
            for k, phi in zip(block, fitted):
                phis[k] = phi
    else:
        raise NonConvergenceError(f"EM did not converge in {max_iter} iterations")

    items = [unpack(phi) for phi in phis]
    return GrModel(
        items=items,
        scheme=scheme,
        category_maps=cmaps,
        fit_meta={
            "log_likelihood": ll,
            "iterations": iteration + 1,
            "n_rows": int(n_rows),
            "n_nodes": DEFAULT_NODES,
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
    def from_doc(cls, doc: dict, source: str = "approximation document") -> "LinearLatentApprox":
        _check_format_version(doc, "approximation", source)
        try:
            approx = cls(
                intercept=float(doc["intercept"]),
                weights=np.array(doc["weights"], dtype=float),
                r_squared=float(doc["r_squared"]),
                scheme=doc["scheme"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad approximation file {source}: {exc!r}") from exc
        if approx.weights.ndim != 1:
            raise ValidationError(f"bad approximation file {source}: weights must be a "
                                  f"list of numbers, got shape {approx.weights.shape}")
        return approx

    @classmethod
    def load(cls, path: str | Path) -> "LinearLatentApprox":
        return cls.from_doc(read_json_object(path, "approximation"), source=str(path))


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
    n_items = y.shape[-1] if y.ndim else 0
    if n_items != approx.weights.size:
        raise ValidationError(f"approximation has {approx.weights.size} weights, "
                              f"responses have {n_items} items")
    u = approx.intercept + y @ approx.weights
    u = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    out = special.logit(u)
    return float(out) if np.isscalar(u) or u.ndim == 0 else out
