"""Graded-response IRT machinery.

Category probabilities, EAP latent-trait scoring under a standard-normal
prior (fixed-node Gauss-Hermite), marginal maximum likelihood via EM with
damped-Newton item updates run in one lockstep block, and the linear
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


P_FLOOR = 1e-300  # the least category probability


def _category_probs(sf: np.ndarray) -> np.ndarray:
    """P(Y = c) from P(Y >= c), c = 1..C-1, on the last axis; floored at P_FLOOR."""
    edge = sf.shape[:-1] + (1,)
    upper = np.concatenate([np.ones(edge), sf], axis=-1)
    lower = np.concatenate([sf, np.zeros(edge)], axis=-1)
    return np.clip(upper - lower, P_FLOOR, None)


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
    equal scoring that block alone, bit for bit: only the final weighted
    sums run per block, over the same contiguous block.
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
    # each block's sums run over its own contiguous copy: summed in place, a
    # one-row block would sum along a strided axis, in another order
    blocks = [np.ascontiguousarray(blocks[:, j]) for j in range(k)]
    num = np.array([thetas @ block for block in blocks])
    return (num / np.array([block.sum(axis=0) for block in blocks])).reshape(r.shape[:-1])


# ---------------------------------------------------------------------------
# marginal maximum likelihood (Bock-Aitkin EM)
# ---------------------------------------------------------------------------


def _packed_probs(Phi: np.ndarray, theta: np.ndarray):
    """a (B,), the steps (B, C-2), theta - b (B, C-1, Q), P(Y >= c) (B, C-1, Q)
    and P(Y = c) (B, C, Q) of B items packed as _objective_grads packs them.

    The logistic is 1 / (1 + e^-x) with x clipped to +-700, where exp stays
    on its fast path; the clip moves no P(Y = c) by more than e^-700.
    """
    B, C = Phi.shape
    a = np.exp(Phi[:, 0])
    steps = np.exp(Phi[:, 2:])
    b = np.concatenate((Phi[:, 1:2], Phi[:, 1:2] + np.cumsum(steps, axis=1)), axis=1)
    dev = theta - b[:, :, None]
    edges = np.empty((B, C + 1, theta.size))  # P(Y >= c), c = 0..C
    edges[:, 0] = 1.0
    edges[:, C] = 0.0
    sf = edges[:, 1:C]
    np.multiply(a[:, None, None], dev, out=sf)
    np.clip(sf, -700.0, 700.0, out=sf)
    np.exp(np.negative(sf, out=sf), out=sf)
    sf += 1.0
    np.divide(1.0, sf, out=sf)
    p = edges[:, :-1] - edges[:, 1:]
    return a, steps, dev, sf, np.maximum(p, P_FLOOR, out=p)


def _objective_grads(Phi: np.ndarray, theta: np.ndarray, counts: np.ndarray,
                     grad: bool = True):
    """Expected complete-data log-likelihood, its gradient and Hessian, of B items.

    Row j of Phi (B, n) packs (log a, b_1, log step_2, ..., log step_{C-1})
    of one item, so the Newton update moves in an unconstrained space, and
    counts[j] is its (C, Q) table of expected counts; every row has the same
    C = n. Returns f (B,), and with ``grad`` also G (B, n) and the observed
    Hessian H (B, n, n). The nodes run along the last axis, so every sum
    over them, and over a row's whole (C, Q) block, is a sum over contiguous
    memory, and each row's values equal that row evaluated alone, bit for
    bit.

    The Hessian is analytic (Baker & Kim 2004, ch. 8). With x_j = a (theta
    - b_j), the per-node second derivatives F of f in x are tridiagonal, as
    x_j enters only categories j - 1 and j. Only d x_j / d log a = x_j
    varies with the node (d x_j / d b_j = -a), so H needs only the node sums
    of F, of F x and of x F x, at about the cost of the gradient.
    """
    B = Phi.shape[0]
    a, steps, dev, sf, p = _packed_probs(Phi, theta)
    f = (counts * np.log(p)).reshape(B, -1).sum(axis=1)
    if not grad:
        return f

    # where p sits on its floor, f is flat in float: those counts enter
    # neither G nor H, where counts / p would be rounding noise times 1e300
    ratio = np.where(p > P_FLOOR, counts / p, 0.0)  # (B, C, Q)
    dsf = sf * (1.0 - sf)
    # d f / d x_c for c = 1..C-1: sf_c enters p_{c-1} with -1 and p_c with +1
    g_x = (ratio[:, 1:] - ratio[:, :-1]) * dsf
    grad_b = g_x.sum(axis=2) * (-a[:, None])  # (B, C-1)
    a2 = a * a

    # F: the diagonal and the band between neighbouring thresholds, with
    # counts / p^2 as ratio * (dsf / p), which stays finite
    below = ratio[:, :-1] * (dsf / p[:, :-1])
    above = ratio[:, 1:] * (dsf / p[:, 1:])
    diag = g_x * (1.0 - 2.0 * sf) - (below + above) * dsf
    band = above[:, :-1] * dsf[:, 1:]  # (B, C-2, Q)
    Fdev = diag * dev  # (F dev)_c; dev = x / a
    Fdev[:, 1:] += band * dev[:, :-1]
    Fdev[:, :-1] += band * dev[:, 1:]

    # in (log a, b): H_bb = a^2 sum F, H_ab = grad_b - a^2 sum F dev and
    # H_aa = G_a + a^2 sum dev F dev
    G = np.empty_like(Phi)
    H = np.zeros(Phi.shape + Phi.shape[1:])
    G[:, 0] = (g_x * dev).reshape(B, -1).sum(axis=1) * a
    H[:, 0, 0] = G[:, 0] + (Fdev * dev).reshape(B, -1).sum(axis=1) * a2
    H_ab = grad_b - Fdev.sum(axis=2) * a2[:, None]
    k = np.arange(1, Phi.shape[1])
    H[:, k, k] = diag.sum(axis=2) * a2[:, None]
    H[:, k[:-1], k[1:]] = H[:, k[1:], k[:-1]] = band.sum(axis=2) * a2[:, None]

    # chain rule into phi space: b_j = b_1 + sum_{2 <= i <= j} step_i, so
    # d b / d (b_1, log step_i) = J with J' v = scale * tail sums of v, and
    # d^2 b_j / d log step_i^2 = step_i adds G_i to the diagonal
    scale = np.concatenate((np.ones((B, 1)), steps), axis=1)
    G[:, 1:] = np.cumsum(grad_b[:, ::-1], axis=1)[:, ::-1] * scale
    H[:, 0, 1:] = H[:, 1:, 0] = np.cumsum(H_ab[:, ::-1], axis=1)[:, ::-1] * scale
    tails = np.cumsum(np.cumsum(H[:, :0:-1, :0:-1], axis=1), axis=2)[:, ::-1, ::-1]
    outer = 0.5 * scale[:, :, None] * scale[:, None, :]  # symmetric: 0.5 s_i is exact
    H[:, 1:, 1:] = (tails + tails.transpose(0, 2, 1)) * outer
    H[:, k[1:], k[1:]] += G[:, 2:]
    return f, G, H


def _clip(steps: np.ndarray) -> np.ndarray:
    """Each row scaled down to a max-norm of 4: a trust region on the
    unconstrained scale."""
    n = np.abs(steps).max(axis=-1, keepdims=True)
    return np.where(n > 4.0, steps * (4.0 / n), steps)


# the line search's halvings after the full step, in the chunks they are tried
_HALVINGS = (0.5 ** np.arange(1, 4), 0.5 ** np.arange(4, 30))
# a step does not decrease f when it lands less than 4 ulps of |f| below f0:
# f sums many negative terms, so a smaller difference is rounding
_ROUNDING = 4.0 * np.finfo(float).eps
# the range of a; an item whose fit ends on it has a degenerate fit
A_BOUNDS = (0.01, 50.0)
LOG_A_BOUNDS = (float(np.log(A_BOUNDS[0])), float(np.log(A_BOUNDS[1])))
# the log step of a padded threshold: a(theta - b) sits on the clip at -700
# at every node and every a in the bounds
PAD_LOG_STEP = 30.0


def _newton_steps(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The clipped Newton steps of an ascent, one row per (H, g) pair: the
    gradient instead where the solve fails, is not finite or does not ascend."""
    try:
        steps = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some row is singular: solve row by row
        steps = np.empty_like(g)
        for r in range(len(g)):
            try:
                steps[r] = np.linalg.solve(H[r], -g[r])
            except np.linalg.LinAlgError:
                steps[r] = g[r]
    steps = _clip(np.where(np.isfinite(steps).all(axis=1, keepdims=True), steps, g))
    uphill = (steps * g).sum(axis=1, keepdims=True) > 0
    return np.where(uphill, steps, _clip(g))


def _newton_block(Phi: np.ndarray, theta: np.ndarray, counts: np.ndarray,
                  free: np.ndarray | None = None, max_iter: int = 40,
                  gtol: float = 1e-9) -> np.ndarray:
    """Damped Newton ascent of k items in lockstep; never decreases an
    objective beyond its rounding level.

    Row j of Phi (k, n) starts item j's solve against counts[j] (n, Q); the
    coordinates where ``free`` (k, n) is False hold still (all move by
    default). Each step solves with the analytic Hessian, clips the Newton
    step (or the gradient where that fails or does not ascend) to a max-norm
    of 4, and halves it up to 29 times until the objective lands no lower
    than f0 - 4 eps |f0|. log a stays in LOG_A_BOUNDS: a step past a bound
    stops on it, and a row on a bound whose gradient points out of it holds
    log a. A held coordinate's gradient entry reads 0 and its Hessian row
    and column are those of -I. A row stops at max_iter steps, at max |g|
    < gtol, or when no halving is accepted. The rows share only their
    objective calls, so row j of the result equals solving row j alone, bit
    for bit.
    """
    lo, hi = LOG_A_BOUNDS
    Phi = np.array(Phi, dtype=float)
    n = Phi.shape[1]
    free = np.ones(Phi.shape, dtype=bool) if free is None else free
    eye = np.eye(n, dtype=bool)
    f, G, H = _objective_grads(Phi, theta, counts)
    live = np.ones(len(Phi), dtype=bool)
    for _ in range(max_iter):
        held = ~free
        held[:, 0] |= ((Phi[:, 0] <= lo) & (G[:, 0] < 0)) | ((Phi[:, 0] >= hi) & (G[:, 0] > 0))
        g_all = np.where(held, 0.0, G)
        live &= ~(np.abs(g_all).max(axis=1) < gtol)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        phi, g, f0, cnt, hold = Phi[rows], g_all[rows], f[rows], counts[rows], held[rows]
        cut = hold[:, :, None] | hold[:, None, :]
        steps = _newton_steps(np.where(cut, np.where(eye, -1.0, 0.0), H[rows]), g)

        # line search: the full step for every row at once, then the halvings
        # of the rows it fails, each row taking its first scale that does
        # not decrease f beyond rounding
        floor = f0 - _ROUNDING * np.abs(f0)
        trial = phi + steps
        trial[:, 0] = np.clip(trial[:, 0], lo, hi)
        f_new, G_new, H_new = _objective_grads(trial, theta, cnt)
        full = f_new >= floor
        ok = full.copy()
        todo = np.flatnonzero(~full)
        for scales in _HALVINGS:
            if not todo.size:
                break
            cand = phi[todo, None, :] + scales[:, None] * steps[todo, None, :]
            cand[..., 0] = np.clip(cand[..., 0], lo, hi)
            f_s = _objective_grads(cand.reshape(-1, n), theta,
                                   np.repeat(cnt[todo], scales.size, axis=0),
                                   grad=False).reshape(todo.size, scales.size)
            hit = f_s >= floor[todo, None]
            found = hit.any(axis=1)
            trial[todo[found]] = cand[found, hit[found].argmax(axis=1)]
            ok[todo[found]] = True
            todo = todo[~found]
        live[rows[todo]] = False  # no scale accepted: the solve stops here
        redo = np.flatnonzero(ok & ~full)
        if redo.size:
            f_new[redo], G_new[redo], H_new[redo] = _objective_grads(trial[redo], theta,
                                                                      cnt[redo])
        done = rows[ok]
        Phi[done], f[done], G[done], H[done] = trial[ok], f_new[ok], G_new[ok], H_new[ok]
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
    Its E-step is two matrix products with the rows' category indicators;
    its M-step runs all items as one lockstep Newton block, each padded to
    the largest fitted category count. It integrates over the DEFAULT_NODES
    Gauss-Hermite nodes that eap_scores scores on, so the model is fitted
    under the prior it is scored with. fit_meta["items_at_bound"] names the
    items whose discrimination ended on a bound of LOG_A_BOUNDS.
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

    # initialize from overall exceedance proportions; every item is padded
    # to the largest count with steps of e^PAD_LOG_STEP, whose thresholds
    # lie far past every node, and its padded coordinates hold still
    C_max = int(fitted_cats.max())
    real = np.arange(C_max) < fitted_cats[:, None]  # (items, C_max)
    Phi = np.full((n_items, C_max), PAD_LOG_STEP)
    for k in range(n_items):
        C = int(fitted_cats[k])
        freq = np.bincount(y[:, k], minlength=C) / n_rows
        p_ge = 1.0 - np.cumsum(freq)[:-1]
        p_ge = np.clip(p_ge, 0.5 / n_rows, 1.0 - 0.5 / n_rows)
        b0 = -1.7 * special.ndtri(p_ge)
        b0 = np.maximum.accumulate(b0 + 1e-6 * np.arange(C - 1))
        Phi[k, 0] = 0.0  # a = 1
        Phi[k, 1] = b0[0]
        Phi[k, 2:C] = np.log(np.maximum(np.diff(b0), 1e-3))

    # the items' category indicators side by side, in the order of the
    # real entries of the padded (items, C_max) table
    onehots = np.zeros((n_rows, int(fitted_cats.sum())))
    onehots[np.arange(n_rows)[:, None], np.cumsum(fitted_cats) - fitted_cats + y] = 1.0
    counts = np.zeros((n_items, C_max, thetas.size))  # the padded categories' stay 0

    ll_old = -np.inf
    for iteration in range(max_iter):
        post = onehots @ np.log(_packed_probs(Phi, thetas)[-1][real])  # (rows, Q)
        post += log_w
        top = post.max(axis=1, keepdims=True)
        post -= top
        # weights below e^-700 of a row's largest are raised to e^-700, too
        # small to move the sums they enter; exp is slow where it underflows
        np.exp(np.maximum(post, -700.0, out=post), out=post)
        norm = post.sum(axis=1, keepdims=True)
        ll = float((np.log(norm) + top).sum())
        if ll < ll_old - 1e-8 * (abs(ll_old) + 1.0):
            raise NonConvergenceError(
                f"EM log-likelihood decreased at iteration {iteration}: {ll_old} -> {ll}"
            )
        if iteration > 0 and (ll - ll_old) < tol * (abs(ll_old) + 1.0):
            break
        ll_old = ll
        post /= norm
        counts[real] = onehots.T @ post
        Phi = _newton_block(Phi, thetas, counts, free=real)
    else:
        raise NonConvergenceError(f"EM did not converge in {max_iter} iterations")

    items = []
    for phi, C in zip(Phi, fitted_cats):
        b = np.concatenate(([phi[1]], phi[1] + np.cumsum(np.exp(phi[2:C]))))
        items.append(GrItemParams(float(np.exp(phi[0])), b))
    at_bound = [labels[k] for k in np.flatnonzero(np.isin(Phi[:, 0], LOG_A_BOUNDS))]
    if at_bound:
        log.warning("discrimination of %s ended on a bound of %s: a degenerate fit",
                    ", ".join(at_bound), list(A_BOUNDS))
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
            "items_at_bound": at_bound,
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
    """Least-squares fit of g(theta) on the raw item scores plus intercept:
    a dataset's (2, n) visit thetas, flattened in flatten_visits row order,
    or one theta per row of a raw response matrix."""
    t = np.asarray(thetas, dtype=float)
    if isinstance(data, ItemDataset):
        if t.shape != (2, data.n_subjects):
            raise ValidationError(f"need (2, {data.n_subjects}) visit trait values, "
                                  f"got shape {t.shape}")
        rows = data.flatten_visits().astype(float)
        t = t.reshape(-1)
        scheme = data.scheme.name
    else:
        rows = np.asarray(data, dtype=float)
        scheme = "original"
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
