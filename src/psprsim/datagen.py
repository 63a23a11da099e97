"""Treatment-effect scenarios and the three trial-data generators.

All generators emit original-scored data (rescoring is a separate step) with
n subjects per arm, complete cases by construction, and are pure functions
of their RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ValidationError
from .irt import GrModel
from .mvnorm import psd_factor, sample_mvn
from .numkit import RngStream
from .scales import DOMAINS, N_ITEMS, RAW_LEVELS, ItemDataset, ScoringScheme, original_scheme

SCORE_MIN = 0
SCORE_MAX = RAW_LEVELS - 1


@dataclass(frozen=True)
class EffectScenario:
    """Either a per-item absolute shift vector or a latent slope ratio."""

    kind: str  # "item-shift" | "slope-ratio"
    label: str
    d: np.ndarray | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.kind == "item-shift":
            d = np.asarray(self.d, dtype=float)
            if d.shape != (N_ITEMS,) or not np.all(np.isfinite(d) & (d >= 0)):
                raise ValidationError(
                    f"item-shift scenario {self.label!r} needs a finite nonnegative "
                    f"length-{N_ITEMS} vector, got {self.d!r}"
                )
            object.__setattr__(self, "d", d)
        elif self.kind == "slope-ratio":
            if self.rho is None or not 0.0 < self.rho <= 1.0:
                raise ValidationError(
                    f"slope ratio must lie in (0, 1], got {self.rho} (scenario {self.label!r})"
                )
        else:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")

    @property
    def is_null(self) -> bool:
        """No effect: an all-zero item shift, or a slope ratio of 1."""
        return not self.d.any() if self.kind == "item-shift" else self.rho == 1.0


def _shift(label: str, pattern: dict[str, float] | float) -> EffectScenario:
    d = np.zeros(N_ITEMS)
    if isinstance(pattern, dict):
        for domain, value in pattern.items():
            d[list(DOMAINS[domain])] = value
    else:
        d[:] = pattern
    return EffectScenario(kind="item-shift", label=label, d=d)


def builtin_scenarios() -> dict[str, EffectScenario]:
    """The predefined effect grid: homogeneous, domain-wise, and single-item
    shifts (d1..d12), the item-shift null (d0), and the slope-ratio grid."""
    single = lambda idx, v: np.where(np.arange(N_ITEMS) == idx, v, 0.0)
    out = {
        "d0": _shift("d0", 0.0),
        "d1": _shift("d1", 0.20),
        "d2": _shift("d2", 0.25),
        "d3": _shift("d3", 0.30),
        "d4": _shift("d4", {"history": 0.85}),
        "d5": _shift("d5", {"bulbar": 1.25}),
        "d6": _shift("d6", {"gait_midline": 0.50}),
        "d7": _shift("d7", {"history": 0.50, "bulbar": 0.50}),
        "d8": _shift("d8", {"history": 0.30, "gait_midline": 0.30}),
        "d9": _shift("d9", {"bulbar": 0.35, "gait_midline": 0.35}),
        "d10": EffectScenario("item-shift", "d10", d=single(0, 2.50)),
        "d11": EffectScenario("item-shift", "d11", d=single(3, 2.50)),
        "d12": EffectScenario("item-shift", "d12", d=single(5, 2.50)),
    }
    for rho in (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 1.0):
        label = f"rho={rho:g}"
        out[label] = EffectScenario("slope-ratio", label, rho=rho)
    return out


@dataclass(frozen=True)
class DiscretizedMvnParams:
    """20-dim mean/covariance: baseline items 1-10 then week-52 items 11-20.

    Immutable: the arrays are read-only copies, and the covariance is
    factored once here (``factor``, F @ F.T == cov20), not on every
    generated replicate.
    """

    mean20: np.ndarray
    cov20: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean20 = np.array(self.mean20, dtype=float)
        cov20 = np.array(self.cov20, dtype=float)
        if mean20.shape != (2 * N_ITEMS,) or cov20.shape != (2 * N_ITEMS, 2 * N_ITEMS):
            raise ValidationError("discretized-MVN parameters must be 20-dimensional")
        sym_err = float(np.abs(cov20 - cov20.T).max(initial=0.0))
        if sym_err > 1e-12 * max(1.0, float(np.abs(cov20).max(initial=1.0))):
            raise ValidationError(f"covariance not symmetric (max asymmetry {sym_err:.2e})")
        if np.any(np.diag(cov20) < 0):
            raise ValidationError("covariance has a negative diagonal entry")
        factor = psd_factor(cov20)
        for a in (mean20, cov20, factor):
            a.flags.writeable = False
        object.__setattr__(self, "mean20", mean20)
        object.__setattr__(self, "cov20", cov20)
        object.__setattr__(self, "factor", factor)

    @classmethod
    def estimate(cls, pool: ItemDataset) -> "DiscretizedMvnParams":
        """Pooled (across arms) mean and covariance of the 20 score coordinates."""
        stacked = np.hstack([pool.baseline, pool.week52]).astype(float)
        return cls(mean20=stacked.mean(axis=0), cov20=np.cov(stacked, rowvar=False))


def _discretize(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x), SCORE_MIN, SCORE_MAX).astype(np.int64)


@lru_cache(maxsize=16)
def _layout(n: int, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """The ids and the arm of 2n generated subjects, built once per
    (n, prefix) and shared read-only by every replicate of that size."""
    ids = np.array([f"{prefix}{i:05d}" for i in range(2 * n)])
    arm = np.repeat(np.array([0, 1], dtype=np.int8), n)
    ids.flags.writeable = arm.flags.writeable = False
    return ids, arm


def _two_arm(n: int, prefix: str, baseline: np.ndarray, week52: np.ndarray,
             scheme: ScoringScheme) -> ItemDataset:
    """The layout of every generated trial: 2n subjects with ids by
    ``prefix``, the n controls first and then the n treated, and an int8
    arm, so every replicate of a plan shares one arm vector."""
    return ItemDataset(*_layout(n, prefix), baseline, week52, scheme)


def check_group_size(n: int, name: str = "n") -> None:
    if n < 2:
        raise ValidationError(f"need {name} >= 2 per group, got {n}")


def gen_discretized_mvn(
    params: DiscretizedMvnParams, scenario: EffectScenario, n: int, rng: RngStream
) -> ItemDataset:
    """Round-and-trim draws from a 20-dim normal; the effect vector shifts the
    week-52 coordinates of the treatment mean only."""
    if scenario.kind != "item-shift":
        raise ValidationError("the discretized-MVN generator needs an item-shift scenario")
    check_group_size(n)
    shift = np.concatenate([np.zeros(N_ITEMS), scenario.d])
    # sample_mvn's draws for the control and then the treated arm, as one
    # draw of both (the same stream) and one product
    mean = np.array((params.mean20, params.mean20 - shift))
    z = rng.gen.standard_normal((2 * n, 2 * N_ITEMS))
    x = (z @ params.factor.T).reshape(2, n, -1) + mean[:, None, :]
    scores = _discretize(x.reshape(2 * n, -1))
    return _two_arm(n, "S", scores[:, :N_ITEMS], scores[:, N_ITEMS:], original_scheme())


def inject_item_effect(
    scores: np.ndarray, d_k: float, picked: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Three-step effect injection for one item's treated scores.

    Subtract floor(d_k) everywhere, subtract one more from the picked
    subjects, then floor at zero. Returns (clamped, pre-clamp) columns.
    """
    pre = scores.astype(np.int64) - int(np.floor(d_k))
    pre[np.asarray(picked, dtype=np.int64)] -= 1
    return np.maximum(pre, SCORE_MIN), pre


def inject_bootstrap_effect(
    week52: np.ndarray, d: np.ndarray, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Shift treated week-52 scores so the pre-floor mean drop per item is
    floor(d_k) + round(n p_k)/n with p_k the fractional part of d_k.

    Returns (adjusted scores, pre-clamp scores) so callers can audit the
    bookkeeping identity before the floor at zero is applied.
    """
    n = week52.shape[0]
    adjusted = np.empty_like(week52, dtype=np.int64)
    pre = np.empty_like(adjusted)
    for k in range(N_ITEMS):
        p_k = d[k] - np.floor(d[k])
        m = int(np.rint(n * p_k))
        picked = rng.gen.choice(n, size=m, replace=False) if m > 0 else np.empty(0, int)
        adjusted[:, k], pre[:, k] = inject_item_effect(week52[:, k], d[k], picked)
    return adjusted, pre


def gen_bootstrap(
    pool: ItemDataset,
    scenario: EffectScenario,
    n: int,
    rng: RngStream,
    replace: bool = False,
) -> ItemDataset:
    """Resample 2n subjects from the pooled complete cases; inject the effect
    into the treated arm's week-52 scores (subtract, then floor at zero)."""
    if scenario.kind != "item-shift":
        raise ValidationError("the bootstrap generator needs an item-shift scenario")
    if not replace and pool.n_subjects < 2 * n:
        raise ValidationError(
            f"pool of {pool.n_subjects} subjects cannot supply 2x{n} without replacement"
        )
    idx = rng.gen.choice(pool.n_subjects, size=2 * n, replace=replace)
    baseline = pool.baseline[idx]  # fancy indexing copies: the pool is not written
    week52 = pool.week52[idx]
    week52[n:], _ = inject_bootstrap_effect(week52[n:], scenario.d, rng)
    return _two_arm(n, "B", baseline, week52, pool.scheme)


@dataclass
class IrtPopulationParams:
    """Population model for the latent progression: baseline level psi(0) is
    normal, the yearly slope s is normal truncated below at zero."""

    intercept_mean: float = -0.5
    intercept_sd: float = 1.0
    slope_mean: float = 0.7
    slope_sd: float = 0.3
    horizon_years: float = 1.0

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValidationError(f"irt_population fields {bad} must be finite numbers")
        if self.intercept_sd < 0 or self.slope_sd < 0:
            raise ValidationError("standard deviations must be nonnegative")
        if not self.slope_mean > 0:
            raise ValidationError("slope_mean must be positive (disease progresses)")
        if not self.horizon_years > 0:
            raise ValidationError(
                f"horizon_years must be positive, got {self.horizon_years}"
            )


def _truncated_normal_positive(mean, sd, size, rng: RngStream) -> np.ndarray:
    """Inverse-CDF draw from N(mean, sd) conditioned on being > 0."""
    if sd == 0:
        return np.full(size, mean)
    lo = special.ndtr(-mean / sd)
    u = rng.gen.random(size)
    return mean + sd * special.ndtri(lo + u * (1.0 - lo))


def progressed_latent(psi0, slope, rho=1.0, horizon_years: float = 1.0):
    """Latent value after one observation window: psi(0) + rho * s * t.

    rho = 1 is the untreated course; rho = 0 freezes progression entirely;
    rho broadcasts, so per-subject ratios are allowed.
    """
    return np.asarray(psi0) + np.asarray(rho) * np.asarray(slope) * horizon_years


def sample_grm_scores(model: GrModel, thetas: np.ndarray, rng: RngStream) -> np.ndarray:
    """Sample one response row per theta from the graded-response model."""
    u = rng.gen.random((thetas.shape[0], model.n_items))
    above = u[:, :, None] < model.survival(thetas)
    # the count of categories reached, added one category at a time: a sum
    # over the short last axis runs one inner loop per response
    scores = np.zeros(u.shape, dtype=np.int64)
    for reached in above.transpose(2, 0, 1):
        scores += reached
    return scores


def gen_irt_longitudinal(
    pop: IrtPopulationParams,
    model: GrModel,
    rho: float,
    n: int,
    rng: RngStream,
) -> ItemDataset:
    """Latent progression psi(0) + s*t for controls, psi(0) + rho*s*t for the
    treated arm; item scores sampled from the graded-response model at each
    latent value."""
    if not 0.0 < rho <= 1.0:
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")
    psi0 = pop.intercept_mean + pop.intercept_sd * rng.gen.standard_normal(2 * n)
    slope = _truncated_normal_positive(pop.slope_mean, pop.slope_sd, 2 * n, rng)
    ratio = np.r_[np.ones(n), np.full(n, rho)]
    latent_week52 = progressed_latent(psi0, slope, ratio, pop.horizon_years)
    # sample_grm_scores at baseline and then at week 52, as one call (the
    # same stream of uniforms)
    scores = sample_grm_scores(model, np.concatenate([psi0, latent_week52]), rng)
    return _two_arm(n, "I", scores[:2 * n], scores[2 * n:], original_scheme())


# ---------------------------------------------------------------------------
# synthetic reference pool (stand-in for real trial data)
# ---------------------------------------------------------------------------


@dataclass
class ReferenceConfig:
    """Calibration of the synthetic reference pool.

    Means/SDs roughly track published descriptive statistics for a one-year
    observation window on this instrument; correlations use a three-parameter
    structure (within-visit, same-item across visits, cross)."""

    n_subjects: int = 380
    baseline_mean: np.ndarray = field(
        default_factory=lambda: np.array(
            [0.9, 1.6, 2.2, 1.6, 1.1, 1.7, 2.1, 1.9, 2.2, 1.7]
        )
    )
    week52_mean: np.ndarray = field(
        default_factory=lambda: np.array(
            [1.1, 2.2, 2.6, 2.0, 1.5, 2.1, 2.9, 2.5, 2.8, 2.4]
        )
    )
    baseline_sd: np.ndarray = field(
        default_factory=lambda: np.array(
            [0.65, 0.85, 1.05, 0.80, 0.95, 0.85, 1.20, 0.90, 1.10, 0.90]
        )
    )
    week52_sd: np.ndarray = field(
        default_factory=lambda: np.array(
            [0.75, 1.00, 1.20, 0.90, 1.10, 1.00, 1.25, 0.90, 1.10, 1.05]
        )
    )
    corr_within_visit: float = 0.60
    corr_same_item: float = 0.65
    corr_cross: float = 0.25
    # severity screen: only rows whose visit sum scores fall in this band
    # enter the pool (trial-style eligibility; bounds the pool away from the
    # scale's floor/ceiling saturation zones)
    severity_band: tuple[int, int] = (7, 32)

    def mvn_params(self) -> DiscretizedMvnParams:
        mean = np.concatenate([self.baseline_mean, self.week52_mean])
        sd = np.concatenate([self.baseline_sd, self.week52_sd])
        R = np.full((2 * N_ITEMS, 2 * N_ITEMS), self.corr_cross)
        R[:N_ITEMS, :N_ITEMS] = self.corr_within_visit
        R[N_ITEMS:, N_ITEMS:] = self.corr_within_visit
        same = np.arange(N_ITEMS)
        R[same, same + N_ITEMS] = self.corr_same_item
        R[same + N_ITEMS, same] = self.corr_same_item
        np.fill_diagonal(R, 1.0)
        cov = R * np.outer(sd, sd)
        return DiscretizedMvnParams(mean20=mean, cov20=cov)


def build_synthetic_reference(
    config: ReferenceConfig | None = None, rng: RngStream | None = None
) -> ItemDataset:
    """Draw the reference pool: a discretized 20-dim normal, all arms pooled,
    rejection-sampled so both visit sum scores stay inside the severity band.

    Arm labels alternate only so the dataset type validates; every consumer
    of the pool (bootstrap resampling, model fitting) ignores them."""
    config = config or ReferenceConfig()
    if config.n_subjects < 1:
        raise ValidationError(f"need n_subjects >= 1, got {config.n_subjects}")
    rng = rng or RngStream(0)
    params = config.mvn_params()
    lo, hi = config.severity_band
    chunks: list[np.ndarray] = []
    total = 0
    while total < config.n_subjects:
        scores = _discretize(sample_mvn(params.mean20, params.factor, config.n_subjects, rng))
        t_base = scores[:, :N_ITEMS].sum(axis=1)
        t_week = scores[:, N_ITEMS:].sum(axis=1)
        ok = (t_base >= lo) & (t_base <= hi) & (t_week >= lo) & (t_week <= hi)
        chunks.append(scores[ok])
        total += int(ok.sum())
    scores = np.vstack(chunks)[: config.n_subjects]
    n = config.n_subjects
    return ItemDataset(
        ids=np.array([f"R{i:05d}" for i in range(n)]),
        arm=(np.arange(n) % 2).astype(np.int8),
        baseline=scores[:, :N_ITEMS],
        week52=scores[:, N_ITEMS:],
        scheme=original_scheme(),
    )
