"""Factorial study orchestration: generators x scenarios x schemes x methods.

Determinism contract: every replicate's seed is a pure function of
(master_seed, scenario index, replicate index) via splitmix64 mixing, and
aggregation sums integer rejection counts, so the emitted table is
byte-identical regardless of worker count or execution order.
"""

from __future__ import annotations

import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .datagen import (
    DiscretizedMvnParams,
    EffectScenario,
    IrtPopulationParams,
    ReferenceConfig,
    build_synthetic_reference,
    builtin_scenarios,
    check_group_size,
    gen_bootstrap,
    gen_discretized_mvn,
    gen_irt_longitudinal,
)
from .errors import NumericalError, ValidationError
from .irt import (
    GrModel,
    LinearLatentApprox,
    approx_latent,
    eap_scores,
    fit_grm,
    fit_linear_latent_approx,
)
from .marginal import (
    DOMAIN_ROWS,
    IRT_ROW,
    ITEM_ROWS,
    LM_ROW,
    SUM_ROW,
    CorrelationEstimate,
    endpoint_rows,
    estimate_corr,
    fit_marginals,
)
from .mvnorm import check_tol
from .numkit import AncovaFit, RngStream, mix64, mix64_array, _GOLDEN, _MASK64
from .procedures import (
    METHODS,
    OmnibusCalibration,
    check_calibration_reps,
    get_omnibus_calibration,
    test_bonferroni,
    test_irt,
    test_lm_approx,
    test_maxt,
    test_obrien,
    test_omnibus,
    test_omnibus_domains,
    test_simes_hommel,
    test_sum_score,
)
from .scales import DOMAINS, ItemDataset, ScoringScheme, ensure_scheme, get_scheme

WORKER_ENV_VAR = "PSPRSIM_WORKERS"
# each generator and the scenario kind it applies
GENERATORS = {"mvn": "item-shift", "bootstrap": "item-shift", "irt": "slope-ratio"}

def derive_replicate_seed(master: int, scenario_id: int, rep: int) -> int:
    """Collision-resistant 64-bit seed for one replicate (splitmix64 chain)."""
    z = mix64((master + _GOLDEN * (scenario_id + 1)) & _MASK64)
    return mix64((z + _GOLDEN * (rep + 1)) & _MASK64)


def derive_replicate_seeds(master: int, scenario_id: int, reps: np.ndarray) -> np.ndarray:
    """Vectorized derive_replicate_seed over an array of replicate indices."""
    with np.errstate(over="ignore"):
        z = mix64_array(
            np.uint64((master + _GOLDEN * (scenario_id + 1)) & _MASK64)
            + np.zeros(len(reps), dtype=np.uint64)
        )
        z += np.uint64(_GOLDEN) * (np.asarray(reps, dtype=np.uint64) + np.uint64(1))
    return mix64_array(z)


def _check_fields(doc, cls, where: str) -> None:
    """Reject a document that is not an object, whose keys are not the
    dataclass's fields, or whose values are not of the fields' declared
    types, before it reaches the constructor."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValidationError(f"unknown {where} fields {unknown}; known: {sorted(known)}")
    missing = sorted(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in doc
    )
    if missing:
        raise ValidationError(f"{where} is missing required fields {missing}")
    _check_types(doc, cls, where)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# what a plan field of each declared type accepts; bool is not a number here
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "list[float]": ("a list of numbers",
                    lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _check_types(values: dict, cls, where: str) -> None:
    """Reject a value that is not of its field's declared type; f.type is the
    annotation's text, and fields of other types are left to the constructor."""
    for f in fields(cls):
        expected = _FIELD_TYPES.get(f.type)
        if expected is not None and f.name in values and not expected[1](values[f.name]):
            raise ValidationError(f"{where} field {f.name!r} must be {expected[0]}, "
                                  f"got {values[f.name]!r}")


def _reject_repeats(name: str, values: list) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValidationError(f"plan field {name!r} repeats {repeated}")


@dataclass
class _InlineShift:
    """An inline item-shift scenario entry of a plan."""

    label: str
    d: list[float]


@dataclass
class _InlineRatio:
    """An inline slope-ratio scenario entry of a plan."""

    label: str
    rho: float


@dataclass
class StudyPlan:
    """Everything needed to reproduce one study run."""

    generator: str
    scenarios: list = field(default_factory=lambda: ["d0"])
    schemes: list = field(default_factory=lambda: ["original", "fda"])
    methods: list = field(default_factory=lambda: list(METHODS))
    n_per_group: int = 70
    n_reps: int = 10_000
    alpha: float = 0.025
    master_seed: int = 202_400
    reference_seed: int = 1
    calibration_reps: int = 100_000
    calibration_seed: int = 7
    maxt_tol: float = 1e-4
    bootstrap_replace: bool = False
    irt_population: IrtPopulationParams = field(default_factory=IrtPopulationParams)

    def __post_init__(self):
        _check_types(vars(self), StudyPlan, "plan")
        if self.generator not in GENERATORS:
            raise ValidationError(f"unknown generator {self.generator!r}")
        if self.n_reps < 100:
            raise ValidationError(f"n_reps must be >= 100, got {self.n_reps}")
        if not 0.0 < self.alpha < 0.5:
            raise ValidationError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        # the generator, MaxT and the calibration check these only after the fit phase
        check_group_size(self.n_per_group, "n_per_group")
        check_tol(self.maxt_tol, "maxt_tol")
        check_calibration_reps(self.calibration_reps, "calibration_reps")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValidationError(f"unknown methods {bad}; known: {list(METHODS)}")
        for s in self.schemes:
            get_scheme(s)
        _reject_repeats("schemes", self.schemes)
        _reject_repeats("methods", self.methods)
        # a bad scenario fails here, before any caller starts the fit phase
        scenarios = self.resolve_scenarios()
        _reject_repeats("scenarios", [s.label for s in scenarios])
        kind = GENERATORS[self.generator]
        wrong = [s.label for s in scenarios if s.kind != kind]
        if wrong:
            raise ValidationError(
                f"the {self.generator} generator needs {kind} scenarios, got {wrong}"
            )

    def resolve_scenarios(self) -> list[EffectScenario]:
        known = builtin_scenarios()
        out = []
        for entry in self.scenarios:
            if isinstance(entry, str):
                if entry not in known:
                    raise ValidationError(
                        f"unknown scenario label {entry!r}; known: {sorted(known)}"
                    )
                out.append(known[entry])
            elif isinstance(entry, dict) and "d" in entry:
                _check_fields(entry, _InlineShift, "inline scenario")
                out.append(EffectScenario("item-shift", entry["label"],
                                          d=np.asarray(entry["d"], dtype=float)))
            elif isinstance(entry, dict) and "rho" in entry:
                _check_fields(entry, _InlineRatio, "inline scenario")
                out.append(EffectScenario("slope-ratio", entry["label"],
                                          rho=float(entry["rho"])))
            else:
                raise ValidationError(f"bad scenario entry {entry!r}")
        return out

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["irt_population"] = asdict(self.irt_population)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "StudyPlan":
        _check_fields(doc, cls, "plan")
        doc = dict(doc)
        if "irt_population" in doc:
            _check_fields(doc["irt_population"], IrtPopulationParams, "irt_population")
            doc["irt_population"] = IrtPopulationParams(**doc["irt_population"])
        return cls(**doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "StudyPlan":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"plan file {path} is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)


@dataclass
class PowerRow:
    generator: str
    scenario: str
    scheme: str
    method: str
    rejection_rate: float
    mc_se: float
    n_reps: int
    n_failures: int = 0

    SORT_KEY = staticmethod(lambda r: (r.generator, r.scenario, r.scheme, r.method))


@dataclass
class PowerTable:
    rows: list[PowerRow] = field(default_factory=list)

    HEADER = "generator,scenario,scheme,method,rejection_rate,mc_se,n_reps,n_failures"

    def sorted(self) -> "PowerTable":
        return PowerTable(sorted(self.rows, key=PowerRow.SORT_KEY))

    def _row(self, scenario: str, scheme: str, method: str) -> PowerRow:
        for r in self.rows:
            if (r.scenario, r.scheme, r.method) == (scenario, scheme, method):
                return r
        raise KeyError((scenario, scheme, method))

    def rate(self, scenario: str, scheme: str, method: str) -> float:
        return self._row(scenario, scheme, method).rejection_rate

    def se(self, scenario: str, scheme: str, method: str) -> float:
        return self._row(scenario, scheme, method).mc_se

    def to_csv_text(self) -> str:
        lines = [self.HEADER]
        for r in self.sorted().rows:
            lines.append(
                f"{r.generator},{r.scenario},{r.scheme},{r.method},"
                f"{r.rejection_rate!r},{r.mc_se!r},{r.n_reps},{r.n_failures}"
            )
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8")

    def to_doc(self) -> list[dict]:
        return [asdict(r) for r in self.sorted().rows]

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2), encoding="utf-8")


@dataclass
class StudyAuxiliaries:
    """Read-only objects shared by every replicate of a plan."""

    pool: ItemDataset
    mvn_params: DiscretizedMvnParams
    schemes: dict[str, ScoringScheme]
    grm: dict[str, GrModel]
    approx: dict[str, LinearLatentApprox]
    calib_items: OmnibusCalibration
    calib_domains: OmnibusCalibration


def prepare_auxiliaries(
    plan: StudyPlan,
    cache_dir: str | Path | None = None,
    reference_config: ReferenceConfig | None = None,
) -> StudyAuxiliaries:
    """Fit-once phase: reference pool, per-scheme models, omnibus tables."""
    pool = build_synthetic_reference(reference_config, RngStream(plan.reference_seed))
    scheme_tags = list(dict.fromkeys(["original", *plan.schemes]))
    schemes = {tag: get_scheme(tag) for tag in scheme_tags}
    grm: dict[str, GrModel] = {}
    approx: dict[str, LinearLatentApprox] = {}
    for tag, scheme in schemes.items():
        data = ensure_scheme(pool, scheme)
        model = fit_grm(data)
        thetas = eap_scores(model, data.flatten_visits())
        grm[tag] = model
        approx[tag] = fit_linear_latent_approx(data, thetas)
    calib_items = get_omnibus_calibration(
        cache_dir, m=10, reps=plan.calibration_reps, seed=plan.calibration_seed
    )
    calib_domains = get_omnibus_calibration(
        cache_dir, m=len(DOMAINS), reps=plan.calibration_reps, seed=plan.calibration_seed
    )
    return StudyAuxiliaries(
        pool=pool,
        mvn_params=DiscretizedMvnParams.estimate(pool),
        schemes=schemes,
        grm=grm,
        approx=approx,
        calib_items=calib_items,
        calib_domains=calib_domains,
    )


def _generate(plan: StudyPlan, scenario: EffectScenario, aux: StudyAuxiliaries,
              rng: RngStream) -> ItemDataset:
    if plan.generator == "mvn":
        return gen_discretized_mvn(aux.mvn_params, scenario, plan.n_per_group, rng)
    if plan.generator == "bootstrap":
        return gen_bootstrap(aux.pool, scenario, plan.n_per_group, rng,
                             replace=plan.bootstrap_replace)
    return gen_irt_longitudinal(plan.irt_population, aux.grm["original"],
                                scenario.rho, plan.n_per_group, rng)


# Lambdas, so that each call looks up the test_* functions in this module's
# globals, where perfbench/tracing.py and the tests patch them. The tracer
# names the OLS/GLS/GLS-drop spans from the variant keyword.
METHOD_TABLE = {
    "SumS": lambda c: test_sum_score(c.rows(SUM_ROW)),
    "IRT": lambda c: test_irt(c.rows(IRT_ROW)),
    "LM": lambda c: test_lm_approx(c.rows(LM_ROW)),
    "OLS": lambda c: test_obrien(c.fits, c.corr, variant="OLS"),
    "GLS": lambda c: test_obrien(c.fits, c.corr, variant="GLS"),
    "GLS-drop": lambda c: test_obrien(c.fits, c.corr, variant="GLS-drop"),
    "Bonf": lambda c: test_bonferroni(c.fits),
    "MaxT": lambda c: test_maxt(c.fits, c.corr, c.maxt_tol, c.rng, c.alpha),
    "Simes": lambda c: test_simes_hommel(c.fits),
    "Omnibus": lambda c: test_omnibus(c.fits.p, c.calib_items),
    "Omnibus-dom": lambda c: test_omnibus_domains(c.rows(DOMAIN_ROWS), c.calib_domains),
}

# what a method may raise on degenerate data: a counted failure, never a rejection
METHOD_ERRORS = (NumericalError, np.linalg.LinAlgError)


@dataclass
class MethodContext:
    """What the procedures read for one dataset in one scoring scheme. alpha
    is simulate's decision level for MaxT, None (analyze) a full-precision p.

    The endpoint block (one fit_marginals call on both visits' model scores,
    from one eap_scores call), its item rows and their correlation are
    computed on first use, and a METHOD_ERRORS exception from one of them is
    raised again on each later use. A singular row fails only the methods
    that read it.
    """

    data: ItemDataset
    grm: GrModel
    approx: LinearLatentApprox
    calib_items: OmnibusCalibration
    calib_domains: OmnibusCalibration
    maxt_tol: float
    rng: RngStream
    alpha: float | None = None

    def _once(self, name: str, compute):
        cache = vars(self)
        if name not in cache:
            try:
                cache[name] = compute()
            except METHOD_ERRORS as exc:
                cache[name] = exc
        if isinstance(cache[name], Exception):
            raise cache[name]
        return cache[name]

    def _fit_endpoints(self) -> AncovaFit:
        data = self.data
        for what, fitted in (("model", self.grm.scheme), ("approximation", self.approx.scheme)):
            if fitted != data.scheme.name:  # a model only scores data in its own scheme
                raise ValidationError(
                    f"{what} was fitted on scheme {fitted!r}, data uses {data.scheme.name!r}"
                )
        visits = np.stack([data.baseline, data.week52])
        return fit_marginals(data, eap_scores(self.grm, visits),
                             approx_latent(self.approx, visits))

    @property
    def endpoints(self) -> AncovaFit:
        return self._once("_endpoints", self._fit_endpoints)

    def rows(self, rows: slice) -> AncovaFit:
        return endpoint_rows(self.endpoints, rows)

    @property
    def fits(self) -> AncovaFit:
        return self._once("_fits", lambda: self.rows(ITEM_ROWS))

    @property
    def corr(self) -> CorrelationEstimate:
        return self._once("_corr", lambda: estimate_corr(self.data, self.fits))


def run_methods(ctx: MethodContext, methods) -> list:
    """Each method's TestOutcome, or the METHOD_ERRORS exception it raised,
    in the order of `methods`."""
    out = []
    for method in methods:
        try:
            out.append(METHOD_TABLE[method](ctx))
        except METHOD_ERRORS as exc:
            out.append(exc)
    return out


def run_single_replicate(
    plan: StudyPlan,
    scenario: EffectScenario,
    scenario_id: int,
    rep: int,
    aux: StudyAuxiliaries,
):
    """One replicate: generate, rescore per scheme, run each method.

    Returns (rejected, failed, messages): int8 arrays of shape
    (n_schemes, n_methods) and a list of failure descriptions.
    """
    seed = derive_replicate_seed(plan.master_seed, scenario_id, rep)
    base = RngStream(seed)
    data0 = _generate(plan, scenario, aux, base.child(0))
    n_s, n_m = len(plan.schemes), len(plan.methods)
    rejected = np.zeros((n_s, n_m), dtype=np.int8)
    failed = np.zeros((n_s, n_m), dtype=np.int8)
    messages: list[str] = []
    for si, tag in enumerate(plan.schemes):
        ctx = MethodContext(
            data=ensure_scheme(data0, aux.schemes[tag]), grm=aux.grm[tag],
            approx=aux.approx[tag], calib_items=aux.calib_items,
            calib_domains=aux.calib_domains, maxt_tol=plan.maxt_tol,
            rng=base.child(1 + si), alpha=plan.alpha,
        )
        for mi, (method, out) in enumerate(zip(plan.methods, run_methods(ctx, plan.methods))):
            if isinstance(out, Exception):
                failed[si, mi] = 1
                messages.append(f"{method}/{tag}/rep={rep}: {out}")
            else:
                rejected[si, mi] = 1 if out.p_one_sided <= plan.alpha else 0
    return rejected, failed, messages


_WORKER: dict = {}


def _init_worker(plan: StudyPlan, aux: StudyAuxiliaries):
    _WORKER["plan"] = plan
    _WORKER["aux"] = aux


def _sum_counts(plan: StudyPlan, parts):
    """Sum (rejected, failed, messages) parts, keeping the first 20 messages."""
    n_s, n_m = len(plan.schemes), len(plan.methods)
    rej = np.zeros((n_s, n_m), dtype=np.int64)
    fail = np.zeros((n_s, n_m), dtype=np.int64)
    msgs: list[str] = []
    for r, f, m in parts:
        rej += r
        fail += f
        msgs.extend(m[: 20 - len(msgs)])
    return rej, fail, msgs


def _run_chunk(args):
    scenario, scenario_id, start, stop = args
    plan: StudyPlan = _WORKER["plan"]
    aux: StudyAuxiliaries = _WORKER["aux"]
    return _sum_counts(plan, (run_single_replicate(plan, scenario, scenario_id, rep, aux)
                              for rep in range(start, stop)))


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"{WORKER_ENV_VAR} must be an integer worker count, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def run_scenario(plan: StudyPlan, scenario: EffectScenario, rej: np.ndarray,
                 fail: np.ndarray, msgs: list[str]) -> list[PowerRow]:
    """One scenario's PowerTable rows from its summed (n_schemes, n_methods)
    counts; a method failing on more than 1% of replicates fails the study."""
    rows = []
    for si, scheme in enumerate(plan.schemes):
        for mi, method in enumerate(plan.methods):
            if fail[si, mi] > 0.01 * plan.n_reps:
                raise NumericalError(
                    f"{method}/{scheme} failed on {fail[si, mi]}/{plan.n_reps} "
                    f"replicates (> 1%); first errors: {msgs[:5]}"
                )
            rate = rej[si, mi] / plan.n_reps
            rows.append(
                PowerRow(
                    generator=plan.generator,
                    scenario=scenario.label,
                    scheme=scheme,
                    method=method,
                    rejection_rate=float(rate),
                    mc_se=float(np.sqrt(rate * (1.0 - rate) / plan.n_reps)),
                    n_reps=plan.n_reps,
                    n_failures=int(fail[si, mi]),
                )
            )
    return rows


def run_study(
    plan: StudyPlan,
    aux: StudyAuxiliaries | None = None,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
) -> PowerTable:
    """Run every scenario in the plan; rows come back in stable sorted order.

    One list of chunks covers all scenarios; it runs in this process at one
    worker and in one process pool otherwise. Results come in list order, so
    a scenario meets the 1% rule once its last chunk is summed, and a
    failure cancels the chunks still queued.
    """
    workers = resolve_workers(workers)  # a bad worker count fails before the fit phase
    if aux is None:
        aux = prepare_auxiliaries(plan, cache_dir=cache_dir)
    scenarios = plan.resolve_scenarios()
    chunk = max(1, -(-plan.n_reps // (workers * 4)))
    starts = range(0, plan.n_reps, chunk)
    tasks = [(scenario, scenario_id, start, min(start + chunk, plan.n_reps))
             for scenario_id, scenario in enumerate(scenarios) for start in starts]
    _init_worker(plan, aux)  # the chunks run in this process at one worker
    pool = None if workers == 1 else ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(plan, aux))
    table = PowerTable()
    try:
        results = (map if pool is None else pool.map)(_run_chunk, tasks)
        for scenario in scenarios:
            counts = _sum_counts(plan, islice(results, len(starts)))
            table.rows.extend(run_scenario(plan, scenario, *counts))
    finally:
        _WORKER.clear()  # the plan and its auxiliaries are not kept past the study
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return table.sorted()
