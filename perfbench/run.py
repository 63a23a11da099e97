#!/usr/bin/env python3
"""psprsim benchmark: seeded workloads through the public ``simulate`` and
``analyze`` entry points, with a separate traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload maxt-full --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same inputs untraced and traced, checks that both give the same
output, and reports the per-layer metrics. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; perfbench/README.md defines every metric.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads; pool workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
ALPHA = 0.025  # one-sided level of the checked-in plans
SETUP_SAMPLES = 3
MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    kind: str  # "simulate" or "analyze"
    plan: str | None = None  # checked-in plan the variant starts from
    scenarios: tuple | None = None  # None keeps every scenario of the plan
    workers: int = 1
    # Nominal pace on a 2-core x86-64 box: a run does about seconds *
    # units_per_s units (replicates or trials).
    units_per_s: float = 1.0
    # Fewest replicates per scenario (simulate) or trials (analyze) in one call.
    min_per_call: int = 100


WORKLOADS = {
    "maxt-full": Workload("simulate", "plans/full_mvn.json", ("d0", "d3", "d10"),
                          units_per_s=22.0),
    "desk-irt": Workload("simulate", "plans/desk_irt.json", ("rho=1", "rho=0.6"),
                         units_per_s=78.0),
    # Bootstrap resampling gives a constant fda-scored baseline item in about
    # 3e-4 of replicates, a counted failure of the seven methods that use the
    # per-item fits. The engine aborts a study when one method fails on more
    # than 1% of a scenario's replicates, which two such replicates do at 100
    # replicates per scenario; at 200 it takes three.
    "pool-sweep": Workload("simulate", "plans/desk_bootstrap.json", workers=2,
                           units_per_s=130.0, min_per_call=200),
    "reanalysis": Workload("analyze", units_per_s=7.6, min_per_call=20),
}
CALLS = 3  # calls of identical inputs per run, when each still meets min_per_call


def sizing(wl: Workload, groups: int, seconds: int) -> tuple[int, int]:
    """(calls, units per group per call): the run's units split over CALLS
    calls of the same inputs, or one call when a split would fall below the
    workload's floor."""
    per_group = seconds * wl.units_per_s / groups
    calls = CALLS if per_group >= CALLS * wl.min_per_call else 1
    return calls, max(wl.min_per_call, round(per_group / calls))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def load_psprsim() -> SimpleNamespace:
    """Import psprsim from this checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    missing = [p for p in ["src/psprsim/__init__.py",
                           *(w.plan for w in WORKLOADS.values() if w.plan)]
               if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
                         "run from the root of a psprsim checkout")
    sys.path.insert(0, str(src))
    import psprsim
    from psprsim import cli, engine, irt, marginal, procedures, reports

    if Path(psprsim.__file__).resolve().parent != (src / "psprsim").resolve():
        raise SystemExit(f"perfbench: imported psprsim from {psprsim.__file__}, not {src}")
    modules = dict(engine=engine, cli=cli, procedures=procedures,
                   marginal=marginal, reports=reports, irt=irt)
    return SimpleNamespace(modules=modules, **modules)


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code under test even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "psprsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
    }


def quiet_cli(ps, argv: list) -> int:
    """Call the psprsim command line in-process, keeping its stdout out of
    the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ps.cli.main([str(a) for a in argv])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for a pool, the largest worker's peak
    times the worker count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * kids) / 1024.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value, and which percentile that is."""
    x = np.sort(values)
    return float(x[-11]), 100.0 * (x.size - 10) / x.size


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    x = sorted(values)
    return float(x[max(0, math.ceil(q / 100.0 * len(x)) - 1)])


# ---------------------------------------------------------------------------
# timing probes for the untraced runs
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed_into(samples: list):
    def make(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)
        return timed
    return make


class LatencyProbe:
    """Times every ``run_single_replicate`` call in whichever process runs it.

    Each process appends (scenario id, replicate, nanoseconds) records to a
    file of its own, so replicates run by forked pool workers are timed too.
    The cost is one write per replicate.
    """

    def __init__(self, directory: Path):
        self.dir = fresh_dir(directory)
        self.fds: dict[int, int] = {}

    def __call__(self, fn):
        def timed(plan, scenario, scenario_id, rep, aux):
            t0 = time.perf_counter_ns()
            out = fn(plan, scenario, scenario_id, rep, aux)
            dt = time.perf_counter_ns() - t0
            pid = os.getpid()
            fd = self.fds.get(pid)
            if fd is None:
                fd = self.fds[pid] = os.open(self.dir / f"{pid}.bin",
                                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.write(fd, np.array([scenario_id, rep, dt], dtype="<i8").tobytes())
            return out
        return timed

    def collect_ms(self, n_scenarios: int, n_reps: int) -> np.ndarray | None:
        """Latencies in (scenario, replicate) order, or None unless every
        replicate was timed exactly once."""
        for fd in self.fds.values():
            os.close(fd)
        self.fds.clear()
        rec = np.concatenate([np.frombuffer(p.read_bytes(), dtype="<i8").reshape(-1, 3)
                              for p in self.dir.iterdir()] or [np.empty((0, 3), "<i8")])
        rec = rec[np.lexsort((rec[:, 1], rec[:, 0]))]
        expected = np.stack(np.meshgrid(np.arange(n_scenarios), np.arange(n_reps),
                                        indexing="ij"), axis=-1).reshape(-1, 2)
        if not np.array_equal(rec[:, :2], expected):
            return None
        return rec[:, 2] / 1e6


# ---------------------------------------------------------------------------
# outputs and their checks
# ---------------------------------------------------------------------------


@dataclass
class Output:
    digest: str = ""
    rejections: int = 0
    problems: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # engine-counted, by method


def check_power_table(path: Path, plan) -> Output:
    """Every (scenario, scheme, method) row once, planned n_reps, rates in [0, 1]."""
    if not path.is_file():
        return Output(problems=[f"{path.name} was not written"])
    raw = path.read_bytes()
    out = Output(digest=hashlib.sha256(raw).hexdigest())
    expected = {(s.label, sch, m) for s in plan.resolve_scenarios()
                for sch in plan.schemes for m in plan.methods}
    seen = Counter()
    for r in csv.DictReader(io.StringIO(raw.decode("utf-8"))):
        key = (r["scenario"], r["scheme"], r["method"])
        seen[key] += 1
        rate, n, nf = float(r["rejection_rate"]), int(r["n_reps"]), int(r["n_failures"])
        if n != plan.n_reps or not 0.0 <= rate <= 1.0 or not 0 <= nf <= n:
            out.problems.append(f"bad row {key}: rate={rate} n_reps={n} n_failures={nf}")
        out.rejections += round(rate * n)
        out.failures[r["method"]] += nf
    if set(seen) != expected or any(c != 1 for c in seen.values()):
        out.problems.append(f"rows {sorted(set(seen) ^ expected)[:5]} missing or extra, "
                            f"{sum(c > 1 for c in seen.values())} duplicated")
    return out


def check_analysis(path: Path, methods) -> tuple[bytes | None, list]:
    """22 p-values in [0, 1]: every method under both schemes."""
    if not path.is_file():
        return None, [f"{path} was not written"]
    raw = path.read_bytes()
    results = json.loads(raw)["results"]
    pairs = Counter((r["scheme"], r["method"]) for r in results)
    expected = {(s, m) for s in ("original", "fda") for m in methods}
    problems = []
    if set(pairs) != expected or any(c != 1 for c in pairs.values()):
        problems.append(f"{path}: results cover {len(pairs)} of {len(expected)} pairs")
    bad = [r for r in results if not 0.0 <= r["p_one_sided"] <= 1.0]
    if bad:
        problems.append(f"{path}: p-values outside [0, 1]: {bad[:2]}")
    return raw, problems


def check_digest_history(key: str, digest: str) -> str | None:
    """Outputs of one code version and one input must not change between
    runs in this checkout; returns a problem description if they did."""
    path = WORK / "digests.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    known = history.setdefault(key, digest)
    path.write_text(json.dumps(history, indent=1, sort_keys=True))
    if known != digest:
        return f"output digest {digest[:16]} differs from an earlier run's {known[:16]} ({key})"
    return None


# ---------------------------------------------------------------------------
# simulate workloads
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One call of the program on the run's inputs."""

    wall: float
    units: int
    output: Output
    setup: float = float("nan")
    latencies_ms: np.ndarray | None = None  # per unit, in unit order

    @property
    def units_per_s(self) -> float:
        return self.units / (self.wall - self.setup)


def write_plan(ps, wl: Workload, seed: int, n_reps: int, directory: Path):
    """The checked-in plan with this run's scenarios, replicate count and seed."""
    doc = json.loads((ROOT / wl.plan).read_text(encoding="utf-8"))
    if wl.scenarios is not None:
        doc["scenarios"] = list(wl.scenarios)
    doc["n_reps"] = n_reps
    doc["master_seed"] = seed
    path = directory / "plan.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path, ps.engine.StudyPlan.load(path)


def simulate(ps, plan_path: Path, plan, out_dir: Path, workers: int, tracer=None) -> Run:
    """One ``psprsim simulate`` call, timed from the outside."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["simulate", plan_path, "--out", out_dir, "--workers", workers]
    setup: list[float] = []
    if tracer is None:
        probe = LatencyProbe(out_dir.with_name(out_dir.name + "-latency"))
        hooks = [patched(ps.engine, "prepare_auxiliaries", timed_into(setup)),
                 patched(ps.engine, "run_single_replicate", probe)]
    else:
        probe, hooks = None, [tracer.installed(ps.modules)]
    with contextlib.ExitStack() as stack:
        for hook in hooks:
            stack.enter_context(hook)
        t0 = time.perf_counter()
        rc = quiet_cli(ps, argv)
        wall = time.perf_counter() - t0
    output = check_power_table(out_dir / "power_table.csv", plan)
    if rc != 0:
        output.problems.insert(0, f"simulate exited with code {rc}")
    run = Run(wall, plan.n_reps * len(plan.scenarios), output)
    if probe is not None:
        run.setup = setup[0] if len(setup) == 1 else float("nan")
        run.latencies_ms = probe.collect_ms(len(plan.scenarios), plan.n_reps)
        if len(setup) != 1:
            output.problems.append("simulate did not call engine.prepare_auxiliaries once")
        if run.latencies_ms is None:
            output.problems.append("engine.run_single_replicate was not called once per "
                                   "replicate")
    return run


def simulate_workload(ps, wl: Workload, seed: int, seconds: int, trace: bool, work: Path):
    scenarios = wl.scenarios or json.loads((ROOT / wl.plan).read_text())["scenarios"]
    calls, n_reps = sizing(wl, len(scenarios), seconds)
    plan_path, plan = write_plan(ps, wl, seed, n_reps, work)
    info = {"plan": {"scenarios": plan.scenarios, "n_reps": plan.n_reps,
                     "master_seed": plan.master_seed, "maxt_tol": plan.maxt_tol,
                     "workers": wl.workers}, "calls": 1 if trace else calls}
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES - calls):
            t0 = time.perf_counter()
            ps.engine.prepare_auxiliaries(plan)
            setups.append(time.perf_counter() - t0)
        runs = [simulate(ps, plan_path, plan, work / f"out-{k}", wl.workers)
                for k in range(calls)]
        return runs, end_to_end(runs, setups, wl.workers, "replicates", info), info

    base = simulate(ps, plan_path, plan, work / "out-1w", 1)
    tracer = tracing.Tracer()
    traced = simulate(ps, plan_path, plan, work / "out-traced", 1, tracer)
    runs = [base, traced]
    efficiency = 0.0
    if wl.workers > 1:
        pooled = simulate(ps, plan_path, plan, work / "out-pool", wl.workers)
        runs.append(pooled)
        efficiency = pooled.units_per_s / (wl.workers * base.units_per_s)
    tracer.write_csv(work / "spans.csv")
    layers = layer_metrics(ps, tracer, "engine.run_single_replicate", base, traced, plan.alpha)
    layers["engine.pool.parallel_efficiency"] = (efficiency, "frac")
    return runs, layers, info


# ---------------------------------------------------------------------------
# reanalysis workload
# ---------------------------------------------------------------------------

ARMS = ("placebo", "dose-a")
TRIAL_PER_ARM = 70
# item means at baseline and week 52 (lower is better), as in a one-year
# observation window on this instrument
BASE_MEAN = np.array([0.9, 1.6, 2.2, 1.6, 1.1, 1.7, 2.1, 1.9, 2.2, 1.7])
WEEK_MEAN = np.array([1.1, 2.2, 2.6, 2.0, 1.5, 2.1, 2.9, 2.5, 2.8, 2.4])


def write_trials(ps, seed: int, n_trials: int, directory: Path) -> list[Path]:
    """Two-arm trial CSVs drawn from the seed, independently of psprsim's own
    generators: a subject factor, a persistent item factor and visit noise,
    rounded to 0-4; a per-trial benefit in the dose arm; about 3% of subjects
    miss one item at one visit."""
    rng = np.random.default_rng([seed & MASK64, 0x7E1A])
    header = ps.reports.CSV_HEADER
    n = 2 * TRIAL_PER_ARM
    paths = []
    for t in range(n_trials):
        effect = rng.uniform(0.0, 0.4)
        arm = np.repeat([0, 1], TRIAL_PER_ARM)
        subject = rng.standard_normal((n, 1))
        item = rng.standard_normal((n, 10))
        base = BASE_MEAN + 0.9 * (0.55 * subject + 0.55 * item + 0.63 * rng.standard_normal((n, 10)))
        week = WEEK_MEAN - effect * arm[:, None] + 0.9 * (
            0.55 * subject + 0.55 * item + 0.63 * rng.standard_normal((n, 10)))
        visits = [np.clip(np.rint(v), 0, 4).astype(int).astype(object) for v in (base, week)]
        for i in np.flatnonzero(rng.random(n) < 0.03):
            visits[rng.integers(2)][i, rng.integers(10)] = ""
        path = directory / f"trial_{t:03d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(n):
                for visit, scores in zip(("baseline", "week52"), visits):
                    writer.writerow([f"T{t:03d}-{i:04d}", ARMS[arm[i]], visit, *scores[i]])
        paths.append(path)
    return paths


def analyze_setup(ps, reference_csv: Path, directory: Path) -> tuple[dict, list]:
    """Write the GRM, approximation and calibration files analyze reads."""
    fresh_dir(directory)
    files, problems = {"cache": directory / "cache"}, []
    for tag in ("original", "fda"):
        files[f"model_{tag}"] = directory / f"grm_{tag}.json"
        files[f"approx_{tag}"] = directory / f"approx_{tag}.json"
        for argv in (["fit-irt", reference_csv, "--scheme", tag, "--out", files[f"model_{tag}"]],
                     ["fit-approx", reference_csv, "--model", files[f"model_{tag}"],
                      "--out", files[f"approx_{tag}"]]):
            rc = quiet_cli(ps, argv)
            if rc != 0:
                problems.append(f"{argv[0]} exited with code {rc}")
    for m in (10, 3):
        ps.procedures.get_omnibus_calibration(files["cache"], m=m, reps=100_000, seed=0)
    return files, problems


def analyze_session(ps, reference_csv, trials, directory: Path, tracer=None) -> Run:
    """Set up, then ``psprsim analyze`` each trial; wall covers both."""
    hook = tracer.installed(ps.modules) if tracer else contextlib.nullcontext()
    out_root = directory / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    latencies = []
    with hook:
        t0 = time.perf_counter()
        files, problems = analyze_setup(ps, reference_csv, directory / "setup")
        setup = time.perf_counter() - t0
        for i, csv_path in enumerate(trials):
            argv = ["analyze", csv_path, "--arm-a", ARMS[1], "--arm-b", ARMS[0],
                    "--model", files["model_original"], "--model-fda", files["model_fda"],
                    "--approx", files["approx_original"], "--approx-fda", files["approx_fda"],
                    "--out", out_root / f"trial_{i:03d}", "--maxt-tol", "1e-4",
                    "--seed", 0, "--calibration-reps", 100_000, "--cache-dir", files["cache"]]
            t1 = time.perf_counter()
            with tracer.span("cli.analyze") if tracer else contextlib.nullcontext():
                rc = quiet_cli(ps, argv)
            latencies.append(time.perf_counter() - t1)
            if rc != 0:
                problems.append(f"analyze {csv_path.name} exited with code {rc}")
        wall = time.perf_counter() - t0
    digest, rejections = hashlib.sha256(), 0
    for i in range(len(trials)):
        raw, trial_problems = check_analysis(
            out_root / f"trial_{i:03d}" / "analysis_results.json", ps.procedures.METHODS)
        problems += trial_problems
        if raw is not None:
            digest.update(raw)
            rejections += sum(r["p_one_sided"] <= ALPHA for r in json.loads(raw)["results"])
    output = Output(digest.hexdigest(), rejections, problems)
    return Run(wall, len(trials), output, setup, np.asarray(latencies) * 1e3)


def analyze_workload(ps, wl: Workload, seed: int, seconds: int, trace: bool, work: Path):
    calls, n_trials = sizing(wl, 1, seconds)
    inputs = fresh_dir(work / "inputs")
    reference_csv = inputs / "reference.csv"
    quiet_cli(ps, ["make-reference", "--seed", 1, "--out", reference_csv])
    trials = write_trials(ps, seed, n_trials, inputs)
    info = {"trials": n_trials, "maxt_tol": 1e-4, "calls": 1 if trace else calls}
    if not trace:
        setups = []
        for k in range(SETUP_SAMPLES - calls):
            t0 = time.perf_counter()
            analyze_setup(ps, reference_csv, work / f"setup-sample-{k}")
            setups.append(time.perf_counter() - t0)
        runs = [analyze_session(ps, reference_csv, trials, work / f"session-{k}")
                for k in range(calls)]
        return runs, end_to_end(runs, setups, 1, "trials", info), info

    base = analyze_session(ps, reference_csv, trials, work / "session")
    tracer = tracing.Tracer()
    traced = analyze_session(ps, reference_csv, trials, work / "session-traced", tracer)
    tracer.write_csv(work / "spans.csv")
    layers = layer_metrics(ps, tracer, "cli.analyze", base, traced, ALPHA)
    layers["engine.pool.parallel_efficiency"] = (0.0, "frac")  # one process
    return [base, traced], layers, info


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(runs: list, setups: list, workers: int, unit_name: str, info: dict) -> dict:
    """Throughput over all of the run's calls, medians over them for the
    times; a unit's latency is its median over the calls. Adds notes on how
    the figures were taken to ``info``."""
    setups = setups + [r.setup for r in runs]
    lat = np.median(np.vstack([r.latencies_ms for r in runs]), axis=0)
    tail_ms, q = tail(lat)
    metrics = {
        "units_per_s": (sum(r.units for r in runs)
                        / sum(r.wall - r.setup for r in runs), "1/s"),
        "wall_s": (statistics.median(r.wall for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
    }
    info["notes"] = [f"{len(runs)} call(s) of the same inputs; each unit's latency is "
                     f"its median over them; latency_tail_ms is p{q:.1f} over {lat.size} "
                     f"{unit_name}",
                     f"setup_s is the median of {len(setups)} set-ups: "
                     + ", ".join(f"{x:.3f}" for x in setups)]
    return metrics


SELF_TIME_LAYERS = (
    "engine.run_single_replicate", "datagen.generate", "scales.ensure_scheme",
    "marginal.fit_marginals", "marginal.estimate_corr", "numkit.fit_ancova",
    "irt.eap_scores", "mvnorm.mvn_rect_upper",
    *(f"procedures.{t}" for t in ("SumS", "IRT", "LM", "OLS", "GLS", "GLS-drop", "Bonf",
                                  "MaxT", "Simes", "Omnibus", "Omnibus-dom")),
)
TOTAL_TIME_LAYERS = ("reports.load_trial_csv", "reports.descriptive_table",
                     "reports.emit_report", "procedures.get_omnibus_calibration")
SETUP_LAYERS = ("engine.prepare_auxiliaries", "datagen.build_synthetic_reference",
                "irt.fit_grm", "procedures.get_omnibus_calibration")


def layer_metrics(ps, tracer: tracing.Tracer, root: str, base: Run, traced: Run,
                  alpha: float) -> dict:
    """Per-layer metrics of the traced run; ``root`` names the unit span and
    ``base`` is the untraced run of the same inputs."""
    from scipy import special

    units = traced.units
    names, dur, self_ns, unit = tracing.span_table(tracer, root)
    in_unit, in_setup = unit >= 0, unit < 0
    out = {}

    def select(name, mask):
        return (names == name) & mask

    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_ms_per_unit"] = (self_ns[select(name, in_unit)].sum() / 1e6 / units,
                                           "ms")
    for name in TOTAL_TIME_LAYERS:
        out[f"{name}.ms_per_unit"] = (dur[select(name, in_unit)].sum() / 1e6 / units, "ms")
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = (dur[select(name, in_setup)].sum() / 1e9, "s")

    def kept(name, mask):
        return [v for i, v in tracer.returned.get(name, []) if mask[i]]

    out["irt.fit_grm.iterations"] = (sum(kept("irt.fit_grm", in_setup)), "count")
    out["numkit.fit_ancova.calls_per_unit"] = (
        int(select("numkit.fit_ancova", in_unit).sum()) / units, "calls/unit")

    mvn = kept("mvnorm.mvn_rect_upper", in_unit)
    out["mvnorm.mvn_rect_upper.calls_per_unit"] = (len(mvn) / units, "calls/unit")
    out["mvnorm.mvn_rect_upper.cap_hit_frac"] = (
        sum(err > tol for err, tol in mvn) / max(1, len(mvn)), "frac")
    out["mvnorm.mvn_rect_upper.err_max"] = (max((e for e, _ in mvn), default=0.0), "prob")

    # decision at alpha already fixed by p_min <= p <= min(1, 10 p_min)
    maxt = kept("procedures.MaxT", in_unit)
    p_min = special.ndtr(-np.array(maxt))
    settled = (p_min > alpha) | (np.minimum(1.0, 10.0 * p_min) <= alpha)
    out["procedures.MaxT.bound_settled_frac"] = (float(settled.mean()) if maxt else 0.0, "frac")

    corr = kept("marginal.estimate_corr", in_unit)
    repaired = [np.linalg.eigvalsh((R + R.T) / 2.0)[0] < 1e-10 for R in corr]
    out["marginal.estimate_corr.repair_frac"] = (
        sum(repaired) / len(repaired) if repaired else 0.0, "frac")

    roots = names == root
    is_replicate = root == "engine.run_single_replicate"
    rep_ms = dur[roots] / 1e6 if is_replicate else np.empty(0)
    out["engine.run_single_replicate.p50_ms"] = (
        percentile(rep_ms, 50) if rep_ms.size else 0.0, "ms")
    out["engine.run_single_replicate.p99_ms"] = (
        percentile(rep_ms, 99) if rep_ms.size else 0.0, "ms")
    failures = traced.output.failures  # engine-counted, from the power table
    out["engine.method_failures"] = (sum(failures.values()), "count")
    for tag in ps.procedures.METHODS:
        out[f"engine.method_failures.{tag}"] = (failures[tag], "count")
    out["trace.overhead_frac"] = (traced.wall / base.wall - 1.0, "frac")
    out["trace.untracked_frac"] = (self_ns[roots].sum() / dur[roots].sum(), "frac")
    return out


def check_metric_names(metrics: dict, trace: int) -> list:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    declared = {m["name"] for m in json.loads(path.read_text())["per_layer" if trace
                                                                 else "end_to_end"]}
    if declared == set(metrics):
        return []
    return [f"metrics differ from BENCHMARK.json: missing {sorted(declared - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - declared)}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    ps = load_psprsim()
    wl = WORKLOADS[args.workload]
    env = environment()
    work = fresh_dir(WORK / args.workload / f"seed{args.seed}-trace{args.trace}")
    runner = simulate_workload if wl.kind == "simulate" else analyze_workload
    try:
        runs, metrics, info = runner(ps, wl, args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # the program aborted: every unit of the run failed
        traceback.print_exc()
        runs, metrics, info = [], {}, {}
    notes = info.get("notes", [])

    problems = [p for r in runs for p in r.output.problems]
    digests = sorted({r.output.digest for r in runs})
    if len(digests) > 1:
        problems.append(f"runs of the same inputs disagree: digests {[d[:16] for d in digests]}")
    key = f"{args.workload} seed={args.seed} seconds={args.seconds} src={env['src_sha256']}"
    if runs and len(digests) == 1:
        drift = check_digest_history(key, digests[0])
        if drift:
            problems.append(drift)
    if runs:
        problems += check_metric_names(metrics, args.trace)
    correct = bool(runs) and not problems
    attempted = sum(r.units for r in runs) or max(1, round(args.seconds * wl.units_per_s))
    failed = 0 if correct else attempted

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **info,
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "rejections": runs[0].output.rejections if runs else None,
        "failed_frac": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=2, default=str))

    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"{attempted} units attempted")
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"perfbench: output sha256={record['output_sha256']} "
          f"rejections={record['rejections']} failed_frac={record['failed_frac']:.3f}")
    for line in notes:
        print(f"perfbench: {line}")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}")
    for k, (v, u) in metrics.items():
        print(f"perfbench: {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
