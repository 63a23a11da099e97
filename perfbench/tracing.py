"""Outside-in span tracing for the psprsim benchmark.

The tracer replaces public functions at the module attributes their callers
look up (for example ``engine.fit_marginals`` or ``procedures.fit_ancova``)
with wrappers that record one span per call: name, start, end and parent.
Spans live in flat in-memory lists and are written out once, after the run.
Nothing in ``src/`` is edited; ``Tracer.installed`` restores every original
attribute on exit.

Wrappers may also keep a reference to what a call returned, so counters such
as MaxT budget-cap hits are derived from returned values only, after the
timed region.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Method tag of each procedure entry point; test_obrien takes its tag from
# the ``variant`` argument.
PROCEDURE_TAGS = {
    "test_sum_score": "SumS",
    "test_irt": "IRT",
    "test_lm_approx": "LM",
    "test_bonferroni": "Bonf",
    "test_maxt": "MaxT",
    "test_simes_hommel": "Simes",
    "test_omnibus": "Omnibus",
    "test_omnibus_domains": "Omnibus-dom",
}


class Tracer:
    """Records nested spans around wrapped callables of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = [-1]
        self.returned: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[top]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, keep=None, skip_inside: str | None = None):
        """Wrap fn in a span called ``name`` (a string, or a function of the
        call's arguments). ``keep(args, kwargs, out)`` returns a value stored,
        with the span index, under the span name in ``returned``. No span is opened when the
        enclosing span's name starts with ``skip_inside``, so a procedure
        called by another procedure counts as its caller's own time."""

        def traced(*args, **kwargs):
            if skip_inside is not None:
                top = self.current()
                if top is not None and top.startswith(skip_inside):
                    return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = self._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep is not None:
                self.returned[label].append((idx, keep(args, kwargs, out)))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, name, keep=None, skip_inside=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = staticmethod(self.wrap(getattr(owner, attr), name, keep, skip_inside))
        else:
            wrapped = self.wrap(original, name, keep, skip_inside)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    @contextlib.contextmanager
    def installed(self, psprsim_modules: dict):
        """Patch every traced call site of the given psprsim modules."""
        install_call_sites(self, psprsim_modules)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        return np.asarray(self.names, dtype=object), start, end, parent

    def write_csv(self, path: Path) -> None:
        """Dump every span (index, name, start_ns, end_ns, parent index)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            for i, row in enumerate(zip(self.names, self.start, self.end, self.parent)):
                writer.writerow([i, *row])


def span_table(tracer: Tracer, root: str):
    """Per-span durations, self times and the unit (root span) each belongs to.

    Self time is a span's duration minus the durations of its direct
    children; in a single thread children nest inside their parent, so this
    equals the duration minus the part of the interval the children cover.
    ``unit[i]`` is the index of the enclosing ``root`` span, or -1 for spans
    outside every unit (the set-up phase).
    """
    names, start, end, parent = tracer.arrays()
    dur = (end - start).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    unit = np.full(len(names), -1, dtype=np.int64)
    for i, (nm, p) in enumerate(zip(names, parent)):
        if nm == root:
            unit[i] = i
        elif p >= 0:
            unit[i] = unit[p]
    return names, dur, self_time, unit


# ---------------------------------------------------------------------------
# call sites
# ---------------------------------------------------------------------------


def _obrien_name(args, kwargs) -> str:
    return "procedures." + kwargs.get("variant", args[2] if len(args) > 2 else "OLS")


def _keep_mvn(args, kwargs, out):
    prob, err = out
    return float(err), float(kwargs.get("tol", 1e-4))


def _keep_maxt(args, kwargs, out):
    return float(out.statistic)


def _keep_corr(args, kwargs, out):
    return out.R  # eigenvalues are taken after the run


def _keep_iterations(args, kwargs, out):
    return int(out.fit_meta["iterations"])


def install_call_sites(tracer: Tracer, m: dict) -> None:
    """Wrap the public functions of each layer at the names their callers use.

    ``m`` maps short module names (engine, cli, procedures, marginal,
    reports, irt) to the imported psprsim modules.
    """
    engine, cli, procedures = m["engine"], m["cli"], m["procedures"]
    marginal, reports, irt = m["marginal"], m["reports"], m["irt"]
    p = tracer.patch

    # engine: study loop, set-up phase and one replicate
    p(engine, "run_study", "engine.run_study")
    p(engine, "run_scenario", "engine.run_scenario")
    p(engine, "prepare_auxiliaries", "engine.prepare_auxiliaries")
    p(engine, "run_single_replicate", "engine.run_single_replicate")

    # set-up layers, at the engine and cli call sites
    for owner in (engine, cli):
        p(owner, "build_synthetic_reference", "datagen.build_synthetic_reference")
        p(owner, "fit_grm", "irt.fit_grm", keep=_keep_iterations)
        p(owner, "fit_linear_latent_approx", "irt.fit_linear_latent_approx")
        p(owner, "eap_scores", "irt.eap_scores")
        p(owner, "ensure_scheme", "scales.ensure_scheme")
        p(owner, "fit_marginals", "marginal.fit_marginals")
        p(owner, "estimate_corr", "marginal.estimate_corr", keep=_keep_corr)
    p(engine, "get_omnibus_calibration", "procedures.get_omnibus_calibration")
    p(procedures, "get_omnibus_calibration", "procedures.get_omnibus_calibration")
    p(irt.GrModel, "load", "irt.GrModel.load")
    p(irt.LinearLatentApprox, "load", "irt.LinearLatentApprox.load")

    # generators (the workload's generator is one of these)
    for gen in ("gen_discretized_mvn", "gen_bootstrap", "gen_irt_longitudinal"):
        p(engine, gen, "datagen.generate")

    # the eleven procedures, at the engine names and the procedures module
    # attributes (which the cli and test_omnibus_domains use)
    for owner in (engine, procedures):
        for fn_name, tag in PROCEDURE_TAGS.items():
            keep = _keep_maxt if tag == "MaxT" else None
            p(owner, fn_name, f"procedures.{tag}", keep=keep, skip_inside="procedures.")
        p(owner, "test_obrien", _obrien_name, skip_inside="procedures.")

    # kernels below the procedures
    p(marginal, "fit_ancova", "numkit.fit_ancova")
    p(procedures, "fit_ancova", "numkit.fit_ancova")
    p(procedures, "eap_scores", "irt.eap_scores")
    p(procedures, "mvn_rect_upper", "mvnorm.mvn_rect_upper", keep=_keep_mvn)

    # reanalysis I/O
    for fn_name in ("load_trial_csv", "descriptive_table", "emit_report"):
        p(reports, fn_name, f"reports.{fn_name}")
