"""Command-line surface.

Subcommands: simulate, analyze, fit-irt, fit-approx, calibrate-omnibus,
rescore, make-reference. Exit codes: 0 success, 2 validation error,
3 numerical failure. All randomness flows from explicit --seed flags or
plan fields; worker count comes from --workers or the PSPRSIM_WORKERS
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

from . import engine, procedures, reports
from .datagen import ReferenceConfig, build_synthetic_reference
from .errors import ValidationError
from .irt import GrModel, LinearLatentApprox, fit_grm, fit_linear_latent_approx
# unused here, but perfbench/tracing.py patches these names
from .irt import eap_scores  # noqa: F401
from .marginal import estimate_corr, fit_marginals  # noqa: F401
from .mvnorm import check_tol
from .numkit import RngStream
from .scales import ITEM_COLUMNS, apply_rescoring, ensure_scheme, get_scheme, load_scheme
from .procedures import METHODS

log = logging.getLogger(__name__)

SELF_FIT_CAVEAT = (
    "model was fitted on the analyzed trial itself; the dependence between "
    "model estimate and trial data may introduce a bias"
)


def _scheme_arg(tag_or_path: str):
    if tag_or_path in ("original", "fda"):
        return get_scheme(tag_or_path)
    return load_scheme(tag_or_path)


def _arm_map_arg(text: str | None) -> dict[str, str] | None:
    """The --arm-map flag: a JSON object mapping CSV arm labels to labels."""
    if not text:
        return None
    try:
        arm_map = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--arm-map is not JSON ({exc}): {text!r}") from exc
    if not isinstance(arm_map, dict) or not all(isinstance(v, str) for v in arm_map.values()):
        raise ValidationError(f"--arm-map must be a JSON object of strings, got {text!r}")
    return arm_map


def _cmd_simulate(args) -> int:
    plan = engine.StudyPlan.load(args.plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = engine.run_study(plan, workers=args.workers, cache_dir=args.cache_dir)
    table.save_csv(out / "power_table.csv")
    table.save_json(out / "power_table.json")
    table.save_pivot(plan, out / "power_pivot.txt")
    plan.save(out / "plan_echo.json")
    print(f"wrote {out / 'power_table.csv'} ({len(table.rows)} rows)")
    return 0


def _cmd_analyze(args) -> int:
    # the flags the methods read late are checked before the trial is read and fitted
    check_tol(args.maxt_tol, "--maxt-tol")
    procedures.check_calibration_reps(args.calibration_reps, "--calibration-reps")
    arm_map = {args.arm_a: "treatment", args.arm_b: "control"}
    data0 = reports.load_trial_csv(args.csv, arm_map, drop_unmapped=True)
    schemes = ["original", "fda"] if args.scheme == "both" else [args.scheme]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    comparison = f"{args.arm_a}-vs-{args.arm_b}"
    result_rows: list[dict] = []
    notes: list[str] = []
    failures = 0
    diag: dict = {"comparison": comparison, "schemes": {}}
    calib10 = procedures.get_omnibus_calibration(
        args.cache_dir, m=10, reps=args.calibration_reps, seed=args.seed
    )
    calib3 = procedures.get_omnibus_calibration(
        args.cache_dir, m=3, reps=args.calibration_reps, seed=args.seed
    )
    contexts, self_fitted = [], []
    for tag in schemes:
        data = ensure_scheme(data0, tag)
        model_path = {"original": args.model, "fda": args.model_fda}.get(tag)
        approx_path = {"original": args.approx, "fda": args.approx_fda}.get(tag)
        self_fitted.append(not (model_path and approx_path))
        model = GrModel.load(model_path) if model_path else fit_grm(data)
        thetas = None
        if approx_path:
            approx = LinearLatentApprox.load(approx_path)
        else:
            # weighted-sum surrogate derived from the active model's EAP
            # scores on the analyzed data, which the IRT row reuses
            thetas = engine.visit_thetas(model, data)
            approx = fit_linear_latent_approx(data, thetas.reshape(-1))
        contexts.append(engine.MethodContext(
            data=data, grm=model, approx=approx, calib_items=calib10, calib_domains=calib3,
            maxt_tol=args.maxt_tol, rng=RngStream(args.seed), thetas=thetas,
        ))
    engine.fit_endpoints(contexts)  # every scheme's endpoints in one pass
    for tag, ctx, fitted in zip(schemes, contexts, self_fitted):
        data, approx = ctx.data, ctx.approx
        if fitted:
            log.warning("%s scheme: %s", tag, SELF_FIT_CAVEAT)
            notes.append(f"{tag}: {SELF_FIT_CAVEAT}")
        outcomes = {}
        for method, o in zip(METHODS, engine.run_methods(ctx, METHODS)):
            if isinstance(o, Exception):
                notes.append(f"{tag}/{method}: {o}")
                failures += 1
                o = None
            outcomes[method] = o
            result_rows.append({"comparison": comparison, "scheme": tag, "method": method,
                                "statistic": None if o is None else o.statistic,
                                "p_one_sided": None if o is None else o.p_one_sided})
        gls, gls_drop = outcomes["GLS"], outcomes["GLS-drop"]
        try:
            fits = ctx.fits
        except engine.METHOD_ERRORS:
            fits = None
        diag["schemes"][tag] = {
            "n_treatment": int(data.arm.sum()),
            "n_control": int(data.n_subjects - data.arm.sum()),
            "gls_weights": None if gls is None else dict(zip(ITEM_COLUMNS, gls.weights.tolist())),
            "gls_dropped_items": None if gls_drop is None else gls_drop.dropped_items,
            "lm_weights": dict(zip(ITEM_COLUMNS, approx.weights.tolist())),
            "lm_normalized_weights": dict(
                zip(ITEM_COLUMNS, approx.normalized_weights.tolist())
            ),
            "lm_r_squared": approx.r_squared,
            "marginal_p": (None if fits is None
                           else dict(zip(ITEM_COLUMNS, fits.p.tolist()))),
        }
        desc = reports.descriptive_table(data, fits)
        reports.emit_report(list(reports.DESCRIPTIVE_COLUMNS), desc, "csv",
                            out / f"descriptives_{tag}.csv")

    header = ["comparison", "scheme", "method", "statistic", "p_one_sided"]
    reports.emit_report(header, result_rows, "csv", out / "analysis_results.csv")
    reports.emit_report(header, result_rows, "plain-table", out / "analysis_table.txt")
    full = {"results": result_rows, "notes": notes, "diagnostics": diag}
    (out / "analysis_results.json").write_text(json.dumps(full, indent=2), encoding="utf-8")
    print(f"wrote {out / 'analysis_results.json'} ({len(result_rows)} p-values)")
    if failures:
        print(f"numerical failure: {failures} of {len(result_rows)} methods failed; "
              "their p-values are null, see the notes", file=sys.stderr)
        return 3
    return 0


def _cmd_fit_irt(args) -> int:
    arm_map = _arm_map_arg(args.arm_map)
    data = reports.load_trial_csv(args.csv, arm_map)
    data = ensure_scheme(data, args.scheme)
    model = fit_grm(data)
    model.save(args.out)
    print(f"wrote {args.out} (log-likelihood {model.fit_meta['log_likelihood']:.2f}, "
          f"{model.fit_meta['iterations']} EM iterations)")
    return 0


def _cmd_fit_approx(args) -> int:
    arm_map = _arm_map_arg(args.arm_map)
    data = reports.load_trial_csv(args.csv, arm_map)
    model = GrModel.load(args.model)
    data = ensure_scheme(data, model.scheme)
    approx = fit_linear_latent_approx(data, engine.visit_thetas(model, data).reshape(-1))
    approx.save(args.out)
    print(f"wrote {args.out} (R^2 {approx.r_squared:.4f})")
    return 0


def _cmd_calibrate_omnibus(args) -> int:
    procedures.get_omnibus_calibration(args.cache_dir, m=args.m, reps=args.reps, seed=args.seed)
    print(f"omnibus calibration m={args.m}, reps={args.reps}, seed={args.seed} "
          f"is in {args.cache_dir}")
    return 0


def _cmd_rescore(args) -> int:
    scheme = _scheme_arg(args.scheme)
    arm_map = _arm_map_arg(args.arm_map)
    data, labels = reports.load_trial_csv(args.csv, arm_map, return_labels=True)
    rescored = apply_rescoring(data, scheme)
    reports.write_trial_csv(rescored, args.out, labels=labels)
    print(f"wrote {args.out} ({rescored.n_subjects} subjects, scheme {scheme.name})")
    return 0


def _cmd_make_reference(args) -> int:
    pool = build_synthetic_reference(ReferenceConfig(n_subjects=args.n), RngStream(args.seed))
    labels = ("placebo", "dose-a") if args.two_arm_labels else ("control", "treatment")
    reports.write_trial_csv(pool, args.out, arm_labels=labels)
    print(f"wrote {args.out} ({pool.n_subjects} subjects)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; parse_args gives each call its own namespace."""
    ap = argparse.ArgumentParser(prog="psprsim")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a study plan file")
    p.add_argument("plan")
    p.add_argument("--out", default="results")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="reanalyze a trial CSV (one pairwise comparison)")
    p.add_argument("csv")
    p.add_argument("--arm-a", required=True, help="treatment arm label")
    p.add_argument("--arm-b", required=True, help="control arm label")
    p.add_argument("--scheme", default="both", choices=["original", "fda", "both"])
    p.add_argument("--model", default=None, help="GrModel JSON for the original scheme")
    p.add_argument("--model-fda", default=None, help="GrModel JSON for the FDA scheme")
    p.add_argument("--approx", default=None, help="linear approximation JSON (original)")
    p.add_argument("--approx-fda", default=None, help="linear approximation JSON (fda)")
    p.add_argument("--out", default="reanalysis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--maxt-tol", type=float, default=1e-4)
    p.add_argument("--calibration-reps", type=int, default=100_000)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit-irt", help="fit a graded-response model on a trial CSV")
    p.add_argument("csv")
    p.add_argument("--scheme", default="original", choices=["original", "fda"])
    p.add_argument("--arm-map", default=None, help="JSON label map; default keeps all rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_irt)

    p = sub.add_parser("fit-approx", help="fit the weighted-sum latent approximation")
    p.add_argument("csv")
    p.add_argument("--model", required=True)
    p.add_argument("--arm-map", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_approx)

    p = sub.add_parser("calibrate-omnibus", help="build an omnibus null-distribution cache")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", required=True,
                   help="the directory analyze and simulate read with --cache-dir")
    p.set_defaults(func=_cmd_calibrate_omnibus)

    p = sub.add_parser("rescore", help="collapse a trial CSV into a coarser scheme")
    p.add_argument("csv")
    p.add_argument("--scheme", default="fda", help="scheme tag or config JSON path")
    p.add_argument("--arm-map", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rescore)

    p = sub.add_parser("make-reference", help="emit the synthetic reference pool as CSV")
    p.add_argument("--n", type=int, default=380)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--two-arm-labels", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_reference)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a path that is missing or of the wrong kind: each OSError names its path
    except (ValidationError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except engine.METHOD_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
