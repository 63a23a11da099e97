"""Build the synthetic reference assets used by the study plans and the
reanalysis examples: the pooled reference CSV, per-scheme graded-response
models, and the per-scheme weighted-sum approximations.

Usage:
    python scripts/build_reference_assets.py --out assets/ --seed 1
"""

import argparse
import logging
from pathlib import Path

from psprsim import (
    ReferenceConfig,
    RngStream,
    build_synthetic_reference,
    fit_grm,
    fit_linear_latent_approx,
)
from psprsim.engine import visit_thetas
from psprsim.reports import write_trial_csv
from psprsim.scales import ensure_scheme


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="assets")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=380)
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pool = build_synthetic_reference(ReferenceConfig(n_subjects=args.n), RngStream(args.seed))
    write_trial_csv(pool, out / "reference_pool.csv", arm_labels=("placebo", "dose-a"))

    for tag in ("original", "fda"):
        data = ensure_scheme(pool, tag)
        model = fit_grm(data)
        model.save(out / f"grm_{tag}.json")
        approx = fit_linear_latent_approx(data, visit_thetas(model, data).reshape(-1))
        approx.save(out / f"approx_{tag}.json")
        print(f"{tag}: GRM LL {model.fit_meta['log_likelihood']:.1f} "
              f"({model.fit_meta['iterations']} iters), approx R^2 {approx.r_squared:.4f}")
    print(f"assets in {out}/")


if __name__ == "__main__":
    main()
