"""Simulation and analysis toolkit for multivariate ordinal endpoints on the
10-item PSPRS scale: marginal and global testing procedures, IRT-based
endpoints, trial-data generators, and a deterministic power-study engine."""

from .datagen import (
    DiscretizedMvnParams,
    EffectScenario,
    IrtPopulationParams,
    ReferenceConfig,
    build_synthetic_reference,
    builtin_scenarios,
    gen_bootstrap,
    gen_discretized_mvn,
    gen_irt_longitudinal,
)
from .engine import PowerTable, StudyPlan, prepare_auxiliaries, run_study
from .errors import (
    DegenerateDataError,
    FactorizationError,
    NonConvergenceError,
    NumericalError,
    PsprsimError,
    SingularDesignError,
    ValidationError,
)
from .irt import (
    GrItemParams,
    GrModel,
    LatentTrait,
    LinearLatentApprox,
    approx_latent,
    eap_score,
    eap_scores,
    fit_grm,
    fit_linear_latent_approx,
    grm_category_probs,
)
from .marginal import CorrelationEstimate, endpoint_rows, estimate_corr, fit_marginals
from .mvnorm import MvnSpec, mvn_rect_upper, sample_mvn
from .numkit import AncovaFit, RngStream, cholesky, fit_ancova, normal_quantile, student_t_cdf
from .procedures import (
    METHODS,
    OmnibusCalibration,
    TestOutcome,
    build_omnibus_calibration,
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
from .scales import ItemDataset, ScoringScheme, apply_rescoring, fda_scheme, original_scheme

__version__ = "0.1.0"
