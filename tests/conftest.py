import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import psprsim as ps

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def reference_pool():
    return ps.build_synthetic_reference(rng=ps.RngStream(1))


@pytest.fixture(scope="session")
def grm_model(reference_pool):
    return ps.fit_grm(reference_pool)


@pytest.fixture(scope="session")
def eap_thetas(reference_pool, grm_model):
    return ps.eap_scores(grm_model, reference_pool.flatten_visits())


@pytest.fixture(scope="session")
def latent_approx(reference_pool, grm_model, eap_thetas):
    return ps.fit_linear_latent_approx(reference_pool, eap_thetas)


@pytest.fixture(scope="session")
def calib10():
    return ps.build_omnibus_calibration(m=10, reps=20_000, seed=11)


@pytest.fixture(scope="session")
def calib3():
    return ps.build_omnibus_calibration(m=3, reps=20_000, seed=11)


@pytest.fixture()
def two_arm_dataset(reference_pool):
    """A 70/70 trial-sized dataset drawn from the reference distribution."""
    params = ps.DiscretizedMvnParams.estimate(reference_pool)
    scen = ps.builtin_scenarios()["d0"]
    return ps.gen_discretized_mvn(params, scen, 70, ps.RngStream(99))


def arm_symmetric_dataset(n=40, seed=5):
    """Duplicate every subject into both arms: exact arm exchangeability."""
    rng = np.random.default_rng(seed)
    baseline = rng.integers(0, 5, size=(n, 10))
    week52 = np.clip(baseline + rng.integers(-1, 2, size=(n, 10)), 0, 4)
    return ps.ItemDataset(
        ids=np.array([f"S{i}" for i in range(2 * n)]),
        arm=np.r_[np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)],
        baseline=np.vstack([baseline, baseline]),
        week52=np.vstack([week52, week52]),
    )


def endpoint_fits(data, model, approx):
    """The fit_marginals block of `data`, scored as engine.MethodContext
    scores it: one EAP and one LM call over both visits."""
    visits = np.stack([data.baseline, data.week52])
    return ps.fit_marginals(data, ps.eap_scores(model, visits), ps.approx_latent(approx, visits))


def item_fits(data):
    """The 10 item rows of the endpoint block; fit_ancova gives every column
    the bits of its lone fit, so the item block fitted alone has them."""
    return ps.fit_ancova(data.week52, data.baseline, data.arm)

