import pickle

import numpy as np
import pytest

from leapborrow import SimScenario, ValidationError, generate_replication, run_simulation
from leapborrow.simulate import (
    LOG_COV_COV,
    LOG_COV_MEAN,
    SamplerSettings,
    TREAT_PROB,
    TRUE_TREATMENT_EFFECT,
    draw_log_covariates,
)


class TestScenario:
    def test_invalid_exchangeability(self):
        with pytest.raises(ValidationError):
            SimScenario(exchangeability="most", q=0.5)

    def test_invalid_q(self):
        with pytest.raises(ValidationError):
            SimScenario(exchangeability="half", q=0.0)


class TestGenerator:
    def test_log_covariate_moments(self):
        rng = np.random.default_rng(0)
        lc = draw_log_covariates(100_000, LOG_COV_MEAN, rng)
        n = lc.shape[0]
        se_mean = np.sqrt(np.diag(LOG_COV_COV) / n)
        assert np.all(np.abs(lc.mean(axis=0) - LOG_COV_MEAN) < 3 * se_mean)
        emp_cov = np.cov(lc.T)
        # variance of a sample (co)variance is O(1/n); allow 3 generous SEs
        assert np.all(np.abs(emp_cov - LOG_COV_COV) < 3 * 0.15 / np.sqrt(n))

    def test_replication_shapes_and_sizes(self):
        sc = SimScenario(exchangeability="half", q=0.5, n_extra=50, n0=40, reps=1, seed=1)
        data, hist, truth = generate_replication(sc, 0)
        assert truth == TRUE_TREATMENT_EFFECT
        assert hist.n0 == 40
        assert data.n == 90
        assert data.X.shape == (90, 4)
        assert hist.X0.shape == (40, 4)
        assert set(np.unique(data.z)) <= {0.0, 1.0}

    def test_treatment_assignment_rate(self):
        sc = SimScenario(exchangeability="full", n0=4000, reps=1, seed=2)
        data, _, _ = generate_replication(sc, 0)
        rate = data.z.mean()
        assert abs(rate - TREAT_PROB) < 3 * np.sqrt(TREAT_PROB * (1 - TREAT_PROB) / data.n)

    def test_deterministic_per_replication(self):
        sc = SimScenario(exchangeability="none", q=0.25, n0=30, reps=2, seed=3)
        d1, h1, _ = generate_replication(sc, 1)
        d2, h2, _ = generate_replication(sc, 1)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(h1.X0, h2.X0)
        d3, _, _ = generate_replication(sc, 0)
        assert not np.array_equal(d1.y, d3.y)

    def test_unexchangeable_group_differs(self):
        sc = SimScenario(exchangeability="none", q=0.25, n0=400, reps=1, seed=4)
        _, hist_un, _ = generate_replication(sc, 0)
        sc_full = SimScenario(exchangeability="full", q=0.25, n0=400, reps=1, seed=4)
        _, hist_f, _ = generate_replication(sc_full, 0)
        # shifted covariate distribution and shrunken coefficients move outcomes
        assert abs(hist_un.y0.mean() - hist_f.y0.mean()) > 2.0


class TestRunSimulation:
    def test_unknown_prior_lists_supported(self):
        sc = SimScenario(exchangeability="full", n0=10, reps=1, seed=0)
        with pytest.raises(ValidationError, match="leap, npbpp, reference"):
            run_simulation(sc, ["bogus"])

    def test_small_run_structure(self):
        sc = SimScenario(exchangeability="full", n0=15, n_extra=5, reps=2, seed=5)
        settings = SamplerSettings(n_draws=400, burn_in=100, a0_grid_size=51)
        out = run_simulation(sc, ["leap", "npbpp", "reference"], settings=settings)
        assert set(out["metrics"]) == {"leap", "npbpp", "reference"}
        for m in out["metrics"].values():
            assert m.mse >= 0 and 0 <= m.coverage <= 1
        assert out["estimates"]["leap"].shape == (2, 3)

    def test_worker_count_reproducible(self):
        sc = SimScenario(exchangeability="half", q=0.5, n0=12, n_extra=4, reps=3, seed=6)
        settings = SamplerSettings(n_draws=300, burn_in=50, a0_grid_size=31)
        a = run_simulation(sc, ["leap"], settings=settings, workers=1)
        b = run_simulation(sc, ["leap"], settings=settings, workers=2)
        assert np.array_equal(a["estimates"]["leap"], b["estimates"]["leap"])

    def test_all_priors_byte_identical_across_workers(self):
        sc = SimScenario(exchangeability="none", q=0.5, n0=14, n_extra=6, reps=2, seed=8)
        settings = SamplerSettings(n_draws=300, burn_in=50, a0_grid_size=101)
        priors = ["leap", "npbpp", "reference"]
        a = run_simulation(sc, priors, settings=settings, workers=1)
        b = run_simulation(sc, priors, settings=settings, workers=2)
        assert pickle.dumps(a) == pickle.dumps(b)
