"""Synthetic-trial generator and replication driver for operating characteristics.

Each replication generates a current two-arm study and an all-control
historical study from a linear outcome model on standardized covariates
(age, age squared, baseline severity score), fits the requested priors, and
scores the treatment-effect estimate.  Historical subjects are exchangeable,
half exchangeable, or fully unexchangeable with the current study; the
unexchangeable group scales both its outcome coefficients and its
log-covariate means by a common factor ``q``.

Replication seeds derive from the master seed by spawn keys, so results are
byte-identical no matter how many workers execute the replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import comparators, diagnostics, gibbs
from .conjugate import NormalGammaPrior
from .core import Dataset, HistoricalDataset, LeapConfig, ValidationError
from .pool import map_tasks

TRUE_COEFFS = np.array([-18.00, 0.49, -1.67, 1.99])  # intercept, age, age^2, score
TRUE_TREATMENT_EFFECT = -35.39
LOG_COV_MEAN = np.array([3.78, 2.90])
LOG_COV_COV = np.array([[0.09, -0.01], [-0.01, 0.10]])
TREAT_PROB = 2.0 / 3.0
DEFAULT_SIGMA = 35.0

SUPPORTED_PRIORS = ("leap", "npbpp", "reference")


@dataclass(frozen=True)
class SimScenario:
    exchangeability: str  # full | half | none
    q: float = 0.5
    n_extra: int = 0
    n0: int = 150
    reps: int = 200
    seed: int = 0
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.exchangeability not in ("full", "half", "none"):
            raise ValidationError(
                f"exchangeability must be full, half or none, got {self.exchangeability!r}"
            )
        if not (0.0 < self.q <= 1.0):
            raise ValidationError("q must lie in (0, 1]")
        if self.n_extra < 0 or self.n0 < 1 or self.reps < 1:
            raise ValidationError("need n_extra >= 0, n0 >= 1, reps >= 1")
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")


@dataclass(frozen=True)
class SamplerSettings:
    """Chain lengths for the per-replication fits (totals include burn-in)."""

    n_draws: int = 4_500
    burn_in: int = 500
    a0_grid_size: int = 1001


def draw_log_covariates(n: int, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bivariate normal log-covariates with the population covariance."""
    L = np.linalg.cholesky(LOG_COV_COV)
    return mu[None, :] + rng.standard_normal((n, 2)) @ L.T


def _raw_covariates(logcov: np.ndarray) -> np.ndarray:
    age = np.exp(logcov[:, 0])
    score = np.exp(logcov[:, 1])
    return np.column_stack([age, age**2, score])


def generate_replication(scenario: SimScenario, rep: int):
    """One synthetic (current, historical, truth) triple.

    Covariates are centered and scaled by pooled per-replication statistics
    so both designs share one standardization.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(scenario.seed, spawn_key=(rep,))
    )
    n0 = scenario.n0
    n = n0 + scenario.n_extra

    if scenario.exchangeability == "full":
        n_unexch = 0
    elif scenario.exchangeability == "half":
        n_unexch = n0 // 2
    else:
        n_unexch = n0
    n_exch = n0 - n_unexch

    mu_unexch = scenario.q * LOG_COV_MEAN
    logcov_hist = np.vstack(
        [
            draw_log_covariates(n_exch, LOG_COV_MEAN, rng)
            if n_exch
            else np.empty((0, 2)),
            draw_log_covariates(n_unexch, mu_unexch, rng)
            if n_unexch
            else np.empty((0, 2)),
        ]
    )
    logcov_cur = draw_log_covariates(n, LOG_COV_MEAN, rng)
    z = (rng.random(n) < TREAT_PROB).astype(float)

    raw_hist = _raw_covariates(logcov_hist)
    raw_cur = _raw_covariates(logcov_cur)
    pooled = np.vstack([raw_cur, raw_hist])
    center = pooled.mean(axis=0)
    scale = pooled.std(axis=0)
    scale[scale == 0] = 1.0

    std_hist = (raw_hist - center) / scale
    std_cur = (raw_cur - center) / scale
    X0 = np.column_stack([np.ones(n0), std_hist])
    X = np.column_stack([np.ones(n), std_cur])

    coeffs_unexch = scenario.q * TRUE_COEFFS
    mean_hist = np.empty(n0)
    mean_hist[:n_exch] = X0[:n_exch] @ TRUE_COEFFS
    mean_hist[n_exch:] = X0[n_exch:] @ coeffs_unexch
    y0 = mean_hist + scenario.sigma * rng.standard_normal(n0)
    y = X @ TRUE_COEFFS + z * TRUE_TREATMENT_EFFECT + scenario.sigma * rng.standard_normal(n)

    data = Dataset(y=y, z=z, X=X)
    hist = HistoricalDataset(y0=y0, X0=X0)
    return data, hist, TRUE_TREATMENT_EFFECT


def default_leap_config(p_effective: int) -> LeapConfig:
    """Two-component mixture with diffuse proper normal-gamma components."""
    prior = NormalGammaPrior(
        mu0=np.zeros(p_effective),
        omega0=0.01 * np.eye(p_effective),
        delta0=0.02,
        xi0=0.02,
    )
    return LeapConfig(
        K=2,
        alpha0=np.array([0.95, 0.95]),
        component_priors=(prior, prior),
        model_kind="normal_linear",
    )


def default_npp_config(p_effective: int, grid_size: int = 1001) -> comparators.NppConfig:
    prior = NormalGammaPrior(
        mu0=np.zeros(p_effective),
        omega0=0.01 * np.eye(p_effective),
        delta0=0.02,
        xi0=0.02,
    )
    return comparators.NppConfig(
        prior=prior,
        a0_prior=comparators.A0Prior("uniform"),
        a0_grid_size=grid_size,
    )


def _fit_seed(master: int, rep: int, prior_index: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(rep, 1 + prior_index))
    return int(ss.generate_state(1)[0])


def _treatment_summary(draws, name: str):
    s = diagnostics.summarize(draws)
    p = s.parameter(name)
    return p.mean, p.ci_low, p.ci_high


def run_replication(scenario: SimScenario, rep: int, priors, settings: SamplerSettings):
    """Fit every requested prior on replication ``rep``; returns estimate rows."""
    data, hist, truth = generate_replication(scenario, rep)
    p_eff = data.X.shape[1] + 1  # treatment column appended last
    trt_col = f"beta_1_{p_eff}"
    out = {}
    for j, prior in enumerate(priors):
        seed = _fit_seed(scenario.seed, rep, j)
        if prior == "leap":
            cfg = default_leap_config(p_eff)
            draws = gibbs.run_chain(
                data, hist, cfg,
                n_draws=settings.n_draws, burn_in=settings.burn_in,
                seed=seed,
            )
        elif prior == "npbpp":
            cfg = default_npp_config(p_eff, settings.a0_grid_size)
            draws = comparators.npp_posterior(
                data, hist, cfg,
                n_draws=settings.n_draws - settings.burn_in, seed=seed,
            )
        elif prior == "reference":
            draws = comparators.reference_posterior(
                data, comparators.ReferencePriorConfig(),
                n_draws=settings.n_draws, burn_in=settings.burn_in, seed=seed,
            )
        else:
            raise ValidationError(
                f"unknown prior {prior!r}; supported priors: {', '.join(SUPPORTED_PRIORS)}"
            )
        out[prior] = _treatment_summary(draws, trt_col)
    return out, truth


def _rep_worker(args):
    scenario, rep, priors, settings = args
    return run_replication(scenario, rep, priors, settings)


def run_simulation(
    scenario: SimScenario,
    priors,
    settings: Optional[SamplerSettings] = None,
    workers: int = 1,
) -> dict:
    """Replication study; returns per-prior metrics plus per-rep estimates.

    Replications execute independently (optionally in a process pool) and
    are merged in replication order.
    """
    priors = list(priors)
    for prior in priors:
        if prior not in SUPPORTED_PRIORS:
            raise ValidationError(
                f"unknown prior {prior!r}; supported priors: {', '.join(SUPPORTED_PRIORS)}"
            )
    settings = settings or SamplerSettings()
    tasks = [(scenario, rep, priors, settings) for rep in range(scenario.reps)]
    results = list(map_tasks(_rep_worker, tasks, workers))

    truth = results[0][1]
    metrics = {}
    estimates = {}
    for prior in priors:
        est = np.array([r[0][prior][0] for r in results])
        lo = np.array([r[0][prior][1] for r in results])
        hi = np.array([r[0][prior][2] for r in results])
        metrics[prior] = diagnostics.sim_metrics(est, lo, hi, truth)
        estimates[prior] = np.column_stack([est, lo, hi])
    return {"truth": truth, "metrics": metrics, "estimates": estimates}
