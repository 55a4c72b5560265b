"""Posterior summarization and model-comparison metrics.

Shared by every sampler in the package: moment and quantile summaries with
autocorrelation-aware effective sample sizes, the deviance information
criterion evaluated on the current-study likelihood, and the replication
metrics used by the simulation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .conjugate import current_design
from .core import Dataset, DrawsMatrix, ValidationError


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    mean: float
    sd: float
    ci_low: float
    ci_high: float
    ess: float
    mcse: float


@dataclass(frozen=True)
class PosteriorSummary:
    parameters: tuple
    ci_mass: float
    dic: Optional[float] = None
    ssc_mean: Optional[float] = None

    def parameter(self, name: str) -> ParameterSummary:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named {name!r}")


@dataclass(frozen=True)
class SimMetrics:
    pab: float
    mse: float
    coverage: float


def ess(x: np.ndarray) -> float:
    """Effective sample size via the initial-positive-sequence truncation.

    Autocovariances come from one FFT; successive pairs are summed and the
    series is truncated at the first nonpositive pair, which is the standard
    conservative rule for reversible chains.  Constant series count as fully
    independent.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    xc = x - x.mean()
    var0 = float(xc @ xc) / n
    if var0 == 0.0:
        return float(n)
    m = 1 << int(np.ceil(np.log2(2 * n - 1)))
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conjugate(f))[:n].real / n
    rho = acov / var0
    npairs = n // 2
    pair_sums = rho[0 : 2 * npairs : 2] + rho[1 : 2 * npairs : 2]
    tau = -1.0
    for g in pair_sums:
        if g <= 0:
            break
        tau += 2.0 * g
    tau = max(tau, 1.0 / n)
    return float(min(n, n / tau))


def batch_means_se(x: np.ndarray, n_batches: int = 50) -> float:
    """Monte Carlo standard error of the mean by nonoverlapping batch means."""
    x = np.asarray(x, dtype=float)
    if x.size < 2 * n_batches:
        n_batches = max(2, x.size // 2)
    size = x.size // n_batches
    if size < 1:
        raise ValidationError("too few draws for batch means")
    trimmed = x[: size * n_batches].reshape(n_batches, size)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def summarize(draws: DrawsMatrix, ci_mass: float = 0.95) -> PosteriorSummary:
    """Per-parameter means, SDs, central credible intervals, ESS and MCSE."""
    if draws.n_draws == 0:
        raise ValidationError("no retained draws to summarize")
    if not (0.0 < ci_mass < 1.0):
        raise ValidationError("ci_mass must lie in (0, 1)")
    tail = (1.0 - ci_mass) / 2.0
    params = []
    for name in draws.columns:
        x = draws.column(name)
        mean = float(x.mean())
        sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
        lo, hi = np.quantile(x, [tail, 1.0 - tail])
        e = ess(x)
        mcse = sd / np.sqrt(e) if e > 0 else 0.0
        params.append(
            ParameterSummary(name, mean, sd, float(lo), float(hi), e, float(mcse))
        )
    return PosteriorSummary(parameters=tuple(params), ci_mass=ci_mass)


def with_extras(
    summary: PosteriorSummary,
    dic: Optional[float] = None,
    ssc_mean: Optional[float] = None,
) -> PosteriorSummary:
    return replace(summary, dic=dic, ssc_mean=ssc_mean)


_DIC_BLOCK = 1 << 20  # residual-matrix entries evaluated at once


def _poisson_deviances(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deviance at each rate in ``theta``; ``inf`` where a rate is not positive."""
    lfact = float(gammaln(y + 1).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = float(y.sum()) * np.log(theta) - y.size * theta - lfact
    return np.where(theta > 0, -2.0 * ll, np.inf)


def _linear_deviances(
    B: np.ndarray, tau: np.ndarray, y: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Deviance at each coefficient row of ``B`` with precision ``tau``.

    Residual sums of squares come from the residual matrix ``y - X B'``, built
    in blocks of draws so its size stays bounded.
    """
    n = y.size
    ssr = np.empty(B.shape[0])
    step = max(1, _DIC_BLOCK // n)
    for s in range(0, B.shape[0], step):
        resid = y[None, :] - B[s : s + step] @ X.T
        ssr[s : s + step] = np.einsum("ij,ij->i", resid, resid)
    ll = 0.5 * n * (np.log(tau) - np.log(2 * np.pi)) - 0.5 * tau * ssr
    return -2.0 * ll


def dic(draws: DrawsMatrix, data: Dataset, model_kind: Optional[str] = None) -> float:
    """Deviance information criterion on the current-study likelihood.

    The plug-in deviance uses the posterior mean of the coefficients and of
    the log precision (mean on the log scale sidesteps Jensen artifacts on
    scale parameters).  Historical-data terms are deliberately excluded: the
    comparison of interest is between priors for the same current-data model.
    """
    if draws.n_draws == 0:
        raise ValidationError("no retained draws")
    kind = model_kind or draws.meta.get("model_kind")
    if kind == "poisson":
        theta = draws.column("theta_1")
        dev = _poisson_deviances(theta, data.y)
        dev_at_mean = _poisson_deviances(np.array([theta.mean()]), data.y)[0]
    elif kind == "normal_linear":
        cols = draws.meta.get("theta1_columns")
        if not cols:
            raise ValidationError("draws lack theta1_columns metadata")
        beta_cols = [c for c in cols if not c.startswith("tau")]
        B = np.column_stack([draws.column(c) for c in beta_cols])
        tau = draws.column("tau_1")
        X = current_design(data, B.shape[1])
        dev = _linear_deviances(B, tau, data.y, X)
        dev_at_mean = _linear_deviances(
            B.mean(axis=0)[None, :], np.array([np.exp(np.log(tau).mean())]), data.y, X
        )[0]
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    mean_dev = float(dev.mean())
    return float(2.0 * mean_dev - dev_at_mean)


def sim_metrics(estimates, ci_lows, ci_highs, truth: float) -> SimMetrics:
    """Replication metrics: mean percent absolute bias (as a fraction),
    mean squared error, and credible-interval coverage."""
    est = np.asarray(estimates, dtype=float)
    lo = np.asarray(ci_lows, dtype=float)
    hi = np.asarray(ci_highs, dtype=float)
    if est.size < 1 or est.shape != lo.shape or est.shape != hi.shape:
        raise ValidationError("estimates and interval bounds must align, with >= 1 rep")
    if truth == 0:
        raise ValidationError("truth must be nonzero for percent bias")
    pab = float(np.mean(np.abs((est - truth) / truth)))
    mse = float(np.mean((est - truth) ** 2))
    coverage = float(np.mean((lo <= truth) & (truth <= hi)))
    return SimMetrics(pab=pab, mse=mse, coverage=coverage)
