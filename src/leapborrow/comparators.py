"""Comparator posteriors: normalized power prior and reference prior.

The power-prior comparator raises the historical likelihood to a weight
``a0`` and treats ``a0`` as unknown.  Instead of running MCMC over ``a0``,
the posterior of ``a0`` is computed exactly on a grid by marginalizing the
outcome parameters in closed form, then parameters are drawn conjugately
given each sampled weight.  That keeps the comparator deterministic, cheap,
and easy to verify against quadrature.

The reference comparator is an independent normal prior on the coefficients
with a half-normal prior on the outcome SD, sampled by exact coefficient
draws alternated with a random-walk Metropolis step on the log SD.  The
isotropic prior precision shares the eigenvectors of ``X'X``, so one
``eigh`` per fit diagonalizes every step's conditional precision and a step
is O(p).  Its random numbers come from the chain generator as three blocks
(step normals, proposal normals, uniforms).  Seeded reference draws differ
from those of the earlier per-step Cholesky sampler, which drew its normals
step by step and mapped them through the Cholesky factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import gammaln, xlogy

from .conjugate import (
    _PIVOT_RTOL,
    NormalGammaPrior,
    PoissonGammaPrior,
    _tri_solve_stack,
    chol_pd,
    current_design,
    hist_design,
    logdet_from_chol,
    ng_update_stack,
)
from .core import (
    Dataset,
    DrawsMatrix,
    HistoricalDataset,
    NumericalError,
    ValidationError,
    design_rank_ok,
)
from .gibbs import chain_rng


@dataclass(frozen=True)
class A0Prior:
    """Prior on the historical-likelihood weight.

    Kinds: ``uniform`` on [0, 1]; ``truncated_uniform`` on [0, bound];
    ``beta`` with two shapes; ``fixed`` at a point (plain power prior).
    """

    kind: str
    bound: float = 1.0
    shape1: float = 1.0
    shape2: float = 1.0
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "truncated_uniform", "beta", "fixed"):
            raise ValidationError(f"unknown a0 prior kind {self.kind!r}")
        if self.kind == "truncated_uniform" and not (0.0 < self.bound <= 1.0):
            raise ValidationError("truncation bound must lie in (0, 1]")
        if self.kind == "beta" and not (self.shape1 > 0 and self.shape2 > 0):
            raise ValidationError("beta shapes must be positive")
        if self.kind == "fixed" and not (0.0 <= self.value <= 1.0):
            raise ValidationError("fixed a0 must lie in [0, 1]")


@dataclass(frozen=True)
class NppConfig:
    """Normalized power prior configuration for either outcome family."""

    prior: Union[PoissonGammaPrior, NormalGammaPrior]
    a0_prior: A0Prior = A0Prior("uniform")
    a0_grid_size: int = 1001

    def __post_init__(self):
        if self.a0_grid_size < 11:
            raise ValidationError("a0 grid size must be >= 11")
        if isinstance(self.prior, NormalGammaPrior) and not self.prior.is_proper():
            raise ValidationError(
                "power-prior comparator requires a proper initial prior; "
                "use a small positive definite omega0 for a diffuse one"
            )

    @property
    def family(self) -> str:
        return "poisson" if isinstance(self.prior, PoissonGammaPrior) else "normal_linear"


@dataclass(frozen=True)
class ReferencePriorConfig:
    """Independent N(0, coef_sd^2) coefficients, half-normal(sigma_sd) outcome SD."""

    coef_sd: float = 10.0
    sigma_sd: float = 10.0

    def __post_init__(self):
        if not (self.coef_sd > 0 and self.sigma_sd > 0):
            raise ValidationError("prior SDs must be positive")


# ---------------------------------------------------------------------------
# closed-form updates, batched over a grid of weights
#
# Both families reduce to sufficient statistics, so a weighted update is
# ``prior + current + a0 * history`` in those statistics and a whole grid of
# weights costs one stacked factorization instead of one per weight.


class _GridUpdate(NamedTuple):
    """Conjugate posterior and log marginal likelihood at each weight of a grid.

    Poisson: gamma ``(shape, rate)``; ``mean`` and ``chol`` are None.  Linear:
    ``beta | tau ~ N(mean, (tau * P)^-1)`` with ``chol`` the lower factor of
    ``P``, and ``tau ~ Gamma(shape, rate)``.
    """

    shape: np.ndarray
    rate: np.ndarray
    log_marginal: np.ndarray
    mean: Optional[np.ndarray] = None
    chol: Optional[np.ndarray] = None


def _block_stats(cfg: NppConfig, y: np.ndarray, X: Optional[np.ndarray]) -> tuple:
    """Sufficient statistics of one data block.

    Poisson: ``(sum y, sum log y!, n)``.  Linear: ``(X'X, X'y, y'y, n)``.
    """
    if cfg.family == "poisson":
        return float(y.sum()), float(gammaln(y + 1).sum()), float(y.size)
    return X.T @ X, X.T @ y, float(y @ y), float(y.size)


def _current_stats(data: Dataset, cfg: NppConfig) -> tuple:
    X = None if cfg.family == "poisson" else current_design(data, cfg.prior.p)
    return _block_stats(cfg, data.y, X)


def _hist_stats(hist: HistoricalDataset, cfg: NppConfig) -> tuple:
    X0 = None if cfg.family == "poisson" else hist_design(hist, cfg.prior.p)
    return _block_stats(cfg, hist.y0, X0)


def _poisson_grid(prior: PoissonGammaPrior, cur, past, a: np.ndarray) -> _GridUpdate:
    shape = prior.eta0
    rate = prior.beta0
    const = prior.eta0 * np.log(prior.beta0) - gammaln(prior.eta0)
    if cur is not None:
        s, lfact, n = cur
        shape += s
        rate += n
        const -= lfact
    s0, lfact0, n0 = past
    shape = shape + a * s0
    rate = rate + a * n0
    log_marginal = const - a * lfact0 + gammaln(shape) - shape * np.log(rate)
    return _GridUpdate(shape, rate, log_marginal)


def _ng_grid(prior: NormalGammaPrior, cur, past, a: np.ndarray) -> _GridUpdate:
    XtX0, Xty0, yy0, n0 = past
    stats = [a[:, None, None] * XtX0, a[:, None] * Xty0, a * yy0, a * n0]
    if cur is not None:
        stats = [s + c for s, c in zip(stats, cur)]
    upd = ng_update_stack(prior, *stats, where=lambda i: f" at a0 = {a[i]:g}")
    log_marginal = (
        -0.5 * stats[3] * np.log(2 * np.pi)
        + 0.5 * logdet_from_chol(chol_pd(prior.omega0))
        - gammaln(prior.delta0 / 2.0)
        + (prior.delta0 / 2.0) * np.log(prior.xi0 / 2.0)
        + upd.log_kernel
    )
    return _GridUpdate(upd.shape, upd.rate, log_marginal, upd.mean, upd.chol)


def _grid_update(cfg: NppConfig, cur, past, a: np.ndarray) -> _GridUpdate:
    """Updates at weights ``a`` of the prior by ``cur`` (or nothing, if None) plus ``a * past``."""
    if cfg.family == "poisson":
        return _poisson_grid(cfg.prior, cur, past, a)
    return _ng_grid(cfg.prior, cur, past, a)


def _check_weight(a0: float):
    if not (0.0 <= a0 <= 1.0):
        raise ValidationError(f"a0 must lie in [0, 1], got {a0}")


def npp_log_norm_const(a0: float, hist: HistoricalDataset, cfg: NppConfig) -> float:
    """Log normalizing constant of the power prior at weight ``a0``.

    Exactly zero at ``a0 = 0`` for a proper initial prior; the full-data
    conjugate log marginal likelihood at ``a0 = 1``.
    """
    _check_weight(a0)
    upd = _grid_update(cfg, None, _hist_stats(hist, cfg), np.array([float(a0)]))
    return float(upd.log_marginal[0])


def _a0_grid(cfg: NppConfig):
    pri = cfg.a0_prior
    G = cfg.a0_grid_size
    if pri.kind == "fixed":
        return np.array([pri.value]), np.zeros(1)
    if pri.kind == "uniform":
        grid = np.linspace(0.0, 1.0, G)
        logp = np.zeros(G)
    elif pri.kind == "truncated_uniform":
        grid = np.linspace(0.0, pri.bound, G)
        logp = np.zeros(G)
    else:  # beta: open grid since the density can diverge at the endpoints
        grid = np.linspace(0.0, 1.0, G + 2)[1:-1]
        logp = xlogy(pri.shape1 - 1.0, grid) + xlogy(pri.shape2 - 1.0, 1.0 - grid)
    return grid, logp


def npp_a0_posterior(
    data: Dataset, hist: HistoricalDataset, cfg: NppConfig
) -> tuple:
    """Grid values and exact normalized posterior pmf of the weight ``a0``."""
    grid, logp = _a0_grid(cfg)
    past = _hist_stats(hist, cfg)
    joint = _grid_update(cfg, _current_stats(data, cfg), past, grid)
    norm = _grid_update(cfg, None, past, grid)
    logw = logp + joint.log_marginal - norm.log_marginal
    logw -= logw.max()
    w = np.exp(logw)
    return grid, w / w.sum()


def npp_conditional_posterior(
    a0: float, data: Dataset, hist: HistoricalDataset, cfg: NppConfig
):
    """Conjugate posterior parameters of the outcome model at a fixed ``a0``.

    Poisson: ``(shape, rate)`` of the gamma posterior.  Linear:
    ``(mean, precision_chol, shape, rate)`` of the normal-gamma posterior.
    """
    _check_weight(a0)
    upd = _grid_update(
        cfg, _current_stats(data, cfg), _hist_stats(hist, cfg), np.array([float(a0)])
    )
    if cfg.family == "poisson":
        return float(upd.shape[0]), float(upd.rate[0])
    return upd.mean[0], upd.chol[0], float(upd.shape[0]), float(upd.rate[0])


def npp_posterior(
    data: Dataset,
    hist: HistoricalDataset,
    cfg: NppConfig,
    n_draws: int = 20_000,
    seed: int = 0,
) -> DrawsMatrix:
    """Joint draws of the outcome parameters and ``a0``.

    ``a0`` indices are sampled from the exact grid pmf; parameters are then
    drawn from the conjugate conditional at each sampled weight.  The
    conditionals of all distinct sampled weights come from one batched update.
    """
    if n_draws < 1:
        raise ValidationError("n_draws must be >= 1")
    rng = chain_rng(seed)
    grid, pmf = npp_a0_posterior(data, hist, cfg)
    idx = rng.choice(grid.size, size=n_draws, p=pmf)
    a0_draws = grid[idx]
    uniq, inverse, counts = np.unique(idx, return_inverse=True, return_counts=True)
    cond = _grid_update(
        cfg, _current_stats(data, cfg), _hist_stats(hist, cfg), grid[uniq]
    )

    if cfg.family == "poisson":
        theta = rng.gamma(cond.shape[inverse], 1.0 / cond.rate[inverse])
        columns = ("theta_1", "a0")
        values = np.column_stack([theta, a0_draws])
        theta1_cols = ["theta_1"]
        kind = "poisson"
    else:
        p = cfg.prior.p
        taus = np.empty(n_draws)
        z = np.empty((n_draws, p))
        # per distinct weight, in grid order: its precisions, then its normals
        groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
        for j, sel in enumerate(groups):
            taus[sel] = rng.gamma(cond.shape[j], 1.0 / cond.rate[j], size=sel.size)
            z[sel] = rng.standard_normal((sel.size, p))
        dev = _tri_solve_stack(cond.chol, z, transpose=True, index=inverse)
        betas = cond.mean[inverse] + dev / np.sqrt(taus)[:, None]
        columns = tuple(
            [f"beta_1_{j + 1}" for j in range(p)] + ["tau_1", "sigma_1", "a0"]
        )
        values = np.column_stack([betas, taus, 1.0 / np.sqrt(taus), a0_draws])
        theta1_cols = [f"beta_1_{j + 1}" for j in range(p)] + ["tau_1"]
        kind = "normal_linear"

    meta = {
        "model_kind": kind,
        "seed": seed,
        "n_draws": n_draws,
        "theta1_columns": theta1_cols,
        "sampler": "npp_grid",
        "a0_grid_size": cfg.a0_grid_size,
    }
    return DrawsMatrix(columns=columns, values=values, meta=meta)


# ---------------------------------------------------------------------------
# reference prior sampler


def _tau_cap(d: np.ndarray, c: float) -> float:
    """Largest precision ``tau`` at which ``tau * d + c`` passes the pivot floor.

    The floor fails when ``min(lam) < _PIVOT_RTOL * sum(lam) / p`` for
    ``lam = tau * d + c`` (``d`` ascending), and that is linear in ``tau``:
    ``tau * (_PIVOT_RTOL * mean(d) - d[0]) > c * (1 - _PIVOT_RTOL)``.
    """
    slope = _PIVOT_RTOL * float(d.mean()) - float(d[0])
    return c * (1.0 - _PIVOT_RTOL) / slope if slope > 0 else math.inf


def reference_posterior(
    data: Dataset,
    cfg: ReferencePriorConfig,
    n_draws: int = 22_000,
    seed: int = 0,
    burn_in: int = 2_000,
    thin: int = 1,
) -> DrawsMatrix:
    """Linear-model posterior under the reference prior.

    Coefficients given the SD are drawn exactly from their normal
    conditional; the log SD moves by random-walk Metropolis with step size
    adapted toward 40 percent acceptance during burn-in only, so retained
    draws come from a fixed kernel.  Deterministic given the seed.

    The conditional precision ``tau X'X + I / coef_sd^2`` has the
    eigenvectors ``V`` of ``X'X`` at every ``tau``, so the chain runs in
    ``u = V' beta``, where it is diagonal: a step is O(p), with the residual
    sum of squares from sufficient statistics.  The step normals, proposal
    normals and uniforms are drawn as three blocks up front, and retained
    draws map back through one product with ``V'``.
    """
    X = data.effective_design()
    if X is None:
        raise ValidationError("reference prior requires a linear-model design")
    if not design_rank_ok(X):
        raise ValidationError("reference prior requires a full-rank design")
    if not (0 <= burn_in <= n_draws):
        raise ValidationError("burn_in must lie in [0, n_draws]")
    n, p = X.shape
    d, V = np.linalg.eigh(X.T @ X)
    w = V.T @ (X.T @ data.y)
    two_w = 2.0 * w
    yty = float(data.y @ data.y)
    c = 1.0 / cfg.coef_sd**2
    tau_cap = _tau_cap(d, c)
    half_inv_s2 = 0.5 / cfg.sigma_sd**2

    rng = chain_rng(seed)
    Z = rng.standard_normal((n_draws, p))
    moves = rng.standard_normal(n_draws)
    log_u = np.log(rng.random(n_draws))

    log_sigma = 0.5 * math.log(float(np.var(data.y)) or 1.0)
    step = 0.5
    accepted = 0
    proposed = 0

    def log_target(ls: float, ssr: float) -> float:
        sigma2 = math.exp(2.0 * ls)
        # jacobian of sigma -> log sigma adds +ls
        return -n * ls - 0.5 * ssr / sigma2 - half_inv_s2 * sigma2 + ls

    n_retained = len(range(burn_in, n_draws, thin))
    U = np.empty((n_retained, p))
    log_sigmas = np.empty(n_retained)
    kept = 0
    for t in range(n_draws):
        tau = math.exp(-2.0 * log_sigma)
        lam = tau * d + c
        if tau > tau_cap:
            raise NumericalError(
                f"near-singular precision matrix at step {t}: smallest eigenvalue "
                f"{lam[0]:.3e} below threshold {_PIVOT_RTOL * lam.mean():.3e} "
                f"(eigenvalue range [{lam[0]:.3e}, {lam[-1]:.3e}])"
            )
        u = (tau * w + np.sqrt(lam) * Z[t]) / lam
        ssr = yty + float(u @ (d * u - two_w))

        prop = log_sigma + step * moves[t]
        proposed += 1
        if log_u[t] < log_target(prop, ssr) - log_target(log_sigma, ssr):
            log_sigma = prop
            accepted += 1
        if t < burn_in and (t + 1) % 100 == 0:
            rate = accepted / proposed
            step *= math.exp(rate - 0.4)
            accepted = 0
            proposed = 0
        if t >= burn_in and (t - burn_in) % thin == 0:
            U[kept] = u
            log_sigmas[kept] = log_sigma
            kept += 1

    accept_rate = accepted / proposed if proposed else 0.0
    if n_draws > burn_in and not (0.05 <= accept_rate <= 0.95):
        warnings.warn(
            f"reference sampler acceptance rate {accept_rate:.2f} outside [0.05, 0.95]; "
            "inspect traces",
            RuntimeWarning,
            stacklevel=2,
        )
    sigma = np.exp(log_sigmas)
    values = np.column_stack([U @ V.T, sigma, 1.0 / sigma**2])
    columns = tuple([f"beta_1_{j + 1}" for j in range(p)] + ["sigma_1", "tau_1"])
    meta = {
        "model_kind": "normal_linear",
        "seed": seed,
        "n_draws": n_draws,
        "burn_in": burn_in,
        "thin": thin,
        "theta1_columns": [f"beta_1_{j + 1}" for j in range(p)] + ["tau_1"],
        "sampler": "reference_mwg",
        "accept_rate": float(accept_rate),
        "step_size": float(step),
    }
    return DrawsMatrix(columns=columns, values=values, meta=meta)
