"""Blocked Gibbs sampler for the mixture-borrowing posterior.

One scan updates, in order: the first-component parameters given the current
data plus the historical subjects assigned to class 1, the remaining
component parameters given their classes, the mixture weights given the
class counts, and finally each subject's class label given everything else.
The first component always conditions on the current data, which anchors the
parameter of interest and avoids label switching.

The labels enter every update only through per-class sufficient statistics:
the class sums of :func:`conjugate.stat_rows`, from the same
:func:`conjugate._class_stats` product as exact enumeration.  A scan reads
the statistics of its starting labels and returns those of its new labels,
so each scan computes them once; the parameter draws, the weight draw and
the ``n0_k`` count columns all read that one result.  The labels themselves
are not stored.

The same scan kernels back both :func:`gibbs_step` (single transition, used
in tests) and :func:`run_chain` (tight loop with preallocated storage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from . import ptd
from .conjugate import (
    _PIVOT_RTOL,
    NormalGammaPrior,
    _class_stats,
    current_design,
    hist_design,
    split_linear_stats,
    stat_rows,
)
from .core import (
    Dataset,
    DrawsMatrix,
    HistoricalDataset,
    LeapConfig,
    NumericalError,
    PartitionAssignment,
    ValidationError,
    validate_config,
)

DEFAULT_DRAWS = 22_000
DEFAULT_BURN_IN = 2_000


@dataclass(frozen=True)
class GibbsState:
    """Sampler state: per-component parameters, mixture weights, class labels.

    ``theta`` is ``(rates,)`` for the Poisson model and ``(betas, taus)`` with
    shapes ``(K, p)`` / ``(K,)`` for the linear model.
    """

    theta: tuple
    gamma: np.ndarray
    c0: PartitionAssignment

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if abs(gamma.sum() - 1.0) > 1e-12:
            raise ValidationError("gamma must lie on the simplex within 1e-12")
        object.__setattr__(self, "gamma", gamma)
        if len(self.theta) == 2 and np.any(np.asarray(self.theta[1]) <= 0):
            raise ValidationError("precision draws must be positive")


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Generator for one chain, split deterministically from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index,)))


class _PoissonKernel:
    def __init__(self, data: Dataset, hist: HistoricalDataset, cfg: LeapConfig):
        self.cfg = cfg
        self.y0 = hist.y0
        self.rows = stat_rows(hist.y0)
        self.s_cur = float(data.y.sum())
        self.n_cur = data.n
        self.eta0 = np.array([p.eta0 for p in cfg.component_priors])
        self.beta0 = np.array([p.beta0 for p in cfg.component_priors])

    def draw_thetas(self, stats: np.ndarray, rng) -> tuple:
        shapes = self.eta0 + stats[:, 1]
        rates = self.beta0 + stats[:, 0]
        shapes[0] += self.s_cur
        rates[0] += self.n_cur
        # tiny shapes (diffuse priors on empty classes) can underflow to an
        # exact zero draw; floor so downstream logs stay NaN-free
        return (np.maximum(rng.gamma(shapes, 1.0 / rates), 1e-300),)

    def log_class_weights(self, theta: tuple) -> np.ndarray:
        (rates,) = theta
        # Poisson log-density up to the label-free -log(y!) term
        return self.y0[:, None] * np.log(rates)[None, :] - rates[None, :]

    def columns(self):
        K = self.cfg.K
        return [f"theta_{k + 1}" for k in range(K)]

    def flatten(self, theta: tuple) -> np.ndarray:
        return theta[0]

    def theta1_columns(self):
        return ["theta_1"]


class _LinearKernel:
    def __init__(self, data: Dataset, hist: HistoricalDataset, cfg: LeapConfig):
        self.cfg = cfg
        first: NormalGammaPrior = cfg.component_priors[0]
        self.p = first.p
        self.X0 = hist_design(hist, self.p)
        self.y0 = hist.y0
        self.rows = stat_rows(hist.y0, self.X0)
        # the current data's summed rows, added to the first class's statistics
        self.cur = np.zeros((cfg.K, self.rows.shape[1]))
        self.cur[0] = stat_rows(data.y, current_design(data, self.p)).sum(axis=0)
        # prior pieces that never change across scans
        self.om_mu = [pr.omega0 @ pr.mu0 for pr in cfg.component_priors]
        self.mu_om_mu = [
            float(pr.mu0 @ pr.omega0 @ pr.mu0) for pr in cfg.component_priors
        ]
        self._pivot_floor_scale = _PIVOT_RTOL / max(self.p, 1)

    def _draw_ng(self, k: int, XtX, Xty, yty, n_eff, rng):
        prior: NormalGammaPrior = self.cfg.component_priors[k]
        P = XtX + prior.omega0
        L, info = dpotrf(P, lower=1, clean=0, overwrite_a=0)
        if info != 0:
            raise NumericalError(
                f"component {k + 1} precision not positive definite (dpotrf info={info})"
            )
        piv = np.diag(L) ** 2
        if piv.min() < self._pivot_floor_scale * P.trace():
            raise NumericalError(
                f"component {k + 1} precision near singular "
                f"(pivot {piv.min():.3e} vs trace {P.trace():.3e})"
            )
        h = Xty + self.om_mu[k]
        m, info = dpotrs(L, h, lower=1)
        if info != 0:
            raise NumericalError(f"component {k + 1} triangular solve failed")
        shape = (n_eff + prior.delta0) / 2.0
        s2 = prior.xi0 + yty + self.mu_om_mu[k] - m @ h
        if s2 <= 0:
            raise NumericalError(f"nonpositive residual scale {s2:.3e}")
        # floor against underflow to an exact zero for near-zero shapes
        tau = max(rng.gamma(shape, 2.0 / s2), 1e-300)
        z = rng.standard_normal(self.p)
        u, info = dtrtrs(L, z, lower=1, trans=1)
        if info != 0:
            raise NumericalError(f"component {k + 1} triangular solve failed")
        return m + u / np.sqrt(tau), tau

    def draw_thetas(self, stats: np.ndarray, rng) -> tuple:
        K = self.cfg.K
        betas = np.empty((K, self.p))
        taus = np.empty(K)
        n, yty, Xty, XtX = split_linear_stats(stats + self.cur, self.p)
        for k in range(K):
            betas[k], taus[k] = self._draw_ng(k, XtX[k], Xty[k], yty[k], n[k], rng)
        return (betas, taus)

    def log_class_weights(self, theta: tuple) -> np.ndarray:
        betas, taus = theta
        mu = self.X0 @ betas.T  # (n0, K)
        resid2 = (self.y0[:, None] - mu) ** 2
        return 0.5 * np.log(taus)[None, :] - 0.5 * taus[None, :] * resid2

    def columns(self):
        K = self.cfg.K
        cols = []
        for k in range(K):
            cols.extend(f"beta_{k + 1}_{j + 1}" for j in range(self.p))
        cols.extend(f"tau_{k + 1}" for k in range(K))
        return cols

    def flatten(self, theta: tuple) -> np.ndarray:
        betas, taus = theta
        return np.concatenate([betas.ravel(), taus])

    def theta1_columns(self):
        return [f"beta_1_{j + 1}" for j in range(self.p)] + ["tau_1"]


def _make_kernel(data, hist, cfg):
    if cfg.model_kind == "poisson":
        return _PoissonKernel(data, hist, cfg)
    return _LinearKernel(data, hist, cfg)


def _label_stats(kernel, c0: np.ndarray) -> np.ndarray:
    """Class sums ``(K, d)`` of the kernel's statistic rows under labels ``c0``."""
    return _class_stats(c0[None], kernel.cfg.K, kernel.rows)[0]


def _draw_gamma(cfg: LeapConfig, counts: np.ndarray, rng) -> np.ndarray:
    if cfg.K == 1:
        return np.ones(1)
    alpha = counts + cfg.alpha0
    if cfg.truncated:
        return ptd.sample(ptd.PtdParams(alpha, cfg.trunc_a, cfg.trunc_b), rng)
    return rng.dirichlet(alpha)


def _draw_labels(log_w: np.ndarray, gamma: np.ndarray, rng) -> np.ndarray:
    """Per-subject categorical draw from log weights, in subject index order.

    One uniform per subject compared against the cumulative (unnormalized)
    class weights; equal weights resolve in cumulative order.
    """
    logits = log_w + np.log(gamma)[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    cum = np.cumsum(np.exp(logits), axis=1)
    u = rng.random(log_w.shape[0]) * cum[:, -1]
    return (u[:, None] > cum).sum(axis=1).astype(np.int64) + 1


def _scan(kernel, cfg: LeapConfig, c0: np.ndarray, stats: np.ndarray, rng):
    """One full Gibbs scan from labels ``c0`` with class statistics ``stats``.

    Returns ``(theta, gamma, new labels, their class statistics)``.
    """
    theta = kernel.draw_thetas(stats, rng)
    gamma = _draw_gamma(cfg, stats[:, 0], rng)
    if cfg.K == 1:
        return theta, gamma, c0, stats
    new_c0 = _draw_labels(kernel.log_class_weights(theta), gamma, rng)
    return theta, gamma, new_c0, _label_stats(kernel, new_c0)


def initialize_state(
    data: Dataset, hist: HistoricalDataset, cfg: LeapConfig, rng: np.random.Generator
) -> GibbsState:
    """Dispersed start: uniform labels, weights from the prior, parameters from their conditionals.

    With a truncated first weight the start weights are drawn first and the
    labels from Categorical(weights), so the start class-1 count already
    lies near the truncation interval; uniform labels would put about half
    of a large history in class 1, where the weight update has no mass.
    """
    if cfg.K == 1:
        c0 = np.ones(hist.n0, dtype=np.int64)
        gamma = np.ones(1)
    elif cfg.truncated:
        gamma = _draw_gamma(cfg, np.zeros(cfg.K), rng)
        c0 = _draw_labels(np.zeros((hist.n0, cfg.K)), gamma, rng)
    else:
        c0 = rng.integers(1, cfg.K + 1, size=hist.n0)
        gamma = _draw_gamma(cfg, np.zeros(cfg.K), rng)
    kernel = _make_kernel(data, hist, cfg)
    theta = kernel.draw_thetas(_label_stats(kernel, c0), rng)
    return GibbsState(theta=theta, gamma=gamma, c0=PartitionAssignment(c0))


def gibbs_step(
    state: GibbsState,
    data: Dataset,
    hist: HistoricalDataset,
    cfg: LeapConfig,
    rng: np.random.Generator,
) -> GibbsState:
    """One full scan starting from ``state``."""
    kernel = _make_kernel(data, hist, cfg)
    c0 = state.c0.c0
    theta, gamma, c0, _ = _scan(kernel, cfg, c0, _label_stats(kernel, c0), rng)
    return GibbsState(theta=theta, gamma=gamma, c0=PartitionAssignment(c0))


def run_chain(
    data: Dataset,
    hist: HistoricalDataset,
    cfg: LeapConfig,
    n_draws: int = DEFAULT_DRAWS,
    burn_in: int = DEFAULT_BURN_IN,
    thin: int = 1,
    seed: int = 0,
    chain_index: int = 0,
) -> DrawsMatrix:
    """Run one chain for ``n_draws`` total scans, retaining post-burn-in draws.

    Deterministic given ``(seed, chain_index)``.  ``burn_in == n_draws``
    yields an empty draws matrix flagged ``no_retained_draws``.
    """
    if n_draws < 1:
        raise ValidationError("n_draws must be >= 1")
    if not (0 <= burn_in <= n_draws):
        raise ValidationError("burn_in must lie in [0, n_draws]")
    if thin < 1:
        raise ValidationError("thin must be >= 1")
    validate_config(cfg, data, hist).raise_if_invalid()

    rng = chain_rng(seed, chain_index)
    kernel = _make_kernel(data, hist, cfg)
    n_retained = len(range(burn_in, n_draws, thin))

    theta_cols = kernel.columns()
    gamma_cols = [f"gamma_{k + 1}" for k in range(cfg.K)]
    count_cols = [f"n0_{k + 1}" for k in range(cfg.K)]
    columns = theta_cols + gamma_cols + count_cols
    values = np.empty((n_retained, len(columns)))

    c0 = initialize_state(data, hist, cfg, rng).c0.c0
    stats = _label_stats(kernel, c0)
    kept = 0
    for t in range(n_draws):
        try:
            theta, gamma, c0, stats = _scan(kernel, cfg, c0, stats, rng)
        except NumericalError as exc:
            raise NumericalError(f"iteration {t}: {exc}") from exc
        if t >= burn_in and (t - burn_in) % thin == 0:
            row = values[kept]
            flat = kernel.flatten(theta)
            row[: flat.size] = flat
            row[flat.size : flat.size + cfg.K] = gamma
            row[flat.size + cfg.K :] = stats[:, 0]
            kept += 1

    meta = {
        "model_kind": cfg.model_kind,
        "K": cfg.K,
        "n0": hist.n0,
        "seed": seed,
        "chain": chain_index,
        "n_draws": n_draws,
        "burn_in": burn_in,
        "thin": thin,
        "trunc_a": cfg.trunc_a,
        "trunc_b": cfg.trunc_b,
        "theta1_columns": kernel.theta1_columns(),
        "no_retained_draws": n_retained == 0,
        "sampler": "leap_gibbs",
    }
    return DrawsMatrix(columns=tuple(columns), values=values, meta=meta)


def run_chains(
    data: Dataset,
    hist: HistoricalDataset,
    cfg: LeapConfig,
    n_draws: int = DEFAULT_DRAWS,
    burn_in: int = DEFAULT_BURN_IN,
    thin: int = 1,
    seed: int = 0,
    chains: int = 1,
) -> DrawsMatrix:
    """Run ``chains`` independent chains and merge them in chain-index order."""
    if chains < 1:
        raise ValidationError("chains must be >= 1")
    parts = [
        run_chain(
            data, hist, cfg, n_draws=n_draws, burn_in=burn_in, thin=thin,
            seed=seed, chain_index=c,
        )
        for c in range(chains)
    ]
    if chains == 1:
        return parts[0]
    values = np.vstack([p.values for p in parts])
    meta = dict(parts[0].meta)
    meta["chain"] = list(range(chains))
    meta["chain_lengths"] = [p.n_draws for p in parts]
    return DrawsMatrix(columns=parts[0].columns, values=values, meta=meta)
