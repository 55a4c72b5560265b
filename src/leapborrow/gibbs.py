"""Blocked Gibbs sampler for the mixture-borrowing posterior.

One scan updates, in order: the first-component parameters given the current
data plus the historical subjects assigned to class 1, the remaining
component parameters given their classes, the mixture weights given the
class counts, and finally each subject's class label given everything else.
The first component always conditions on the current data, which anchors the
parameter of interest and avoids label switching.

The same scan kernels back both :func:`gibbs_step` (single transition, used
in tests) and :func:`run_chain` (tight loop with preallocated storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from . import ptd
from .conjugate import (
    _PIVOT_RTOL,
    NormalGammaPrior,
    current_design,
    hist_design,
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
_AUTO_C0_LIMIT = 50_000_000  # stored label entries before c0 retention turns off


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
        self.n0 = hist.n0
        self.s_cur = float(data.y.sum())
        self.n_cur = data.n
        self.eta0 = np.array([p.eta0 for p in cfg.component_priors])
        self.beta0 = np.array([p.beta0 for p in cfg.component_priors])

    def draw_thetas(self, c0: np.ndarray, rng) -> tuple:
        K = self.cfg.K
        counts = np.bincount(c0 - 1, minlength=K).astype(float)
        sums = np.bincount(c0 - 1, weights=self.y0, minlength=K)
        shapes = self.eta0 + sums
        rates = self.beta0 + counts
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
        self.X = current_design(data, self.p)
        self.y = data.y
        self.X0 = hist_design(hist, self.p)
        self.y0 = hist.y0
        self.n0 = hist.n0
        self.XtX_cur = self.X.T @ self.X
        self.Xty_cur = self.X.T @ data.y
        self.yty_cur = float(data.y @ data.y)
        self.n_cur = data.n
        # per-subject outer products let class stats accumulate without slicing
        self.xx0 = np.einsum("ip,iq->ipq", self.X0, self.X0).reshape(self.n0, -1)
        self.xy0 = self.X0 * hist.y0[:, None]
        self.yy0 = hist.y0**2
        # prior pieces that never change across scans
        self.om_mu = [pr.omega0 @ pr.mu0 for pr in cfg.component_priors]
        self.mu_om_mu = [
            float(pr.mu0 @ pr.omega0 @ pr.mu0) for pr in cfg.component_priors
        ]
        self._pivot_floor_scale = _PIVOT_RTOL / max(self.p, 1)

    def _class_stats(self, mask: np.ndarray):
        w = mask.astype(float)
        XtX = (w @ self.xx0).reshape(self.p, self.p)
        Xty = w @ self.xy0
        yty = float(self.yy0 @ mask)
        return XtX, Xty, yty, float(mask.sum())

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

    def draw_thetas(self, c0: np.ndarray, rng) -> tuple:
        K = self.cfg.K
        betas = np.empty((K, self.p))
        taus = np.empty(K)
        XtX, Xty, yty, nk = self._class_stats(c0 == 1)
        betas[0], taus[0] = self._draw_ng(
            0,
            XtX + self.XtX_cur,
            Xty + self.Xty_cur,
            yty + self.yty_cur,
            nk + self.n_cur,
            rng,
        )
        for k in range(2, K + 1):
            stats = self._class_stats(c0 == k)
            betas[k - 1], taus[k - 1] = self._draw_ng(k - 1, *stats, rng)
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


def _scan(kernel, cfg: LeapConfig, c0: np.ndarray, rng):
    """One full Gibbs scan from labels ``c0``; returns (theta, gamma, new labels)."""
    theta = kernel.draw_thetas(c0, rng)
    counts = np.bincount(c0 - 1, minlength=cfg.K).astype(float)
    gamma = _draw_gamma(cfg, counts, rng)
    if cfg.K == 1:
        return theta, gamma, c0
    new_c0 = _draw_labels(kernel.log_class_weights(theta), gamma, rng)
    return theta, gamma, new_c0


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
    theta = kernel.draw_thetas(c0, rng)
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
    theta, gamma, c0 = _scan(kernel, cfg, state.c0.c0, rng)
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
    store_c0: Optional[bool] = None,
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

    if store_c0 is None:
        store_c0 = n_retained * hist.n0 <= _AUTO_C0_LIMIT

    theta_cols = kernel.columns()
    gamma_cols = [f"gamma_{k + 1}" for k in range(cfg.K)]
    count_cols = [f"n0_{k + 1}" for k in range(cfg.K)]
    columns = theta_cols + gamma_cols + count_cols
    values = np.empty((n_retained, len(columns)))
    c0_store = np.empty((n_retained, hist.n0), dtype=np.int16) if store_c0 else None

    state = initialize_state(data, hist, cfg, rng)
    c0 = state.c0.c0.copy()
    kept = 0
    for t in range(n_draws):
        try:
            theta, gamma, c0 = _scan(kernel, cfg, c0, rng)
        except NumericalError as exc:
            raise NumericalError(f"iteration {t}: {exc}") from exc
        if t >= burn_in and (t - burn_in) % thin == 0:
            row = values[kept]
            flat = kernel.flatten(theta)
            row[: flat.size] = flat
            row[flat.size : flat.size + cfg.K] = gamma
            row[flat.size + cfg.K :] = np.bincount(c0 - 1, minlength=cfg.K)
            if store_c0:
                c0_store[kept] = c0
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
    return DrawsMatrix(columns=tuple(columns), values=values, meta=meta, c0=c0_store)


def run_chains(
    data: Dataset,
    hist: HistoricalDataset,
    cfg: LeapConfig,
    n_draws: int = DEFAULT_DRAWS,
    burn_in: int = DEFAULT_BURN_IN,
    thin: int = 1,
    seed: int = 0,
    chains: int = 1,
    store_c0: Optional[bool] = None,
) -> DrawsMatrix:
    """Run ``chains`` independent chains and merge them in chain-index order."""
    if chains < 1:
        raise ValidationError("chains must be >= 1")
    parts = [
        run_chain(
            data, hist, cfg, n_draws=n_draws, burn_in=burn_in, thin=thin,
            seed=seed, chain_index=c, store_c0=store_c0,
        )
        for c in range(chains)
    ]
    if chains == 1:
        return parts[0]
    values = np.vstack([p.values for p in parts])
    c0 = None
    if all(p.c0 is not None for p in parts):
        c0 = np.vstack([p.c0 for p in parts])
    meta = dict(parts[0].meta)
    meta["chain"] = list(range(chains))
    meta["chain_lengths"] = [p.n_draws for p in parts]
    return DrawsMatrix(columns=parts[0].columns, values=values, meta=meta, c0=c0)
