"""Exact enumeration over all K^n0 historical-data partitions.

Ground truth for the Gibbs sampler at desk scale: prior and posterior
partition probabilities, conditional first-component means per partition,
partition-averaged summaries, and the implied distribution of the number of
borrowed subjects.

Enumeration streams over fixed-size index blocks so that only requested
tables are materialized; per-block results are merged in block order, which
keeps every output bit-identical regardless of how many workers computed the
blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from . import conjugate
from .core import (
    Dataset,
    EnumerationCapError,
    HistoricalDataset,
    LeapConfig,
    PartitionAssignment,
    ValidationError,
    validate_config,
)
from .pool import worker_pool

DEFAULT_CAP = 2**20
BLOCK_SIZE = 4096
MATERIALIZE_LIMIT = 100_000


def partition_count(K: int, n0: int) -> int:
    return K**n0


def enumerate_partitions(
    K: int, n0: int, cap: int = DEFAULT_CAP
) -> Iterator[PartitionAssignment]:
    """All partitions in lexicographic label order, capped at ``cap`` items."""
    if K < 1 or n0 < 1:
        raise ValidationError("K and n0 must be >= 1")
    total = partition_count(K, n0)
    if total > cap:
        raise EnumerationCapError(
            f"{K}^{n0} = {total} partitions exceeds the enumeration cap {cap}"
        )
    for labels in itertools.product(range(1, K + 1), repeat=n0):
        yield PartitionAssignment(np.array(labels, dtype=np.int64))


def _label_block(start: int, stop: int, K: int, n0: int) -> np.ndarray:
    """Rows ``start:stop`` of the lexicographic label matrix, values in 1..K."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n0), dtype=np.int64)
    for j in range(n0 - 1, -1, -1):
        out[:, j] = idx % K
        idx = idx // K
    return out + 1


@dataclass(frozen=True)
class PartitionRow:
    c0: tuple
    prior_prob: float
    cond_prior_mean: np.ndarray
    posterior_prob: Optional[float] = None
    cond_post_mean: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PartitionTable:
    """Normalized partition summaries; ``rows`` is None beyond the materialize limit."""

    K: int
    n0: int
    has_posterior: bool
    prior_ssc: np.ndarray
    prior_mean: np.ndarray
    log_prior_norm: float
    rows: Optional[tuple] = None
    post_ssc: Optional[np.ndarray] = None
    post_mean: Optional[np.ndarray] = None
    log_post_norm: Optional[float] = None


class _StreamAccumulator:
    """Streaming log-sum-exp normalizer with rescaled weighted-mean accumulators."""

    def __init__(self, mean_dim: int, n0: int):
        self.lse = -np.inf
        self.mean_acc = np.zeros(mean_dim)
        self.ssc_log = np.full(n0 + 1, -np.inf)

    def add_block(self, logw: np.ndarray, means: np.ndarray, n01: np.ndarray):
        finite = logw > -np.inf
        if not np.any(finite):
            return
        block_lse = float(logsumexp(logw[finite]))
        w = np.exp(logw[finite] - block_lse)
        block_mean = w @ means[finite]
        new_lse = float(np.logaddexp(self.lse, block_lse))
        self.mean_acc = self.mean_acc * np.exp(self.lse - new_lse) + block_mean * np.exp(
            block_lse - new_lse
        )
        self.lse = new_lse
        block_ssc = np.full(self.ssc_log.size, -np.inf)
        for j in np.unique(n01[finite]):
            sel = finite & (n01 == j)
            block_ssc[j] = logsumexp(logw[sel])
        self.ssc_log = np.logaddexp(self.ssc_log, block_ssc)

    def ssc_pmf(self) -> np.ndarray:
        return np.exp(self.ssc_log - self.lse)


def _gamma_integral_block(counts: np.ndarray, cfg: LeapConfig) -> np.ndarray:
    """Rowwise log mixture-weight integral, vectorized over a block of counts."""
    if cfg.K == 1:
        return np.zeros(counts.shape[0])
    from scipy.special import betainc, betaln

    v = counts + cfg.alpha0
    v1 = v[:, 0]
    tail = v[:, 1:].sum(axis=1)
    mass = betainc(v1, tail, cfg.trunc_b) - betainc(v1, tail, cfg.trunc_a)
    with np.errstate(divide="ignore"):
        lm = np.where(mass > 0, np.log(np.maximum(mass, 1e-320)), -np.inf)
    out = betaln(v1, tail) + lm
    if cfg.K > 2:
        out += gammaln(v[:, 1:]).sum(axis=1) - gammaln(tail)
    return out


def _poisson_block_weights(labels, data, hist, cfg):
    """Vectorized log weights and conditional means for a block of partitions."""
    counts = np.empty((labels.shape[0], cfg.K))
    sums = np.empty_like(counts)
    for k in range(cfg.K):
        mask = labels == k + 1
        counts[:, k] = mask.sum(axis=1)
        sums[:, k] = mask @ hist.y0
    eta = sums + np.array([p.eta0 for p in cfg.component_priors])
    beta = counts + np.array([p.beta0 for p in cfg.component_priors])
    if data is not None:
        eta[:, 0] += float(data.y.sum())
        beta[:, 0] += data.n
    logw = np.sum(gammaln(eta) - eta * np.log(beta), axis=1)
    logw += _gamma_integral_block(counts, cfg)
    return logw, (eta[:, 0] / beta[:, 0])[:, None]


def _linear_block_weights(labels, data, hist, cfg):
    first: conjugate.NormalGammaPrior = cfg.component_priors[0]
    logw = np.empty(labels.shape[0])
    means = np.empty((labels.shape[0], first.p))
    for i in range(labels.shape[0]):
        assign = PartitionAssignment(labels[i])
        logw[i] = conjugate.linear_log_partition_weight(assign, data, hist, cfg)
        means[i] = conjugate.linear_conditional_mean(assign, data, hist, cfg)
    return logw, means


def _block_weights(labels, data, hist, cfg):
    if cfg.model_kind == "poisson":
        return _poisson_block_weights(labels, data, hist, cfg)
    return _linear_block_weights(labels, data, hist, cfg)


def _block_task(args):
    """Weights of one index block; the label block is returned only when materializing."""
    start, stop, data, hist, cfg, want_posterior, materialize = args
    labels = _label_block(start, stop, cfg.K, hist.n0)
    n01 = (labels == 1).sum(axis=1)
    logw_prior, prior_means = _block_weights(labels, None, hist, cfg)
    if want_posterior:
        logw_post, post_means = _block_weights(labels, data, hist, cfg)
    else:
        logw_post, post_means = None, None
    if not materialize:
        labels = None
    return labels, logw_prior, prior_means, logw_post, post_means, n01


def _build_table(
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
    cap: int,
    materialize: Optional[bool],
    workers: int,
) -> PartitionTable:
    validate_config(cfg, data, hist).raise_if_invalid()
    total = partition_count(cfg.K, hist.n0)
    if total > cap:
        raise EnumerationCapError(
            f"{cfg.K}^{hist.n0} = {total} partitions exceeds the enumeration cap {cap}"
        )
    if materialize is None:
        materialize = total <= MATERIALIZE_LIMIT
    want_posterior = data is not None

    first = cfg.component_priors[0]
    mean_dim = 1 if cfg.model_kind == "poisson" else first.p
    prior_acc = _StreamAccumulator(mean_dim, hist.n0)
    post_acc = _StreamAccumulator(mean_dim, hist.n0) if want_posterior else None

    bounds = [(s, min(s + BLOCK_SIZE, total)) for s in range(0, total, BLOCK_SIZE)]
    tasks = [(s, e, data, hist, cfg, want_posterior, materialize) for s, e in bounds]
    if workers > 1 and len(tasks) > 1:
        with worker_pool(workers) as pool:
            results = list(pool.map(_block_task, tasks, chunksize=1))
    else:
        results = map(_block_task, tasks)

    kept_rows = [] if materialize else None
    kept_prior_logw = [] if materialize else None
    kept_post_logw = [] if materialize else None
    for labels, logw_prior, prior_means, logw_post, post_means, n01 in results:
        prior_acc.add_block(logw_prior, prior_means, n01)
        if want_posterior:
            post_acc.add_block(logw_post, post_means, n01)
        if materialize:
            for i in range(labels.shape[0]):
                kept_rows.append(
                    (tuple(int(v) for v in labels[i]), prior_means[i].copy(),
                     post_means[i].copy() if want_posterior else None)
                )
            kept_prior_logw.append(logw_prior)
            if want_posterior:
                kept_post_logw.append(logw_post)

    rows = None
    if materialize:
        lw_prior = np.concatenate(kept_prior_logw)
        prior_probs = np.exp(lw_prior - prior_acc.lse)
        if want_posterior:
            lw_post = np.concatenate(kept_post_logw)
            post_probs = np.exp(lw_post - post_acc.lse)
        rows = tuple(
            PartitionRow(
                c0=c0,
                prior_prob=float(prior_probs[i]),
                cond_prior_mean=pm,
                posterior_prob=float(post_probs[i]) if want_posterior else None,
                cond_post_mean=qm,
            )
            for i, (c0, pm, qm) in enumerate(kept_rows)
        )

    return PartitionTable(
        K=cfg.K,
        n0=hist.n0,
        has_posterior=want_posterior,
        prior_ssc=prior_acc.ssc_pmf(),
        prior_mean=prior_acc.mean_acc.copy(),
        log_prior_norm=prior_acc.lse,
        rows=rows,
        post_ssc=post_acc.ssc_pmf() if want_posterior else None,
        post_mean=post_acc.mean_acc.copy() if want_posterior else None,
        log_post_norm=post_acc.lse if want_posterior else None,
    )


def prior_partition_table(
    hist: HistoricalDataset,
    cfg: LeapConfig,
    cap: int = DEFAULT_CAP,
    materialize: Optional[bool] = None,
    workers: int = 1,
) -> PartitionTable:
    """Partition probabilities and conditional means induced by the historical data."""
    return _build_table(None, hist, cfg, cap, materialize, workers)


def posterior_partition_table(
    data: Dataset,
    hist: HistoricalDataset,
    cfg: LeapConfig,
    cap: int = DEFAULT_CAP,
    materialize: Optional[bool] = None,
    workers: int = 1,
) -> PartitionTable:
    """Prior and posterior partition columns after observing the current data."""
    if data is None:
        raise ValidationError("current data required; use prior_partition_table otherwise")
    return _build_table(data, hist, cfg, cap, materialize, workers)


def partition_averaged_mean(table: PartitionTable, which: str = "posterior") -> np.ndarray:
    """Probability-weighted average of the conditional first-component means."""
    if which == "prior":
        return table.prior_mean
    if which == "posterior":
        if not table.has_posterior:
            raise ValidationError("table has no posterior columns")
        return table.post_mean
    raise ValidationError(f"which must be 'prior' or 'posterior', got {which!r}")


def ssc_marginal_from_table(table: PartitionTable, which: str = "posterior") -> np.ndarray:
    """Distribution of the number of historical subjects assigned to class 1."""
    if which == "prior":
        return table.prior_ssc
    if which == "posterior":
        if not table.has_posterior:
            raise ValidationError("table has no posterior columns")
        return table.post_ssc
    raise ValidationError(f"which must be 'prior' or 'posterior', got {which!r}")
