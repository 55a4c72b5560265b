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

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.special import logsumexp

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
from .pool import pool_size, worker_pool

DEFAULT_CAP = 2**20
BLOCK_SIZE = 4096
MATERIALIZE_LIMIT = 100_000


def partition_count(K: int, n0: int) -> int:
    return K**n0


def _check_cap(K: int, n0: int, cap: int) -> int:
    total = partition_count(K, n0)
    if total > cap:
        raise EnumerationCapError(
            f"{K}^{n0} = {total} partitions exceeds the enumeration cap {cap}"
        )
    return total


def enumerate_partitions(
    K: int, n0: int, cap: int = DEFAULT_CAP
) -> Iterator[PartitionAssignment]:
    """All partitions in lexicographic label order, capped at ``cap`` items."""
    if K < 1 or n0 < 1:
        raise ValidationError("K and n0 must be >= 1")
    total = _check_cap(K, n0, cap)
    for start in range(0, total, BLOCK_SIZE):
        for labels in _label_block(start, min(start + BLOCK_SIZE, total), K, n0):
            yield PartitionAssignment(labels)


def _label_block(start: int, stop: int, K: int, n0: int) -> np.ndarray:
    """Rows ``start:stop`` of the lexicographic label matrix, values in 1..K."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n0), dtype=np.int64)
    for j in range(n0 - 1, -1, -1):
        out[:, j] = idx % K
        idx = idx // K
    return out + 1


@dataclass(frozen=True)
class PartitionTable:
    """Normalized partition summaries, with per-partition columns when materialized.

    Row ``i`` of the columns is the ``i``-th partition in lexicographic label
    order, whose labels :meth:`labels` regenerates; unmaterialized columns are None.
    """

    K: int
    n0: int
    has_posterior: bool
    prior_ssc: np.ndarray
    prior_mean: np.ndarray
    log_prior_norm: float
    prior_prob: Optional[np.ndarray] = None
    cond_prior_mean: Optional[np.ndarray] = None
    post_ssc: Optional[np.ndarray] = None
    post_mean: Optional[np.ndarray] = None
    log_post_norm: Optional[float] = None
    posterior_prob: Optional[np.ndarray] = None
    cond_post_mean: Optional[np.ndarray] = None

    @property
    def materialized(self) -> bool:
        return self.prior_prob is not None

    def labels(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Labels of rows ``start:stop`` (all rows by default), values in 1..K."""
        total = partition_count(self.K, self.n0)
        return _label_block(start, total if stop is None else stop, self.K, self.n0)


class _StreamAccumulator:
    """Streaming log-sum-exp normalizer with rescaled weighted-mean accumulators.

    With ``keep`` it also keeps each block's log weights and means for the table columns.
    """

    def __init__(self, mean_dim: int, n0: int, keep: bool):
        self.lse = -np.inf
        self.mean_acc = np.zeros(mean_dim)
        self.ssc_log = np.full(n0 + 1, -np.inf)
        self.kept = ([], []) if keep else None

    def add_block(self, logw: np.ndarray, means: np.ndarray, n01: np.ndarray):
        if self.kept is not None:
            self.kept[0].append(logw)
            self.kept[1].append(means)
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

    def columns(self) -> tuple:
        """Normalized probabilities and conditional means of every kept row (None if not kept)."""
        if self.kept is None:
            return None, None
        return np.exp(np.concatenate(self.kept[0]) - self.lse), np.concatenate(self.kept[1])


def _block_task(args):
    """Log weights, conditional means and class-1 counts of one index block."""
    start, stop, data, hist, cfg = args
    weights = (conjugate.poisson_block_weights if cfg.model_kind == "poisson"
               else conjugate.linear_block_weights)
    labels = _label_block(start, stop, cfg.K, hist.n0)
    logw_prior, prior_means = weights(labels, None, hist, cfg)
    logw_post, post_means = weights(labels, data, hist, cfg) if data is not None else (None, None)
    return logw_prior, prior_means, logw_post, post_means, (labels == 1).sum(axis=1)


def _build_table(
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
    cap: int,
    materialize: Optional[bool],
    workers: int,
) -> PartitionTable:
    validate_config(cfg, data, hist).raise_if_invalid()
    total = _check_cap(cfg.K, hist.n0, cap)
    if materialize is None:
        materialize = total <= MATERIALIZE_LIMIT
    want_posterior = data is not None

    first = cfg.component_priors[0]
    mean_dim = 1 if cfg.model_kind == "poisson" else first.p
    prior_acc = _StreamAccumulator(mean_dim, hist.n0, materialize)
    post_acc = _StreamAccumulator(mean_dim, hist.n0, materialize) if want_posterior else None

    tasks = [(s, min(s + BLOCK_SIZE, total), data, hist, cfg) for s in range(0, total, BLOCK_SIZE)]
    size = pool_size(workers, len(tasks))
    if size > 1:
        with worker_pool(size) as pool:
            results = list(pool.map(_block_task, tasks, chunksize=1))
    else:
        results = map(_block_task, tasks)

    for logw_prior, prior_means, logw_post, post_means, n01 in results:
        prior_acc.add_block(logw_prior, prior_means, n01)
        if want_posterior:
            post_acc.add_block(logw_post, post_means, n01)

    post = {}
    if want_posterior:
        posterior_prob, cond_post_mean = post_acc.columns()
        post = dict(post_ssc=post_acc.ssc_pmf(), post_mean=post_acc.mean_acc.copy(),
                    log_post_norm=post_acc.lse, posterior_prob=posterior_prob,
                    cond_post_mean=cond_post_mean)
    prior_prob, cond_prior_mean = prior_acc.columns()
    return PartitionTable(
        K=cfg.K, n0=hist.n0, has_posterior=want_posterior, prior_ssc=prior_acc.ssc_pmf(),
        prior_mean=prior_acc.mean_acc.copy(), log_prior_norm=prior_acc.lse,
        prior_prob=prior_prob, cond_prior_mean=cond_prior_mean, **post,
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
