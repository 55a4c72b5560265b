"""Conjugate updates and partition-mass kernels for the two outcome models.

Poisson outcomes use gamma priors on the rate; linear-model outcomes use
normal-gamma priors on (coefficients, precision).  The same parameter maps
feed both the Gibbs sampler and the exact partition enumeration, so each is
written once here.

Mass functions are computed entirely in log space (the ratio forms overflow
in direct form) and determinants come from Cholesky factorizations with an
explicit pivot check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import gammaln

from . import ptd
from .core import (
    Dataset,
    HistoricalDataset,
    LeapConfig,
    NumericalError,
    PartitionAssignment,
    ValidationError,
    class_counts,
)

_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class PoissonGammaPrior:
    """Gamma(shape, rate) hyperparameters for a Poisson rate."""

    eta0: float
    beta0: float

    def __post_init__(self):
        if not (self.eta0 > 0 and self.beta0 > 0):
            raise ValidationError("gamma hyperparameters must be strictly positive")
        object.__setattr__(self, "eta0", float(self.eta0))
        object.__setattr__(self, "beta0", float(self.beta0))

    def is_proper(self) -> bool:
        return True

    @property
    def mean(self) -> float:
        return self.eta0 / self.beta0


@dataclass(frozen=True)
class NormalGammaPrior:
    """Normal-gamma hyperparameters for (coefficients, precision).

    ``beta | tau ~ N(mu0, (tau * omega0)^-1)`` and
    ``tau ~ Gamma(delta0 / 2, xi0 / 2)``.  ``omega0`` may be singular (down
    to the zero matrix) for the no-shrinkage limit of the first component;
    such a prior is improper and only usable where the design supplies the
    missing rank.
    """

    mu0: np.ndarray
    omega0: np.ndarray
    delta0: float
    xi0: float

    def __post_init__(self):
        mu0 = np.array(self.mu0, dtype=float)
        omega0 = np.array(self.omega0, dtype=float)
        if mu0.ndim != 1:
            raise ValidationError("mu0 must be a vector")
        if omega0.shape != (mu0.size, mu0.size):
            raise ValidationError("omega0 must be p x p matching mu0")
        if np.max(np.abs(omega0 - omega0.T), initial=0.0) > 1e-10:
            raise ValidationError("omega0 must be symmetric within 1e-10")
        if np.any(np.linalg.eigvalsh(omega0) < -1e-10):
            raise ValidationError("omega0 must be nonnegative definite")
        if not (self.delta0 > 0 and self.xi0 > 0):
            raise ValidationError("delta0 and xi0 must be strictly positive")
        mu0.setflags(write=False)
        omega0.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "delta0", float(self.delta0))
        object.__setattr__(self, "xi0", float(self.xi0))

    @property
    def p(self) -> int:
        return int(self.mu0.size)

    def is_proper(self) -> bool:
        try:
            chol_pd(self.omega0)
        except NumericalError:
            return False
        return True


@dataclass(frozen=True)
class LinearConditional:
    """Normal-gamma conditional posterior block for one component.

    ``beta | tau ~ N(beta_tilde, (tau * precision_scale)^-1)`` and
    ``tau ~ Gamma(shape, rate)``.
    """

    beta_tilde: np.ndarray
    precision_scale: np.ndarray
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise NumericalError(
                f"conditional requires positive shape/rate, got ({self.shape}, {self.rate})"
            )


def chol_pd(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one matrix: :func:`chol_pd_stack` on a stack of one."""
    return chol_pd_stack(np.asarray(A, dtype=float)[None], where=lambda i: "")[0]


def _stack_index(i: int) -> str:
    return f" at stack index {i}"


def chol_pd_stack(A: np.ndarray, where: Callable[[int], str] = _stack_index) -> np.ndarray:
    """Lower Cholesky factors of a ``(G, p, p)`` stack with a relative pivot check.

    Fails when any squared pivot drops below ``1e-12 * trace / p`` of its
    matrix, reporting conditioning diagnostics, so downstream code never works
    with a factor of a numerically indefinite matrix.  The error names the
    first matrix in the stack that breaches the floor, as ``where(i)``.
    """
    if not np.isfinite(A).all():
        raise NumericalError("matrix not positive definite: non-finite entries")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix not positive definite: {exc}") from exc
    # a factored matrix has a positive trace
    floor = _PIVOT_RTOL * np.trace(A, axis1=1, axis2=2) / max(A.shape[-1], 1)
    piv = np.diagonal(L, axis1=1, axis2=2) ** 2
    ok = piv >= floor[:, None]
    if not ok.all():
        i = np.flatnonzero(~ok.all(axis=1))[0]
        raise _near_singular(A[i], piv[i].min(), floor[i], where=where(i))
    return L


def _tri_solve_stack(
    L: np.ndarray, b: np.ndarray, transpose: bool = False, index: Optional[np.ndarray] = None
) -> np.ndarray:
    """Solve ``L x = b`` (``L' x = b`` if ``transpose``) row by row over a stack of lower factors.

    Row ``g`` of ``b`` uses ``L[g]``, or ``L[index[g]]`` when ``index`` is given.
    Substitution runs over the ``p`` unknowns, each step vectorized over the rows.
    """
    rows = slice(None) if index is None else index
    p = b.shape[1]
    x = np.empty_like(b)
    for i in (range(p - 1, -1, -1) if transpose else range(p)):
        if transpose:
            acc = np.einsum("gj,gj->g", L[rows, i + 1:, i], x[:, i + 1:])
        else:
            acc = np.einsum("gj,gj->g", L[rows, i, :i], x[:, :i])
        x[:, i] = (b[:, i] - acc) / L[rows, i, i]
    return x


def _near_singular(A: np.ndarray, pivot: float, floor: float, where: str = "") -> NumericalError:
    eigs = np.linalg.eigvalsh(A)
    return NumericalError(
        f"near-singular precision matrix{where}: smallest Cholesky pivot "
        f"{pivot:.3e} below threshold {floor:.3e} "
        f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
    )


def logdet_from_chol(L: np.ndarray) -> float:
    return float(2.0 * np.sum(np.log(np.diag(L))))


# ---------------------------------------------------------------------------
# Poisson-gamma


def poisson_component_posterior(
    prior: PoissonGammaPrior, count_sum: float, n_obs: float
) -> PoissonGammaPrior:
    """Gamma posterior after observing ``n_obs`` counts summing to ``count_sum``."""
    if count_sum < 0 or n_obs < 0:
        raise ValidationError("count_sum and n_obs must be nonnegative")
    return PoissonGammaPrior(prior.eta0 + count_sum, prior.beta0 + n_obs)


def _gamma_integral_block(counts: np.ndarray, cfg: LeapConfig) -> np.ndarray:
    """Log of the mixture-weight integral over the (possibly truncated) simplex, per row of counts.

    Every row partitions the same ``n0`` subjects, so the truncated-beta
    factor depends only on the first-class count: it is evaluated once for
    each of the ``n0 + 1`` counts and gathered.  ``-inf`` marks partitions
    whose updated weight distribution has no mass inside the truncation
    interval; such partitions are simply impossible rather than numerical
    failures.
    """
    if cfg.K == 1:
        return np.zeros(counts.shape[0])
    n0 = int(counts[0].sum())
    first = np.arange(n0 + 1)
    by_first = ptd.log_beta_interval(
        first + cfg.alpha0[0], n0 - first + cfg.alpha0[1:].sum(), cfg.trunc_a, cfg.trunc_b
    )
    out = by_first[counts[:, 0].astype(np.intp)]
    if cfg.K > 2:
        v = counts[:, 1:] + cfg.alpha0[1:]
        out += gammaln(v).sum(axis=1) - gammaln(v.sum(axis=1))
    return out


def stat_rows(y: np.ndarray, X: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-subject sufficient-statistic rows ``(n, d)``, with a leading column of ones.

    Every posterior quantity depends on the class labels only through the
    class sums of these rows (:func:`_class_stats`); column 0 sums to the
    class counts.  Without a design ``X`` (Poisson) a row is ``(1, y)``; with
    one it is ``(1, y^2, x y, vec(x x'))``, split by :func:`split_linear_stats`.
    """
    ones = np.ones(y.size)
    if X is None:
        return np.column_stack([ones, y])
    xx = np.einsum("ip,iq->ipq", X, X).reshape(y.size, -1)
    return np.column_stack([ones, y**2, X * y[:, None], xx])


def split_linear_stats(stats: np.ndarray, p: int) -> tuple:
    """Views ``(n, y'y, X'y, X'X)`` of summed linear :func:`stat_rows`, ``X'X`` as ``(..., p, p)``."""
    return (stats[..., 0], stats[..., 1], stats[..., 2 : 2 + p],
            stats[..., 2 + p :].reshape(stats.shape[:-1] + (p, p)))


def _class_stats(labels: np.ndarray, K: int, rows: np.ndarray) -> np.ndarray:
    """Per-class sums of per-subject ``rows`` over a ``(B, n0)`` label block, as ``(B, K, d)``."""
    B, n0 = labels.shape
    onehot = labels[:, None, :] == np.arange(1, K + 1)[:, None]
    return (onehot.reshape(B * K, n0) @ rows).reshape(B, K, rows.shape[1])


def _single_partition(assign: PartitionAssignment, hist: HistoricalDataset, cfg: LeapConfig):
    """One partition as a one-row label block, after checking its labels and length."""
    class_counts(assign, cfg.K)
    if assign.n0 != hist.n0:
        raise ValidationError("partition length must match historical sample size")
    return assign.c0[None]


def poisson_block_weights(
    labels: np.ndarray, data: Optional[Dataset], hist: HistoricalDataset, cfg: LeapConfig
) -> tuple:
    """Unnormalized log masses and first-component rate means of a ``(B, n0)`` label block.

    Returns ``(log_weights (B,), means (B, 1))``.  With ``data=None`` the
    current-study terms are dropped, which gives the prior partition kernel
    induced by the historical data alone.
    """
    stats = _class_stats(labels, cfg.K, stat_rows(hist.y0))
    counts, sums = stats[..., 0], stats[..., 1]
    eta = sums + np.array([p.eta0 for p in cfg.component_priors])
    beta = counts + np.array([p.beta0 for p in cfg.component_priors])
    if data is not None:
        eta[:, 0] += float(data.y.sum())
        beta[:, 0] += data.n
    logw = np.sum(gammaln(eta) - eta * np.log(beta), axis=1)
    logw += _gamma_integral_block(counts, cfg)
    return logw, (eta[:, 0] / beta[:, 0])[:, None]


def poisson_log_partition_weight(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> float:
    """Unnormalized log mass of one partition under the Poisson model (one block row)."""
    labels = _single_partition(assign, hist, cfg)
    return float(poisson_block_weights(labels, data, hist, cfg)[0][0])


# ---------------------------------------------------------------------------
# Normal linear model


def hist_design(hist: HistoricalDataset, p: int) -> np.ndarray:
    """Historical design aligned to the model dimension.

    When the current design carries a trailing treatment column that the
    all-control historical study lacks, a zero column is appended.
    """
    if hist.X0 is None:
        raise ValidationError("historical design X0 required for the linear model")
    if hist.X0.shape[1] == p:
        return hist.X0
    if hist.X0.shape[1] == p - 1:
        return np.hstack([hist.X0, np.zeros((hist.n0, 1))])
    raise ValidationError(
        f"historical design has {hist.X0.shape[1]} columns; expected {p} or {p - 1}"
    )


def current_design(data: Dataset, p: int) -> np.ndarray:
    X = data.effective_design()
    if X is None:
        raise ValidationError("current design X required for the linear model")
    if X.shape[1] != p:
        raise ValidationError(f"current design has {X.shape[1]} columns; expected {p}")
    return X


class NgStack(NamedTuple):
    """Stacked conditionals ``beta | tau ~ N(mean, (tau L L')^-1)``, ``tau ~ Gamma(shape, rate)``.

    ``chol`` holds the factors ``L``; ``log_kernel = log Gamma(shape) - shape log(rate) - log|L|``.
    """

    chol: np.ndarray
    mean: np.ndarray
    shape: np.ndarray
    rate: np.ndarray
    log_kernel: np.ndarray


def ng_update_stack(
    prior: NormalGammaPrior,
    XtX: np.ndarray,
    Xty: np.ndarray,
    yty: np.ndarray,
    n_eff: np.ndarray,
    where: Callable[[int], str] = _stack_index,
) -> NgStack:
    """Normal-gamma updates of ``prior`` by stacked ``(X'X, X'y, y'y, n)`` statistics.

    One :func:`chol_pd_stack` call factors every precision ``XtX + omega0``;
    means follow by substitution, with ``m'Pm = w'w`` for ``L w = X'y + omega0 mu0``.
    ``where(i)`` names stack entry ``i`` in error messages.
    """
    L = chol_pd_stack(XtX + prior.omega0, where)
    w = _tri_solve_stack(L, Xty + prior.omega0 @ prior.mu0)
    m = _tri_solve_stack(L, w, transpose=True)
    s2 = prior.xi0 + yty + prior.mu0 @ prior.omega0 @ prior.mu0 - np.einsum("gi,gi->g", w, w)
    bad = np.flatnonzero(s2 <= 0)
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"nonpositive residual scale {s2[i]:.3e} in normal-gamma update{where(i)}"
        )
    shape = (n_eff + prior.delta0) / 2.0
    rate = s2 / 2.0
    log_kernel = (
        gammaln(shape)
        - shape * np.log(rate)
        - np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    )
    return NgStack(L, m, shape, rate, log_kernel)


def ng_conditional(
    prior: NormalGammaPrior,
    XtX: np.ndarray,
    Xty: np.ndarray,
    yty: float,
    n_eff: float,
) -> LinearConditional:
    """Normal-gamma update from accumulated (possibly weighted) sufficient stats."""
    XtX = np.asarray(XtX, dtype=float)
    upd = ng_update_stack(
        prior, XtX[None], np.asarray(Xty, dtype=float)[None], np.array([yty]),
        np.array([n_eff]), where=lambda i: "",
    )
    return LinearConditional(upd.mean[0], XtX + prior.omega0, float(upd.shape[0]),
                             float(upd.rate[0]))


def linear_block_weights(
    labels: np.ndarray, data: Optional[Dataset], hist: HistoricalDataset, cfg: LeapConfig
) -> tuple:
    """Unnormalized log masses and first-component coefficient means of a ``(B, n0)`` label block.

    Returns ``(log_weights (B,), means (B, p))``.  All classes' ``(n, y'y,
    X'y, X'X)`` come from one product of one-hot labels with :func:`stat_rows`,
    and each component's kernels from one :func:`ng_update_stack` call.  The
    current data's summed rows join the first class; ``data=None`` gives the
    prior kernel.
    """
    p = cfg.component_priors[0].p
    stats = _class_stats(labels, cfg.K, stat_rows(hist.y0, hist_design(hist, p)))
    n, yty, Xty, XtX = split_linear_stats(stats, p)
    logw = _gamma_integral_block(n, cfg)
    if data is not None:
        stats[:, 0] += stat_rows(data.y, current_design(data, p)).sum(axis=0)

    def where(i):
        return f" for partition c0 = ({','.join(str(v) for v in labels[i])})"

    for k, prior in enumerate(cfg.component_priors):
        upd = ng_update_stack(prior, XtX[:, k], Xty[:, k], yty[:, k], n[:, k], where)
        logw += upd.log_kernel
        if k == 0:
            means = upd.mean
    return logw, means


def linear_log_partition_weight(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> float:
    """Unnormalized log mass of one partition under the linear model (one block row)."""
    labels = _single_partition(assign, hist, cfg)
    return float(linear_block_weights(labels, data, hist, cfg)[0][0])
