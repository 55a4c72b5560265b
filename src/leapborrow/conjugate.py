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
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import betaln, gammaln

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
    """Lower Cholesky factor with a relative pivot check.

    Fails when any squared pivot drops below ``1e-12 * trace / p``, reporting
    conditioning diagnostics, so downstream code never works with a factor of
    a numerically indefinite matrix.
    """
    p = A.shape[0]
    floor = _PIVOT_RTOL * max(np.trace(A), 0.0) / max(p, 1)
    try:
        L = cholesky(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix not positive definite: {exc}") from exc
    except Exception as exc:  # scipy raises LinAlgError from scipy.linalg
        raise NumericalError(f"matrix not positive definite: {exc}") from exc
    piv = np.diag(L) ** 2
    if np.any(piv < floor):
        raise _near_singular(A, piv.min(), floor)
    return L


def chol_pd_stack(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a ``(G, p, p)`` stack, with :func:`chol_pd`'s check.

    The pivot floor ``1e-12 * trace / p`` is taken per matrix; the error names
    the first matrix in the stack that breaches it.
    """
    p = A.shape[-1]
    if not np.all(np.isfinite(A)):
        raise NumericalError("matrix not positive definite: non-finite entries")
    floor = _PIVOT_RTOL * np.maximum(np.trace(A, axis1=1, axis2=2), 0.0) / max(p, 1)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix not positive definite: {exc}") from exc
    piv = np.diagonal(L, axis1=1, axis2=2) ** 2
    bad = np.flatnonzero(np.any(piv < floor[:, None], axis=1))
    if bad.size:
        i = bad[0]
        raise _near_singular(A[i], piv[i].min(), floor[i], where=f" at stack index {i}")
    return L


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


def _gamma_integral_log(cfg: LeapConfig, counts: np.ndarray) -> float:
    """Log of the mixture-weight integral over the (possibly truncated) simplex.

    Returns ``-inf`` for partitions whose updated weight distribution has no
    mass inside the truncation interval; such partitions are simply
    impossible rather than numerical failures.
    """
    if cfg.K == 1:
        return 0.0
    v = counts + cfg.alpha0
    tail = float(v[1:].sum())
    lm = ptd.trunc_beta_log_mass(v[0], tail, cfg.trunc_a, cfg.trunc_b)
    if lm == -np.inf:
        return -np.inf
    return float(betaln(v[0], tail)) + lm + ptd.log_multivariate_beta(v[1:])


def poisson_log_partition_weight(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> float:
    """Unnormalized log mass of a partition under the Poisson model.

    With ``data=None`` the current-study terms are dropped, which gives the
    prior partition kernel induced by the historical data alone.
    """
    counts = class_counts(assign, cfg.K).astype(float)
    if assign.n0 != hist.n0:
        raise ValidationError("partition length must match historical sample size")
    sums = np.bincount(assign.c0 - 1, weights=hist.y0, minlength=cfg.K)
    eta = np.array([p.eta0 for p in cfg.component_priors]) + sums
    beta = np.array([p.beta0 for p in cfg.component_priors]) + counts
    if data is not None:
        eta[0] += data.y.sum()
        beta[0] += data.n
    return _gamma_integral_log(cfg, counts) + float(
        np.sum(gammaln(eta) - eta * np.log(beta))
    )


def poisson_conditional_mean(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> float:
    """Conditional (prior or posterior) mean of the first-component rate."""
    prior = cfg.component_priors[0]
    in1 = assign.c0 == 1
    count_sum = float(hist.y0[in1].sum())
    n_obs = float(in1.sum())
    if data is not None:
        count_sum += float(data.y.sum())
        n_obs += data.n
    post = poisson_component_posterior(prior, count_sum, n_obs)
    return post.mean


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


def ng_conditional(
    prior: NormalGammaPrior,
    XtX: np.ndarray,
    Xty: np.ndarray,
    yty: float,
    n_eff: float,
) -> LinearConditional:
    """Normal-gamma update from accumulated (possibly weighted) sufficient stats."""
    P = XtX + prior.omega0
    L = chol_pd(P)
    h = Xty + prior.omega0 @ prior.mu0
    m = cho_solve((L, True), h)
    shape = (n_eff + prior.delta0) / 2.0
    s2 = prior.xi0 + yty + prior.mu0 @ prior.omega0 @ prior.mu0 - m @ P @ m
    if s2 <= 0:
        raise NumericalError(
            f"nonpositive residual scale {s2:.3e} in normal-gamma update"
        )
    return LinearConditional(m, P, shape, s2 / 2.0)


def linear_component_conditional(
    assign: PartitionAssignment,
    k: int,
    hist: HistoricalDataset,
    prior: NormalGammaPrior,
) -> LinearConditional:
    """Conditional normal-gamma block for component ``k >= 2`` given a partition.

    An empty class recovers the prior exactly.  Requires a positive definite
    ``omega0`` since nothing else guarantees full rank for a small class.
    """
    if k < 2:
        raise ValidationError("use linear_first_component_conditional for k = 1")
    if not prior.is_proper():
        raise ValidationError(f"component {k} prior must be proper (omega0 PD)")
    X0 = hist_design(hist, prior.p)
    mask = assign.c0 == k
    Xk = X0[mask]
    yk = hist.y0[mask]
    return ng_conditional(prior, Xk.T @ Xk, Xk.T @ yk, float(yk @ yk), float(mask.sum()))


def linear_first_component_conditional(
    assign: PartitionAssignment,
    data: Dataset,
    hist: HistoricalDataset,
    prior: NormalGammaPrior,
) -> LinearConditional:
    """First-component conditional: current data stacked with class-1 historical.

    Supports the improper ``omega0 -> 0`` limit as long as the stacked design
    has full rank; otherwise the Cholesky pivot check raises.
    """
    X = current_design(data, prior.p)
    X0 = hist_design(hist, prior.p)
    mask = assign.c0 == 1
    X1 = X0[mask]
    y1 = hist.y0[mask]
    XtX = X.T @ X + X1.T @ X1
    Xty = X.T @ data.y + X1.T @ y1
    yty = float(data.y @ data.y + y1 @ y1)
    return ng_conditional(prior, XtX, Xty, yty, float(data.n + mask.sum()))


def _linear_class_stats(X0: np.ndarray, y0: np.ndarray, assign: PartitionAssignment, k: int):
    mask = assign.c0 == k
    Xk = X0[mask]
    yk = y0[mask]
    return Xk.T @ Xk, Xk.T @ yk, float(yk @ yk), float(mask.sum())


def _ng_log_kernel(cond: LinearConditional) -> float:
    L = chol_pd(cond.precision_scale)
    return float(
        gammaln(cond.shape)
        - cond.shape * np.log(cond.rate)
        - 0.5 * logdet_from_chol(L)
    )


def linear_log_partition_weight(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> float:
    """Unnormalized log mass of a partition under the linear model.

    Sum of per-component normal-gamma kernels plus the mixture-weight
    integral; ``data=None`` yields the prior kernel, where the first
    component conditions on its historical class only.
    """
    counts = class_counts(assign, cfg.K).astype(float)
    if assign.n0 != hist.n0:
        raise ValidationError("partition length must match historical sample size")
    total = _gamma_integral_log(cfg, counts)
    first: NormalGammaPrior = cfg.component_priors[0]
    X0 = hist_design(hist, first.p)
    if data is None:
        cond1 = ng_conditional(first, *_linear_class_stats(X0, hist.y0, assign, 1))
    else:
        cond1 = linear_first_component_conditional(assign, data, hist, first)
    total += _ng_log_kernel(cond1)
    for k in range(2, cfg.K + 1):
        prior_k: NormalGammaPrior = cfg.component_priors[k - 1]
        cond_k = ng_conditional(prior_k, *_linear_class_stats(X0, hist.y0, assign, k))
        total += _ng_log_kernel(cond_k)
    return total


def linear_conditional_mean(
    assign: PartitionAssignment,
    data: Optional[Dataset],
    hist: HistoricalDataset,
    cfg: LeapConfig,
) -> np.ndarray:
    """Conditional mean of the first-component coefficient vector."""
    first: NormalGammaPrior = cfg.component_priors[0]
    if data is None:
        X0 = hist_design(hist, first.p)
        cond = ng_conditional(first, *_linear_class_stats(X0, hist.y0, assign, 1))
    else:
        cond = linear_first_component_conditional(assign, data, hist, first)
    return cond.beta_tilde


def first_component_rate_projection_form(
    assign: PartitionAssignment,
    data: Dataset,
    hist: HistoricalDataset,
    prior: NormalGammaPrior,
) -> float:
    """Independent evaluation of the first-component rate scale.

    Builds the residual projection and shrinkage quadratic terms explicitly
    (class-1 stage first, then the current-data stage) instead of completing
    the square once over the stacked data.  Used to cross-check
    :func:`linear_first_component_conditional`; requires full-rank class-1
    and current designs since it goes through the per-stage least-squares
    fits.
    """
    X = current_design(data, prior.p)
    X0 = hist_design(hist, prior.p)
    mask = assign.c0 == 1
    X1 = X0[mask]
    y1 = hist.y0[mask]

    G1 = X1.T @ X1
    bhat01 = np.linalg.solve(G1, X1.T @ y1)
    resid1 = y1 - X1 @ bhat01
    psi01 = G1 + prior.omega0
    lam01 = np.linalg.solve(psi01, prior.omega0)
    d01 = bhat01 - prior.mu0
    s01 = float(resid1 @ resid1 + d01 @ (lam01.T @ G1) @ d01 + prior.xi0)

    G = X.T @ X
    bhat1 = np.linalg.solve(G, X.T @ data.y)
    resid = data.y - X @ bhat1
    bt01 = lam01 @ prior.mu0 + (np.eye(prior.p) - lam01) @ bhat01
    lam1 = np.linalg.solve(G + psi01, psi01)
    d1 = bhat1 - bt01
    return float(resid @ resid + d1 @ (lam1.T @ G) @ d1 + s01)
