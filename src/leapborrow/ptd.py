"""Dirichlet distribution with the first coordinate truncated to an interval.

The density on the simplex is proportional to ``prod(gamma_k ** (alpha_k - 1))``
restricted to ``a < gamma_1 < b``.  The first coordinate is marginally a
truncated beta, the rescaled tail is an ordinary Dirichlet, and the family is
conjugate to multinomial counts, which is everything a blocked Gibbs update
for mixture weights needs.

All beta/gamma functions are evaluated in log space.  Interval masses and the
sampler's inverse CDF work on the interval's smaller tail (``betainc`` below
the median, ``betaincc`` above it), so an interval far in either tail keeps
its digits instead of cancelling between two values near 1.  An interval too
narrow for a difference of tail values takes its mass from a Gauss-Legendre
rule over the interval instead, and is sampled by rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import (
    betainc,
    betaincc,
    betainccinv,
    betaincinv,
    betaln,
    gammaln,
    xlog1py,
    xlogy,
)

from .core import NumericalError, ValidationError

_MASS_FLOOR = 1e-300
# intervals holding less than this share of their tail are narrow: the
# inverse CDF cannot resolve them and their tail difference has lost digits
_RESOLUTION = 1e-6
# 8-point Gauss-Legendre rule on (-1, 1) (Abramowitz and Stegun, table 25.4),
# written out because computing it at import maps LAPACK code (0.9 MiB RSS).
# The density is close to constant on a narrow interval, so 8 nodes integrate
# it to rounding.
_GL_HALF_NODES = np.array([0.1834346424956498, 0.5255324099163290,
                           0.7966664774136267, 0.9602898564975363])
_GL_HALF_WEIGHTS = np.array([0.3626837833783620, 0.3137066458778873,
                             0.2223810344533745, 0.1012285362903763])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


class TruncInterval(NamedTuple):
    """Tail probabilities of ``Beta(alpha, beta)`` at the ends of ``(a, b)``.

    ``ta``/``tb`` are the CDF values at ``a``/``b`` where ``upper`` is false
    and the survival values where it is true.  ``narrow`` marks intervals
    whose ``|tb - ta|`` is below ``_RESOLUTION`` of the larger tail value;
    ``mass`` is ``|tb - ta|`` elsewhere and a quadrature there.
    """

    upper: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    mass: np.ndarray
    narrow: np.ndarray


def _quadrature_mass(alpha, beta, a, b) -> np.ndarray:
    """Mass of ``Beta(alpha, beta)`` on ``(a, b)`` by the fixed Gauss-Legendre rule, elementwise."""
    half = (b - a) / 2.0
    x = ((a + b) / 2.0)[:, None] + half[:, None] * _GL_NODES
    log_f = xlogy(alpha[:, None] - 1.0, x) + xlog1py(beta[:, None] - 1.0, -x)
    return half * (np.exp(log_f - betaln(alpha, beta)[:, None]) * _GL_WEIGHTS).sum(axis=1)


def trunc_beta_interval(alpha, beta, a, b) -> TruncInterval:
    """Mass of ``Beta(alpha, beta)`` on ``(a, b)``, elementwise, from the smaller tail.

    The side is the one whose larger end value is smaller: CDF values when
    ``betainc(b) <= betaincc(a)``, survival values otherwise.  The mass is then
    a difference of values no larger than the tail it lies in, except on
    narrow intervals, where that difference has cancelled and the density
    is integrated over ``(a, b)`` instead.
    """
    Fa, Fb = betainc(alpha, beta, a), betainc(alpha, beta, b)
    Sa, Sb = betaincc(alpha, beta, a), betaincc(alpha, beta, b)
    upper = Fb > Sa
    ta, tb = np.where(upper, Sa, Fa), np.where(upper, Sb, Fb)
    mass = np.abs(tb - ta)
    narrow = mass < _RESOLUTION * np.maximum(ta, tb)
    if narrow.any():
        args = (np.broadcast_to(np.asarray(v, dtype=float), narrow.shape)[narrow]
                for v in (alpha, beta, a, b))
        mass = np.where(narrow, 0.0, mass)
        mass[narrow] = _quadrature_mass(*args)
    return TruncInterval(upper, ta, tb, mass, narrow)


@dataclass(frozen=True)
class PtdParams:
    """Concentration vector plus truncation bounds on the first coordinate.

    ``interval`` holds the first coordinate's :class:`TruncInterval`.
    """

    alpha: np.ndarray
    a: float = 0.0
    b: float = 1.0
    interval: TruncInterval = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValidationError("alpha must be a vector of length >= 2")
        if np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
            raise ValidationError("alpha entries must be positive and finite")
        a, b = float(self.a), float(self.b)
        if not (0.0 <= a < b <= 1.0):
            raise ValidationError(f"truncation requires 0 <= a < b <= 1, got ({a}, {b})")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        interval = trunc_beta_interval(self.alpha1, self.alpha_rest_sum, a, b)
        if interval.mass == 0.0:
            raise ValidationError("truncated beta mass vanishes on (a, b)")
        object.__setattr__(self, "interval", interval)

    @property
    def K(self) -> int:
        return int(self.alpha.size)

    @property
    def alpha1(self) -> float:
        return float(self.alpha[0])

    @property
    def alpha_rest_sum(self) -> float:
        return float(self.alpha[1:].sum())


def log_beta_interval(alpha, beta, a, b):
    """Log of the unnormalized beta integral over ``(a, b)``, elementwise.

    This is ``log B(alpha, beta)`` plus the log interval mass, ``-inf`` where
    the mass underflows to 0; for ``(a, b) = (0, 1)`` it reduces to the
    complete log beta function.
    """
    with np.errstate(divide="ignore"):
        return betaln(alpha, beta) + np.log(trunc_beta_interval(alpha, beta, a, b).mass)


def log_multivariate_beta(alpha: np.ndarray) -> float:
    """Log multivariate beta function; 0 for a length-1 vector."""
    if alpha.size <= 1:
        return 0.0
    return float(gammaln(alpha).sum() - gammaln(alpha.sum()))


def log_norm_const(params: PtdParams) -> float:
    """Log normalizing constant of the truncated-Dirichlet kernel.

    Factorizes as the truncated beta integral for the first coordinate times
    the multivariate beta function of the remaining concentrations.
    """
    alpha, beta, a, b = marginal_first(params)
    mass = float(params.interval.mass)
    if mass < _MASS_FLOOR:
        raise NumericalError(
            "degenerate truncation: interval mass below "
            f"{_MASS_FLOOR:g} for Beta({alpha}, {beta}) on ({a}, {b})"
        )
    return float(betaln(alpha, beta)) + np.log(mass) + log_multivariate_beta(params.alpha[1:])


def log_density(params: PtdParams, gamma, tol: float = 1e-10) -> float:
    """Natural-log density at a point on the simplex.

    Returns ``-inf`` outside the truncation region; raises if ``gamma`` is off
    the simplex by more than ``tol``.
    """
    g = np.asarray(gamma, dtype=float)
    if g.shape != (params.K,):
        raise ValidationError(f"gamma must have length {params.K}")
    if abs(g.sum() - 1.0) > tol:
        raise ValidationError(f"gamma sums to {g.sum()!r}, off the simplex beyond {tol:g}")
    if np.any(g < 0):
        raise ValidationError("gamma has negative entries")
    if not (params.a < g[0] < params.b):
        return -np.inf
    with np.errstate(divide="ignore"):
        # xlogy yields the natural +/-inf limits at zero tail coordinates
        kernel = float(np.sum(xlogy(params.alpha - 1.0, g)))
    return kernel - log_norm_const(params)


def marginal_first(params: PtdParams) -> tuple:
    """Truncated-beta parameters ``(alpha1, sum of tail, a, b)`` of the first coordinate."""
    return (params.alpha1, params.alpha_rest_sum, params.a, params.b)


def moment(params: PtdParams, m) -> float:
    """Closed-form mixed moment ``E[prod(Y_k ** m_k)]``.

    Ratio of shifted to unshifted truncated/ordinary beta integrals; the
    zero-exponent case returns exactly 1.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (params.K,):
        raise ValidationError(f"m must have length {params.K}")
    if np.any(m < 0) or np.any(m != np.round(m)):
        raise ValidationError("m entries must be nonnegative integers")
    if np.all(m == 0):
        return 1.0
    a1, a0 = params.alpha1, params.alpha_rest_sum
    m1, m0 = float(m[0]), float(m[1:].sum())
    num = log_beta_interval(a1 + m1, a0 + m0, params.a, params.b)
    num += log_multivariate_beta(params.alpha[1:] + m[1:])
    den = log_beta_interval(a1, a0, params.a, params.b)
    den += log_multivariate_beta(params.alpha[1:])
    return float(np.exp(num - den))


def posterior_update(params: PtdParams, counts) -> PtdParams:
    """Conjugate update under multinomial counts: add counts, keep truncation."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (params.K,):
        raise ValidationError(f"counts must have length {params.K}")
    if np.any(counts < 0) or np.any(counts != np.round(counts)):
        raise ValidationError("counts must be nonnegative integers")
    return PtdParams(params.alpha + counts, params.a, params.b)


def _narrow_draws(alpha: float, beta: float, a: float, b: float, n: int, rng) -> np.ndarray:
    """``n`` draws of ``Beta(alpha, beta)`` on ``(a, b)`` by rejection from Uniform(a, b).

    The envelope is the density's maximum on ``[a, b]``, found among the
    endpoints and the mode.  Proposals that round onto ``a`` or ``b`` are
    rejected, so every draw lies strictly inside.
    """

    def log_kernel(x):
        return xlogy(alpha - 1.0, x) + xlog1py(beta - 1.0, -x)

    points = [a, b]
    if alpha + beta != 2.0:
        points.append(min(max((alpha - 1.0) / (alpha + beta - 2.0), a), b))
    top = np.max(log_kernel(np.array(points)))
    draws = np.empty(0)
    while draws.size < n:
        x = rng.uniform(a, b, size=n)
        u = rng.random(n)
        keep = (a < x) & (x < b) & (np.log(u) <= log_kernel(x) - top)
        draws = np.concatenate([draws, x[keep]])
    return draws[:n]


def sample(params: PtdParams, rng: np.random.Generator, size: int | None = None):
    """Exact draw(s): truncated-beta first coordinate, scaled-Dirichlet tail.

    One uniform ``U`` per row maps to the first coordinate through the
    inverse CDF on the interval's smaller tail, ``ta + U (tb - ta)``; a
    narrow interval is drawn by :func:`_narrow_draws`.
    ``size=None`` returns one row of the ``size=1`` draw.
    """
    n = 1 if size is None else size
    alpha, beta, a, b = marginal_first(params)
    interval = params.interval
    ta, tb = float(interval.ta), float(interval.tb)
    if interval.narrow:
        g1 = _narrow_draws(alpha, beta, a, b, n, rng)
    else:
        inverse = betainccinv if interval.upper else betaincinv
        g1 = inverse(alpha, beta, ta + rng.random(n) * (tb - ta))
        # keep rounding at the ends inside the open interval
        g1 = np.minimum(np.maximum(g1, math.nextafter(a, b)), math.nextafter(b, a))
    tail = rng.dirichlet(params.alpha[1:], size=n) if params.K > 2 else np.ones((n, 1))
    out = np.empty((n, params.K))
    out[:, 0] = g1
    out[:, 1:] = (1.0 - g1)[:, None] * tail
    return out[0] if size is None else out
