import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, xlogy

from leapborrow import (
    Dataset,
    HistoricalDataset,
    NormalGammaPrior,
    NumericalError,
    PoissonGammaPrior,
    ValidationError,
    npp_conditional_posterior,
    npp_log_norm_const,
    npp_posterior,
    reference_posterior,
)
from leapborrow.comparators import (
    A0Prior,
    NppConfig,
    ReferencePriorConfig,
    _tau_cap,
    npp_a0_posterior,
)
from leapborrow.conjugate import chol_pd
from leapborrow.core import design_rank_ok
from leapborrow.diagnostics import batch_means_se


def quad_log_c_poisson(a0, y0, eta0, beta0):
    """1-D quadrature of the weighted Poisson likelihood against the gamma prior."""
    s0, n0 = float(y0.sum()), y0.size
    lfact = float(gammaln(y0 + 1).sum())
    shift = None

    def log_integrand(th):
        return (
            a0 * (s0 * np.log(th) - n0 * th - lfact)
            + eta0 * np.log(beta0)
            - gammaln(eta0)
            + (eta0 - 1) * np.log(th)
            - beta0 * th
        )

    mode = max((a0 * s0 + eta0 - 1), 0.1) / (a0 * n0 + beta0)
    shift = log_integrand(max(mode, 1e-6))
    val, err = integrate.quad(
        lambda th: np.exp(log_integrand(th) - shift),
        0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=500,
    )
    return shift + np.log(val)


def quad_log_c_linear(a0, X0, y0, prior):
    """2-D quadrature over (coefficient, precision) for an intercept-only block."""
    om, mu = prior.omega0[0, 0], prior.mu0[0]
    d0, x0 = prior.delta0, prior.xi0
    n0 = y0.size

    def inner(b):
        # inner integral over log precision; outer over the coefficient uses
        # infinite limits so the heavy prior tails are captured exactly
        def g(t):
            tau = np.exp(t)
            ll = a0 * (-n0 / 2 * np.log(2 * np.pi) + n0 / 2 * t - tau / 2 * np.sum((y0 - b) ** 2))
            lp = (
                0.5 * (t + np.log(om) - np.log(2 * np.pi))
                - tau * om / 2 * (b - mu) ** 2
                + d0 / 2 * np.log(x0 / 2)
                - gammaln(d0 / 2)
                + (d0 / 2 - 1) * t
                - x0 / 2 * tau
                + t
            )
            return np.exp(ll + lp)

        v, _ = integrate.quad(g, -30, 14, epsabs=1e-16, epsrel=1e-13, limit=800)
        return v

    val, _ = integrate.quad(
        inner, -np.inf, np.inf, epsabs=1e-16, epsrel=1e-12, limit=800
    )
    return np.log(val)


class TestPoissonNormConst:
    def test_zero_weight_is_zero(self):
        hist = HistoricalDataset(y0=np.array([1.0, 4.0, 2.0]))
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5))
        assert npp_log_norm_const(0.0, hist, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_full_weight_is_marginal_likelihood(self):
        y0 = np.array([1.0, 4.0, 2.0])
        hist = HistoricalDataset(y0=y0)
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5))
        s0, n0 = y0.sum(), y0.size
        expect = (
            -gammaln(y0 + 1).sum()
            + 0.5 * np.log(0.5)
            - gammaln(0.5)
            + gammaln(s0 + 0.5)
            - (s0 + 0.5) * np.log(n0 + 0.5)
        )
        assert npp_log_norm_const(1.0, hist, cfg) == pytest.approx(expect, rel=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(0)
        y0 = rng.poisson(3.0, size=6).astype(float)
        hist = HistoricalDataset(y0=y0)
        cfg = NppConfig(prior=PoissonGammaPrior(1.3, 0.7))
        for a0 in (0.37, 0.05, 0.93):
            lc = npp_log_norm_const(a0, hist, cfg)
            lq = quad_log_c_poisson(a0, y0, 1.3, 0.7)
            assert abs(lc - lq) <= 1e-8 * max(1.0, abs(lq))

    def test_out_of_range_weight(self):
        hist = HistoricalDataset(y0=np.array([1.0]))
        cfg = NppConfig(prior=PoissonGammaPrior(1.0, 1.0))
        with pytest.raises(ValidationError, match="a0"):
            npp_log_norm_const(1.2, hist, cfg)


class TestLinearNormConst:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        n0 = 7
        y0 = rng.normal(1.0, 1.0, size=n0)
        hist = HistoricalDataset(y0=y0, X0=np.ones((n0, 1)))
        prior = NormalGammaPrior(np.array([0.4]), np.array([[1.7]]), 3.0, 2.0)
        cfg = NppConfig(prior=prior)
        for a0 in (0.0, 0.41, 1.0):
            lc = npp_log_norm_const(a0, hist, cfg)
            lq = quad_log_c_linear(a0, hist.X0, y0, prior)
            assert abs(lc - lq) <= 1e-8 * max(1.0, abs(lq))

    def test_improper_prior_rejected(self):
        with pytest.raises(ValidationError, match="proper"):
            NppConfig(
                prior=NormalGammaPrior(np.zeros(1), np.zeros((1, 1)), 1.0, 1.0)
            )


def _poisson_setup(seed=2, n=25, n0=12, rate=2.0, rate0=None):
    rng = np.random.default_rng(seed)
    y = rng.poisson(rate, size=n).astype(float)
    y0 = rng.poisson(rate0 or rate, size=n0).astype(float)
    return Dataset(y=y), HistoricalDataset(y0=y0)


class TestBoundaryDegeneracies:
    def test_poisson_no_borrowing_and_pooling(self):
        data, hist = _poisson_setup()
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5))
        sh0, ra0 = npp_conditional_posterior(0.0, data, hist, cfg)
        assert sh0 == 0.5 + data.y.sum()
        assert ra0 == 0.5 + data.n
        sh1, ra1 = npp_conditional_posterior(1.0, data, hist, cfg)
        assert sh1 == 0.5 + data.y.sum() + hist.y0.sum()
        assert ra1 == 0.5 + data.n + hist.n0

    def test_linear_no_borrowing_and_pooling(self):
        rng = np.random.default_rng(3)
        n, n0 = 15, 9
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, -0.5]) + rng.normal(size=n)
        X0 = np.column_stack([np.ones(n0), rng.normal(size=n0)])
        y0 = X0 @ np.array([1.0, -0.5]) + rng.normal(size=n0)
        data = Dataset(y=y, X=X)
        hist = HistoricalDataset(y0=y0, X0=X0)
        prior = NormalGammaPrior(np.zeros(2), 0.1 * np.eye(2), 2.0, 2.0)
        cfg = NppConfig(prior=prior)

        m0, _, sh0, ra0 = npp_conditional_posterior(0.0, data, hist, cfg)
        P_expect = prior.omega0 + X.T @ X
        m_expect = np.linalg.solve(P_expect, X.T @ y)
        assert np.allclose(m0, m_expect, atol=1e-12)
        assert sh0 == pytest.approx((n + 2.0) / 2)

        m1, _, sh1, ra1 = npp_conditional_posterior(1.0, data, hist, cfg)
        P1 = prior.omega0 + X.T @ X + X0.T @ X0
        m1_expect = np.linalg.solve(P1, X.T @ y + X0.T @ y0)
        assert np.allclose(m1, m1_expect, atol=1e-12)
        assert sh1 == pytest.approx((n + n0 + 2.0) / 2)


class TestGridPosterior:
    def test_pmf_normalizes(self):
        data, hist = _poisson_setup()
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5), a0_grid_size=101)
        grid, pmf = npp_a0_posterior(data, hist, cfg)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert grid.size == 101

    def test_conflict_drives_weight_to_zero(self):
        data, hist = _poisson_setup(seed=4, n=40, n0=60, rate=1.5, rate0=30.0)
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5), a0_grid_size=201)
        grid, pmf = npp_a0_posterior(data, hist, cfg)
        assert grid @ pmf < 0.1

    def test_truncated_uniform_caps_grid(self):
        data, hist = _poisson_setup()
        cfg = NppConfig(
            prior=PoissonGammaPrior(0.5, 0.5),
            a0_prior=A0Prior("truncated_uniform", bound=0.48),
            a0_grid_size=51,
        )
        grid, pmf = npp_a0_posterior(data, hist, cfg)
        assert grid.max() == pytest.approx(0.48)

    def test_fixed_weight_draws(self):
        data, hist = _poisson_setup()
        cfg = NppConfig(
            prior=PoissonGammaPrior(0.5, 0.5), a0_prior=A0Prior("fixed", value=1.0)
        )
        draws = npp_posterior(data, hist, cfg, n_draws=2000, seed=0)
        assert np.all(draws.column("a0") == 1.0)
        sh, ra = npp_conditional_posterior(1.0, data, hist, cfg)
        se = batch_means_se(draws.column("theta_1"))
        assert abs(draws.column("theta_1").mean() - sh / ra) < 4 * se

    def test_deterministic_given_seed(self):
        data, hist = _poisson_setup()
        cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5), a0_grid_size=101)
        a = npp_posterior(data, hist, cfg, n_draws=500, seed=7)
        b = npp_posterior(data, hist, cfg, n_draws=500, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_linear_draws_have_treatment_column(self):
        rng = np.random.default_rng(5)
        n, n0 = 30, 20
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = (rng.random(n) < 0.5).astype(float)
        y = X @ np.array([1.0, 0.5]) - 2.0 * z + rng.normal(size=n)
        X0 = np.column_stack([np.ones(n0), rng.normal(size=n0)])
        y0 = X0 @ np.array([1.0, 0.5]) + rng.normal(size=n0)
        data = Dataset(y=y, z=z, X=X)
        hist = HistoricalDataset(y0=y0, X0=X0)
        prior = NormalGammaPrior(np.zeros(3), 0.01 * np.eye(3), 0.02, 0.02)
        draws = npp_posterior(data, hist, NppConfig(prior=prior, a0_grid_size=101),
                              n_draws=3000, seed=1)
        est = draws.column("beta_1_3").mean()
        assert abs(est + 2.0) < 0.5


def _poisson_log_marginal_ref(prior, blocks):
    """Closed-form log marginal of weighted Poisson blocks, one weight at a time."""
    shape, rate = prior.eta0, prior.beta0
    const = prior.eta0 * np.log(prior.beta0) - gammaln(prior.eta0)
    for y, w in blocks:
        shape += w * y.sum()
        rate += w * y.size
        const -= w * gammaln(y + 1).sum()
    return const + gammaln(shape) - shape * np.log(rate)


def _ng_log_marginal_ref(prior, blocks):
    """Closed-form log marginal of weighted normal-linear blocks, one weight at a time."""
    P = prior.omega0.copy()
    h = prior.omega0 @ prior.mu0
    yty = prior.mu0 @ prior.omega0 @ prior.mu0
    n_eff = 0.0
    for X, y, w in blocks:
        P += w * (X.T @ X)
        h += w * (X.T @ y)
        yty += w * (y @ y)
        n_eff += w * y.size
    m = np.linalg.solve(P, h)
    shape = (n_eff + prior.delta0) / 2.0
    s2 = prior.xi0 + yty - m @ P @ m
    return (
        -0.5 * n_eff * np.log(2 * np.pi)
        + 0.5 * np.linalg.slogdet(prior.omega0)[1]
        - 0.5 * np.linalg.slogdet(P)[1]
        + gammaln(shape)
        - gammaln(prior.delta0 / 2.0)
        + (prior.delta0 / 2.0) * np.log(prior.xi0 / 2.0)
        - shape * np.log(s2 / 2.0)
    )


def _linear_setup(seed=9, n=30, n0=25):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = (rng.random(n) < 0.5).astype(float)
    y = X @ np.array([1.0, 0.5]) - 1.0 * z + rng.normal(size=n)
    X0 = np.column_stack([np.ones(n0), rng.normal(size=n0)])
    y0 = X0 @ np.array([1.4, 0.5]) + rng.normal(size=n0)
    prior = NormalGammaPrior(np.zeros(3), 0.05 * np.eye(3), 0.5, 0.5)
    return Dataset(y=y, z=z, X=X), HistoricalDataset(y0=y0, X0=X0), prior


A0_PRIORS = [
    A0Prior("uniform"),
    A0Prior("truncated_uniform", bound=0.6),
    A0Prior("beta", shape1=2.0, shape2=0.7),
    A0Prior("fixed", value=0.35),
]


class TestBatchedGrid:
    @pytest.mark.parametrize("family", ["poisson", "normal_linear"])
    @pytest.mark.parametrize("a0_prior", A0_PRIORS, ids=lambda p: p.kind)
    def test_pmf_matches_per_weight_loop(self, family, a0_prior):
        if family == "poisson":
            data, hist = _poisson_setup(seed=8, n=20, n0=30, rate=2.0, rate0=2.6)
            prior = PoissonGammaPrior(0.7, 0.4)

            def log_ratio(a):
                return _poisson_log_marginal_ref(
                    prior, [(data.y, 1.0), (hist.y0, a)]
                ) - _poisson_log_marginal_ref(prior, [(hist.y0, a)])
        else:
            data, hist, prior = _linear_setup()
            X = data.effective_design()
            X0 = np.column_stack([hist.X0, np.zeros(hist.n0)])

            def log_ratio(a):
                return _ng_log_marginal_ref(
                    prior, [(X, data.y, 1.0), (X0, hist.y0, a)]
                ) - _ng_log_marginal_ref(prior, [(X0, hist.y0, a)])

        cfg = NppConfig(prior=prior, a0_prior=a0_prior, a0_grid_size=101)
        grid, pmf = npp_a0_posterior(data, hist, cfg)
        logp = np.zeros(grid.size)
        if a0_prior.kind == "beta":
            logp = xlogy(a0_prior.shape1 - 1, grid) + xlogy(a0_prior.shape2 - 1, 1 - grid)
        logw = logp + np.array([log_ratio(a) for a in grid])
        expect = np.exp(logw - logw.max())
        expect /= expect.sum()
        assert np.allclose(pmf, expect, rtol=1e-10, atol=0.0)

    def test_conditional_at_interior_weight(self):
        data, hist, prior = _linear_setup()
        cfg = NppConfig(prior=prior, a0_grid_size=51)
        m, L, shape, rate = npp_conditional_posterior(0.4, data, hist, cfg)
        X = data.effective_design()
        X0 = np.column_stack([hist.X0, np.zeros(hist.n0)])
        P = prior.omega0 + X.T @ X + 0.4 * (X0.T @ X0)
        assert np.allclose(L @ L.T, P, rtol=1e-12, atol=1e-12)
        assert np.allclose(m, np.linalg.solve(P, X.T @ data.y + 0.4 * (X0.T @ hist.y0)))
        assert shape == pytest.approx((data.n + 0.4 * hist.n0 + prior.delta0) / 2)

    def test_near_singular_history_design_raises(self):
        rng = np.random.default_rng(10)
        n, n0 = 12, 10
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        data = Dataset(y=rng.normal(size=n), X=X)
        # two identical columns at a large scale: the weighted precision is
        # positive definite but its pivot falls below the relative floor
        X0 = 1e6 * np.ones((n0, 2))
        hist = HistoricalDataset(y0=rng.normal(size=n0), X0=X0)
        cfg = NppConfig(prior=NormalGammaPrior(np.zeros(2), np.eye(2), 1.0, 1.0))
        with pytest.raises(NumericalError, match="near-singular.*eigenvalue range"):
            npp_a0_posterior(data, hist, cfg)
        with pytest.raises(NumericalError, match="near-singular.*eigenvalue range"):
            npp_log_norm_const(1.0, hist, cfg)
        assert np.isfinite(npp_log_norm_const(0.1, hist, cfg))


class TestReferencePosterior:
    def test_flat_prior_recovers_mle(self):
        rng = np.random.default_rng(6)
        n = 200
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([2.0, -1.0]) + 0.7 * rng.standard_normal(n)
        data = Dataset(y=y, X=X)
        cfg = ReferencePriorConfig(coef_sd=1e6, sigma_sd=1e6)
        draws = reference_posterior(data, cfg, n_draws=6000, burn_in=1000, seed=0)
        bhat = np.linalg.solve(X.T @ X, X.T @ y)
        for j in range(2):
            x = draws.column(f"beta_1_{j + 1}")
            assert abs(x.mean() - bhat[j]) < 2.5 * max(batch_means_se(x), 1e-6)

    def test_posterior_sd_scales_with_root_n(self):
        sds = {}
        for n in (100, 400):
            rng = np.random.default_rng(100 + n)
            X = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = X @ np.array([1.0, 0.5]) + rng.standard_normal(n)
            draws = reference_posterior(
                Dataset(y=y, X=X), ReferencePriorConfig(),
                n_draws=9000, burn_in=1000, seed=n,
            )
            sds[n] = draws.column("beta_1_2").std()
        ratio = sds[100] / sds[400]
        assert 1.7 <= ratio <= 2.3

    def test_same_seed_identical(self):
        rng = np.random.default_rng(7)
        n = 40
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.standard_normal(n)
        data = Dataset(y=y, X=X)
        a = reference_posterior(data, ReferencePriorConfig(), n_draws=800, burn_in=200, seed=3)
        b = reference_posterior(data, ReferencePriorConfig(), n_draws=800, burn_in=200, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_acceptance_rate_recorded(self):
        rng = np.random.default_rng(8)
        n = 50
        X = np.ones((n, 1))
        y = 2.0 + rng.standard_normal(n)
        draws = reference_posterior(
            Dataset(y=y, X=X), ReferencePriorConfig(), n_draws=3000, burn_in=500, seed=1
        )
        assert 0.1 <= draws.meta["accept_rate"] <= 0.9


def reference_prior_grid_means(data, cfg, points=4001):
    """Posterior means of the coefficients and of sigma on a log-sigma grid.

    Given sigma the coefficients are normal with precision ``X'X / sigma^2 +
    I / coef_sd^2``; the marginal likelihood of sigma is that of ``y ~ N(0,
    sigma^2 I + coef_sd^2 X X')``, taken here in its ``p``-dimensional form.
    """
    X = data.effective_design()
    y = data.y
    n, p = X.shape
    XtX, Xty, yty = X.T @ X, X.T @ y, float(y @ y)
    bhat = np.linalg.lstsq(X, y, rcond=None)[0]
    sig_hat = np.sqrt(np.sum((y - X @ bhat) ** 2) / (n - p))
    log_s = np.linspace(np.log(sig_hat) - 3.0, np.log(sig_hat) + 3.0, points)
    c2 = cfg.coef_sd**2
    logpost = np.empty(points)
    means = np.empty((points, p))
    for i, ls in enumerate(log_s):
        s2 = np.exp(2.0 * ls)
        m = np.linalg.solve(XtX + (s2 / c2) * np.eye(p), Xty)
        _, logdet = np.linalg.slogdet(np.eye(p) + (c2 / s2) * XtX)
        loglik = -0.5 * (n * np.log(s2) + logdet + (yty - Xty @ m) / s2)
        logpost[i] = loglik - s2 / (2.0 * cfg.sigma_sd**2) + ls
        means[i] = m
    w = np.exp(logpost - logpost.max())
    w /= integrate.trapezoid(w, log_s)
    beta = integrate.trapezoid(w[:, None] * means, log_s, axis=0)
    sigma = integrate.trapezoid(w * np.exp(log_s), log_s)
    return beta, sigma


def _reference_data(seed, n, p, treatment):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1 - treatment))])
    z = (np.arange(n) % 2).astype(float) if treatment else None
    eff = X @ np.linspace(2.0, -1.0, X.shape[1]) - (4.0 * z if treatment else 0.0)
    return Dataset(y=eff + 3.0 * rng.standard_normal(n), X=X, z=z)


class TestReferenceEigenbasis:
    @pytest.mark.parametrize(
        "p, treatment, cfg",
        [
            (2, False, ReferencePriorConfig(coef_sd=0.5, sigma_sd=2.0)),
            (5, True, ReferencePriorConfig(coef_sd=3.0, sigma_sd=10.0)),
        ],
    )
    def test_means_match_log_sigma_grid(self, p, treatment, cfg):
        data = _reference_data(30 + p, 60, p, treatment)
        assert data.effective_design().shape[1] == p
        draws = reference_posterior(data, cfg, n_draws=22_000, burn_in=2_000, seed=p)
        beta, sigma = reference_prior_grid_means(data, cfg)
        names = [f"beta_1_{j + 1}" for j in range(p)] + ["sigma_1"]
        for name, exact in zip(names, list(beta) + [sigma]):
            x = draws.column(name)
            assert abs(x.mean() - exact) <= 4.0 * batch_means_se(x), name

    def test_eigenvalue_floor_raises(self):
        # singular values 10 and 1e-6: full rank by the design check, but
        # with a flat coefficient prior the conditional precision is
        # near-singular relative to its scale
        rng = np.random.default_rng(12)
        n = 50
        Q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        X = Q @ np.diag([10.0, 1e-6])
        data = Dataset(y=rng.standard_normal(n), X=X)
        assert design_rank_ok(X)
        with pytest.raises(NumericalError, match="near-singular.*eigenvalue range"):
            reference_posterior(data, ReferencePriorConfig(coef_sd=1e6), n_draws=200, burn_in=50)
        # the default prior precision lifts the small eigenvalue above the floor
        draws = reference_posterior(data, ReferencePriorConfig(), n_draws=200, burn_in=50)
        assert np.isfinite(draws.values).all()

    def test_eigenvalue_floor_at_least_as_strict_as_cholesky_pivots(self):
        rng = np.random.default_rng(13)
        # every squared Cholesky pivot is at least the smallest eigenvalue, so
        # a precision that passes the eigenvalue floor passes chol_pd's
        X = rng.normal(size=(30, 4)) @ np.diag([1e3, 1.0, 1e-2, 1e-5])
        d = np.linalg.eigvalsh(X.T @ X)
        c = 1e-12
        cap = _tau_cap(d, c)
        assert np.isfinite(cap)
        for tau in cap * np.array([1e-3, 0.5, 0.999]):
            chol_pd(tau * X.T @ X + c * np.eye(4))

    def test_retained_row_counts(self):
        data = _reference_data(5, 40, 2, False)
        cfg = ReferencePriorConfig()
        empty = reference_posterior(data, cfg, n_draws=300, burn_in=300)
        assert empty.values.shape == (0, 4)
        thinned = reference_posterior(data, cfg, n_draws=1000, burn_in=100, thin=3)
        assert thinned.values.shape == (len(range(100, 1000, 3)), 4)
        full = reference_posterior(data, cfg, n_draws=1000, burn_in=100)
        assert np.array_equal(thinned.values, full.values[::3])
