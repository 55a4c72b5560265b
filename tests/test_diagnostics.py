import numpy as np
import pytest
from scipy.special import gammaln

from leapborrow import (
    Dataset,
    DrawsMatrix,
    ValidationError,
    dic,
    sim_metrics,
    summarize,
)
from leapborrow.comparators import ReferencePriorConfig, reference_posterior
from leapborrow.diagnostics import batch_means_se, ess


def _dm(values, columns=None, meta=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    columns = columns or tuple(f"x{j}" for j in range(values.shape[1]))
    return DrawsMatrix(columns=columns, values=values, meta=meta or {})


class TestSummarize:
    def test_constant_draws(self):
        s = summarize(_dm(np.full(100, 3.25)))
        p = s.parameters[0]
        assert (p.mean, p.sd, p.ci_low, p.ci_high) == (3.25, 0.0, 3.25, 3.25)
        assert p.ess == 100.0
        assert p.mcse == 0.0

    def test_iid_normal_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100_000)
        p = summarize(_dm(x)).parameters[0]
        assert abs(p.mean) < 0.02
        assert abs(p.ci_low + 1.96) < 0.03
        assert abs(p.ci_high - 1.96) < 0.03
        assert p.ess > 50_000

    def test_ar1_effective_sample_size(self):
        rng = np.random.default_rng(1)
        rho, n = 0.9, 200_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n) * np.sqrt(1 - rho**2)
        for t in range(1, n):
            x[t] = rho * x[t - 1] + eps[t]
        ratio = ess(x) / n
        expect = (1 - rho) / (1 + rho)
        assert abs(ratio - expect) / expect < 0.30

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.gamma(2.0, size=5000)
        a = summarize(_dm(x)).parameters[0]
        b = summarize(_dm(rng.permutation(x))).parameters[0]
        assert (a.mean, a.sd, a.ci_low, a.ci_high) == (b.mean, b.sd, b.ci_low, b.ci_high)

    def test_empty_draws_rejected(self):
        with pytest.raises(ValidationError, match="no retained draws"):
            summarize(DrawsMatrix(columns=("a",), values=np.empty((0, 1))))

    def test_mcse_uses_ess(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000)
        p = summarize(_dm(x)).parameters[0]
        assert p.mcse == pytest.approx(p.sd / np.sqrt(p.ess), rel=1e-12)


class TestBatchMeans:
    def test_iid_matches_naive_se(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50_000)
        se = batch_means_se(x)
        assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=0.25)


def _poisson_deviance(theta, y):
    return -2.0 * float(np.sum(y * np.log(theta) - theta - gammaln(y + 1)))


class TestDic:
    def test_point_mass_draws_give_plugin_deviance(self):
        y = np.array([1.0, 2.0, 3.0])
        data = Dataset(y=y)
        dm = _dm(np.full(50, 2.0), columns=("theta_1",), meta={"model_kind": "poisson"})
        assert dic(dm, data) == pytest.approx(_poisson_deviance(2.0, y), abs=1e-10)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        y = rng.poisson(3.0, size=20).astype(float)
        data = Dataset(y=y)
        theta = rng.gamma(30, 0.1, size=2000)
        dm = _dm(theta, columns=("theta_1",), meta={"model_kind": "poisson"})
        devs = np.array([_poisson_deviance(t, y) for t in theta])
        d_at_mean = _poisson_deviance(theta.mean(), y)
        p_d = devs.mean() - d_at_mean
        assert dic(dm, data) == pytest.approx(d_at_mean + 2 * p_d, rel=1e-12)

    def test_true_model_wins_most_replications(self):
        rng = np.random.default_rng(6)
        wins = 0
        reps = 100
        for _ in range(reps):
            n = 60
            x = rng.normal(size=n)
            X_full = np.column_stack([np.ones(n), x])
            y = X_full @ np.array([1.0, 2.0]) + rng.normal(size=n)
            seed = int(rng.integers(0, 2**31))
            d_full = reference_posterior(
                Dataset(y=y, X=X_full), ReferencePriorConfig(),
                n_draws=700, burn_in=200, seed=seed,
            )
            d_null = reference_posterior(
                Dataset(y=y, X=np.ones((n, 1))), ReferencePriorConfig(),
                n_draws=700, burn_in=200, seed=seed + 1,
            )
            if dic(d_full, Dataset(y=y, X=X_full)) < dic(d_null, Dataset(y=y, X=np.ones((n, 1)))):
                wins += 1
        assert wins >= 90

    def test_extra_mixture_component_changes_dic_little(self):
        import leapborrow as lb

        rng = np.random.default_rng(7)
        diffs = []
        for rep in range(10):
            y = rng.poisson(2.0, size=30).astype(float)
            y0 = rng.poisson(2.0, size=10).astype(float)
            data, hist = Dataset(y=y), lb.HistoricalDataset(y0=y0)
            pri = lb.PoissonGammaPrior(0.1, 0.1)
            fits = {}
            for K in (2, 3):
                cfg = lb.LeapConfig(
                    K=K, alpha0=np.full(K, 0.5), component_priors=(pri,) * K,
                    model_kind="poisson",
                )
                dr = lb.run_chain(data, hist, cfg, n_draws=2500, burn_in=500, seed=rep)
                fits[K] = dic(dr, data)
            diffs.append(fits[3] - fits[2])
        assert abs(np.mean(diffs)) < 2.0


def _linear_deviance(beta, tau, y, X):
    resid = y - X @ beta
    n = y.size
    return -2.0 * (0.5 * n * (np.log(tau) - np.log(2 * np.pi)) - 0.5 * tau * (resid @ resid))


class TestDicPerDrawReference:
    """The vectorized deviances against the per-draw formula, draw by draw."""

    def test_linear_matches_per_draw_loop(self, monkeypatch):
        import leapborrow.diagnostics as dg

        rng = np.random.default_rng(10)
        n = 50
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        z = (rng.random(n) < 0.5).astype(float)
        y = 3.0 + X[:, 1] - 2.0 * z + rng.normal(size=n)
        data = Dataset(y=y, z=z, X=X)
        B = np.array([3.0, 1.0, -2.0]) + 0.1 * rng.normal(size=(700, 3))
        tau = rng.gamma(20.0, 0.05, size=700)
        cols = ("beta_1_1", "beta_1_2", "beta_1_3", "tau_1")
        meta = {"model_kind": "normal_linear", "theta1_columns": list(cols)}
        dm = DrawsMatrix(columns=cols, values=np.column_stack([B, tau]), meta=meta)
        Xe = data.effective_design()
        devs = np.array([_linear_deviance(B[i], tau[i], y, Xe) for i in range(B.shape[0])])
        d_at_mean = _linear_deviance(B.mean(axis=0), np.exp(np.log(tau).mean()), y, Xe)
        expect = 2 * devs.mean() - d_at_mean
        assert dic(dm, data) == pytest.approx(expect, rel=1e-12)
        # residual blocks smaller than the draw count give the same value
        monkeypatch.setattr(dg, "_DIC_BLOCK", 3 * n)
        assert dic(dm, data) == pytest.approx(expect, rel=1e-12)

    def test_poisson_nonpositive_rate_gives_inf(self):
        y = np.array([1.0, 0.0, 3.0])
        theta = np.array([1.2, 0.0, 2.0, -0.5, 1.5])
        dm = _dm(theta, columns=("theta_1",), meta={"model_kind": "poisson"})
        assert dic(dm, Dataset(y=y)) == np.inf


class TestSimMetrics:
    def test_perfect_estimates(self):
        m = sim_metrics([2.0, 2.0], [1.5, 1.5], [2.5, 2.5], truth=2.0)
        assert (m.pab, m.mse, m.coverage) == (0.0, 0.0, 1.0)

    def test_single_replication_percent_bias(self):
        m = sim_metrics([1.1 * -4.0], [-5.0], [-3.0], truth=-4.0)
        assert m.pab == pytest.approx(0.1, rel=1e-12)

    def test_shift_follows_bias_variance_identity(self):
        rng = np.random.default_rng(8)
        truth = 3.0
        est = truth + rng.normal(size=400)
        lo, hi = est - 1.0, est + 1.0
        c = 0.7
        m0 = sim_metrics(est, lo, hi, truth)
        m1 = sim_metrics(est + c, lo + c, hi + c, truth)
        bias = np.mean(est - truth)
        assert m1.mse == pytest.approx(m0.mse + 2 * c * bias + c**2, abs=1e-10)

    def test_mse_tracks_analytic_variance(self):
        rng = np.random.default_rng(9)
        truth, sd = 1.0, 0.4
        est = truth + sd * rng.standard_normal(4000)
        m = sim_metrics(est, est - 1, est + 1, truth)
        assert abs(m.mse - sd**2) / sd**2 < 0.10
