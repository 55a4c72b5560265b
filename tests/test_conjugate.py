import itertools

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betainc, betaincc, betaln, gammaln

from leapborrow import (
    Dataset,
    HistoricalDataset,
    LeapConfig,
    NormalGammaPrior,
    PartitionAssignment,
    PoissonGammaPrior,
    ValidationError,
    linear_log_partition_weight,
    poisson_component_posterior,
    poisson_log_partition_weight,
)
from leapborrow.conjugate import (
    _gamma_integral_block,
    chol_pd,
    chol_pd_stack,
    linear_block_weights,
    ng_conditional,
)
from leapborrow.core import NumericalError

from conftest import (
    first_component_rate_projection_form,
    gamma_integral_log,
    linear_component_conditional,
    linear_first_component_conditional,
    make_table1_cfg,
    random_linear_instance,
)


class TestPoissonPosterior:
    def test_historical_class_update(self):
        post = poisson_component_posterior(PoissonGammaPrior(0.1, 0.1), 9.0, 3)
        assert (post.eta0, post.beta0) == (9.1, 3.1)
        assert post.mean == pytest.approx(2.935, abs=0.005)

    def test_empty_class_keeps_prior(self):
        post = poisson_component_posterior(PoissonGammaPrior(0.1, 0.1), 0.0, 0)
        assert (post.eta0, post.beta0) == (0.1, 0.1)
        assert post.mean == pytest.approx(1.00, abs=1e-12)

    def test_pooled_first_component(self):
        # current n=10 with mean 1.5 plus the three historical counts
        post = poisson_component_posterior(PoissonGammaPrior(0.1, 0.1), 15.0 + 9.0, 13)
        assert (post.eta0, post.beta0) == (24.1, 13.1)
        assert post.mean == pytest.approx(1.8397, abs=1e-4)

    def test_update_is_additive_and_order_free(self):
        prior = PoissonGammaPrior(0.7, 0.3)
        one_shot = poisson_component_posterior(prior, 11.0, 5)
        batched = poisson_component_posterior(
            poisson_component_posterior(prior, 4.0, 2), 7.0, 3
        )
        assert (one_shot.eta0, one_shot.beta0) == (batched.eta0, batched.beta0)


def mp_poisson_log_weight(c0, y0, y_cur, alpha, eta0, beta0):
    """Independent log partition mass via extended-precision numeric integrals.

    Builds each class's marginal likelihood by integrating the Poisson
    likelihood against the gamma prior with mpmath quadrature, and the label
    probability by integrating the binomial kernel over the mixture weight.
    """
    mp.mp.dps = 30
    c0 = np.asarray(c0)
    K = len(alpha)
    counts = [(c0 == k + 1).sum() for k in range(K)]
    total = mp.mpf(0)
    # weight integral over the simplex (K = 2): int g^(n1+a1-1) (1-g)^(n2+a2-1)
    gamma_int = mp.quad(
        lambda g: g ** (counts[0] + alpha[0] - 1) * (1 - g) ** (counts[1] + alpha[1] - 1),
        [0, mp.mpf(1) / 2, 1],
    )
    total += mp.log(gamma_int)
    for k in range(K):
        ys = list(y0[c0 == k + 1])
        if k == 0 and y_cur is not None:
            ys = ys + list(y_cur)
        s = sum(ys)
        rate = beta0 + len(ys)
        # finite truncation: mass beyond is negligible at this precision;
        # the power substitution th = u**c regularizes the origin
        hi = 40 * (s + eta0 + 5) / rate
        c = mp.mpf(1) / (s + eta0) if s + eta0 < 1 else mp.mpf(1)

        def integrand(u, ys=ys, c=c):
            th = u**c
            val = c * u ** (c - 1) * th ** (eta0 - 1) * mp.e ** (-beta0 * th)
            for y in ys:
                val *= th ** mp.mpf(y) * mp.e ** (-th) / mp.factorial(int(y))
            return val

        top = mp.mpf(hi) ** (1 / c)
        total += mp.log(mp.quad(integrand, [0, top / 40, top / 4, top]))
    return float(total)


class TestPoissonPartitionWeight:
    def test_published_probabilities(self, table1_data, table1_hist, table1_cfg):
        parts = list(itertools.product([1, 2], repeat=3))
        logw = np.array(
            [
                poisson_log_partition_weight(
                    PartitionAssignment(np.array(p)), table1_data, table1_hist, table1_cfg
                )
                for p in parts
            ]
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        probs = dict(zip(parts, w))
        assert probs[(1, 1, 1)] == pytest.approx(0.412, abs=0.005)
        assert probs[(1, 1, 2)] == pytest.approx(0.259, abs=0.005)

    def test_prior_weights_match_published(self, table1_hist, table1_cfg):
        parts = list(itertools.product([1, 2], repeat=3))
        logw = np.array(
            [
                poisson_log_partition_weight(
                    PartitionAssignment(np.array(p)), None, table1_hist, table1_cfg
                )
                for p in parts
            ]
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        probs = dict(zip(parts, w))
        assert probs[(1, 1, 1)] == pytest.approx(0.319, abs=0.005)
        assert probs[(1, 1, 1)] == pytest.approx(probs[(2, 2, 2)], rel=1e-12)

    def test_matches_extended_precision_oracle(self, table1_data, table1_hist):
        cfg = make_table1_cfg((0.9, 0.9))
        parts = list(itertools.product([1, 2], repeat=3))
        for data, y_cur in [(table1_data, table1_data.y), (None, None)]:
            logw = np.array(
                [
                    poisson_log_partition_weight(
                        PartitionAssignment(np.array(p)), data, table1_hist, cfg
                    )
                    for p in parts
                ]
            )
            oracle = np.array(
                [
                    mp_poisson_log_weight(p, table1_hist.y0, y_cur, (0.9, 0.9), 0.1, 0.1)
                    for p in parts
                ]
            )
            # kernels differ by a partition-independent constant
            diff = logw - oracle
            assert np.ptp(diff) < 1e-9

    def test_single_component_normalizes_to_one(self, table1_data, table1_hist):
        cfg = LeapConfig(
            K=1, alpha0=np.array([1.0]),
            component_priors=(PoissonGammaPrior(0.1, 0.1),), model_kind="poisson",
        )
        lw = poisson_log_partition_weight(
            PartitionAssignment(np.ones(3, dtype=int)), table1_data, table1_hist, cfg
        )
        assert np.isfinite(lw)  # single partition: normalized weight is exactly 1


class TestLinearConditionals:
    def test_empty_class_recovers_prior(self):
        _, hist, cfg = random_linear_instance(0)
        prior = cfg.component_priors[1]
        assign = PartitionAssignment(np.ones(hist.n0, dtype=int))  # class 2 empty
        cond = linear_component_conditional(assign, 2, hist, prior)
        assert np.allclose(cond.beta_tilde, prior.mu0)
        assert np.allclose(cond.precision_scale, prior.omega0)
        assert cond.shape == pytest.approx(prior.delta0 / 2)
        assert cond.rate == pytest.approx(prior.xi0 / 2)

    def test_scalar_toy(self):
        # intercept-only class {2, 4} with unit prior precision
        hist = HistoricalDataset(y0=np.array([2.0, 4.0, 9.0]), X0=np.ones((3, 1)))
        prior = NormalGammaPrior(np.zeros(1), np.eye(1), 1.0, 1.0)
        assign = PartitionAssignment(np.array([2, 2, 1]))
        cond = linear_component_conditional(assign, 2, hist, prior)
        assert cond.beta_tilde[0] == pytest.approx(2.0, abs=1e-12)
        assert cond.precision_scale[0, 0] == pytest.approx(3.0)
        assert cond.shape == pytest.approx(1.5)
        assert cond.rate == pytest.approx(4.5)  # residual scale 9 halved

    def test_prior_dominance_limit(self):
        _, hist, cfg = random_linear_instance(3)
        p = cfg.component_priors[0].p
        strong = NormalGammaPrior(np.full(p, 0.7), 1e8 * np.eye(p), 2.0, 2.0)
        assign = PartitionAssignment(np.full(hist.n0, 2, dtype=int))
        cond = linear_component_conditional(assign, 2, hist, strong)
        assert np.max(np.abs(cond.beta_tilde - 0.7)) < 1e-4

    def test_convex_combination_scalar(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y0 = rng.normal(2.0, 1.0, size=5)
            hist = HistoricalDataset(y0=y0, X0=np.ones((5, 1)))
            mu0 = rng.normal()
            prior = NormalGammaPrior(np.array([mu0]), rng.uniform(0.1, 5) * np.eye(1), 1.0, 1.0)
            assign = PartitionAssignment(np.full(5, 2, dtype=int))
            cond = linear_component_conditional(assign, 2, hist, prior)
            mle = y0.mean()
            lo, hi = min(mu0, mle), max(mu0, mle)
            assert lo - 1e-12 <= cond.beta_tilde[0] <= hi + 1e-12

    def test_no_borrowing_limit(self):
        data, hist, cfg = random_linear_instance(5)
        p = cfg.component_priors[0].p
        weak = NormalGammaPrior(np.zeros(p), 1e-10 * np.eye(p), 1.0, 1.0)
        assign = PartitionAssignment(np.full(hist.n0, 2, dtype=int))  # class 1 empty
        cond = linear_first_component_conditional(assign, data, hist, weak)
        X = data.effective_design()
        bhat = np.linalg.solve(X.T @ X, X.T @ data.y)
        assert np.max(np.abs(cond.beta_tilde - bhat)) < 1e-7

    def test_rate_agrees_between_independent_routes(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 2, 16))
            n0 = int(rng.integers(p + 2, 12))
            data, hist, _ = _full_rank_instance(rng, n, n0, p)
            A = rng.normal(size=(p, p))
            prior = NormalGammaPrior(
                rng.normal(size=p), A @ A.T + 0.5 * np.eye(p),
                rng.uniform(0.5, 4), rng.uniform(0.5, 4),
            )
            labels = np.full(n0, 2, dtype=int)
            labels[: max(p + 1, n0 // 2)] = 1
            assign = PartitionAssignment(labels)
            cond = linear_first_component_conditional(assign, data, hist, prior)
            direct = 2.0 * cond.rate
            projected = first_component_rate_projection_form(assign, data, hist, prior)
            assert abs(direct - projected) <= 1e-8 * max(1.0, abs(direct))


def _full_rank_instance(rng, n, n0, p):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))]) if p > 1 else np.ones((n, 1))
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    X0 = np.column_stack([np.ones(n0), rng.normal(size=(n0, p - 1))]) if p > 1 else np.ones((n0, 1))
    y0 = X0 @ rng.normal(size=p) + rng.normal(size=n0)
    return Dataset(y=y, X=X), HistoricalDataset(y0=y0, X0=X0), None


def mp_linear_log_weight(assign, data, hist, cfg):
    """Extended-precision evaluation of the linear partition-mass formula."""
    mp.mp.dps = 50
    c0 = assign.c0
    K = cfg.K
    counts = [int((c0 == k + 1).sum()) for k in range(K)]
    alpha = cfg.alpha0
    total = (
        sum(mp.loggamma(counts[k] + alpha[k]) for k in range(K))
        - mp.loggamma(sum(counts) + float(alpha.sum()))
    )

    def mp_matrix(a):
        return mp.matrix(a.tolist())

    for k in range(K):
        prior = cfg.component_priors[k]
        p = prior.p
        mask = c0 == k + 1
        Xk = hist.X0[mask]
        yk = hist.y0[mask]
        XtX = mp_matrix(Xk.T @ Xk) if mask.sum() else mp.zeros(p, p)
        Xty = mp_matrix((Xk.T @ yk).reshape(-1, 1)) if mask.sum() else mp.zeros(p, 1)
        yty = mp.mpf(float(yk @ yk)) if mask.sum() else mp.mpf(0)
        n_eff = mp.mpf(counts[k])
        if k == 0 and data is not None:
            X = data.effective_design()
            XtX += mp_matrix(X.T @ X)
            Xty += mp_matrix((X.T @ data.y).reshape(-1, 1))
            yty += mp.mpf(float(data.y @ data.y))
            n_eff += data.n
        Om = mp_matrix(prior.omega0)
        mu = mp_matrix(prior.mu0.reshape(-1, 1))
        P = XtX + Om
        h = Xty + Om * mu
        m = mp.lu_solve(P, h)
        shape = (n_eff + prior.delta0) / 2
        s2 = prior.xi0 + yty + (mu.T * Om * mu)[0] - (m.T * P * m)[0]
        total += mp.loggamma(shape) - shape * mp.log(s2 / 2) - mp.log(mp.det(P)) / 2
    return float(total)


class TestLinearPartitionWeight:
    def test_single_component_weight_finite(self):
        data, hist, _ = random_linear_instance(6)[0], random_linear_instance(6)[1], None
        data, hist, cfg2 = random_linear_instance(6)
        ng = cfg2.component_priors[0]
        cfg = LeapConfig(
            K=1, alpha0=np.array([1.0]), component_priors=(ng,),
            model_kind="normal_linear",
        )
        lw = linear_log_partition_weight(
            PartitionAssignment(np.ones(hist.n0, dtype=int)), data, hist, cfg
        )
        assert np.isfinite(lw)

    def test_label_permutation_symmetry(self):
        data, hist, cfg = random_linear_instance(7)
        ng = cfg.component_priors[1]
        cfg3 = LeapConfig(
            K=3, alpha0=np.array([0.9, 0.7, 0.7]),
            component_priors=(cfg.component_priors[0], ng, ng),
            model_kind="normal_linear",
        )
        labels = np.array([1, 2, 3, 2, 3, 1])
        swapped = np.array([1, 3, 2, 3, 2, 1])
        w1 = linear_log_partition_weight(PartitionAssignment(labels), data, hist, cfg3)
        w2 = linear_log_partition_weight(PartitionAssignment(swapped), data, hist, cfg3)
        assert w1 == pytest.approx(w2, abs=1e-10)

    def test_matches_extended_precision(self):
        data, hist, cfg = random_linear_instance(8)
        parts = list(itertools.product([1, 2], repeat=hist.n0))
        logw = np.array(
            [
                linear_log_partition_weight(PartitionAssignment(np.array(p)), data, hist, cfg)
                for p in parts
            ]
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        oracle = np.array(
            [mp_linear_log_weight(PartitionAssignment(np.array(p)), data, hist, cfg) for p in parts]
        )
        ow = np.exp(oracle - oracle.max())
        ow /= ow.sum()
        assert np.max(np.abs(w - ow)) < 1e-9

    def test_prior_equals_empty_current(self):
        data, hist, cfg = random_linear_instance(9)
        first = cfg.component_priors[0]
        assign = PartitionAssignment(np.array([1, 2, 1, 2, 1, 2]))
        lw_prior = linear_log_partition_weight(assign, None, hist, cfg)
        # rebuild the first-component kernel with an explicit zero-row stack
        mask = assign.c0 == 1
        X1 = hist.X0[mask]
        y1 = hist.y0[mask]
        zero_stats = (
            X1.T @ X1 + np.zeros((first.p, first.p)),
            X1.T @ y1,
            float(y1 @ y1),
            float(mask.sum()),
        )
        cond = ng_conditional(first, *zero_stats)
        ref = linear_component_conditional(assign, 2, hist, cfg.component_priors[1])
        from scipy.special import gammaln as lg

        def kern(c):
            sign, logdet = np.linalg.slogdet(c.precision_scale)
            return lg(c.shape) - c.shape * np.log(c.rate) - 0.5 * logdet

        counts = np.array([mask.sum(), (~mask).sum()], dtype=float)
        manual = gamma_integral_log(cfg, counts) + kern(cond) + kern(ref)
        assert lw_prior == pytest.approx(manual, abs=1e-10)

    def test_hist_design_column_mismatch(self):
        data, hist, cfg = random_linear_instance(10)
        bad = HistoricalDataset(y0=hist.y0, X0=np.ones((hist.n0, 4)))
        with pytest.raises(ValidationError, match="columns"):
            linear_log_partition_weight(
                PartitionAssignment(np.ones(hist.n0, dtype=int)), data, bad, cfg
            )


class TestLinearBlockWeights:
    def _check_against_mp(self, data, hist, cfg):
        parts = list(itertools.product(range(1, cfg.K + 1), repeat=hist.n0))
        for d in (data, None):
            logw, _ = linear_block_weights(np.array(parts), d, hist, cfg)
            w = np.exp(logw - logw.max())
            w /= w.sum()
            oracle = np.array(
                [mp_linear_log_weight(PartitionAssignment(np.array(p)), d, hist, cfg)
                 for p in parts]
            )
            ow = np.exp(oracle - oracle.max())
            ow /= ow.sum()
            assert np.max(np.abs(w - ow)) < 1e-9

    def test_k2_matches_extended_precision(self):
        self._check_against_mp(*random_linear_instance(41, n0=6, p=2))

    def test_k3_matches_extended_precision(self):
        data, hist, cfg = random_linear_instance(42, n0=5, p=2)
        third = NormalGammaPrior(np.ones(2), 0.8 * np.eye(2), 1.5, 3.0)
        cfg3 = LeapConfig(
            K=3, alpha0=np.array([0.9, 0.7, 0.5]),
            component_priors=cfg.component_priors + (third,), model_kind="normal_linear",
        )
        self._check_against_mp(data, hist, cfg3)

    def test_block_rows_match_single_partition_calls(self):
        data, hist, cfg = random_linear_instance(43, n0=5, p=3)
        labels = np.array(list(itertools.product([1, 2], repeat=hist.n0)))
        logw, means = linear_block_weights(labels, data, hist, cfg)
        for i in (0, 7, 31):
            assign = PartitionAssignment(labels[i])
            assert linear_log_partition_weight(assign, data, hist, cfg) == pytest.approx(
                logw[i], rel=1e-13
            )
            cond = linear_first_component_conditional(assign, data, hist, cfg.component_priors[0])
            assert np.allclose(means[i], cond.beta_tilde, rtol=1e-12, atol=1e-14)

    def test_near_singular_class_precision_raises(self):
        # a weak first prior and a treatment column the all-control history lacks:
        # without current data the first class precision is singular in that direction
        _, hist, _ = random_linear_instance(44, n0=4, p=2)
        weak = NormalGammaPrior(np.zeros(3), 1e-14 * np.eye(3), 1.0, 1.0)
        proper = NormalGammaPrior(np.zeros(3), 0.5 * np.eye(3), 2.0, 2.0)
        cfg = LeapConfig(K=2, alpha0=np.array([0.9, 0.9]), component_priors=(weak, proper),
                         model_kind="normal_linear")
        labels = np.array(list(itertools.product([1, 2], repeat=hist.n0)))
        with pytest.raises(NumericalError, match="near-singular.*for partition c0 = "):
            linear_block_weights(labels, None, hist, cfg)


class TestGammaIntegral:
    @staticmethod
    def _cfg(alpha0, a=0.0, b=1.0):
        pri = PoissonGammaPrior(0.1, 0.1)
        return LeapConfig(K=len(alpha0), alpha0=np.array(alpha0),
                          component_priors=(pri,) * len(alpha0), model_kind="poisson",
                          trunc_a=a, trunc_b=b)

    def test_upper_tail_truncation_matches_survival_reference(self):
        # every row's interval lies above the median of its first weight
        counts = np.array([[1033.0, 967.0], [1100.0, 900.0], [1300.0, 700.0]])
        cfg = self._cfg([1.0, 1.0], 0.7, 0.8)
        v1, v2 = counts[:, 0] + 1.0, counts[:, 1] + 1.0
        with np.errstate(divide="ignore"):
            cdf_diff = np.log(betainc(v1, v2, 0.8) - betainc(v1, v2, 0.7))
        assert np.isneginf(cdf_diff[0])  # the CDF difference cancels to 0
        ref = betaln(v1, v2) + np.log(betaincc(v1, v2, 0.7) - betaincc(v1, v2, 0.8))
        got = _gamma_integral_block(counts, cfg)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)

    def test_untruncated_rows_are_unchanged(self):
        # the complete beta integral, bit for bit, as each row's own betaln
        for alpha0 in ([0.9, 0.9], [1.0, 2.0, 3.0]):
            counts = np.array(
                [c for c in itertools.product(range(7), repeat=len(alpha0)) if sum(c) == 6],
                dtype=float,
            )
            v = counts + np.array(alpha0)
            ref = betaln(v[:, 0], v[:, 1:].sum(axis=1))
            if len(alpha0) > 2:
                ref += gammaln(v[:, 1:]).sum(axis=1) - gammaln(v[:, 1:].sum(axis=1))
            assert np.array_equal(_gamma_integral_block(counts, self._cfg(alpha0)), ref)


class TestCholStack:
    def test_matches_single_factorizations(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(6, 4, 4))
        S = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(4)
        L = chol_pd_stack(S)
        for g in range(S.shape[0]):
            assert np.allclose(L[g], chol_pd(S[g]), rtol=1e-12, atol=1e-14)

    def test_pivot_floor_is_per_matrix(self):
        # the second matrix alone breaches its relative floor 1e-12 * trace / p
        ok = np.eye(2)
        bad = np.array([[1e14 + 1.0, 1e14], [1e14, 1e14 + 1.0]])
        with pytest.raises(NumericalError, match="stack index 1.*eigenvalue range"):
            chol_pd_stack(np.stack([ok, bad]))
        with pytest.raises(NumericalError, match="near-singular") as err:
            chol_pd(bad)
        assert "stack index" not in str(err.value)
        with pytest.raises(NumericalError, match="not positive definite"):
            chol_pd_stack(np.stack([ok, -ok]))
