import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betaincc, betaln, gammaln

import leapborrow.ptd as ptd
from leapborrow import NumericalError, PtdParams, ValidationError


def quad_norm_const(alpha, a, b):
    """Normalizing constant by adaptive quadrature on the truncated simplex."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size == 2:
        val, _ = integrate.quad(
            lambda g1: g1 ** (alpha[0] - 1) * (1 - g1) ** (alpha[1] - 1),
            a, b, epsabs=1e-13, epsrel=1e-12, limit=300,
        )
        return val
    assert alpha.size == 3

    def kernel(g2, g1):
        g3 = 1.0 - g1 - g2
        return g1 ** (alpha[0] - 1) * g2 ** (alpha[1] - 1) * g3 ** (alpha[2] - 1)

    val, _ = integrate.dblquad(
        kernel, a, b, lambda g1: 0.0, lambda g1: 1.0 - g1,
        epsabs=1e-12, epsrel=1e-11,
    )
    return val


def quad_moment(alpha, a, b, m):
    alpha = np.asarray(alpha, dtype=float)
    m = np.asarray(m, dtype=float)
    return quad_norm_const(alpha + m, a, b) / quad_norm_const(alpha, a, b)


class TestNormConst:
    def test_full_simplex_is_multivariate_beta(self):
        alpha = np.array([2.0, 3.0, 5.0])
        p = PtdParams(alpha)
        expect = gammaln(alpha).sum() - gammaln(alpha.sum())
        assert ptd.log_norm_const(p) == pytest.approx(expect, abs=1e-12)

    def test_uniform_interval_length(self):
        p = PtdParams(np.array([1.0, 1.0]), 0.25, 0.75)
        assert ptd.log_norm_const(p) == pytest.approx(np.log(0.5), abs=1e-12)

    def test_matches_quadrature(self):
        p = PtdParams(np.array([2.0, 1.0, 1.0]), 0.2, 0.6)
        assert np.exp(ptd.log_norm_const(p)) == pytest.approx(
            quad_norm_const(p.alpha, 0.2, 0.6), rel=1e-8
        )

    def test_degenerate_truncation_raises(self):
        # interval mass is a denormal: positive, below the working floor
        p = PtdParams(np.array([200.0, 1.0]), 0.0, 0.03)
        with pytest.raises(NumericalError, match="degenerate truncation"):
            ptd.log_norm_const(p)

    def test_empty_mass_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="mass"):
            PtdParams(np.array([500.0, 1.0]), 0.0, 0.01)


class TestDensity:
    def test_reduces_to_dirichlet_without_truncation(self):
        rng = np.random.default_rng(1)
        alpha = np.array([2.0, 3.0, 1.5])
        p = PtdParams(alpha)
        for _ in range(5):
            g = rng.dirichlet(alpha)
            expect = stats.dirichlet.logpdf(g[:-1], alpha)
            assert ptd.log_density(p, g) == pytest.approx(expect, abs=1e-9)

    def test_outside_truncation_region(self):
        p = PtdParams(np.array([2.0, 3.0]), 0.1, 0.9)
        assert ptd.log_density(p, np.array([0.05, 0.95])) == -np.inf

    def test_off_simplex_rejected(self):
        p = PtdParams(np.array([2.0, 3.0]))
        with pytest.raises(ValidationError, match="simplex"):
            ptd.log_density(p, np.array([0.5, 0.6]))

    def test_normalization_by_quadrature(self):
        # density integrates to 1 on the truncated simplex for K in {2, 3}
        p2 = PtdParams(np.array([2.5, 1.5]), 0.1, 0.8)
        val, _ = integrate.quad(
            lambda g: np.exp(ptd.log_density(p2, np.array([g, 1 - g]))),
            0.1, 0.8, epsabs=1e-10, epsrel=1e-9, limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-6)
        p3 = PtdParams(np.array([2.0, 1.0, 1.5]), 0.2, 0.6)

        def dens(g2, g1):
            g3 = 1.0 - g1 - g2
            if g3 <= 0:
                return 0.0
            return np.exp(ptd.log_density(p3, np.array([g1, g2, g3])))

        val, _ = integrate.dblquad(
            dens, 0.2, 0.6, lambda g1: 0.0, lambda g1: 1.0 - g1,
            epsabs=1e-9, epsrel=1e-8,
        )
        assert val == pytest.approx(1.0, abs=1e-6)


class TestMarginalAndMoments:
    def test_marginal_parameters(self):
        assert ptd.marginal_first(PtdParams(np.array([2.0, 3.0, 5.0]), 0.1, 0.4)) == (
            2.0, 8.0, 0.1, 0.4,
        )
        assert ptd.marginal_first(PtdParams(np.array([1.0, 1.0]))) == (1.0, 1.0, 0.0, 1.0)
        assert ptd.marginal_first(PtdParams(np.array([0.9, 0.9]), 0.0, 0.48)) == (
            0.9, 0.9, 0.0, 0.48,
        )

    def test_zero_exponent_moment_is_one(self):
        p = PtdParams(np.array([2.0, 1.0, 1.0]), 0.2, 0.6)
        assert ptd.moment(p, [0, 0, 0]) == 1.0

    def test_untruncated_first_moment(self):
        p = PtdParams(np.array([2.0, 3.0, 5.0]))
        assert ptd.moment(p, [1, 0, 0]) == pytest.approx(2.0 / 10.0, rel=1e-12)

    def test_moment_matches_quadrature(self):
        p = PtdParams(np.array([2.0, 1.0, 1.0]), 0.2, 0.6)
        assert ptd.moment(p, [1, 0, 0]) == pytest.approx(
            quad_moment(p.alpha, 0.2, 0.6, [1, 0, 0]), rel=1e-8
        )
        assert ptd.moment(p, [1, 2, 0]) == pytest.approx(
            quad_moment(p.alpha, 0.2, 0.6, [1, 2, 0]), rel=1e-8
        )


class TestConjugateUpdate:
    def test_zero_counts_identity(self):
        p = PtdParams(np.array([2.0, 3.0]), 0.1, 0.9)
        q = ptd.posterior_update(p, [0, 0])
        assert np.array_equal(q.alpha, p.alpha) and (q.a, q.b) == (p.a, p.b)

    def test_example_updates(self):
        q = ptd.posterior_update(PtdParams(np.array([0.9, 0.9])), [3, 0])
        assert np.allclose(q.alpha, [3.9, 0.9])
        q = ptd.posterior_update(PtdParams(np.array([1.0, 1.0, 1.0])), [2, 1, 4])
        assert np.allclose(q.alpha, [3.0, 2.0, 5.0])

    def test_conjugacy_constant_in_gamma(self):
        # log f(gamma | updated) - log f(gamma) - sum n_k log gamma_k constant
        rng = np.random.default_rng(7)
        p = PtdParams(np.array([1.5, 2.0, 0.8]), 0.15, 0.7)
        counts = np.array([4, 1, 2])
        q = ptd.posterior_update(p, counts)
        vals = []
        while len(vals) < 100:
            g = rng.dirichlet(p.alpha)
            if not (p.a < g[0] < p.b):
                continue
            vals.append(
                ptd.log_density(q, g) - ptd.log_density(p, g) - counts @ np.log(g)
            )
        assert np.ptp(vals) < 1e-9


class TestInterval:
    def test_both_tails_match_mpmath(self):
        # both tails of a near-symmetric and of a skewed beta
        for al, be, a, b, upper in [
            (1034.0, 968.0, 0.3, 0.45, False),
            (1034.0, 968.0, 0.6, 0.7, True),
            (1034.0, 968.0, 0.7, 0.8, True),
            (3.0, 2000.0, 0.1, 0.2, True),
            (2.0, 3.0, 0.01, 0.05, False),
        ]:
            ends = ptd.trunc_beta_interval(al, be, a, b)
            with mp.workdps(60):
                exact = mp.betainc(al, be, a, b, regularized=True)
            assert bool(ends.upper) is upper
            assert float(ends.mass) == pytest.approx(float(exact), rel=1e-10)

    def test_vectorized_matches_scalar_calls(self):
        al = np.array([2.0, 1034.0, 3.0])
        be = np.array([3.0, 968.0, 2000.0])
        ends = ptd.trunc_beta_interval(al, be, 0.6, 0.7)
        for i in range(al.size):
            one = ptd.trunc_beta_interval(al[i], be[i], 0.6, 0.7)
            assert ends.upper[i] == one.upper and ends.mass[i] == one.mass

    def test_underflowing_mass_is_minus_inf(self):
        assert ptd.log_beta_interval(500.0, 1.0, 0.0, 0.01) == -np.inf


class TestSampling:
    def test_symmetric_beta_mean(self):
        rng = np.random.default_rng(11)
        p = PtdParams(np.array([5.0, 5.0]))
        draws = ptd.sample(p, rng, size=100_000)
        se = draws[:, 0].std() / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 0.5) < 3 * se

    def test_mean_matches_closed_form(self):
        rng = np.random.default_rng(12)
        p = PtdParams(np.array([2.0, 1.0, 1.0]), 0.2, 0.6)
        draws = ptd.sample(p, rng, size=100_000)
        se = draws[:, 0].std() / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - ptd.moment(p, [1, 0, 0])) < 3 * se

    def test_support_and_simplex(self):
        rng = np.random.default_rng(13)
        p = PtdParams(np.array([1.2, 0.8, 2.0]), 0.25, 0.55)
        draws = ptd.sample(p, rng, size=5_000)
        assert np.all(draws[:, 0] > 0.25) and np.all(draws[:, 0] < 0.55)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) < 1e-12

    def test_single_draw_shape(self):
        rng = np.random.default_rng(14)
        g = ptd.sample(PtdParams(np.array([2.0, 3.0]), 0.1, 0.9), rng)
        assert g.shape == (2,) and 0.1 < g[0] < 0.9

    def test_narrow_interval_draws_inside(self):
        # too narrow for the inverse CDF: drawn by rejection from Uniform(a, b)
        rng = np.random.default_rng(15)
        a, b = 0.5, 0.5 + 1e-13
        draws = ptd.sample(PtdParams(np.array([2.0, 2.0]), a, b), rng, size=20_000)
        assert np.all(draws[:, 0] > a) and np.all(draws[:, 0] < b)
        assert abs(np.mean((draws[:, 0] - a) / (b - a)) - 0.5) < 0.01

    def test_single_draw_is_first_row_of_size_one(self):
        for alpha, a, b in [([2.0, 3.0, 1.5], 0.1, 0.4), ([1034.0, 968.0], 0.6, 0.7),
                            ([2.0, 2.0], 0.5, 0.5 + 1e-13)]:
            p = PtdParams(np.array(alpha), a, b)
            one = ptd.sample(p, np.random.default_rng(19))
            row = ptd.sample(p, np.random.default_rng(19), size=1)
            assert row.shape == (1, p.K) and np.array_equal(one, row[0])

    @pytest.mark.parametrize(
        "alpha, a, b",
        [
            ((1034.0, 968.0), 0.6, 0.7),  # upper tail, mass about 2e-14
            ((1034.0, 968.0), 0.3, 0.45),  # lower tail
            ((3.0, 2000.0), 0.1, 0.2),  # upper tail of a skewed beta
        ],
    )
    def test_tail_ks_against_scipy(self, alpha, a, b):
        rng = np.random.default_rng(20)
        draws = ptd.sample(PtdParams(np.array(alpha), a, b), rng, size=20_000)[:, 0]
        assert np.all(draws > a) and np.all(draws < b)
        dist = stats.beta(*alpha)
        upper = dist.cdf(a) > 0.5
        if upper:  # survival function keeps the digits above the median
            sa, sb = dist.sf(a), dist.sf(b)
            cdf = lambda y: (sa - dist.sf(np.clip(y, a, b))) / (sa - sb)
        else:
            fa, fb = dist.cdf(a), dist.cdf(b)
            cdf = lambda y: (dist.cdf(np.clip(y, a, b)) - fa) / (fb - fa)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    def test_upper_tail_interval_constructs_and_samples(self):
        # betainc(b) - betainc(a) cancels to 0 here; the true mass is about 1.8e-66
        p = PtdParams(np.array([1034.0, 968.0]), 0.7, 0.8)
        draws = ptd.sample(p, np.random.default_rng(21), size=1_000)
        assert np.all(draws[:, 0] > 0.7) and np.all(draws[:, 0] < 0.8)
        mass = betaincc(1034.0, 968.0, 0.7) - betaincc(1034.0, 968.0, 0.8)
        expect = betaln(1034.0, 968.0) + np.log(mass)
        assert ptd.log_norm_const(p) == pytest.approx(expect, rel=1e-10)

    def test_marginal_ks(self):
        rng = np.random.default_rng(16)
        p = PtdParams(np.array([1.8, 2.6, 1.1]), 0.1, 0.7)
        draws = ptd.sample(p, rng, size=100_000)
        a1, a0, a, b = ptd.marginal_first(p)
        from scipy.special import betainc

        fa, fb = betainc(a1, a0, a), betainc(a1, a0, b)
        cdf = lambda y: (betainc(a1, a0, np.clip(y, a, b)) - fa) / (fb - fa)
        stat = stats.kstest(draws[:, 0], cdf).statistic
        crit = stats.kstwobign.isf(0.01) / np.sqrt(draws.shape[0])
        assert stat < crit

    def test_aggregation_property(self):
        rng = np.random.default_rng(17)
        p = PtdParams(np.array([1.5, 2.0, 1.0, 0.8]), 0.1, 0.8)
        draws = ptd.sample(p, rng, size=100_000)
        merged = np.column_stack([draws[:, 0], draws[:, 1], draws[:, 2] + draws[:, 3]])
        target = PtdParams(np.array([1.5, 2.0, 1.8]), 0.1, 0.8)
        for m in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [0, 0, 2], [0, 2, 0]):
            samp = np.prod(merged ** np.asarray(m), axis=1)
            se = samp.std() / np.sqrt(samp.size)
            assert abs(samp.mean() - ptd.moment(target, m)) < 4 * se

    def test_conditional_scaled_dirichlet(self):
        rng = np.random.default_rng(18)
        alpha = np.array([2.0, 3.0, 1.5])
        p = PtdParams(alpha, 0.1, 0.8)
        draws = ptd.sample(p, rng, size=100_000)
        g1 = draws[:, 0]
        target_mean = alpha[1] / alpha[1:].sum()
        for lo, hi in [(0.1, 0.3), (0.3, 0.5), (0.5, 0.8)]:
            sel = (g1 >= lo) & (g1 < hi)
            rescaled = draws[sel, 1] / (1.0 - g1[sel])
            se = rescaled.std() / np.sqrt(sel.sum())
            assert abs(rescaled.mean() - target_mean) < 4 * se
