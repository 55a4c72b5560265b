import numpy as np
import pytest

from leapborrow import (
    LeapConfig,
    PoissonGammaPrior,
    Dataset,
    HistoricalDataset,
    ValidationError,
    partition_averaged_mean,
    posterior_partition_table,
    run_chain,
    run_chains,
    ssc_marginal_from_table,
)
from leapborrow.diagnostics import batch_means_se
from leapborrow.gibbs import _draw_gamma, chain_rng, gibbs_step, initialize_state

from conftest import make_table1_cfg, random_linear_instance


class TestDeterminism:
    def test_same_seed_bit_identical(self, table1_data, table1_hist, table1_cfg):
        a = run_chain(table1_data, table1_hist, table1_cfg, n_draws=500, burn_in=100, seed=9)
        b = run_chain(table1_data, table1_hist, table1_cfg, n_draws=500, burn_in=100, seed=9)
        assert a.columns == b.columns
        assert np.array_equal(a.values, b.values)
        counts = np.column_stack([a.column("n0_1"), a.column("n0_2")])
        assert np.array_equal(counts.sum(axis=1), np.full(a.n_draws, table1_hist.n0))
        assert a.c0 is None

    def test_different_seed_differs(self, table1_data, table1_hist, table1_cfg):
        a = run_chain(table1_data, table1_hist, table1_cfg, n_draws=300, burn_in=0, seed=1)
        b = run_chain(table1_data, table1_hist, table1_cfg, n_draws=300, burn_in=0, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_burn_in_equal_to_draws_flags_empty(self, table1_data, table1_hist, table1_cfg):
        d = run_chain(table1_data, table1_hist, table1_cfg, n_draws=50, burn_in=50, seed=0)
        assert d.n_draws == 0
        assert d.meta["no_retained_draws"] is True

    def test_chains_merge_in_order(self, table1_data, table1_hist, table1_cfg):
        merged = run_chains(
            table1_data, table1_hist, table1_cfg, n_draws=200, burn_in=50, seed=4, chains=2
        )
        c0 = run_chain(
            table1_data, table1_hist, table1_cfg, n_draws=200, burn_in=50, seed=4, chain_index=0
        )
        c1 = run_chain(
            table1_data, table1_hist, table1_cfg, n_draws=200, burn_in=50, seed=4, chain_index=1
        )
        assert np.array_equal(merged.values[: c0.n_draws], c0.values)
        assert np.array_equal(merged.values[c0.n_draws :], c1.values)


class TestDegenerateCases:
    def test_single_component_pools(self, table1_data, table1_hist):
        cfg = LeapConfig(
            K=1, alpha0=np.array([1.0]),
            component_priors=(PoissonGammaPrior(0.1, 0.1),), model_kind="poisson",
        )
        d = run_chain(table1_data, table1_hist, cfg, n_draws=4000, burn_in=500, seed=3)
        assert np.all(d.column("gamma_1") == 1.0)
        assert np.all(d.column("n0_1") == table1_hist.n0)
        # pooled conjugate posterior: Gamma(24.1, 13.1)
        target = 24.1 / 13.1
        se = batch_means_se(d.column("theta_1"))
        assert abs(d.column("theta_1").mean() - target) < 4 * se

    def test_initialize_state_k1(self, table1_data, table1_hist):
        cfg = LeapConfig(
            K=1, alpha0=np.array([1.0]),
            component_priors=(PoissonGammaPrior(0.1, 0.1),), model_kind="poisson",
        )
        state = initialize_state(table1_data, table1_hist, cfg, chain_rng(0))
        assert np.all(state.c0.c0 == 1)
        assert state.gamma.tolist() == [1.0]

    def test_initialize_reproducible(self, table1_data, table1_hist, table1_cfg):
        s1 = initialize_state(table1_data, table1_hist, table1_cfg, chain_rng(7))
        s2 = initialize_state(table1_data, table1_hist, table1_cfg, chain_rng(7))
        assert np.array_equal(s1.c0.c0, s2.c0.c0)
        assert np.array_equal(s1.gamma, s2.gamma)

    def test_validation_failures_propagate(self, table1_data, table1_hist):
        bad = make_table1_cfg()
        bad = LeapConfig(
            K=2, alpha0=np.array([-1.0, 1.0]), component_priors=bad.component_priors,
            model_kind="poisson",
        )
        with pytest.raises(ValidationError):
            run_chain(table1_data, table1_hist, bad, n_draws=10, burn_in=0, seed=0)


class TestTruncation:
    def test_truncated_weights_stay_inside(self, table1_data, table1_hist):
        cfg = make_table1_cfg()
        trunc = LeapConfig(
            K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
            model_kind="poisson", trunc_a=0.0, trunc_b=0.48,
        )
        d = run_chain(table1_data, table1_hist, trunc, n_draws=2000, burn_in=100, seed=5)
        g1 = d.column("gamma_1")
        assert np.all(g1 > 0.0) and np.all(g1 < 0.48)

    def test_initial_state_respects_truncation(self, table1_data, table1_hist):
        cfg = make_table1_cfg()
        trunc = LeapConfig(
            K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
            model_kind="poisson", trunc_a=0.0, trunc_b=0.48,
        )
        for seed in range(5):
            state = initialize_state(table1_data, table1_hist, trunc, chain_rng(seed))
            assert 0.0 < state.gamma[0] < 0.48

    @pytest.mark.parametrize(
        "n0, b", [(1200, 0.0833), (2000, 0.05), (2000, 0.1), (2000, 0.3)]
    )
    def test_large_history_small_bound_runs(self, n0, b):
        # uniform start labels would put about n0/2 subjects in class 1, far
        # outside (0, b), where the first weight update has no mass
        rng = np.random.default_rng(n0)
        y = rng.poisson(3.0, size=100).astype(float)
        m = int(0.7 * n0)
        y0 = np.concatenate([rng.poisson(3.0, m), rng.poisson(6.0, n0 - m)]).astype(float)
        pri = PoissonGammaPrior(0.1, 0.1)
        cfg = LeapConfig(
            K=2, alpha0=np.array([1.0, 1.0]), component_priors=(pri, pri),
            model_kind="poisson", trunc_a=0.0, trunc_b=b,
        )
        state = initialize_state(Dataset(y=y), HistoricalDataset(y0=y0), cfg, chain_rng(3))
        assert 0.0 < state.gamma[0] < b
        d = run_chain(
            Dataset(y=y), HistoricalDataset(y0=y0), cfg,
            n_draws=150, burn_in=20, seed=3,
        )
        g1 = d.column("gamma_1")
        assert np.all(g1 > 0.0) and np.all(g1 < b)

    def test_upper_tail_weight_draw(self):
        # Beta(1034, 968) on (0.6, 0.7) holds about 2e-14 of its mass, all in
        # the upper tail, where CDF differences lose their digits
        cfg = make_table1_cfg()
        trunc = LeapConfig(
            K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
            model_kind="poisson", trunc_a=0.6, trunc_b=0.7,
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            gamma = _draw_gamma(trunc, np.array([1033.0, 967.0]), rng)
            assert 0.6 < gamma[0] < 0.7 and gamma.sum() == pytest.approx(1.0, abs=1e-15)

    def test_truncated_chain_matches_truncated_oracle(self, table1_data, table1_hist):
        cfg = make_table1_cfg()
        trunc = LeapConfig(
            K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
            model_kind="poisson", trunc_a=0.0, trunc_b=0.48,
        )
        table = posterior_partition_table(table1_data, table1_hist, trunc)
        d = run_chain(table1_data, table1_hist, trunc, n_draws=42_000, burn_in=2000, seed=11)
        est = d.column("theta_1").mean()
        se = batch_means_se(d.column("theta_1"))
        target = partition_averaged_mean(table, "posterior")[0]
        assert abs(est - target) < 3.5 * se


class TestStationarity:
    def test_poisson_matches_oracle_short(self, table1_data, table1_hist, table1_cfg):
        table = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        d = run_chain(table1_data, table1_hist, table1_cfg, n_draws=42_000, burn_in=2000, seed=12)
        est = d.column("theta_1").mean()
        se = batch_means_se(d.column("theta_1"))
        assert abs(est - partition_averaged_mean(table, "posterior")[0]) < 3.5 * se
        pmf_oracle = ssc_marginal_from_table(table, "posterior")
        counts = np.bincount(d.column("n0_1").astype(int), minlength=table1_hist.n0 + 1)
        pmf_chain = counts / counts.sum()
        tv = 0.5 * np.abs(pmf_chain - pmf_oracle).sum()
        assert tv < 0.03

    def test_linear_matches_oracle_short(self):
        data, hist, cfg = random_linear_instance(31, n=10, n0=6, p=2)
        table = posterior_partition_table(data, hist, cfg)
        target = partition_averaged_mean(table, "posterior")
        d = run_chain(data, hist, cfg, n_draws=42_000, burn_in=2000, seed=13)
        for j in range(2):
            x = d.column(f"beta_1_{j + 1}")
            assert abs(x.mean() - target[j]) < 3.5 * batch_means_se(x)

    def test_conflicting_history_is_discounted(self):
        rng = np.random.default_rng(40)
        y = rng.poisson(2.0, size=40).astype(float)
        y0 = rng.poisson(30.0, size=20).astype(float)
        from leapborrow.core import Dataset, HistoricalDataset

        data = Dataset(y=y)
        hist = HistoricalDataset(y0=y0)
        cfg = make_table1_cfg((0.5, 0.5))
        d = run_chain(data, hist, cfg, n_draws=6000, burn_in=1000, seed=14)
        current_only = (0.1 + y.sum()) / (0.1 + y.size)
        pooled = (0.1 + y.sum() + y0.sum()) / (0.1 + y.size + y0.size)
        est = d.column("theta_1").mean()
        assert abs(est - current_only) < 0.3
        assert abs(est - pooled) > 5.0
        assert d.column("n0_1").mean() < 0.5


class TestDiffusePriors:
    def test_tiny_shape_draws_stay_finite(self):
        # near-zero gamma shapes underflow to zero draws without a floor,
        # which poisons the label weights with 0 * inf
        import warnings

        from leapborrow import NormalGammaPrior
        from leapborrow.core import Dataset, HistoricalDataset

        rng = np.random.default_rng(50)
        n, n0, p = 30, 20, 2
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        X0 = np.column_stack([np.ones(n0), rng.normal(size=n0)])
        y0 = X0 @ np.array([1.0, 0.5]) + rng.normal(size=n0)
        ng = NormalGammaPrior(np.zeros(p), 0.01 * np.eye(p), 0.02, 0.02)
        cfg = LeapConfig(
            K=2, alpha0=np.array([0.95, 0.95]), component_priors=(ng, ng),
            model_kind="normal_linear",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy runtime warning fails
            d = run_chain(
                Dataset(y=y, X=X), HistoricalDataset(y0=y0, X0=X0), cfg,
                n_draws=3000, burn_in=200, seed=6,
            )
        for col in ("beta_1_1", "beta_1_2", "tau_1", "gamma_1", "n0_1"):
            assert np.all(np.isfinite(d.column(col)))

    def test_tiny_shape_poisson_counts_with_zeros(self):
        import warnings

        from leapborrow.core import Dataset, HistoricalDataset

        rng = np.random.default_rng(51)
        data = Dataset(y=rng.poisson(0.6, size=25).astype(float))
        hist = HistoricalDataset(y0=rng.poisson(0.6, size=10).astype(float))
        assert (data.y == 0).any()  # zeros exercise the 0 * log(rate) path
        cfg = make_table1_cfg((0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = run_chain(data, hist, cfg, n_draws=3000, burn_in=200, seed=7)
        assert np.all(np.isfinite(d.values))


def _truncated_table1_cfg():
    cfg = make_table1_cfg()
    return LeapConfig(
        K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
        model_kind="poisson", trunc_a=0.0, trunc_b=0.48,
    )


class TestGibbsStepApi:
    @pytest.mark.parametrize("kind", ["poisson", "linear", "truncated"])
    def test_steps_reproduce_run_chain(self, kind, table1_data, table1_hist):
        # run_chain carries each scan's class statistics into the next scan;
        # gibbs_step recomputes them from the state's labels every time
        if kind == "linear":
            data, hist, cfg = random_linear_instance(33, n=15, n0=12, p=3)
        else:
            data, hist = table1_data, table1_hist
            cfg = make_table1_cfg() if kind == "poisson" else _truncated_table1_cfg()
        d = run_chain(data, hist, cfg, n_draws=60, burn_in=0, seed=21)
        rng = chain_rng(21)
        state = initialize_state(data, hist, cfg, rng)
        for t in range(60):
            state = gibbs_step(state, data, hist, cfg, rng)
            theta = np.concatenate([np.ravel(part) for part in state.theta])
            counts = np.bincount(state.c0.c0 - 1, minlength=cfg.K)
            assert np.array_equal(d.values[t], np.concatenate([theta, state.gamma, counts]))

    def test_single_step_preserves_invariants(self):
        data, hist, cfg = random_linear_instance(32)
        rng = chain_rng(5)
        state = initialize_state(data, hist, cfg, rng)
        for _ in range(10):
            state = gibbs_step(state, data, hist, cfg, rng)
            assert abs(state.gamma.sum() - 1.0) < 1e-12
            assert np.all(state.theta[1] > 0)  # precisions stay positive
            assert np.all((state.c0.c0 >= 1) & (state.c0.c0 <= cfg.K))
