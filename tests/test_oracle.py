import numpy as np
import pytest

from leapborrow import (
    Dataset,
    EnumerationCapError,
    LeapConfig,
    NormalGammaPrior,
    PoissonGammaPrior,
    enumerate_partitions,
    partition_averaged_mean,
    posterior_partition_table,
    prior_partition_table,
    ssc_marginal_from_table,
)
from leapborrow.core import HistoricalDataset

from conftest import make_table1_cfg, random_linear_instance

TABLE1_PRIOR = {
    (1, 1, 1): 0.319, (2, 2, 2): 0.319, (1, 1, 2): 0.092, (2, 2, 1): 0.092,
    (1, 2, 1): 0.020, (2, 1, 2): 0.020, (1, 2, 2): 0.068, (2, 1, 1): 0.068,
}
TABLE1_POST = {
    (1, 1, 1): 0.412, (2, 2, 2): 0.108, (1, 1, 2): 0.259, (2, 2, 1): 0.017,
    (1, 2, 1): 0.019, (2, 1, 2): 0.045, (1, 2, 2): 0.105, (2, 1, 1): 0.035,
}
TABLE1_PRIOR_MEAN = {
    (1, 1, 1): 2.94, (2, 2, 2): 1.00, (1, 1, 2): 1.48, (2, 2, 1): 5.55,
    (1, 2, 1): 3.38, (2, 1, 2): 1.91, (1, 2, 2): 1.00, (2, 1, 1): 3.86,
}
TABLE1_POST_MEAN = {
    (1, 1, 1): 1.84, (2, 2, 2): 1.50, (1, 1, 2): 1.50, (2, 2, 1): 1.90,
    (1, 2, 1): 1.83, (2, 1, 2): 1.54, (1, 2, 2): 1.45, (2, 1, 1): 1.91,
}


class TestEnumerate:
    def test_table_labels_follow_enumeration_order(self, table1_hist, table1_cfg):
        table = prior_partition_table(table1_hist, table1_cfg)
        parts = [tuple(a.c0) for a in enumerate_partitions(2, 3)]
        assert [tuple(r) for r in table.labels().tolist()] == parts
        assert table.labels(2, 4).tolist() == [list(p) for p in parts[2:4]]

    def test_lexicographic_two_components(self):
        parts = [tuple(a.c0) for a in enumerate_partitions(2, 3)]
        assert parts == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
            (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
        ]

    def test_three_components_count(self):
        assert len(list(enumerate_partitions(3, 2))) == 9

    def test_cap_exceeded_names_cap(self):
        with pytest.raises(EnumerationCapError, match=str(2**20)):
            list(enumerate_partitions(2, 30))

    def test_no_duplicates(self):
        parts = [tuple(a.c0) for a in enumerate_partitions(3, 4)]
        assert len(parts) == len(set(parts)) == 81


def row_index(table):
    """Row of each partition's label tuple in a materialized table."""
    return {tuple(c0): i for i, c0 in enumerate(table.labels().tolist())}


class TestPoissonTables:
    def test_prior_probabilities(self, table1_hist, table1_cfg):
        table = prior_partition_table(table1_hist, table1_cfg)
        for c0, i in row_index(table).items():
            assert table.prior_prob[i] == pytest.approx(TABLE1_PRIOR[c0], abs=0.005)
            assert table.cond_prior_mean[i, 0] == pytest.approx(
                TABLE1_PRIOR_MEAN[c0], abs=0.005
            )
        assert table.posterior_prob is None and table.cond_post_mean is None
        assert table.prior_prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_posterior_table(self, table1_data, table1_hist, table1_cfg):
        table = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        for c0, i in row_index(table).items():
            assert table.prior_prob[i] == pytest.approx(TABLE1_PRIOR[c0], abs=0.005)
            assert table.posterior_prob[i] == pytest.approx(TABLE1_POST[c0], abs=0.005)
            assert table.cond_post_mean[i, 0] == pytest.approx(
                TABLE1_POST_MEAN[c0], abs=0.005
            )
        assert table.posterior_prob.sum() == pytest.approx(1.0, abs=1e-10)

    def test_specific_conditional_means(self, table1_data, table1_hist, table1_cfg):
        table = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        rows = row_index(table)
        assert table.cond_prior_mean[rows[(2, 2, 1)], 0] == pytest.approx(6.1 / 1.1, rel=1e-12)
        assert table.cond_post_mean[rows[(1, 2, 2)], 0] == pytest.approx(
            16.1 / 11.1, rel=1e-12
        )

    def test_partition_averaged_mean(self, table1_data, table1_hist, table1_cfg):
        table = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        assert partition_averaged_mean(table, "posterior")[0] == pytest.approx(
            1.66, abs=0.005
        )

    def test_prior_columns_match_prior_table(self, table1_data, table1_hist, table1_cfg):
        post = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        prior = prior_partition_table(table1_hist, table1_cfg)
        for rp, rq in zip(post.prior_prob, prior.prior_prob):
            assert rp == pytest.approx(rq, rel=1e-12)
        assert np.allclose(post.prior_ssc, prior.prior_ssc)
        assert np.allclose(post.prior_mean, prior.prior_mean)

    def test_ssc_marginal(self, table1_hist, table1_cfg):
        table = prior_partition_table(table1_hist, table1_cfg)
        pmf = ssc_marginal_from_table(table, "prior")
        assert pmf[3] == pytest.approx(0.319, abs=0.005)
        assert pmf[0] == pytest.approx(0.319, abs=0.005)
        assert pmf[2] == pytest.approx(0.180, abs=0.005)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)

    def test_single_component_degenerate(self, table1_data, table1_hist):
        cfg = LeapConfig(
            K=1, alpha0=np.array([1.0]),
            component_priors=(PoissonGammaPrior(0.1, 0.1),), model_kind="poisson",
        )
        table = posterior_partition_table(table1_data, table1_hist, cfg)
        assert table.posterior_prob.shape == (1,)
        assert table.posterior_prob[0] == pytest.approx(1.0, abs=1e-12)
        pmf = ssc_marginal_from_table(table, "posterior")
        assert pmf[-1] == pytest.approx(1.0, abs=1e-12)
        assert partition_averaged_mean(table, "posterior")[0] == pytest.approx(
            table.cond_post_mean[0, 0], rel=1e-12
        )

    def test_label_permutation_invariance(self, table1_data, table1_hist):
        cfg = LeapConfig(
            K=3, alpha0=np.array([0.9, 0.7, 0.7]),
            component_priors=tuple(PoissonGammaPrior(0.1, 0.1) for _ in range(3)),
            model_kind="poisson",
        )
        table = posterior_partition_table(table1_data, table1_hist, cfg)
        probs = {c0: table.posterior_prob[i] for c0, i in row_index(table).items()}
        for c0, p in probs.items():
            swapped = tuple({1: 1, 2: 3, 3: 2}[v] for v in c0)
            assert p == pytest.approx(probs[swapped], rel=1e-10)


class TestStreamingAndWorkers:
    def test_streaming_aggregates_match_materialized(self, table1_data, table1_hist, table1_cfg):
        full = posterior_partition_table(table1_data, table1_hist, table1_cfg, materialize=True)
        lean = posterior_partition_table(table1_data, table1_hist, table1_cfg, materialize=False)
        assert not lean.materialized
        assert lean.prior_prob is None and lean.cond_post_mean is None
        assert np.array_equal(full.post_ssc, lean.post_ssc)
        assert np.array_equal(full.post_mean, lean.post_mean)
        assert full.log_post_norm == lean.log_post_norm

    def test_worker_count_is_bit_stable(self, monkeypatch):
        import leapborrow.oracle as om

        monkeypatch.setattr(om, "BLOCK_SIZE", 16)  # force multiple blocks
        data, hist, cfg = random_linear_instance(21, n=10, n0=7, p=2)
        t1 = posterior_partition_table(data, hist, cfg, workers=1)
        t2 = posterior_partition_table(data, hist, cfg, workers=2)
        assert t1.log_post_norm == t2.log_post_norm
        assert np.array_equal(t1.post_mean, t2.post_mean)
        for a, b in zip(t1.posterior_prob, t2.posterior_prob):
            assert a == b

    def test_unmaterialized_k2_tables_match_across_workers(self, monkeypatch):
        import leapborrow.oracle as om

        monkeypatch.setattr(om, "BLOCK_SIZE", 64)  # force multiple blocks
        rng = np.random.default_rng(22)
        hist = HistoricalDataset(y0=rng.poisson(3.0, size=10).astype(float))
        data = Dataset(y=rng.poisson(2.5, size=12).astype(float))
        cfg = make_table1_cfg()
        t1 = posterior_partition_table(data, hist, cfg, materialize=False, workers=1)
        t2 = posterior_partition_table(data, hist, cfg, materialize=False, workers=2)
        assert not t1.materialized and not t2.materialized
        for name in ("prior_ssc", "prior_mean", "post_ssc", "post_mean"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))
        assert t1.log_prior_norm == t2.log_prior_norm
        assert t1.log_post_norm == t2.log_post_norm
        # a block returns weights, means and class-1 counts, never its labels
        shapes = [a.shape for a in om._block_task((0, 64, data, hist, cfg))]
        assert shapes == [(64,), (64, 1), (64,), (64, 1), (64,)]

    @pytest.mark.parametrize("kind", ["poisson", "linear"])
    def test_columnar_tables_identical_across_workers(self, monkeypatch, kind):
        import leapborrow.oracle as om

        monkeypatch.setattr(om, "BLOCK_SIZE", 32)  # force multiple blocks
        if kind == "poisson":
            rng = np.random.default_rng(23)
            hist = HistoricalDataset(y0=rng.poisson(3.0, size=8).astype(float))
            data = Dataset(y=rng.poisson(2.5, size=12).astype(float))
            cfg = make_table1_cfg()
        else:
            data, hist, cfg = random_linear_instance(24, n=10, n0=7, p=3)
        t1 = posterior_partition_table(data, hist, cfg, workers=1)
        t2 = posterior_partition_table(data, hist, cfg, workers=2)
        assert t1.materialized and t1.prior_prob.shape == (2**hist.n0,)
        for name in ("prior_prob", "cond_prior_mean", "posterior_prob", "cond_post_mean",
                     "prior_ssc", "prior_mean", "post_ssc", "post_mean"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name
        assert t1.log_prior_norm == t2.log_prior_norm
        assert t1.log_post_norm == t2.log_post_norm

    def test_block_boundary_consistency(self, table1_data, table1_hist, table1_cfg, monkeypatch):
        import leapborrow.oracle as om

        ref = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        monkeypatch.setattr(om, "BLOCK_SIZE", 3)
        split = posterior_partition_table(table1_data, table1_hist, table1_cfg)
        for a, b in zip(ref.posterior_prob, split.posterior_prob):
            assert a == pytest.approx(b, rel=1e-13)
        assert np.allclose(ref.post_mean, split.post_mean)


class TestLinearTables:
    def test_residual_fit_orders_prior_probability(self):
        # identical class sizes; grouping similar outcomes fits better per class
        y0 = np.array([1.0, 1.1, 9.0, 9.1])
        hist = HistoricalDataset(y0=y0, X0=np.ones((4, 1)))
        ng = NormalGammaPrior(np.zeros(1), 0.01 * np.eye(1), 1.0, 1.0)
        cfg = LeapConfig(
            K=2, alpha0=np.array([0.9, 0.9]), component_priors=(ng, ng),
            model_kind="normal_linear",
        )
        table = prior_partition_table(hist, cfg)
        rows = row_index(table)
        assert table.prior_prob[rows[(1, 1, 2, 2)]] > table.prior_prob[rows[(1, 2, 1, 2)]]

    def test_posterior_mean_is_convex_combination(self):
        data, hist, cfg = random_linear_instance(22)
        table = posterior_partition_table(data, hist, cfg)
        manual = np.zeros(cfg.component_priors[0].p)
        for prob, mean in zip(table.posterior_prob, table.cond_post_mean):
            manual += prob * mean
        assert np.allclose(partition_averaged_mean(table, "posterior"), manual, atol=1e-12)

    def test_truncated_weights_renormalize(self):
        data, hist, cfg = random_linear_instance(23)
        trunc = LeapConfig(
            K=2, alpha0=cfg.alpha0, component_priors=cfg.component_priors,
            model_kind="normal_linear", trunc_a=0.0, trunc_b=0.5,
        )
        table = posterior_partition_table(data, hist, trunc)
        total = table.posterior_prob.sum()
        assert total == pytest.approx(1.0, abs=1e-10)
        base = posterior_partition_table(data, hist, cfg)
        # truncation caps the first weight, so borrowing-heavy partitions lose mass
        heavy = tuple(np.ones(hist.n0, dtype=int))
        pt = table.posterior_prob[row_index(table)[heavy]]
        pb = base.posterior_prob[row_index(base)[heavy]]
        assert pt < pb
