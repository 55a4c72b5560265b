"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (collected again in the terminal summary).

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline.
"""

import csv
import hashlib
import json
import os
import time

import numpy as np
from scipy import stats
from scipy.special import betainc

import leapborrow.ptd as ptd
from leapborrow import (
    Dataset,
    HistoricalDataset,
    NormalGammaPrior,
    PoissonGammaPrior,
    PtdParams,
    SimScenario,
    partition_averaged_mean,
    posterior_partition_table,
    run_chain,
    run_simulation,
    solve_beta_hyperparams,
    ssc_interval,
    ssc_marginal_from_table,
    ssc_prior_pmf_beta,
    ssc_prior_pmf_numeric,
    truncation_bound,
)
from leapborrow.cli import main
from leapborrow.comparators import NppConfig, npp_conditional_posterior, npp_log_norm_const
from leapborrow.diagnostics import batch_means_se
from leapborrow.simulate import SamplerSettings

from conftest import (
    first_component_rate_projection_form,
    linear_first_component_conditional,
    make_table1_cfg,
    random_linear_instance,
    record_criterion,
)
from test_comparators import quad_log_c_linear, quad_log_c_poisson
from test_elicitation import beta_log_density
from test_ptd import quad_norm_const

TABLE1_CELLS = {
    # partition: (prior mean, prior prob, posterior mean, posterior prob)
    (1, 1, 1): (2.94, 0.319, 1.84, 0.412),
    (2, 2, 2): (1.00, 0.319, 1.50, 0.108),
    (1, 1, 2): (1.48, 0.092, 1.50, 0.259),
    (2, 2, 1): (5.55, 0.092, 1.90, 0.017),
    (1, 2, 1): (3.38, 0.020, 1.83, 0.019),
    (2, 1, 2): (1.91, 0.020, 1.54, 0.045),
    (1, 2, 2): (1.00, 0.068, 1.45, 0.105),
    (2, 1, 1): (3.86, 0.068, 1.91, 0.035),
}


def _write_table1_inputs(tmp_path, alpha):
    cur = tmp_path / "current.csv"
    cur.write_text("y\n" + "\n".join(["1", "2"] * 5) + "\n")
    hist = tmp_path / "hist.csv"
    hist.write_text("y\n1\n2\n6\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"kind": "poisson"},
                "leap": {
                    "K": 2,
                    "alpha0": list(alpha),
                    "component_priors": [
                        {"eta0": 0.1, "beta0": 0.1},
                        {"eta0": 0.1, "beta0": 0.1},
                    ],
                },
                "sampler": {"seed": 0},
            }
        )
    )
    return str(cur), str(hist), str(cfg)


def _run_enumerate(tmp_path, alpha, tag):
    cur, hist, cfg = _write_table1_inputs(tmp_path, alpha)
    table_path = str(tmp_path / f"table_{tag}.csv")
    summary_path = str(tmp_path / f"summary_{tag}.json")
    t0 = time.perf_counter()
    rc = main(
        ["enumerate", "--data", cur, "--hist", hist, "--config", cfg,
         "--out", table_path, "--summary-out", summary_path]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    with open(table_path) as fh:
        rows = {
            tuple(int(v) for v in r["c0"].split(",")): r
            for r in csv.DictReader(fh)
        }
    return rows, json.loads(open(summary_path).read()), elapsed


def test_criterion_01_table_reproduction(tmp_path):
    # The published probability columns were generated under unit
    # concentrations; the quoted (0.9, 0.9) reproduces only the
    # concentration-free mean columns.  Both facts are asserted.
    rows, _, elapsed = _run_enumerate(tmp_path, (1.0, 1.0), "unit")
    worst = 0.0
    for part, (pm, pp, qm, qp) in TABLE1_CELLS.items():
        r = rows[part]
        worst = max(
            worst,
            abs(float(r["prior_mean"]) - pm),
            abs(float(r["prior_prob"]) - pp),
            abs(float(r["post_mean"]) - qm),
            abs(float(r["post_prob"]) - qp),
        )
    ok = worst <= 0.005 and elapsed < 1.0

    rows_lit, _, _ = _run_enumerate(tmp_path, (0.9, 0.9), "literal")
    worst_mean_lit = max(
        max(
            abs(float(rows_lit[p]["prior_mean"]) - c[0]),
            abs(float(rows_lit[p]["post_mean"]) - c[2]),
        )
        for p, c in TABLE1_CELLS.items()
    )
    worst_prob_lit = max(
        max(
            abs(float(rows_lit[p]["prior_prob"]) - c[1]),
            abs(float(rows_lit[p]["post_prob"]) - c[3]),
        )
        for p, c in TABLE1_CELLS.items()
    )
    ok = ok and worst_mean_lit <= 0.005 and worst_prob_lit > 0.005
    record_criterion(
        1,
        "published partition table reproduced within 0.005",
        ok,
        f"max cell error {worst:.4f} under unit concentrations in {elapsed:.2f}s; "
        f"quoted (0.9, 0.9) concentrations leave means within {worst_mean_lit:.4f} "
        f"but shift probabilities by up to {worst_prob_lit:.4f} (caption inconsistency, "
        "see decisions ledger)",
    )


def test_criterion_02_partition_averaged_mean(table1_data, table1_hist):
    means = {}
    for alpha in ((1.0, 1.0), (0.9, 0.9)):
        table = posterior_partition_table(table1_data, table1_hist, make_table1_cfg(alpha))
        means[alpha] = partition_averaged_mean(table, "posterior")[0]
    # the published 1.66 was averaged over the published (unit-concentration)
    # partition table; the quoted concentrations give 1.6662, which rounds to
    # 1.67 and sits just outside the tolerance, consistent with criterion 1
    dev_unit = abs(means[(1.0, 1.0)] - 1.66)
    record_criterion(
        2, "partition-averaged posterior mean equals 1.66 within 0.005",
        dev_unit <= 0.005,
        f"unit concentrations: {means[(1.0, 1.0)]:.4f}; quoted (0.9, 0.9): "
        f"{means[(0.9, 0.9)]:.4f} (caption inconsistency, see decisions ledger)",
    )


def test_criterion_03_gibbs_oracle_equivalence(table1_data, table1_hist, table1_cfg):
    t0 = time.perf_counter()
    failures = []

    def check(tag, data, hist, cfg, seed, mean_cols):
        table = posterior_partition_table(data, hist, cfg)
        target = partition_averaged_mean(table, "posterior")
        d = run_chain(data, hist, cfg, n_draws=202_000, burn_in=2_000, seed=seed)
        for j, col in enumerate(mean_cols):
            x = d.column(col)
            se = batch_means_se(x)
            if abs(x.mean() - target[j]) >= 3 * se:
                failures.append(
                    f"{tag}:{col} |{x.mean():.5f}-{target[j]:.5f}| >= 3*{se:.5f}"
                )
        pmf_oracle = ssc_marginal_from_table(table, "posterior")
        counts = np.bincount(d.column("n0_1").astype(int), minlength=hist.n0 + 1)
        tv = 0.5 * np.abs(counts / counts.sum() - pmf_oracle).sum()
        if tv >= 0.02:
            failures.append(f"{tag}: TV {tv:.4f} >= 0.02")

    check("table1", table1_data, table1_hist, table1_cfg, 1001, ["theta_1"])
    specs = [(6, 2), (8, 3), (10, 2), (7, 1), (9, 3)]
    for i, (n0, p) in enumerate(specs):
        data, hist, cfg = random_linear_instance(200 + i, n=n0 + 6, n0=n0, p=p)
        check(
            f"linear{i}", data, hist, cfg, 1100 + i,
            [f"beta_1_{j + 1}" for j in range(p)],
        )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    record_criterion(
        3, "200k-draw chains match enumeration within 3 SE and TV 0.02",
        ok, f"{elapsed:.0f}s total" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_04_truncated_dirichlet_suite():
    rng = np.random.default_rng(42)
    failures = []
    for case in range(10):
        K = 2 if case % 2 == 0 else 3
        lo = 0.8 if K == 2 else 1.0
        alpha = rng.uniform(lo, 4.0, size=K)
        a = rng.uniform(0.0, 0.35)
        b = rng.uniform(a + 0.25, 1.0)
        params = PtdParams(alpha, a, b)
        tag = f"case{case}(K={K})"

        # normalization against quadrature
        quad = quad_norm_const(alpha, a, b)
        if abs(np.exp(ptd.log_norm_const(params)) - quad) > 1e-6 * quad:
            failures.append(f"{tag}: normalization")

        # moment formula against quadrature
        for m in ([1] + [0] * (K - 1), [0] * (K - 1) + [1]):
            if abs(ptd.moment(params, m) - quad_moment_local(alpha, a, b, m)) > 1e-6:
                failures.append(f"{tag}: moment {m}")

        draws = ptd.sample(params, rng, size=100_000)

        # marginal law of the first coordinate
        a1, a0 = params.alpha1, params.alpha_rest_sum
        fa, fb = betainc(a1, a0, a), betainc(a1, a0, b)
        cdf = lambda y: (betainc(a1, a0, np.clip(y, a, b)) - fa) / (fb - fa)
        ks = stats.kstest(draws[:, 0], cdf).statistic
        if ks >= stats.kstwobign.isf(0.01) / np.sqrt(draws.shape[0]):
            failures.append(f"{tag}: KS {ks:.5f}")

        # conditional law: rescaled tail is Dirichlet regardless of the bin
        if K == 3:
            g1 = draws[:, 0]
            edges = np.quantile(g1, [0.0, 1 / 3, 2 / 3, 1.0])
            target = alpha[1] / alpha[1:].sum()
            for lo_e, hi_e in zip(edges[:-1], edges[1:]):
                sel = (g1 >= lo_e) & (g1 <= hi_e)
                resc = draws[sel, 1] / (1.0 - g1[sel])
                se = resc.std() / np.sqrt(sel.sum())
                if abs(resc.mean() - target) >= 4 * se:
                    failures.append(f"{tag}: conditional bin {lo_e:.2f}")

        # conjugacy: posterior/prior log ratio is linear in log gamma
        counts = rng.integers(0, 6, size=K)
        updated = ptd.posterior_update(params, counts)
        vals = []
        while len(vals) < 100:
            g = rng.dirichlet(alpha)
            if params.a < g[0] < params.b:
                vals.append(
                    ptd.log_density(updated, g)
                    - ptd.log_density(params, g)
                    - counts @ np.log(g)
                )
        if np.ptp(vals) >= 1e-9:
            failures.append(f"{tag}: conjugacy spread {np.ptp(vals):.2e}")

    record_criterion(
        4, "truncated-Dirichlet suite over 10 randomized parameter sets",
        not failures, "; ".join(failures) if failures else "all checks passed",
    )


def quad_moment_local(alpha, a, b, m):
    return quad_norm_const(np.asarray(alpha) + np.asarray(m), a, b) / quad_norm_const(
        alpha, a, b
    )


def test_criterion_05_ssc_suite():
    rng = np.random.default_rng(7)
    failures = []
    for case in range(10):
        n0 = int(rng.integers(3, 25))
        d1, d2 = rng.uniform(0.5, 8.0, size=2)
        closed = ssc_prior_pmf_beta(n0, d1, d2)
        numeric = ssc_prior_pmf_numeric(n0, beta_log_density(d1, d2))
        err = np.max(np.abs(closed.probs - numeric.probs))
        if err > 1e-8:
            failures.append(f"pmf case {case}: {err:.2e}")
    for case in range(20):
        n0 = int(rng.integers(20, 120))
        d1, d2 = rng.uniform(0.8, 10.0, size=2)
        lo, hi = ssc_interval(ssc_prior_pmf_beta(n0, d1, d2), 0.95)
        res = solve_beta_hyperparams(n0, lo, hi, 0.95)
        alo, ahi = res["achieved"]
        if abs(alo - lo) > 1 or abs(ahi - hi) > 1:
            failures.append(f"solver case {case}: target ({lo},{hi}) got ({alo},{ahi})")
    bound = truncation_bound(137, 282)
    if abs(bound - 0.4858) > 1e-4:
        failures.append(f"bound {bound:.5f}")
    record_criterion(
        5, "borrowed-count pmf, solver round-trip and truncation bound",
        not failures, "; ".join(failures) if failures else "10 pmf + 20 solver cases",
    )


def test_criterion_06_power_prior_norm_const():
    rng = np.random.default_rng(11)
    failures = []
    for case in range(15):
        y0 = rng.poisson(rng.uniform(0.5, 6.0), size=rng.integers(3, 12)).astype(float)
        hist = HistoricalDataset(y0=y0)
        eta0, beta0 = rng.uniform(0.2, 5.0, size=2)
        cfg = NppConfig(prior=PoissonGammaPrior(eta0, beta0))
        a0 = rng.uniform(0.0, 1.0)
        lc = npp_log_norm_const(a0, hist, cfg)
        lq = quad_log_c_poisson(a0, y0, eta0, beta0)
        if abs(lc - lq) > 1e-8 * max(1.0, abs(lq)):
            failures.append(f"poisson case {case}: {abs(lc - lq):.2e}")
    for case in range(10):
        n0 = int(rng.integers(4, 10))
        y0 = rng.normal(rng.uniform(-1, 2), rng.uniform(0.5, 1.5), size=n0)
        hist = HistoricalDataset(y0=y0, X0=np.ones((n0, 1)))
        prior = NormalGammaPrior(
            np.array([rng.normal()]),
            np.array([[rng.uniform(0.3, 3.0)]]),
            rng.uniform(1.0, 6.0),
            rng.uniform(0.5, 4.0),
        )
        cfg = NppConfig(prior=prior)
        a0 = rng.uniform(0.0, 1.0)
        lc = npp_log_norm_const(a0, hist, cfg)
        lq = quad_log_c_linear(a0, hist.X0, y0, prior)
        if abs(lc - lq) > 1e-8 * max(1.0, abs(lq)):
            failures.append(f"linear case {case}: {abs(lc - lq):.2e}")

    # boundary degeneracies reproduce no-borrowing / pooling exactly
    rngb = np.random.default_rng(12)
    y = rngb.poisson(2.0, size=20).astype(float)
    y0 = rngb.poisson(2.0, size=10).astype(float)
    data, hist = Dataset(y=y), HistoricalDataset(y0=y0)
    cfg = NppConfig(prior=PoissonGammaPrior(0.5, 0.5))
    sh0, ra0 = npp_conditional_posterior(0.0, data, hist, cfg)
    sh1, ra1 = npp_conditional_posterior(1.0, data, hist, cfg)
    if not (sh0 == 0.5 + y.sum() and ra0 == 0.5 + 20):
        failures.append("poisson no-borrowing boundary")
    if not (sh1 == 0.5 + y.sum() + y0.sum() and ra1 == 0.5 + 30):
        failures.append("poisson pooling boundary")
    record_criterion(
        6, "power-prior normalizing constant vs quadrature on 25 cases",
        not failures, "; ".join(failures) if failures else "15 poisson + 10 linear",
    )


def test_criterion_07_completing_the_square():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 2, 20))
        n0 = int(rng.integers(p + 2, 14))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))]) if p > 1 else np.ones((n, 1))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        X0 = np.column_stack([np.ones(n0), rng.normal(size=(n0, p - 1))]) if p > 1 else np.ones((n0, 1))
        y0 = X0 @ rng.normal(size=p) + rng.normal(size=n0)
        data = Dataset(y=y, X=X)
        hist = HistoricalDataset(y0=y0, X0=X0)
        A = rng.normal(size=(p, p))
        prior = NormalGammaPrior(
            rng.normal(size=p), A @ A.T + 0.3 * np.eye(p),
            rng.uniform(0.5, 5), rng.uniform(0.5, 5),
        )
        labels = np.full(n0, 2, dtype=int)
        labels[: max(p + 1, n0 // 2)] = 1
        from leapborrow import PartitionAssignment

        assign = PartitionAssignment(labels)
        cond = linear_first_component_conditional(assign, data, hist, prior)
        direct = 2.0 * cond.rate
        projected = first_component_rate_projection_form(assign, data, hist, prior)
        worst = max(worst, abs(direct - projected) / max(1.0, abs(direct)))
    record_criterion(
        7, "first-component rate identity on 100 random linear instances",
        worst <= 1e-8, f"worst relative gap {worst:.2e}",
    )


def test_criterion_08_simulation_operating_characteristics():
    workers = min(2, os.cpu_count() or 1)
    settings = SamplerSettings(n_draws=2_500, burn_in=500)
    t0 = time.perf_counter()
    results = {}
    for tag, exch in (("full", "full"), ("none", "none"), ("half", "half")):
        scenario = SimScenario(
            exchangeability=exch, q=0.5, n_extra=0, n0=150, reps=200, seed=90,
        )
        out = run_simulation(
            scenario, ["leap", "reference"], settings=settings, workers=workers
        )
        results[tag] = out["metrics"]
    elapsed = time.perf_counter() - t0

    failures = []
    m = results["full"]
    if not m["leap"].mse <= m["reference"].mse:
        failures.append(
            f"full: leap MSE {m['leap'].mse:.2f} > reference {m['reference'].mse:.2f}"
        )
    m = results["none"]
    if not (0.91 <= m["leap"].coverage <= 0.99):
        failures.append(f"none: leap coverage {m['leap'].coverage:.3f}")
    if not m["leap"].pab <= 2.0 * m["reference"].pab:
        failures.append(
            f"none: leap PAB {m['leap'].pab:.4f} > 2x reference {m['reference'].pab:.4f}"
        )
    m = results["half"]
    if not m["leap"].mse < m["reference"].mse:
        failures.append(
            f"half: leap MSE {m['leap'].mse:.2f} >= reference {m['reference'].mse:.2f}"
        )
    detail = (
        f"{elapsed / 60:.1f} min; "
        f"full mse {results['full']['leap'].mse:.2f}/{results['full']['reference'].mse:.2f}, "
        f"none cov {results['none']['leap'].coverage:.3f}, "
        f"half mse {results['half']['leap'].mse:.2f}/{results['half']['reference'].mse:.2f}"
    )
    record_criterion(
        8, "desk-scale operating characteristics across three scenarios",
        not failures and elapsed < 1800, detail + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_09_asymptotic_pooling():
    passes = 0
    means = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        data = Dataset(y=rng.poisson(2.5, size=100).astype(float))
        hist = HistoricalDataset(y0=rng.poisson(2.5, size=2_000).astype(float))
        cfg = make_table1_cfg((0.5, 0.5))
        d = run_chain(data, hist, cfg, n_draws=3_000, burn_in=500, seed=seed)
        g1 = d.column("gamma_1").mean()
        means.append(g1)
        if g1 > 0.9:
            passes += 1
    record_criterion(
        9, "large exchangeable history drives the shared weight above 0.9",
        passes >= 2, f"posterior means {['%.3f' % m for m in means]}, {passes}/3 seeds",
    )


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_criterion_10_byte_reproducibility(tmp_path):
    cur, hist, cfg = _write_table1_inputs(tmp_path, (1.0, 1.0))
    failures = []

    # identical target paths so the config echo embeds identical bytes
    fit_out = str(tmp_path / "fit.json")
    fit_draws = str(tmp_path / "draws.csv")
    fit_hashes = []
    for _ in range(2):
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", cfg, "--prior", "leap",
             "--seed", "5", "--out", fit_out, "--emit-draws", fit_draws]
        )
        assert rc == 0
        fit_hashes.append((_sha(fit_out), _sha(fit_draws)))
    if fit_hashes[0] != fit_hashes[1]:
        failures.append("fit outputs differ across runs")

    enum_table = str(tmp_path / "enum.csv")
    enum_summ = str(tmp_path / "enum.json")
    enum_hashes = []
    for w in (1, 2):
        rc = main(
            ["enumerate", "--data", cur, "--hist", hist, "--config", cfg,
             "--workers", str(w), "--out", enum_table, "--summary-out", enum_summ]
        )
        assert rc == 0
        enum_hashes.append((_sha(enum_table), _sha(enum_summ)))
    if enum_hashes[0] != enum_hashes[1]:
        failures.append("enumerate outputs differ across worker counts")

    sim_out = str(tmp_path / "sim.json")
    sim_hashes = []
    for w in (1, 2):
        rc = main(
            ["simulate", "--scenario", "half", "--q", "0.5", "--n0", "12", "--reps", "2",
             "--priors", "leap", "--draws", "400", "--burn-in", "100", "--seed", "2",
             "--workers", str(w), "--out", sim_out]
        )
        assert rc == 0
        sim_hashes.append(_sha(sim_out))
    if sim_hashes[0] != sim_hashes[1]:
        failures.append("simulate outputs differ across worker counts")

    record_criterion(
        10, "seeded commands are byte-reproducible across runs and workers",
        not failures, "; ".join(failures) if failures else "fit x2, enumerate w1/w2, simulate w1/w2",
    )
