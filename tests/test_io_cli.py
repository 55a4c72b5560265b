import csv
import itertools
import json

import numpy as np
import pytest

from leapborrow import (
    Dataset,
    HistoricalDataset,
    LeapConfig,
    PoissonGammaPrior,
    ValidationError,
    posterior_partition_table,
    prior_partition_table,
)
from leapborrow.cli import main
from leapborrow.io import (
    ingest_csv,
    load_config,
    read_draws_csv,
    write_draws_csv,
    write_partition_csv,
)
from leapborrow.core import DrawsMatrix

from conftest import make_table1_cfg, random_linear_instance


@pytest.fixture
def table1_files(tmp_path):
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
                    "alpha0": [1.0, 1.0],
                    "component_priors": [
                        {"eta0": 0.1, "beta0": 0.1},
                        {"eta0": 0.1, "beta0": 0.1},
                    ],
                },
                "sampler": {"draws": 3000, "burn_in": 500, "seed": 7},
            }
        )
    )
    return str(cur), str(hist), str(cfg)


class TestIngest:
    def test_historical_counts(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("y\n1\n2\n6\n")
        hist = ingest_csv(str(f), "historical", "poisson")
        assert np.array_equal(hist.y0, [1.0, 2.0, 6.0])

    def test_bad_treatment_value_reports_row(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("y,z\n1.0,0\n2.0,2\n")
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(str(f), "current")

    def test_empty_data_section(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("y,z\n")
        with pytest.raises(ValidationError, match="n >= 1"):
            ingest_csv(str(f), "current")

    def test_missing_y(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("w\n1\n")
        with pytest.raises(ValidationError, match="missing required column 'y'"):
            ingest_csv(str(f), "current")

    def test_non_numeric_cell_location(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("y,x1\n1.0,2.0\n2.0,oops\n")
        with pytest.raises(ValidationError, match="row 3, column 'x1'"):
            ingest_csv(str(f), "current")

    def test_poisson_rejects_non_integers(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("y\n1\n2.5\n")
        with pytest.raises(ValidationError, match="nonnegative integers"):
            ingest_csv(str(f), "current", "poisson")

    def test_covariates_in_header_order(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("x1,y,z,x2\n1.0,5.0,1,3.0\n2.0,6.0,0,4.0\n")
        data = ingest_csv(str(f), "current")
        assert np.array_equal(data.X, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(data.z, [1.0, 0.0])

    def test_z_not_allowed_in_historical(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("y,z\n1.0,0\n")
        with pytest.raises(ValidationError, match="not allowed"):
            ingest_csv(str(f), "historical")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"model": {"kind": "poisson"}, "bogus": {}}))
        with pytest.raises(ValidationError, match="bogus"):
            load_config(str(f))

    def test_unknown_sampler_key(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"model": {"kind": "poisson"}, "sampler": {"steps": 5}}))
        with pytest.raises(ValidationError, match="steps"):
            load_config(str(f))

    def test_scalar_shorthand_for_linear_priors(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(
            json.dumps(
                {
                    "model": {"kind": "normal_linear"},
                    "leap": {
                        "K": 2,
                        "alpha0": [0.9, 0.9],
                        "component_priors": [
                            {"p": 3, "mu0": 0.0, "omega0": 0.01, "delta0": 1, "xi0": 1},
                            {"p": 3, "mu0": 0.0, "omega0": 0.5, "delta0": 1, "xi0": 1},
                        ],
                    },
                }
            )
        )
        cfg = load_config(str(f))
        assert cfg["leap"].component_priors[0].p == 3
        assert np.allclose(cfg["leap"].component_priors[1].omega0, 0.5 * np.eye(3))


class TestDrawsRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        dm = DrawsMatrix(
            columns=("theta_1", "n0_1"),
            values=np.column_stack([rng.gamma(2, size=50), rng.integers(0, 4, 50)]),
        )
        path = str(tmp_path / "draws.csv")
        write_draws_csv(path, dm)
        back = read_draws_csv(path)
        assert back.columns == dm.columns
        assert np.array_equal(back.values, dm.values)

    def test_missing_header_detected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValidationError, match="header"):
            read_draws_csv(str(f))


class TestCliFit:
    def test_fit_leap_summary(self, table1_files, tmp_path, capsys):
        cur, hist, cfg = table1_files
        out = str(tmp_path / "summary.json")
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", cfg,
             "--prior", "leap", "--out", out]
        )
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["prior"] == "leap"
        assert doc["seed"] == 7
        names = [p["name"] for p in doc["parameters"]]
        assert "theta_1" in names and "gamma_1" in names
        theta = next(p for p in doc["parameters"] if p["name"] == "theta_1")
        assert 1.4 < theta["mean"] < 1.9
        assert doc["ssc"] is not None
        assert doc["dic"] is not None
        assert doc["config"]["sampler"]["draws"] == 3000

    def test_fit_is_byte_reproducible(self, table1_files, tmp_path):
        cur, hist, cfg = table1_files
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            rc = main(
                ["fit", "--data", cur, "--hist", hist, "--config", cfg,
                 "--prior", "leap", "--seed", "11", "--chains", "2", "--out", out]
            )
            assert rc == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_fit_draws_match_run_chains(self, table1_files, tmp_path):
        from leapborrow.gibbs import run_chains

        cur, hist, cfg = table1_files
        out, draws_csv = str(tmp_path / "fit.json"), str(tmp_path / "draws.csv")
        rc = main(["fit", "--data", cur, "--hist", hist, "--config", cfg, "--prior", "leap",
                   "--chains", "2", "--out", out, "--emit-draws", draws_csv])
        assert rc == 0
        emitted = read_draws_csv(draws_csv)
        direct = run_chains(
            ingest_csv(cur, "current", "poisson"), ingest_csv(hist, "historical", "poisson"),
            make_table1_cfg(), n_draws=3000, burn_in=500, seed=7, chains=2,
        )
        assert emitted.columns == direct.columns
        assert np.array_equal(emitted.values, direct.values)
        counts = emitted.column("n0_1") + emitted.column("n0_2")
        assert np.array_equal(counts, np.full(emitted.n_draws, 3.0))
        doc = json.load(open(out))
        assert doc["ssc"]["mean"] == pytest.approx(emitted.column("n0_1").mean(), rel=1e-12)

    def test_rerun_from_echoed_config_reproduces_output(self, table1_files, tmp_path):
        cur, hist, cfg = table1_files
        out1 = str(tmp_path / "first.json")
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", cfg,
             "--prior", "leap", "--seed", "13", "--out", out1]
        )
        assert rc == 0
        doc = json.loads(open(out1).read())
        echoed = str(tmp_path / "echoed.json")
        open(echoed, "w").write(json.dumps(doc["config"]))
        out2 = str(tmp_path / "second.json")
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", echoed,
             "--prior", "leap", "--out", out2]
        )
        assert rc == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_validation_error_is_machine_readable(self, table1_files, tmp_path, capsys):
        cur, hist, cfg_path = table1_files
        bad = json.loads(open(cfg_path).read())
        bad["leap"]["alpha0"] = [-1.0, 1.0]
        bad["leap"]["trunc_a"] = 0.9
        bad["leap"]["trunc_b"] = 0.1
        bad_path = str(tmp_path / "bad.json")
        open(bad_path, "w").write(json.dumps(bad))
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", bad_path, "--prior", "leap"]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert any("alpha0" in v for v in err["violations"])
        assert any("truncation" in v for v in err["violations"])

    def test_fit_emit_draws_then_summarize_round_trip(self, table1_files, tmp_path):
        cur, hist, cfg = table1_files
        out = str(tmp_path / "summary.json")
        draws_path = str(tmp_path / "draws.csv")
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", cfg,
             "--prior", "leap", "--out", out, "--emit-draws", draws_path]
        )
        assert rc == 0
        out2 = str(tmp_path / "summary2.json")
        rc = main(["summarize", "--draws", draws_path, "--out", out2])
        assert rc == 0
        fit_doc = json.loads(open(out).read())
        sum_doc = json.loads(open(out2).read())
        fit_params = {p["name"]: p for p in fit_doc["parameters"]}
        for p in sum_doc["parameters"]:
            for field in ("mean", "sd", "ci_low", "ci_high"):
                assert p[field] == fit_params[p["name"]][field]

    def test_validation_error_exit_code(self, table1_files, tmp_path):
        cur, hist, cfg_path = table1_files
        bad = json.loads(open(cfg_path).read())
        bad["leap"]["alpha0"] = [-1.0, 1.0]
        bad_path = str(tmp_path / "bad.json")
        open(bad_path, "w").write(json.dumps(bad))
        rc = main(
            ["fit", "--data", cur, "--hist", hist, "--config", bad_path, "--prior", "leap"]
        )
        assert rc == 2

    def test_missing_file_exit_code(self, table1_files):
        _, hist, cfg = table1_files
        rc = main(
            ["fit", "--data", "/nonexistent.csv", "--hist", hist, "--config", cfg,
             "--prior", "leap"]
        )
        assert rc == 4


@pytest.fixture
def linear_files(tmp_path):
    rng = np.random.default_rng(77)
    n, n0 = 40, 20
    age = rng.normal(0, 1, size=n)
    z = (rng.random(n) < 0.5).astype(int)
    y = 2.0 + 1.5 * age - 3.0 * z + rng.normal(0, 1, size=n)
    cur = tmp_path / "lin_current.csv"
    with open(cur, "w") as fh:
        fh.write("y,z,intercept,age\n")
        for i in range(n):
            fh.write(f"{y[i]},{z[i]},1,{age[i]}\n")
    age0 = rng.normal(0, 1, size=n0)
    y0 = 2.0 + 1.5 * age0 + rng.normal(0, 1, size=n0)
    hist = tmp_path / "lin_hist.csv"
    with open(hist, "w") as fh:
        fh.write("y,intercept,age\n")
        for i in range(n0):
            fh.write(f"{y0[i]},1,{age0[i]}\n")
    ng = {"p": 3, "mu0": 0.0, "omega0": 0.01, "delta0": 0.02, "xi0": 0.02}
    cfg = tmp_path / "lin_config.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"kind": "normal_linear"},
                "leap": {
                    "K": 2,
                    "alpha0": [0.95, 0.95],
                    "component_priors": [ng, ng],
                },
                "npp": {"prior": ng, "a0_grid_size": 101},
                "reference": {"coef_sd": 10.0, "sigma_sd": 10.0},
                "sampler": {"draws": 2000, "burn_in": 400, "seed": 3},
            }
        )
    )
    return str(cur), str(hist), str(cfg)


class TestCliLinearFits:
    def test_reference_fit_matches_module_call(self, linear_files, tmp_path):
        cur, hist, cfg = linear_files
        out = str(tmp_path / "ref.json")
        rc = main(
            ["fit", "--data", cur, "--config", cfg, "--prior", "reference", "--out", out]
        )
        assert rc == 0
        doc = json.loads(open(out).read())
        from leapborrow import reference_posterior, summarize
        from leapborrow.comparators import ReferencePriorConfig
        from leapborrow.io import ingest_csv

        data = ingest_csv(cur, "current")
        draws = reference_posterior(
            data, ReferencePriorConfig(), n_draws=2000, burn_in=400, seed=3
        )
        module_summary = summarize(draws)
        cli_params = {p["name"]: p for p in doc["parameters"]}
        for p in module_summary.parameters:
            assert cli_params[p.name]["mean"] == p.mean
            assert cli_params[p.name]["sd"] == p.sd

    def test_leap_and_npbpp_recover_treatment_effect(self, linear_files, tmp_path):
        cur, hist, cfg = linear_files
        for prior in ("leap", "npbpp"):
            out = str(tmp_path / f"{prior}.json")
            rc = main(
                ["fit", "--data", cur, "--hist", hist, "--config", cfg,
                 "--prior", prior, "--out", out]
            )
            assert rc == 0
            doc = json.loads(open(out).read())
            trt = next(p for p in doc["parameters"] if p["name"] == "beta_1_3")
            assert abs(trt["mean"] + 3.0) < 1.0
            if prior == "leap":
                assert doc["ssc"] is not None


class TestCliEnumerate:
    def test_table_csv(self, table1_files, tmp_path):
        cur, hist, cfg = table1_files
        out = str(tmp_path / "table.csv")
        summary = str(tmp_path / "enum.json")
        rc = main(
            ["enumerate", "--data", cur, "--hist", hist, "--config", cfg,
             "--out", out, "--summary-out", summary]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        probs = {r["c0"]: float(r["post_prob"]) for r in rows}
        assert probs["1,1,1"] == pytest.approx(0.412, abs=0.005)
        doc = json.loads(open(summary).read())
        assert doc["post_mean"][0] == pytest.approx(1.66, abs=0.005)

    def test_cap_exit_code(self, tmp_path, table1_files):
        cur, _, cfg = table1_files
        big = tmp_path / "big.csv"
        big.write_text("y\n" + "\n".join(["1"] * 25) + "\n")
        out = str(tmp_path / "t.csv")
        rc = main(
            ["enumerate", "--data", cur, "--hist", str(big), "--config", cfg,
             "--out", out, "--cap", str(2**20)]
        )
        assert rc == 2

    def test_prior_only_table(self, table1_files, tmp_path):
        _, hist, cfg = table1_files
        out = str(tmp_path / "prior.csv")
        rc = main(["enumerate", "--hist", hist, "--config", cfg, "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert "post_prob" not in rows[0]
        assert float(rows[0]["prior_prob"]) == pytest.approx(0.319, abs=0.005)


def reference_partition_csv(path, table):
    """The table CSV row by row through ``csv.writer``, labels from ``itertools.product``."""
    dim = table.cond_prior_mean.shape[1]
    sfx = [""] if dim == 1 else [f"_{j + 1}" for j in range(dim)]
    post = table.has_posterior
    head = ["c0", "prior_prob"] + (["post_prob"] if post else [])
    head += [f"prior_mean{s}" for s in sfx] + ([f"post_mean{s}" for s in sfx] if post else [])
    labels = itertools.product(range(1, table.K + 1), repeat=table.n0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        for i, c0 in enumerate(labels):
            cells = [",".join(str(v) for v in c0), repr(float(table.prior_prob[i]))]
            if post:
                cells.append(repr(float(table.posterior_prob[i])))
            cells += [repr(float(v)) for v in table.cond_prior_mean[i]]
            if post:
                cells += [repr(float(v)) for v in table.cond_post_mean[i]]
            writer.writerow(cells)


class TestPartitionCsv:
    def _assert_same_bytes(self, table, tmp_path):
        write_partition_csv(str(tmp_path / "got.csv"), table)
        reference_partition_csv(str(tmp_path / "ref.csv"), table)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        return got

    def test_poisson_k2_with_data(self, tmp_path):
        # 2**13 rows: more than one block of label suffixes
        rng = np.random.default_rng(31)
        hist = HistoricalDataset(y0=rng.poisson(3.0, size=13).astype(float))
        data = Dataset(y=rng.poisson(2.0, size=9).astype(float))
        prior = PoissonGammaPrior(0.1, 0.1)
        cfg = LeapConfig(K=2, alpha0=np.array([0.9, 0.9]), component_priors=(prior, prior),
                         model_kind="poisson")
        got = self._assert_same_bytes(posterior_partition_table(data, hist, cfg), tmp_path)
        assert got.count(b"\r\n") == 2**13 + 1

    def test_poisson_k3_truncated_prior_only(self, tmp_path):
        rng = np.random.default_rng(32)
        hist = HistoricalDataset(y0=rng.poisson(3.0, size=8).astype(float))
        cfg = LeapConfig(
            K=3, alpha0=np.array([1.0, 0.8, 0.6]),
            component_priors=(PoissonGammaPrior(0.1, 0.1), PoissonGammaPrior(1.0, 1.0),
                              PoissonGammaPrior(2.0, 0.5)),
            model_kind="poisson", trunc_a=0.1, trunc_b=0.6,
        )
        got = self._assert_same_bytes(prior_partition_table(hist, cfg), tmp_path)
        assert b"post_prob" not in got

    def test_single_subject_label_is_unquoted(self, tmp_path):
        hist = HistoricalDataset(y0=np.array([4.0]))
        prior = PoissonGammaPrior(0.1, 0.1)
        cfg = LeapConfig(K=2, alpha0=np.array([1.0, 1.0]), component_priors=(prior, prior),
                         model_kind="poisson")
        data = Dataset(y=np.array([1.0, 2.0]))
        got = self._assert_same_bytes(posterior_partition_table(data, hist, cfg), tmp_path)
        lines = got.split(b"\r\n")
        assert lines[1].startswith(b"1,") and lines[2].startswith(b"2,")

    def test_linear_p3(self, tmp_path):
        data, hist, cfg = random_linear_instance(33, n=12, n0=7, p=3)
        got = self._assert_same_bytes(posterior_partition_table(data, hist, cfg), tmp_path)
        assert got.startswith(b"c0,prior_prob,post_prob,prior_mean_1,prior_mean_2,")
        assert got.splitlines()[1].startswith(b'"1,1,1,1,1,1,1",')

    def test_unmaterialized_table_is_rejected(self, tmp_path):
        rng = np.random.default_rng(34)
        hist = HistoricalDataset(y0=rng.poisson(3.0, size=4).astype(float))
        prior = PoissonGammaPrior(0.1, 0.1)
        cfg = LeapConfig(K=2, alpha0=np.array([1.0, 1.0]), component_priors=(prior, prior),
                         model_kind="poisson")
        lean = prior_partition_table(hist, cfg, materialize=False)
        with pytest.raises(ValidationError, match="not materialized"):
            write_partition_csv(str(tmp_path / "t.csv"), lean)


class TestCliWorkers:
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_enumerate_rejects_fewer_than_one(self, table1_files, tmp_path, capsys, workers):
        cur, hist, cfg = table1_files
        out = tmp_path / "t.csv"
        rc = main(["enumerate", "--data", cur, "--hist", hist, "--config", cfg,
                   "--workers", workers, "--out", str(out)])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_simulate_rejects_fewer_than_one(self, tmp_path, capsys, workers):
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--scenario", "full", "--n0", "10", "--reps", "2",
                   "--priors", "reference", "--draws", "100", "--burn-in", "10",
                   "--workers", workers, "--out", str(out)])
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestCliSsc:
    def test_pmf_mode(self, tmp_path, capsys):
        rc = main(["ssc", "--n0", "3", "--delta", "0.9", "0.9"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pmf"]) == 4
        assert sum(doc["pmf"]) == pytest.approx(1.0, abs=1e-10)

    def test_bound_mode(self, capsys):
        rc = main(["ssc", "--bound", "--n", "137", "--n0", "282"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"] == pytest.approx(0.4858, abs=1e-4)

    def test_solve_mode(self, capsys):
        rc = main(["ssc", "--solve", "--n0", "100", "--low", "20", "--high", "60",
                   "--mass", "0.95"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        lo, hi = doc["achieved"]
        assert abs(lo - 20) <= 1 and abs(hi - 60) <= 1


class TestCliSimulate:
    def test_small_simulation(self, tmp_path):
        out = str(tmp_path / "sim.json")
        reps_out = str(tmp_path / "reps.csv")
        rc = main(
            ["simulate", "--scenario", "full", "--n0", "12", "--reps", "2",
             "--priors", "reference", "--draws", "400", "--burn-in", "100",
             "--seed", "1", "--out", out, "--reps-out", reps_out]
        )
        assert rc == 0
        doc = json.loads(open(out).read())
        assert "reference" in doc["metrics"]
        with open(reps_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_worker_counts_byte_identical(self, tmp_path):
        outs = []
        for w, name in ((1, "w1.json"), (2, "w2.json")):
            out = str(tmp_path / name)
            rc = main(
                ["simulate", "--scenario", "half", "--q", "0.5", "--n0", "10",
                 "--reps", "2", "--priors", "leap", "--draws", "300",
                 "--burn-in", "50", "--seed", "3", "--workers", str(w), "--out", out]
            )
            assert rc == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_unknown_prior_exit(self, tmp_path):
        rc = main(
            ["simulate", "--scenario", "full", "--n0", "10", "--reps", "1",
             "--priors", "nope", "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2
