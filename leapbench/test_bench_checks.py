"""Each benchmark output check passes on real program output and fails on a perturbed copy.

Run from the repository root with ``python -m pytest leapbench``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from leapborrow import cli  # noqa: E402

WORKED_Y = [1, 2] * 5
WORKED_Y0 = [1, 2, 6]
GAMMA_PRIORS = [(0.1, 0.1), (0.1, 0.1)]


def _write(path, text):
    path.write_text(text)
    return str(path)


def _poisson_inputs(tmp_path, y0, trunc_b=1.0, draws=4000):
    cur = _write(tmp_path / "cur.csv", "y\n" + "\n".join(map(str, WORKED_Y)) + "\n")
    hist = _write(tmp_path / "hist.csv", "y\n" + "\n".join(map(str, y0)) + "\n")
    cfg = {"model": {"kind": "poisson"},
           "leap": {"K": 2, "alpha0": [1.0, 1.0], "trunc_a": 0.0, "trunc_b": trunc_b,
                    "component_priors": [{"eta0": e, "beta0": b} for e, b in GAMMA_PRIORS]},
           "sampler": {"draws": draws, "burn_in": 500, "seed": 3}}
    return cur, hist, _write(tmp_path / "cfg.json", json.dumps(cfg))


def _run(argv):
    assert cli.main(argv) == 0


def test_worked_example_reference_matches_published_mean():
    labels = np.array(np.meshgrid([1, 2], [1, 2], [1, 2], indexing="ij")).reshape(3, -1).T
    prob, mean1 = checks.poisson_reference(labels, WORKED_Y, WORKED_Y0, GAMMA_PRIORS, [1.0, 1.0])
    assert prob.sum() == pytest.approx(1.0)
    assert float(prob @ mean1) == pytest.approx(1.6623, abs=5e-4)


def test_table_check_fails_on_probability_scaled_by_1_001(tmp_path):
    cur, hist, cfg = _poisson_inputs(tmp_path, [1, 2, 6, 0, 3, 4])
    table, summary = str(tmp_path / "t.csv"), str(tmp_path / "t.json")
    _run(["enumerate", "--data", cur, "--hist", hist, "--config", cfg, "--out", table,
          "--summary-out", summary])
    rows = checks.read_rows(table)
    doc = checks.load_json(summary)
    labels = checks.table_labels(rows)
    y0 = checks.read_counts(hist)
    pp, pm = checks.poisson_reference(labels, None, y0, GAMMA_PRIORS, [1.0, 1.0])
    qp, qm = checks.poisson_reference(labels, WORKED_Y, y0, GAMMA_PRIORS, [1.0, 1.0])
    ref = (pp, qp, pm[:, None], qm[:, None])
    assert checks.check_table(rows, doc, *ref, "table") == []
    for column in ("prior_prob", "post_prob"):
        bad = [dict(r) for r in rows]
        bad[5][column] = repr(float(bad[5][column]) * 1.001)
        assert checks.check_table(bad, doc, *ref, "table")


def test_linear_table_check_fails_on_probability_scaled_by_1_001(tmp_path):
    rng = np.random.default_rng(0)
    x, x0 = rng.standard_normal(8), rng.standard_normal(5)
    z = [0, 1] * 4
    y = 1.0 + x - np.array(z) + rng.standard_normal(8)
    y0 = 1.0 + x0 + rng.standard_normal(5)
    cur = _write(tmp_path / "cur.csv", "y,z,one,x1\n" + "".join(
        f"{a!r},{b},1,{c!r}\n" for a, b, c in zip(y.tolist(), z, x.tolist())))
    hist = _write(tmp_path / "hist.csv", "y,one,x1\n" + "".join(
        f"{a!r},1,{c!r}\n" for a, c in zip(y0.tolist(), x0.tolist())))
    priors = [{"mu0": [0.0] * 3, "omega0": 0.1, "delta0": 1.0, "xi0": 1.0},
              {"mu0": [0.0] * 3, "omega0": 0.5, "delta0": 2.0, "xi0": 2.0}]
    cfg = _write(tmp_path / "cfg.json", json.dumps(
        {"model": {"kind": "normal_linear"},
         "leap": {"K": 2, "alpha0": [0.9, 0.9], "component_priors": priors}}))
    table, summary = str(tmp_path / "t.csv"), str(tmp_path / "t.json")
    _run(["enumerate", "--data", cur, "--hist", hist, "--config", cfg, "--out", table,
          "--summary-out", summary])
    rows = checks.read_rows(table)
    doc = checks.load_json(summary)
    curd = checks.read_linear_csv(cur, True)
    histd = checks.read_linear_csv(hist, False)
    ng = [checks.ng_prior(p, 3) for p in priors]
    labels = checks.table_labels(rows)
    pp, pm = checks.linear_reference(labels, None, histd, ng, np.array([0.9, 0.9]))
    qp, qm = checks.linear_reference(labels, curd, histd, ng, np.array([0.9, 0.9]))
    assert checks.check_table(rows, doc, pp, qp, pm, qm, "lin") == []
    bad = [dict(r) for r in rows]
    bad[3]["post_prob"] = repr(float(bad[3]["post_prob"]) * 1.001)
    assert checks.check_table(bad, doc, pp, qp, pm, qm, "lin")


def test_mean_check_fails_on_mean_shifted_by_5_mcse(tmp_path):
    cur, hist, cfg = _poisson_inputs(tmp_path, WORKED_Y0)
    out = str(tmp_path / "fit.json")
    _run(["fit", "--data", cur, "--hist", hist, "--config", cfg, "--prior", "leap",
          "--out", out])
    doc = checks.load_json(out)
    labels = np.array(np.meshgrid([1, 2], [1, 2], [1, 2], indexing="ij")).reshape(3, -1).T
    prob, mean1 = checks.poisson_reference(labels, WORKED_Y, WORKED_Y0, GAMMA_PRIORS, [1.0, 1.0])
    exact = float(prob @ mean1)
    assert checks.check_mean_within(doc, "theta_1", exact, "worked") == []
    p = checks.param(doc, "theta_1")
    p["mean"] = exact + 5 * p["mcse"]
    assert checks.check_mean_within(doc, "theta_1", exact, "worked")


def test_gamma_check_fails_on_gamma_outside_interval(tmp_path):
    cur, hist, cfg = _poisson_inputs(tmp_path, WORKED_Y0, trunc_b=0.5, draws=800)
    draws = str(tmp_path / "draws.csv")
    _run(["fit", "--data", cur, "--hist", hist, "--config", cfg, "--prior", "leap",
          "--out", str(tmp_path / "fit.json"), "--emit-draws", draws])
    rows = checks.read_rows(draws)
    assert checks.check_gamma_inside(rows, 0.0, 0.5, "trunc") == []
    assert checks.check_counts_sum(rows, 3, "trunc") == []
    rows[7]["gamma_1"] = "0.5"
    assert checks.check_gamma_inside(rows, 0.0, 0.5, "trunc")


def test_identity_check_fails_on_one_changed_byte(tmp_path):
    # 2^13 partitions span two enumeration blocks, so --workers 2 uses the pool
    cur, hist, cfg = _poisson_inputs(tmp_path, [1, 2, 6, 0, 3, 4, 2, 5, 1, 1, 7, 2, 3])
    for w in ("1", "2"):
        _run(["enumerate", "--data", cur, "--hist", hist, "--config", cfg, "--workers", w,
              "--out", str(tmp_path / f"w{w}.csv"), "--summary-out", str(tmp_path / f"w{w}.json")])
    w1, w2 = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
    assert checks.check_identical(w1, w2, "workers") == []
    data = bytearray(open(w2, "rb").read())
    data[len(data) // 2] ^= 0x01
    open(w2, "wb").write(bytes(data))
    assert checks.check_identical(w1, w2, "workers")


def test_bias_check_fails_on_estimates_shifted_by_5_se():
    rng = np.random.default_rng(1)
    truth, sd = -35.39, 8.0
    est = (truth + sd * rng.standard_normal(12)).tolist()
    rows = [{"prior": "leap", "estimate": repr(e), "ci_low": repr(e - 1.96 * sd),
             "ci_high": repr(e + 1.96 * sd)} for e in est]
    assert checks.check_bias(rows, "leap", truth, "oc") == []
    shift = 5 * sd / np.sqrt(len(est)) + abs(np.mean(est) - truth)
    for r in rows:
        for key in ("estimate", "ci_low", "ci_high"):
            r[key] = repr(float(r[key]) + float(shift))
    assert checks.check_bias(rows, "leap", truth, "oc")


def test_ssc_interval_matches_program_rule():
    from leapborrow.elicitation import ssc_interval, ssc_prior_pmf_beta

    for d1, d2 in ((2.0, 3.0), (0.5, 0.7), (12.0, 20.0)):
        want = ssc_interval(ssc_prior_pmf_beta(100, d1, d2), 0.95)
        assert checks.ssc_interval_betabinom(100, d1, d2, 0.95) == want
