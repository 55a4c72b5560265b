"""Output checks, computed apart from the program and outside the timed region.

Exact quantities (partition tables, the worked example, the npbpp and
reference posteriors) are recomputed here from closed forms that share no
code with ``leapborrow``: gamma-Poisson marginals, the truncated-Dirichlet
integral, multivariate-t class marginals with ``slogdet``, and a 1-D
quadrature over the outcome SD.  Monte Carlo outputs are compared with them
in units of the reported Monte Carlo standard error.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import betaln, gammaln, logsumexp

from workloads import LINEAR_PRIOR, OC_CELLS, REFERENCE, SOLVE_ARGS, WORKED_Y, WORKED_Y0

MCSE_LIMIT = 4.0
SE_LIMIT = 4.0
EXACT_RTOL = 1e-8
MEAN_ATOL = 1e-12  # absolute floor for conditional means that are exactly 0
Z95 = 1.959963984540054
TRUE_EFFECT = -35.39  # the treatment effect simulate generates every scenario with


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def param(doc, name):
    for p in doc["parameters"]:
        if p["name"] == name:
            return p
    raise KeyError(name)


# ---------------------------------------------------------------------------
# reference computations


def log_trunc_dirichlet(v: np.ndarray, a: float, b: float) -> np.ndarray:
    """Log of the integral of prod(g_k^(v_k - 1)) over the simplex with a < g_1 < b.

    ``v`` has one row per partition.  The first coordinate is a truncated
    beta; the rescaled tail integrates to a multivariate beta function.
    """
    v1 = v[:, 0]
    rest = v[:, 1:].sum(axis=1)
    lo = stats.beta.cdf(a, v1, rest)
    hi = stats.beta.cdf(b, v1, rest)
    # take the difference on the side of the distribution where it is accurate
    mass = np.where(lo < 0.5, hi - lo, stats.beta.sf(a, v1, rest) - stats.beta.sf(b, v1, rest))
    with np.errstate(divide="ignore"):
        out = betaln(v1, rest) + np.log(mass)
    if v.shape[1] > 2:
        out = out + gammaln(v[:, 1:]).sum(axis=1) - gammaln(rest)
    return out


def gamma_poisson_log_marginal(eta, beta, s, m, log_fact):
    """Log marginal of m counts with sum s (and sum of log y! = log_fact) under Gamma(eta, beta)."""
    return (eta * np.log(beta) - gammaln(eta) + gammaln(eta + s)
            - (eta + s) * np.log(beta + m) - log_fact)


def poisson_reference(labels, y, y0, priors, alpha, a=0.0, b=1.0):
    """Partition probabilities and first-component means for the Poisson model.

    ``labels`` is (partitions x n0) with entries 1..K; ``y`` is None for the
    table induced by the historical data alone.  Returns (prob, mean1).
    """
    K = len(alpha)
    y0 = np.asarray(y0, dtype=float)
    lf0 = gammaln(y0 + 1.0)
    logw = np.zeros(labels.shape[0])
    counts = np.empty((labels.shape[0], K))
    for k in range(K):
        mask = (labels == k + 1).astype(float)
        m, s, lf = mask.sum(axis=1), mask @ y0, mask @ lf0
        counts[:, k] = m
        if k == 0:
            if y is not None:
                ya = np.asarray(y, dtype=float)
                m, s, lf = m + ya.size, s + ya.sum(), lf + gammaln(ya + 1.0).sum()
            eta, beta = priors[0]
            mean1 = (eta + s) / (beta + m)
        eta, beta = priors[k]
        logw += gamma_poisson_log_marginal(eta, beta, s, m, lf)
    logw += log_trunc_dirichlet(counts + np.asarray(alpha, dtype=float), a, b)
    return np.exp(logw - logsumexp(logw)), mean1


def mvt_log_marginal(y, X, mu0, omega0, delta0, xi0) -> float:
    """Log density of y under the normal-gamma prior: a multivariate t."""
    m = y.size
    if m == 0:
        return 0.0
    S = (xi0 / delta0) * (np.eye(m) + X @ np.linalg.solve(omega0, X.T))
    r = y - X @ mu0
    sign, logdet = np.linalg.slogdet(S)
    q = float(r @ np.linalg.solve(S, r))
    nu = delta0
    return float(gammaln((nu + m) / 2.0) - gammaln(nu / 2.0) - 0.5 * m * np.log(nu * np.pi)
                 - 0.5 * logdet - 0.5 * (nu + m) * np.log1p(q / nu))


def linear_reference(labels, cur, hist, priors, alpha):
    """Partition probabilities and first-component coefficient means, linear model.

    ``cur`` is (y, X) with the treatment column last, or None; ``hist`` is
    (y0, X0) already padded with a zero treatment column.  ``priors`` holds
    (mu0, omega0, delta0, xi0) per component.  Untruncated weights.
    """
    y0, X0 = hist
    K = len(alpha)
    logw = np.empty(labels.shape[0])
    means = np.empty((labels.shape[0], X0.shape[1]))
    for i, lab in enumerate(labels):
        total = 0.0
        for k in range(K):
            sel = lab == k + 1
            yk, Xk = y0[sel], X0[sel]
            if k == 0 and cur is not None:
                yk, Xk = np.concatenate([cur[0], yk]), np.vstack([cur[1], Xk])
            mu0, omega0, delta0, xi0 = priors[k]
            total += mvt_log_marginal(yk, Xk, mu0, omega0, delta0, xi0)
            if k == 0:
                means[i] = np.linalg.solve(omega0 + Xk.T @ Xk, omega0 @ mu0 + Xk.T @ yk)
        counts = np.array([(lab == k + 1).sum() for k in range(K)], dtype=float)
        total += float(np.sum(gammaln(counts + alpha)) - gammaln(np.sum(counts + alpha)))
        logw[i] = total
    return np.exp(logw - logsumexp(logw)), means


def reference_prior_means(y, X, coef_sd, sigma_sd, points=4001):
    """Posterior coefficient means under N(0, coef_sd^2 I) x half-normal(sigma_sd) on sigma.

    Integrates the normal conditional mean against the marginal posterior of
    sigma on a log-sigma grid; the marginal likelihood uses ``slogdet``.
    """
    n, p = X.shape
    XtX, Xty, yty = X.T @ X, X.T @ y, float(y @ y)
    sig_hat = np.sqrt(np.sum((y - X @ np.linalg.lstsq(X, y, rcond=None)[0]) ** 2) / (n - p))
    log_s = np.linspace(np.log(sig_hat) - 2.0, np.log(sig_hat) + 2.0, points)
    logpost = np.empty(points)
    means = np.empty((points, p))
    c2 = coef_sd**2
    for i, ls in enumerate(log_s):
        s2 = np.exp(2.0 * ls)
        A = XtX + (s2 / c2) * np.eye(p)
        m = np.linalg.solve(A, Xty)
        _, logdet = np.linalg.slogdet(np.eye(p) + (c2 / s2) * XtX)
        quad = (yty - Xty @ m) / s2
        loglik = -0.5 * (n * np.log(2 * np.pi * s2) + logdet + quad)
        # half-normal prior on sigma, plus the Jacobian of sigma = exp(log sigma)
        logpost[i] = loglik - s2 / (2.0 * sigma_sd**2) + ls
        means[i] = m
    w = np.exp(logpost - logpost.max())
    w /= trapezoid(w, log_s)
    return trapezoid(w[:, None] * means, log_s, axis=0)


def ng_weighted_log_marginal(blocks, mu0, omega0, delta0, xi0):
    """Log of the integral of prod_b N(y_b | X_b beta, 1/tau)^w_b under a normal-gamma prior.

    Returns (log marginal, conditional posterior mean of the coefficients).
    """
    P = omega0.copy()
    h = omega0 @ mu0
    ss = float(mu0 @ omega0 @ mu0)
    n_eff = 0.0
    for X, y, w in blocks:
        P = P + w * (X.T @ X)
        h = h + w * (X.T @ y)
        ss += w * float(y @ y)
        n_eff += w * y.size
    mean = np.linalg.solve(P, h)
    rate = 0.5 * (xi0 + ss - float(h @ mean))
    shape = 0.5 * (delta0 + n_eff)
    _, ld0 = np.linalg.slogdet(omega0)
    _, ld1 = np.linalg.slogdet(P)
    logm = (-0.5 * n_eff * np.log(2 * np.pi) + 0.5 * ld0 - 0.5 * ld1
            + 0.5 * delta0 * np.log(0.5 * xi0) - gammaln(0.5 * delta0)
            + gammaln(shape) - shape * np.log(rate))
    return float(logm), mean


def npbpp_mean(cur, hist, prior, grid_size):
    """Posterior mean of the coefficients under the normalized power prior, uniform a0 grid."""
    y, X = cur
    y0, X0 = hist
    grid = np.linspace(0.0, 1.0, grid_size)
    logw = np.empty(grid_size)
    means = np.empty((grid_size, X.shape[1]))
    for i, a0 in enumerate(grid):
        joint, m = ng_weighted_log_marginal([(X, y, 1.0), (X0, y0, a0)], *prior)
        norm, _ = ng_weighted_log_marginal([(X0, y0, a0)], *prior)
        logw[i] = joint - norm
        means[i] = m
    pmf = np.exp(logw - logsumexp(logw))
    return pmf @ means


def ssc_interval_betabinom(n0, d1, d2, mass):
    """Equal-tail borrowed-count interval of BetaBinomial(n0, d1, d2)."""
    cdf = stats.betabinom.cdf(np.arange(n0 + 1), n0, d1, d2)
    tail = (1.0 - mass) / 2.0
    left = np.concatenate([[0.0], cdf[:-1]])
    low = int(np.flatnonzero(left <= tail + 1e-12).max())
    high = int(np.flatnonzero(cdf >= 1.0 - tail - 1e-12).min())
    return low, high


# ---------------------------------------------------------------------------
# checks on outputs


def check_mean_within(doc, name, exact, label, limit=MCSE_LIMIT):
    p = param(doc, name)
    if not abs(p["mean"] - exact) <= limit * p["mcse"]:
        return [f"{label}: {name} mean {p['mean']!r} is {abs(p['mean'] - exact) / p['mcse']:.2f} "
                f"MCSE from the exact {exact!r} (limit {limit})"]
    return []


def check_counts_sum(rows, n0, label):
    cols = [c for c in rows[0] if c.startswith("n0_")]
    bad = [i for i, r in enumerate(rows) if sum(float(r[c]) for c in cols) != n0]
    return [f"{label}: {len(bad)} draws whose class counts do not sum to n0={n0}"] if bad else []


def check_gamma_inside(rows, a, b, label):
    bad = [i for i, r in enumerate(rows) if not a < float(r["gamma_1"]) < b]
    if bad:
        return [f"{label}: {len(bad)} gamma_1 draws outside ({a}, {b}), first at row {bad[0] + 2}"]
    return []


def check_same_summary(fit_doc, sum_doc, label):
    if fit_doc["parameters"] != sum_doc["parameters"] or fit_doc["ci_mass"] != sum_doc["ci_mass"]:
        return [f"{label}: summarize of the emitted draws differs from the fit summary"]
    return []


def check_identical(path_a, path_b, label):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            return [f"{label}: {os.path.basename(path_a)} and {os.path.basename(path_b)} differ"]
    return []


def check_same_files(dir_a, dir_b):
    """Every output file of round ``dir_a`` is reproduced byte for byte in ``dir_b``."""
    problems = []
    for name in sorted(os.listdir(dir_a)):
        path_b = os.path.join(dir_b, name)
        if not os.path.exists(path_b):
            problems.append(f"{os.path.basename(dir_b)}: {name} missing")
        else:
            problems += check_identical(os.path.join(dir_a, name), path_b,
                                        f"{os.path.basename(dir_b)} vs the first round")
    return problems


def _close(got, want, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= EXACT_RTOL * np.maximum(np.abs(got), np.abs(want))
                       + atol))


def check_table(rows, summary, prob_prior, prob_post, mean_prior, mean_post, label):
    """Compare every row of a partition table and its summary with the reference.

    Reference arrays are aligned with ``rows``; ``*_post`` are None for a
    table built without current data.
    """
    problems = []
    dim = mean_prior.shape[1]
    sfx = [""] if dim == 1 else [f"_{j + 1}" for j in range(dim)]
    n01 = np.array([r["c0"].split(",").count("1") for r in rows])
    n0 = len(rows[0]["c0"].split(","))
    sides = [("prior", prob_prior, mean_prior)]
    if prob_post is not None:
        sides.append(("post", prob_post, mean_post))
    for side, prob, mean in sides:
        got_p = np.array([float(r[f"{side}_prob"]) for r in rows])
        got_m = np.array([[float(r[f"{side}_mean{s}"]) for s in sfx] for r in rows])
        if not _close(got_p, prob, 1e-300):
            problems.append(f"{label}: {side}_prob differs from the reference beyond {EXACT_RTOL}")
        if not _close(got_m, mean, MEAN_ATOL):
            problems.append(f"{label}: {side}_mean differs from the reference beyond {EXACT_RTOL}")
        if not _close(summary[f"{side}_ssc"], np.bincount(n01, prob, n0 + 1), 1e-300):
            problems.append(f"{label}: {side}_ssc differs from the reference")
        if not _close(summary[f"{side}_mean"], prob @ mean, MEAN_ATOL):
            problems.append(f"{label}: summary {side}_mean differs from the reference")
    return problems


def check_bias(rows, prior, truth, label, limit=SE_LIMIT):
    """Mean error of one prior's treatment estimates within ``limit`` standard errors.

    The standard error comes from the replications' posterior SDs (95%
    interval width / 3.92): under a calibrated posterior they equal the
    sampling SD of the estimate, and unlike a sample SD from a dozen
    replications they do not give the check heavy t tails.
    """
    sel = [r for r in rows if r["prior"] == prior]
    est = np.array([float(r["estimate"]) for r in sel])
    psd = np.array([(float(r["ci_high"]) - float(r["ci_low"])) / (2 * Z95) for r in sel])
    err = est.mean() - truth
    se = np.sqrt(np.mean(psd**2) / est.size)
    if not abs(err) <= limit * se:
        return [f"{label}: {prior} mean error {err:.3f} over {est.size} replications is "
                f"{abs(err) / se:.2f} standard errors from 0 (limit {limit})"]
    return []


# ---------------------------------------------------------------------------
# input readers for the reference computations


def read_linear_csv(path, with_treatment):
    rows = read_rows(path)
    y = np.array([float(r["y"]) for r in rows])
    cols = [c for c in rows[0] if c not in ("y", "z")]
    X = np.array([[float(r[c]) for c in cols] for r in rows])
    if with_treatment:
        X = np.column_stack([X, [float(r["z"]) for r in rows]])
    else:
        X = np.column_stack([X, np.zeros(len(rows))])
    return y, X


def read_counts(path):
    return np.array([float(r["y"]) for r in read_rows(path)])


def ng_prior(entry, p):
    mu0 = np.asarray(entry["mu0"], dtype=float)
    om = entry["omega0"]
    omega0 = float(om) * np.eye(p) if np.isscalar(om) else np.asarray(om, dtype=float)
    return mu0, omega0, float(entry["delta0"]), float(entry["xi0"])


def table_labels(rows):
    return np.array([[int(v) for v in r["c0"].split(",")] for r in rows])


# ---------------------------------------------------------------------------
# per-workload checks on one round's outputs


def fit_session(inputs_dir, rdir, facts):
    def j(name):
        return os.path.join(rdir, name)

    def inp(name):
        return os.path.join(inputs_dir, name)

    problems = []
    worked = load_json(inp("worked.json"))["leap"]
    labels = np.array(np.meshgrid(*[[1, 2]] * len(WORKED_Y0), indexing="ij")).reshape(
        len(WORKED_Y0), -1).T
    priors = [(p["eta0"], p["beta0"]) for p in worked["component_priors"]]
    prob, mean1 = poisson_reference(labels, WORKED_Y, WORKED_Y0, priors, worked["alpha0"])
    problems += check_mean_within(load_json(j("worked.json")), "theta_1", float(prob @ mean1),
                                  "worked example")

    n0 = facts["n0"]
    problems += check_counts_sum(read_rows(j("leap_draws.csv")), n0, "leap draws")
    problems += check_same_summary(load_json(j("leap.json")), load_json(j("summarize.json")),
                                   "leap draws")
    trunc = load_json(inp("linear_trunc.json"))["leap"]
    trunc_rows = read_rows(j("trunc_draws.csv"))
    problems += check_counts_sum(trunc_rows, n0, "truncated draws")
    problems += check_gamma_inside(trunc_rows, trunc["trunc_a"], trunc["trunc_b"],
                                   "truncated draws")
    if load_json(j("bound.json"))["bound"] != facts["bound"]:
        problems.append(f"ssc --bound: {load_json(j('bound.json'))['bound']!r} != "
                        f"{facts['bound']!r}")

    y, X = read_linear_csv(inp("trial_cur.csv"), True)
    ref = reference_prior_means(y, X, REFERENCE["coef_sd"], REFERENCE["sigma_sd"])
    ref_doc = load_json(j("reference.json"))
    for k in range(X.shape[1]):
        problems += check_mean_within(ref_doc, f"beta_1_{k + 1}", float(ref[k]), "reference fit")
    y0, X0 = read_linear_csv(inp("trial_hist.csv"), False)
    npp = load_json(inp("npbpp.json"))["npp"]
    m = npbpp_mean((y, X), (y0, X0), ng_prior(LINEAR_PRIOR, X.shape[1]), npp["a0_grid_size"])
    problems += check_mean_within(load_json(j("npbpp.json")), f"beta_1_{X.shape[1]}",
                                  float(m[-1]), "npbpp fit")

    big = load_json(j("big.json"))
    big_n0 = len(read_rows(inp("big_hist.csv")))
    sampler = load_json(inp("big_poisson.json"))["sampler"]
    pmf = np.array(big["ssc"]["pmf"])
    counts = param(big, "n0_1")["mean"] + param(big, "n0_2")["mean"]
    if (pmf.size != big_n0 + 1 or abs(pmf.sum() - 1.0) > 1e-9
            or abs(counts - big_n0) > 1e-9 * big_n0
            or big["n_retained_draws"] != sampler["chains"] * (sampler["draws"]
                                                                - sampler["burn_in"])):
        problems.append("large-history Poisson fit: borrowed-count summary inconsistent")

    solve = load_json(j("solve.json"))
    opts = dict(zip(SOLVE_ARGS[::2], SOLVE_ARGS[1::2]))
    low, high = ssc_interval_betabinom(int(opts["--n0"]), solve["delta01"], solve["delta02"],
                                       float(opts["--mass"]))
    if abs(low - int(opts["--low"])) > 1 or abs(high - int(opts["--high"])) > 1:
        problems.append(f"ssc --solve: shapes give the interval ({low}, {high}), target "
                        f"({opts['--low']}, {opts['--high']})")
    return problems


def oc_grid(rdirs, rerun_dir, rerun_cell):
    problems = []
    rows = []
    for rdir in rdirs:
        rows += read_rows(os.path.join(rdir, "cell0_reps.csv"))
        for c in range(len(OC_CELLS)):
            doc = load_json(os.path.join(rdir, f"cell{c}.json"))
            if doc["truth"] != TRUE_EFFECT:
                problems.append(f"{rdir}: cell{c} truth {doc['truth']!r} != {TRUE_EFFECT!r}")
            for prior, m in doc["metrics"].items():
                if not (0.0 <= m["coverage"] <= 1.0 and np.isfinite(m["mse"]) and m["mse"] >= 0):
                    problems.append(f"{rdir}: cell{c} {prior} metrics out of range")
    for prior in ("leap", "npbpp"):
        problems += check_bias(rows, prior, TRUE_EFFECT, "oc-grid full")
    for suffix in (".json", "_reps.csv"):
        name = f"cell{rerun_cell}{suffix}"
        problems += check_identical(os.path.join(rdirs[0], name), os.path.join(rerun_dir, name),
                                    "oc-grid --workers 1 rerun")
    return problems


def exact_check(inputs_dir, rdir):
    def j(name):
        return os.path.join(rdir, name)

    def inp(name):
        return os.path.join(inputs_dir, name)

    problems = []
    for stem, tables in (("p2", ("p2_w2",)), ("p3", ("p3_post", "p3_prior"))):
        leap = load_json(inp(f"{stem}.json"))["leap"]
        priors = [(p["eta0"], p["beta0"]) for p in leap["component_priors"]]
        trunc = (leap.get("trunc_a", 0.0), leap.get("trunc_b", 1.0))
        y0 = read_counts(inp(f"{stem}_hist.csv"))
        for name in tables:
            rows = read_rows(j(f"{name}.csv"))
            labels = table_labels(rows)
            pp, pm = poisson_reference(labels, None, y0, priors, leap["alpha0"], *trunc)
            qp = qm = None
            if "post_prob" in rows[0]:
                y = read_counts(inp(f"{stem}_cur.csv"))
                qp, qm = poisson_reference(labels, y, y0, priors, leap["alpha0"], *trunc)
                qm = qm[:, None]
            problems += check_table(rows, load_json(j(f"{name}.json")), pp, qp, pm[:, None], qm,
                                    name)
    problems += check_identical(j("p2_w1.csv"), j("p2_w2.csv"), "enumerate --workers 1 vs 2")

    leap = load_json(inp("lin.json"))["leap"]
    cur = read_linear_csv(inp("lin_cur.csv"), True)
    hist = read_linear_csv(inp("lin_hist.csv"), False)
    p = cur[1].shape[1]
    priors = [ng_prior(e, p) for e in leap["component_priors"]]
    alpha = np.asarray(leap["alpha0"], dtype=float)
    rows = read_rows(j("lin.csv"))
    labels = table_labels(rows)
    pp, pm = linear_reference(labels, None, hist, priors, alpha)
    qp, qm = linear_reference(labels, cur, hist, priors, alpha)
    problems += check_table(rows, load_json(j("lin.json")), pp, qp, pm, qm, "lin")
    return problems
