"""Benchmark workloads: inputs built from the workload seed, and request rounds.

Every workload is a closed loop with one client: the runner sends the
requests of a round one after another through ``leapborrow.cli.main`` and
repeats whole rounds.  Requests name their files relative to the round's
own directory (the runner changes into it), so outputs embed the same paths
in every round and rounds can be compared byte for byte.

Sizes are fixed; the seed changes only the data values and the program's
``--seed``, so the work per round is the same for every seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

# fit-session trial, sized like the README truncation example
TRIAL_N = 137
TRIAL_N0 = 282
TRIAL_BETA = np.array([10.0, 4.0, -3.0])  # intercept, x1, x2
TRIAL_EFFECT = -8.0
TRIAL_SIGMA = 10.0
TRIAL_SHIFT = 12.0  # intercept shift of the non-exchangeable third of the history
BIG_N = 60
BIG_N0 = 1200
WORKED_Y = [1, 2] * 5
WORKED_Y0 = [1, 2, 6]
SOLVE_ARGS = ("--n0", "100", "--low", "20", "--high", "60", "--mass", "0.95")

LINEAR_PRIOR = {"mu0": [0.0] * 4, "omega0": 0.01, "delta0": 0.02, "xi0": 0.02}
REFERENCE = {"coef_sd": 100.0, "sigma_sd": 50.0}

# oc-grid cells: (scenario, q, reps).  Equal sizes keep the request median
# on one kind of request; q does not act on the full scenario.
OC_CELLS = (("full", 0.5, 2), ("half", 0.5, 2), ("half", 0.8, 2), ("none", 0.5, 2), ("none", 0.8, 2))
OC_N0 = 40
OC_N_EXTRA = 20
OC_DRAWS = 600
OC_BURN_IN = 100
OC_PRIORS = ("leap", "npbpp", "reference")
OC_RERUN_CELL = 1  # index of the cell rerun with --workers 1 after the timed run

# exact-check inputs
ENUM_P2_N, ENUM_P2_N0 = 20, 15
ENUM_P3_N, ENUM_P3_N0 = 15, 9
ENUM_P3_TRUNC = (0.1, 0.8)
ENUM_LIN_N, ENUM_LIN_N0 = 12, 9
WARM_N0 = 4


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple


@dataclass
class Workload:
    """One workload: its seed-built inputs and the requests of each round."""

    seed: int
    inputs: dict = field(default_factory=dict)  # facts the checks need

    def build(self, inputs_dir: str):
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError

    def round(self, index: int) -> list:
        raise NotImplementedError

    @property
    def repeats(self) -> bool:
        """Whether every round sends identical requests (outputs must match round 0)."""
        return True


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def write_csv(path: str, header: list, columns: list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])


def write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _sampler(seed, draws, burn_in, chains=1):
    return {"draws": draws, "burn_in": burn_in, "thin": 1, "chains": chains, "seed": seed}


def _gamma_priors(pairs):
    return [{"eta0": e, "beta0": b} for e, b in pairs]


# ---------------------------------------------------------------------------
# fit-session


class FitSession(Workload):
    """One analyst's requests on a two-arm linear trial plus two Poisson studies."""

    def build(self, inputs_dir: str):
        rng = _rng(self.seed, 1)
        n, n0 = TRIAL_N, TRIAL_N0
        x = rng.standard_normal((n, 2))
        z = (rng.random(n) < 2.0 / 3.0).astype(int)
        y = TRIAL_BETA[0] + x @ TRIAL_BETA[1:] + TRIAL_EFFECT * z + TRIAL_SIGMA * rng.standard_normal(n)
        x0 = rng.standard_normal((n0, 2))
        shift = np.where(np.arange(n0) < (2 * n0) // 3, 0.0, TRIAL_SHIFT)
        y0 = TRIAL_BETA[0] + shift + x0 @ TRIAL_BETA[1:] + TRIAL_SIGMA * rng.standard_normal(n0)
        write_csv(
            os.path.join(inputs_dir, "trial_cur.csv"), ["y", "z", "one", "x1", "x2"],
            [list(map(float, y)), list(map(int, z)), [1] * n, list(map(float, x[:, 0])), list(map(float, x[:, 1]))],
        )
        write_csv(
            os.path.join(inputs_dir, "trial_hist.csv"), ["y", "one", "x1", "x2"],
            [list(map(float, y0)), [1] * n0, list(map(float, x0[:, 0])), list(map(float, x0[:, 1]))],
        )
        bound = min(n / n0, 1.0)
        leap = {"K": 2, "alpha0": [1.0, 1.0], "component_priors": [LINEAR_PRIOR, LINEAR_PRIOR]}
        model = {"kind": "normal_linear"}
        write_json(os.path.join(inputs_dir, "linear_leap.json"),
                   {"model": model, "leap": leap, "sampler": _sampler(self.seed, 3000, 500)})
        write_json(os.path.join(inputs_dir, "linear_trunc.json"),
                   {"model": model, "leap": dict(leap, trunc_a=0.0, trunc_b=bound),
                    "sampler": _sampler(self.seed, 1200, 200)})
        write_json(os.path.join(inputs_dir, "npbpp.json"),
                   {"model": model, "npp": {"prior": LINEAR_PRIOR, "a0_prior": {"kind": "uniform"},
                                            "a0_grid_size": 1001},
                    "sampler": _sampler(self.seed, 5000, 0)})
        write_json(os.path.join(inputs_dir, "reference.json"),
                   {"model": model, "reference": REFERENCE, "sampler": _sampler(self.seed, 3000, 500)})

        rng = _rng(self.seed, 2)
        yb = rng.poisson(3.0, BIG_N)
        y0b = np.where(np.arange(BIG_N0) < (7 * BIG_N0) // 10,
                       rng.poisson(3.0, BIG_N0), rng.poisson(6.0, BIG_N0))
        write_csv(os.path.join(inputs_dir, "big_cur.csv"), ["y"], [list(map(int, yb))])
        write_csv(os.path.join(inputs_dir, "big_hist.csv"), ["y"], [list(map(int, y0b))])
        write_json(os.path.join(inputs_dir, "big_poisson.json"),
                   {"model": {"kind": "poisson"},
                    "leap": {"K": 2, "alpha0": [1.0, 1.0],
                             "component_priors": _gamma_priors([(0.1, 0.1), (0.1, 0.1)])},
                    "sampler": _sampler(self.seed, 1500, 300, chains=2)})

        write_csv(os.path.join(inputs_dir, "worked_cur.csv"), ["y"], [WORKED_Y])
        write_csv(os.path.join(inputs_dir, "worked_hist.csv"), ["y"], [WORKED_Y0])
        worked = {"model": {"kind": "poisson"},
                  "leap": {"K": 2, "alpha0": [1.0, 1.0], "trunc_a": 0.0, "trunc_b": 1.0,
                           "component_priors": _gamma_priors([(0.1, 0.1), (0.1, 0.1)])},
                  "sampler": _sampler(self.seed, 8000, 1000)}
        write_json(os.path.join(inputs_dir, "worked.json"), worked)
        # tiny variants for the warm-up requests
        small = {"draws": 60, "burn_in": 10, "thin": 1, "chains": 1, "seed": self.seed}
        for name in ("linear_leap", "linear_trunc", "npbpp", "reference", "big_poisson", "worked"):
            with open(os.path.join(inputs_dir, f"{name}.json")) as fh:
                doc = json.load(fh)
            doc["sampler"] = dict(small, chains=doc["sampler"]["chains"])
            write_json(os.path.join(inputs_dir, f"warm_{name}.json"), doc)
        self.inputs = {"bound": bound, "n0": n0}

    def _requests(self, prefix: str) -> list:
        inp = "../inputs/"
        s = str(self.seed)

        def fit(kind, cfg, data, hist, prior, out, draws=None):
            argv = ["fit", "--data", inp + data, "--hist", inp + hist,
                    "--config", inp + prefix + cfg, "--prior", prior, "--seed", s, "--out", out]
            if draws:
                argv += ["--emit-draws", draws]
            return Request(kind, tuple(argv))

        return [
            fit("fit-leap", "linear_leap.json", "trial_cur.csv", "trial_hist.csv", "leap",
                "leap.json", "leap_draws.csv"),
            Request("summarize", ("summarize", "--draws", "leap_draws.csv", "--out", "summarize.json")),
            Request("ssc-bound", ("ssc", "--bound", "--n", str(TRIAL_N), "--n0", str(TRIAL_N0),
                                  "--out", "bound.json")),
            fit("fit-leap-trunc", "linear_trunc.json", "trial_cur.csv", "trial_hist.csv", "leap",
                "trunc.json", "trunc_draws.csv"),
            fit("fit-leap-poisson", "big_poisson.json", "big_cur.csv", "big_hist.csv", "leap",
                "big.json"),
            fit("fit-npbpp", "npbpp.json", "trial_cur.csv", "trial_hist.csv", "npbpp", "npbpp.json"),
            fit("fit-reference", "reference.json", "trial_cur.csv", "trial_hist.csv", "reference",
                "reference.json"),
            fit("fit-worked", "worked.json", "worked_cur.csv", "worked_hist.csv", "leap",
                "worked.json"),
            Request("ssc-solve", ("ssc", "--solve") + SOLVE_ARGS + ("--out", "solve.json")),
        ]

    def warmup(self):
        return self._requests("warm_")

    def round(self, index):
        return self._requests("")


# ---------------------------------------------------------------------------
# oc-grid


class OcGrid(Workload):
    """Operating-characteristic grid: simulate requests over scenario cells."""

    def build(self, inputs_dir: str):
        """Nothing to write: simulate generates its data from the request seed."""

    @property
    def repeats(self):
        return False

    def round_seed(self, index: int) -> int:
        # each round is a fresh grid study; the pooled bias check needs new data
        return int(np.random.SeedSequence(self.seed, spawn_key=(3, index)).generate_state(1)[0])

    def cell_request(self, cell: int, seed: int, workers: int, reps=None, draws=OC_DRAWS,
                     burn_in=OC_BURN_IN) -> Request:
        scenario, q, cell_reps = OC_CELLS[cell]
        tag = f"cell{cell}"
        argv = ("simulate", "--scenario", scenario, "--q", repr(q), "--n0", str(OC_N0),
                "--n-extra", str(OC_N_EXTRA), "--reps", str(reps or cell_reps),
                "--priors", *OC_PRIORS, "--draws", str(draws), "--burn-in", str(burn_in),
                "--workers", str(workers), "--seed", str(seed),
                "--out", f"{tag}.json", "--reps-out", f"{tag}_reps.csv")
        return Request(f"simulate-{scenario}", argv)

    def warmup(self):
        return [self.cell_request(0, self.seed, 2, reps=2, draws=100, burn_in=20)]

    def round(self, index):
        seed = self.round_seed(index)
        return [self.cell_request(c, seed, 2) for c in range(len(OC_CELLS))]


# ---------------------------------------------------------------------------
# exact-check


class ExactCheck(Workload):
    """Exact partition enumeration: Poisson (vectorized) and linear (per partition)."""

    def build(self, inputs_dir: str):
        rng = _rng(self.seed, 4)
        j = lambda name: os.path.join(inputs_dir, name)  # noqa: E731
        y = rng.poisson(2.0, ENUM_P2_N)
        y0 = np.where(rng.random(ENUM_P2_N0) < 0.6, rng.poisson(2.0, ENUM_P2_N0),
                      rng.poisson(5.0, ENUM_P2_N0))
        write_csv(j("p2_cur.csv"), ["y"], [list(map(int, y))])
        write_csv(j("p2_hist.csv"), ["y"], [list(map(int, y0))])
        write_json(j("p2.json"), {
            "model": {"kind": "poisson"},
            "leap": {"K": 2, "alpha0": [0.9, 0.9],
                     "component_priors": _gamma_priors([(0.1, 0.1), (0.5, 0.2)])},
            "sampler": {"seed": self.seed}})

        y = rng.poisson(3.0, ENUM_P3_N)
        y0 = rng.poisson(rng.choice([1.0, 3.0, 7.0], ENUM_P3_N0))
        write_csv(j("p3_cur.csv"), ["y"], [list(map(int, y))])
        write_csv(j("p3_hist.csv"), ["y"], [list(map(int, y0))])
        a, b = ENUM_P3_TRUNC
        write_json(j("p3.json"), {
            "model": {"kind": "poisson"},
            "leap": {"K": 3, "alpha0": [1.0, 0.8, 0.6], "trunc_a": a, "trunc_b": b,
                     "component_priors": _gamma_priors([(0.1, 0.1), (1.0, 1.0), (2.0, 0.5)])},
            "sampler": {"seed": self.seed}})

        x = rng.standard_normal(ENUM_LIN_N)
        z = np.array([0, 1] * (ENUM_LIN_N // 2))
        y = 1.0 + 0.5 * x - 1.0 * z + rng.standard_normal(ENUM_LIN_N)
        x0 = rng.standard_normal(ENUM_LIN_N0)
        y0 = 1.0 + 0.5 * x0 + np.where(np.arange(ENUM_LIN_N0) < 6, 0.0, 2.0) \
            + rng.standard_normal(ENUM_LIN_N0)
        write_csv(j("lin_cur.csv"), ["y", "z", "one", "x1"],
                  [list(map(float, y)), list(map(int, z)), [1] * ENUM_LIN_N, list(map(float, x))])
        write_csv(j("lin_hist.csv"), ["y", "one", "x1"],
                  [list(map(float, y0)), [1] * ENUM_LIN_N0, list(map(float, x0))])
        write_json(j("lin.json"), {
            "model": {"kind": "normal_linear"},
            "leap": {"K": 2, "alpha0": [0.9, 0.9], "component_priors": [
                {"mu0": [0.0, 0.0, 0.0], "omega0": 0.1, "delta0": 1.0, "xi0": 1.0},
                {"mu0": [0.0, 0.0, 0.0], "omega0": 0.5, "delta0": 2.0, "xi0": 2.0}]},
            "sampler": {"seed": self.seed}})
        for stem in ("p2", "p3", "lin"):
            with open(j(f"{stem}_hist.csv")) as fh:
                lines = fh.readlines()
            with open(j(f"warm_{stem}_hist.csv"), "w") as fh:
                fh.writelines(lines[: 1 + WARM_N0])

    def _enum(self, kind, stem, with_data, workers, out, hist_prefix=""):
        inp = "../inputs/"
        argv = ["enumerate", "--hist", inp + f"{hist_prefix}{stem}_hist.csv",
                "--config", inp + f"{stem}.json",
                "--workers", str(workers), "--out", f"{out}.csv", "--summary-out", f"{out}.json"]
        if with_data:
            argv += ["--data", inp + f"{stem}_cur.csv"]
        return Request(kind, tuple(argv))

    def warmup(self):
        # warm-up tables enumerate only the first WARM_N0 historical subjects
        return [self._enum("enum-linear", "lin", True, 1, "warm_lin", "warm_"),
                self._enum("enum-poisson-k3", "p3", True, 1, "warm_p3", "warm_"),
                self._enum("enum-poisson-k2-w2", "p2", True, 2, "warm_p2", "warm_")]

    def round(self, index):
        return [
            self._enum("enum-poisson-k2-w2", "p2", True, 2, "p2_w2"),
            self._enum("enum-poisson-k2-w1", "p2", True, 1, "p2_w1"),
            self._enum("enum-poisson-k3", "p3", True, 1, "p3_post"),
            self._enum("enum-poisson-k3-prior", "p3", False, 1, "p3_prior"),
            self._enum("enum-linear", "lin", True, 1, "lin"),
        ]


WORKLOADS = {"fit-session": FitSession, "oc-grid": OcGrid, "exact-check": ExactCheck}
