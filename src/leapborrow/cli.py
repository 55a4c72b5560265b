"""Command-line interface.

Subcommands: ``fit`` (posterior summaries for one prior), ``enumerate``
(exact partition tables), ``ssc`` (borrowed-count elicitation helpers),
``simulate`` (operating-characteristic replications), ``summarize``
(re-summarize an emitted draws file).

Every command is deterministic given ``--seed``; outputs embed the fully
resolved configuration so a run can be reproduced from its own output.
Exit codes: 0 success, 2 validation problem, 3 numerical failure, 4 I/O
problem.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__, comparators, diagnostics, elicitation, gibbs, io, oracle, simulate
from .core import NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--config", default=None, help="JSON configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leapborrow",
        description="Bayesian dynamic borrowing from historical controls",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one prior and write a posterior summary")
    fit.add_argument("--data", required=True, help="current-study CSV")
    fit.add_argument("--hist", default=None, help="historical-study CSV")
    fit.add_argument(
        "--prior", required=True, choices=("leap", "npbpp", "reference"),
        help="which prior to fit",
    )
    fit.add_argument("--emit-draws", default=None, help="also write retained draws as CSV")
    fit.add_argument("--chains", type=int, default=None, help="override sampler chains")
    _common_flags(fit)

    enum = subs.add_parser("enumerate", help="exact partition table at desk scale")
    enum.add_argument("--data", default=None, help="current-study CSV (omit for prior-only)")
    enum.add_argument("--hist", required=True, help="historical-study CSV")
    enum.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP, help="partition cap")
    enum.add_argument("--workers", type=int, default=1, help="parallel block workers")
    enum.add_argument("--summary-out", default=None, help="write JSON summary here")
    _common_flags(enum)

    ssc = subs.add_parser("ssc", help="borrowed-count elicitation helpers")
    ssc.add_argument("--n0", type=int, help="historical sample size")
    ssc.add_argument("--delta", type=float, nargs=2, metavar=("D1", "D2"),
                     help="beta shapes for the weight prior")
    ssc.add_argument("--mass", type=float, default=0.95, help="interval mass")
    ssc.add_argument("--solve", action="store_true", help="solve shapes for a target interval")
    ssc.add_argument("--low", type=int, default=None, help="target interval lower count")
    ssc.add_argument("--high", type=int, default=None, help="target interval upper count")
    ssc.add_argument("--bound", action="store_true", help="truncation bound for (n, n0)")
    ssc.add_argument("--n", type=int, default=None, help="current sample size (for --bound)")
    _common_flags(ssc)

    sim = subs.add_parser("simulate", help="operating-characteristic replications")
    sim.add_argument("--scenario", required=True, choices=("full", "half", "none"))
    sim.add_argument("--q", type=float, default=0.5, help="unexchangeable scaling factor")
    sim.add_argument("--n0", type=int, default=150, help="historical sample size")
    sim.add_argument("--n-extra", type=int, default=0, help="current size minus historical size")
    sim.add_argument("--reps", type=int, default=200, help="number of replications")
    sim.add_argument("--sigma", type=float, default=simulate.DEFAULT_SIGMA,
                     help="outcome error SD for data generation")
    sim.add_argument("--priors", nargs="+", default=["leap", "reference"],
                     help="priors to fit per replication")
    sim.add_argument("--draws", type=int, default=4500, help="total chain length per fit")
    sim.add_argument("--burn-in", type=int, default=500, help="burn-in per fit")
    sim.add_argument("--workers", type=int, default=1, help="parallel replication workers")
    sim.add_argument("--reps-out", default=None, help="write per-replication estimates CSV")
    _common_flags(sim)

    summ = subs.add_parser("summarize", help="summarize an emitted draws CSV")
    summ.add_argument("--draws", required=True, help="draws CSV path")
    summ.add_argument("--ci", type=float, default=0.95, help="credible-interval mass")
    _common_flags(summ)

    return parser


def _emit(out_path: Optional[str], doc: dict):
    text = io.write_json(out_path, doc)
    if not out_path:
        sys.stdout.write(text)


def _load_cfg(args, need: str):
    if not args.config:
        raise ValidationError(f"--config is required for {need}")
    cfg = io.load_config(args.config)
    seed = args.seed if args.seed is not None else cfg["sampler"]["seed"]
    return cfg, int(seed)


def _prior_dict(p) -> dict:
    """Resolved hyperparameters of one gamma or normal-gamma component prior."""
    if hasattr(p, "eta0"):
        return {"eta0": p.eta0, "beta0": p.beta0}
    return {
        "mu0": p.mu0.tolist(),
        "omega0": p.omega0.tolist(),
        "delta0": p.delta0,
        "xi0": p.xi0,
    }


def _leap_section_dict(leap_cfg) -> dict:
    return {
        "K": leap_cfg.K,
        "alpha0": leap_cfg.alpha0.tolist(),
        "trunc_a": leap_cfg.trunc_a,
        "trunc_b": leap_cfg.trunc_b,
        "component_priors": [_prior_dict(p) for p in leap_cfg.component_priors],
    }


def _npp_section_dict(npp_cfg) -> dict:
    a = npp_cfg.a0_prior
    return {
        "prior": _prior_dict(npp_cfg.prior),
        "a0_prior": {
            "kind": a.kind, "bound": a.bound, "shape1": a.shape1,
            "shape2": a.shape2, "value": a.value,
        },
        "a0_grid_size": npp_cfg.a0_grid_size,
    }


def cmd_fit(args) -> int:
    cfg, seed = _load_cfg(args, "fit")
    kind = cfg["model_kind"]
    sampler = dict(cfg["sampler"])
    sampler["seed"] = seed
    if args.chains is not None:
        sampler["chains"] = args.chains
    data = io.ingest_csv(args.data, "current", kind)
    hist = io.ingest_csv(args.hist, "historical", kind) if args.hist else None

    resolved = {"model": {"kind": kind}, "sampler": sampler}
    ssc_doc = None
    health = None
    if args.prior == "leap":
        if cfg["leap"] is None:
            raise ValidationError("config has no leap section")
        if hist is None:
            raise ValidationError("--hist is required for the leap prior")
        leap_cfg = cfg["leap"]
        draws = gibbs.run_chains(
            data, hist, leap_cfg,
            n_draws=sampler["draws"], burn_in=sampler["burn_in"],
            thin=sampler["thin"], seed=seed, chains=sampler["chains"],
        )
        resolved["leap"] = _leap_section_dict(leap_cfg)
        pmf, mean = elicitation.posterior_ssc_summary(draws)
        ssc_doc = {"mean": mean, "pmf": pmf.probs.tolist()}
    elif args.prior == "npbpp":
        if cfg["npp"] is None:
            raise ValidationError("config has no npp section")
        if hist is None:
            raise ValidationError("--hist is required for the npbpp prior")
        n_keep = max(1, sampler["draws"] - sampler["burn_in"])
        draws = comparators.npp_posterior(
            data, hist, cfg["npp"], n_draws=n_keep, seed=seed
        )
        resolved["npp"] = _npp_section_dict(cfg["npp"])
    else:
        ref_cfg = cfg["reference"] or comparators.ReferencePriorConfig()
        draws = comparators.reference_posterior(
            data, ref_cfg,
            n_draws=sampler["draws"], burn_in=sampler["burn_in"],
            thin=sampler["thin"], seed=seed,
        )
        resolved["reference"] = {"coef_sd": ref_cfg.coef_sd, "sigma_sd": ref_cfg.sigma_sd}
        health = {k: draws.meta[k] for k in ("accept_rate", "step_size")}

    summary = diagnostics.summarize(draws)
    dic_value = diagnostics.dic(draws, data, kind)
    summary = diagnostics.with_extras(
        summary, dic=dic_value, ssc_mean=ssc_doc["mean"] if ssc_doc else None
    )
    doc = {
        "version": io.FORMAT_VERSION,
        "command": "fit",
        "prior": args.prior,
        "seed": seed,
        "n_retained_draws": draws.n_draws,
        "config": resolved,
    }
    doc.update(io.summary_to_dict(summary))
    doc["ssc"] = ssc_doc
    if health is not None:
        doc["sampler_health"] = health
    if args.emit_draws:
        io.write_draws_csv(args.emit_draws, draws)
        doc["draws_file"] = args.emit_draws
    _emit(args.out, doc)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cfg, seed = _load_cfg(args, "enumerate")
    kind = cfg["model_kind"]
    if cfg["leap"] is None:
        raise ValidationError("config has no leap section")
    hist = io.ingest_csv(args.hist, "historical", kind)
    data = io.ingest_csv(args.data, "current", kind) if args.data else None
    if data is not None:
        table = oracle.posterior_partition_table(
            data, hist, cfg["leap"], cap=args.cap, materialize=True, workers=args.workers
        )
    else:
        table = oracle.prior_partition_table(
            hist, cfg["leap"], cap=args.cap, materialize=True, workers=args.workers
        )
    if not args.out:
        raise ValidationError("enumerate requires --out for the partition CSV")
    io.write_partition_csv(args.out, table)
    doc = {
        "version": io.FORMAT_VERSION,
        "command": "enumerate",
        "seed": seed,
        "K": table.K,
        "n0": table.n0,
        "partitions": oracle.partition_count(table.K, table.n0),
        "cap": args.cap,
        "config": {"model": {"kind": kind}, "leap": _leap_section_dict(cfg["leap"])},
        "prior_mean": table.prior_mean.tolist(),
        "prior_ssc": table.prior_ssc.tolist(),
        "table_file": args.out,
    }
    if table.has_posterior:
        doc["post_mean"] = table.post_mean.tolist()
        doc["post_ssc"] = table.post_ssc.tolist()
    _emit(args.summary_out, doc)
    return EXIT_OK


def cmd_ssc(args) -> int:
    doc = {"version": io.FORMAT_VERSION, "command": "ssc"}
    if args.bound:
        if args.n is None or args.n0 is None:
            raise ValidationError("--bound requires --n and --n0")
        doc["inputs"] = {"n": args.n, "n0": args.n0}
        doc["bound"] = elicitation.truncation_bound(args.n, args.n0)
    elif args.solve:
        if args.n0 is None or args.low is None or args.high is None:
            raise ValidationError("--solve requires --n0, --low and --high")
        res = elicitation.solve_beta_hyperparams(args.n0, args.low, args.high, args.mass)
        doc["inputs"] = {
            "n0": args.n0, "low": args.low, "high": args.high, "mass": args.mass,
        }
        doc["delta01"] = res["delta01"]
        doc["delta02"] = res["delta02"]
        doc["achieved"] = list(res["achieved"])
        doc["attained"] = res["attained"]
    else:
        if args.n0 is None or args.delta is None:
            raise ValidationError("pmf mode requires --n0 and --delta D1 D2")
        pmf = elicitation.ssc_prior_pmf_beta(args.n0, args.delta[0], args.delta[1])
        lo, hi = elicitation.ssc_interval(pmf, args.mass)
        doc["inputs"] = {
            "n0": args.n0, "delta": list(args.delta), "mass": args.mass,
        }
        doc["pmf"] = pmf.probs.tolist()
        doc["mean"] = pmf.mean
        doc["interval"] = [lo, hi]
    _emit(args.out, doc)
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else 0
    scenario = simulate.SimScenario(
        exchangeability=args.scenario,
        q=args.q,
        n_extra=args.n_extra,
        n0=args.n0,
        reps=args.reps,
        seed=seed,
        sigma=args.sigma,
    )
    settings = simulate.SamplerSettings(n_draws=args.draws, burn_in=args.burn_in)
    result = simulate.run_simulation(
        scenario, args.priors, settings=settings, workers=args.workers
    )
    doc = {
        "version": io.FORMAT_VERSION,
        "command": "simulate",
        "seed": seed,
        "config": {
            "scenario": args.scenario,
            "q": args.q,
            "n0": args.n0,
            "n_extra": args.n_extra,
            "reps": args.reps,
            "sigma": args.sigma,
            "priors": list(args.priors),
            "draws": args.draws,
            "burn_in": args.burn_in,
        },
        "truth": result["truth"],
        "metrics": {
            prior: {
                "pab": m.pab,
                "pab_pct": 100.0 * m.pab,
                "mse": m.mse,
                "coverage": m.coverage,
            }
            for prior, m in result["metrics"].items()
        },
    }
    if args.reps_out:
        import csv as _csv

        with open(args.reps_out, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["rep", "prior", "estimate", "ci_low", "ci_high"])
            for prior in args.priors:
                est = result["estimates"][prior]
                for rep in range(est.shape[0]):
                    writer.writerow(
                        [rep, prior] + [repr(float(v)) for v in est[rep]]
                    )
        doc["reps_file"] = args.reps_out
    _emit(args.out, doc)
    return EXIT_OK


def cmd_summarize(args) -> int:
    draws = io.read_draws_csv(args.draws)
    summary = diagnostics.summarize(draws, ci_mass=args.ci)
    doc = {
        "version": io.FORMAT_VERSION,
        "command": "summarize",
        "draws_file": args.draws,
        "n_draws": draws.n_draws,
    }
    doc.update(io.summary_to_dict(summary))
    _emit(args.out, doc)
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "enumerate": cmd_enumerate,
    "ssc": cmd_ssc,
    "simulate": cmd_simulate,
    "summarize": cmd_summarize,
}


def _fail(kind: str, exc: Exception, code: int) -> int:
    import json

    doc = {"error": kind, "violations": [v.strip() for v in str(exc).split(";")]}
    print(json.dumps(doc), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        return _fail("validation", exc, EXIT_VALIDATION)
    except NumericalError as exc:
        return _fail("numerical", exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
