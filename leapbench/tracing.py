"""Span tracing for the traced benchmark run.

:meth:`Tracer.install` replaces public functions on the ``leapborrow.*``
modules with timing wrappers for the duration of one run; no program file
changes.  Calls that go through the module attribute (``gibbs.run_chain``,
``ptd.sample``, ...) are seen, including calls from the program's own
modules.  Each wrapper records a span: name, start, end, parent span, the
id of the request it belongs to, and a few counts read from the call's
arguments or result.

Pool workers forked by ``simulate`` and ``oracle`` inherit the wrappers.  A
worker appends its spans to ``spans-<pid>.jsonl`` in the spool directory
each time its outermost traced call returns; :meth:`Tracer.collect` merges
those files with the parent's in-memory spans.  With a start method other
than ``fork`` the workers run unwrapped and their spans are missing.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import resource
import time

import numpy as np


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def chain_ess(x: np.ndarray) -> float:
    """Effective sample size by Geyer's initial monotone sequence.

    Written apart from ``leapborrow.diagnostics`` so that a change there
    cannot redefine the ``gibbs.ess_per_s`` metric.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    xc = x - x.mean()
    var = float(xc @ xc) / n
    if var == 0.0:
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xc, size)
    rho = np.fft.irfft(spec * np.conj(spec), size)[:n] / (n * var)
    pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
    positive = np.flatnonzero(pairs <= 0)
    pairs = pairs[: positive[0]] if positive.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = max(2.0 * pairs.sum() - 1.0, 1.0 / n)
    return float(n / tau)


def _interest_column(draws) -> str:
    """First-component parameter of interest: the rate, or the last coefficient."""
    cols = draws.meta["theta1_columns"]
    return cols[0] if draws.meta["model_kind"] == "poisson" else cols[-2]


# each target: module attribute, span name, and an optional
# (before, after) pair that turns the call into extra span fields


def _gibbs_after(args, kwargs, result, pre):
    fields = {"scans": int(result.meta["n_draws"]),
              "label_store_mib": (result.c0.nbytes / 2**20) if result.c0 is not None else 0.0}
    if result.n_draws > 0:
        fields["ess"] = chain_ess(result.column(_interest_column(result)))
    return fields


def _file_bytes(args, kwargs, result, pre):
    return {"bytes": os.path.getsize(args[0])}


def _table_after(args, kwargs, result, pre):
    return {"partitions": int(result.K) ** int(result.n0)}


def _reference_after(args, kwargs, result, pre):
    return {"draws": int(result.meta["n_draws"])}


def _sim_before(args, kwargs):
    return _children_cpu()


def _sim_after(args, kwargs, result, pre):
    return {"reps": int(args[0].reps), "worker_cpu_s": _children_cpu() - pre}


TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("io", "ingest_csv", "io.ingest_csv", None, None),
    ("io", "write_draws_csv", "io.write_draws_csv", None, _file_bytes),
    ("io", "read_draws_csv", "io.read_draws_csv", None, None),
    ("io", "write_partition_csv", "io.write_partition_csv", None, _file_bytes),
    ("gibbs", "run_chain", "gibbs.run_chain", None, _gibbs_after),
    ("ptd", "sample", "ptd.sample", None, None),
    ("conjugate", "linear_log_partition_weight", "conjugate.linear_log_partition_weight",
     None, None),
    ("oracle", "posterior_partition_table", "oracle.table", None, _table_after),
    ("oracle", "prior_partition_table", "oracle.table", None, _table_after),
    ("comparators", "npp_a0_posterior", "comparators.npp_a0_posterior", None, None),
    ("comparators", "npp_posterior", "comparators.npp_posterior", None, None),
    ("comparators", "reference_posterior", "comparators.reference_posterior", None,
     _reference_after),
    ("diagnostics", "summarize", "diagnostics.summarize", None, None),
    ("diagnostics", "dic", "diagnostics.dic", None, None),
    ("elicitation", "solve_beta_hyperparams", "elicitation.solve_beta_hyperparams", None, None),
    ("elicitation", "posterior_ssc_summary", "elicitation.posterior_ssc_summary", None, None),
    ("simulate", "run_simulation", "simulate.run_simulation", _sim_before, _sim_after),
    ("simulate", "run_replication", "simulate.run_replication", None, None),
)


class Tracer:
    """In-memory span recorder with per-worker spool files."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans = []
        self.stack = []
        self.request = None
        self.pid = self.main_pid = os.getpid()
        self.base_depth = 0
        self.seq = 0
        self.saved = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        if self.active:
            self.pid = os.getpid()
            self.spans = []
            self.base_depth = len(self.stack)

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.seq += 1
            sid = f"{tracer.pid}.{tracer.seq}"
            parent = tracer.stack[-1] if tracer.stack else None
            pre = before(args, kwargs) if before else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span = {"name": name, "id": sid, "parent": parent, "request": tracer.request,
                        "pid": tracer.pid, "start": start, "end": end, "ok": ok}
                if ok and after:
                    span.update(after(args, kwargs, result, pre))
                tracer.spans.append(span)
                if tracer.pid != tracer.main_pid and len(tracer.stack) == tracer.base_depth:
                    tracer._spool()
            return result

        return wrapper

    def _spool(self):
        with open(os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl"), "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def install(self, modules: dict):
        for mod_name, attr, name, before, after in TARGETS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self.saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, before, after))
        self.active = True

    def uninstall(self):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved = []
        self.active = False

    def collect(self) -> list:
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def span_cost_s(repeats: int = 20000) -> float:
    """Calibrated cost of one span: a wrapped no-op call minus a plain one."""
    tracer = Tracer(os.devnull)
    tracer.active = True

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t1 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    t2 = time.perf_counter()
    tracer.active = False
    return max((t2 - t1) - (t1 - t0), 0.0) / repeats


def _covered(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


PER_LAYER = (
    ("gibbs.run_chain.calls", "count"), ("gibbs.run_chain.s", "s"),
    ("gibbs.scans_per_s", "1/s"), ("gibbs.ess_per_s", "1/s"), ("gibbs.label_store_mib", "MiB"),
    ("ptd.sample.calls", "count"), ("ptd.sample.s", "s"), ("ptd.sample.mean_us", "us"),
    ("comparators.npp_a0_posterior.s", "s"), ("comparators.npp_posterior.s", "s"),
    ("comparators.reference_posterior.s", "s"), ("comparators.reference.draws_per_s", "1/s"),
    ("diagnostics.summarize.s", "s"), ("diagnostics.dic.s", "s"),
    ("io.write_draws_csv.s", "s"), ("io.write_draws_csv.bytes", "B"),
    ("io.read_draws_csv.s", "s"), ("io.ingest_csv.s", "s"),
    ("io.write_partition_csv.s", "s"), ("io.write_partition_csv.bytes", "B"),
    ("oracle.table.calls", "count"), ("oracle.table.s", "s"), ("oracle.partitions_per_s", "1/s"),
    ("conjugate.linear_log_partition_weight.calls", "count"),
    ("conjugate.linear_log_partition_weight.s", "s"),
    ("elicitation.solve_beta_hyperparams.s", "s"), ("elicitation.posterior_ssc_summary.s", "s"),
    ("simulate.run_simulation.s", "s"), ("simulate.replications_per_s", "1/s"),
    ("simulate.worker_cpu_s", "s"),
    ("cli.requests", "count"), ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"), ("trace.requests_per_s", "1/s"),
)


def layer_metrics(spans: list, rounds: int, elapsed: float, completed: int,
                  span_cost: float) -> dict:
    """Per-layer figures from merged spans.

    Calls, seconds and bytes are per round of the workload's rotation, so
    they compare across commits whatever the number of rounds; seconds are
    busy time summed over the parent and its pool workers.  Rates divide a
    layer's work by its own busy time.
    """
    calls, secs, sums = {}, {}, {}
    children = {}
    for sp in spans:
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur
        for key in ("scans", "ess", "bytes", "partitions", "draws", "reps", "worker_cpu_s"):
            if key in sp:
                sums[(name, key)] = sums.get((name, key), 0.0) + sp[key]
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    cli_self = sum(
        (sp["end"] - sp["start"]) - _covered(children.get(sp["id"], ()))
        for sp in spans if sp["name"] == "cli.main"
    )
    label_mib = max((sp.get("label_store_mib", 0.0) for sp in spans
                     if sp["name"] == "gibbs.run_chain"), default=0.0)

    def per_round(v):
        return v / rounds

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "gibbs.run_chain.calls": per_round(calls.get("gibbs.run_chain", 0)),
        "gibbs.run_chain.s": per_round(secs.get("gibbs.run_chain", 0.0)),
        "gibbs.scans_per_s": rate(sums.get(("gibbs.run_chain", "scans"), 0.0),
                                  secs.get("gibbs.run_chain", 0.0)),
        "gibbs.ess_per_s": rate(sums.get(("gibbs.run_chain", "ess"), 0.0),
                                secs.get("gibbs.run_chain", 0.0)),
        "gibbs.label_store_mib": label_mib,
        "ptd.sample.calls": per_round(calls.get("ptd.sample", 0)),
        "ptd.sample.s": per_round(secs.get("ptd.sample", 0.0)),
        "ptd.sample.mean_us": 1e6 * rate(secs.get("ptd.sample", 0.0), calls.get("ptd.sample", 0)),
        "comparators.npp_a0_posterior.s": per_round(secs.get("comparators.npp_a0_posterior", 0.0)),
        "comparators.npp_posterior.s": per_round(secs.get("comparators.npp_posterior", 0.0)),
        "comparators.reference_posterior.s":
            per_round(secs.get("comparators.reference_posterior", 0.0)),
        "comparators.reference.draws_per_s":
            rate(sums.get(("comparators.reference_posterior", "draws"), 0.0),
                 secs.get("comparators.reference_posterior", 0.0)),
        "diagnostics.summarize.s": per_round(secs.get("diagnostics.summarize", 0.0)),
        "diagnostics.dic.s": per_round(secs.get("diagnostics.dic", 0.0)),
        "io.write_draws_csv.s": per_round(secs.get("io.write_draws_csv", 0.0)),
        "io.write_draws_csv.bytes": per_round(sums.get(("io.write_draws_csv", "bytes"), 0.0)),
        "io.read_draws_csv.s": per_round(secs.get("io.read_draws_csv", 0.0)),
        "io.ingest_csv.s": per_round(secs.get("io.ingest_csv", 0.0)),
        "io.write_partition_csv.s": per_round(secs.get("io.write_partition_csv", 0.0)),
        "io.write_partition_csv.bytes":
            per_round(sums.get(("io.write_partition_csv", "bytes"), 0.0)),
        "oracle.table.calls": per_round(calls.get("oracle.table", 0)),
        "oracle.table.s": per_round(secs.get("oracle.table", 0.0)),
        "oracle.partitions_per_s": rate(sums.get(("oracle.table", "partitions"), 0.0),
                                        secs.get("oracle.table", 0.0)),
        "conjugate.linear_log_partition_weight.calls":
            per_round(calls.get("conjugate.linear_log_partition_weight", 0)),
        "conjugate.linear_log_partition_weight.s":
            per_round(secs.get("conjugate.linear_log_partition_weight", 0.0)),
        "elicitation.solve_beta_hyperparams.s":
            per_round(secs.get("elicitation.solve_beta_hyperparams", 0.0)),
        "elicitation.posterior_ssc_summary.s":
            per_round(secs.get("elicitation.posterior_ssc_summary", 0.0)),
        "simulate.run_simulation.s": per_round(secs.get("simulate.run_simulation", 0.0)),
        "simulate.replications_per_s": rate(sums.get(("simulate.run_simulation", "reps"), 0.0),
                                            secs.get("simulate.run_simulation", 0.0)),
        "simulate.worker_cpu_s":
            per_round(sums.get(("simulate.run_simulation", "worker_cpu_s"), 0.0)),
        "cli.requests": per_round(calls.get("cli.main", 0)),
        "cli.self_s": per_round(cli_self),
        "trace.spans": per_round(len(spans)),
        "trace.overhead_pct": 100.0 * len(spans) * span_cost / elapsed,
        "trace.requests_per_s": completed / elapsed,
    }
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER}
