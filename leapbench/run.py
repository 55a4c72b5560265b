"""leapborrow benchmark: closed-loop CLI request workloads.

Usage, from the repository root:

    python3 leapbench/run.py --workload fit-session --seed 1 --seconds 20 --trace 0

Set-up builds every input from the seed, imports the program from ``src/``
and sends one small warm-up request of each kind.  The timed run then sends
whole rounds of the workload's requests through ``leapborrow.cli.main``, one
after another, until ``--seconds`` have passed (and at least ``MIN_ROUNDS``
rounds).  Outputs are checked after the timed run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a run with timing wrappers with ``--trace 1``).
"""

import time

T_START = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from this process's start to now (10 ms resolution; 0 if unknown)."""
    import os

    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


BEFORE_MAIN = _since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 2

END_TO_END = (("setup_s", "s"), ("requests_per_s", "1/s"), ("request_p50_s", "s"),
              ("cpu_s_per_request", "s"), ("peak_rss_mib", "MiB"))


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _send(cli, req) -> bool:
    """One request through the CLI entry point; True when it exits 0."""
    try:
        rc = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception:  # a crash is a failed request; the loop goes on
        traceback.print_exc()
        rc = -1
    if rc != 0:
        print(f"request {req.kind} failed with exit code {rc}", file=sys.stderr)
    return rc == 0


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "leapborrow", "cli.py")):
        raise SystemExit(f"leapborrow sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import leapborrow
    from leapborrow import (cli, comparators, conjugate, diagnostics, elicitation, gibbs, io,
                            oracle, ptd, simulate)

    if os.path.dirname(os.path.abspath(leapborrow.__file__)) != os.path.join(SRC, "leapborrow"):
        raise SystemExit(f"imported leapborrow from {leapborrow.__file__}, not from {SRC}")
    return {"cli": cli, "io": io, "gibbs": gibbs, "ptd": ptd, "conjugate": conjugate,
            "oracle": oracle, "comparators": comparators, "diagnostics": diagnostics,
            "elicitation": elicitation, "simulate": simulate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-session", "oc-grid", "exact-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = _import_program()
    import checks
    import tracing
    import workloads

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.build(inputs)
    cli = modules["cli"]
    os.makedirs(os.path.join(work, "warmup"))
    os.chdir(os.path.join(work, "warmup"))
    for req in wl.warmup():
        if not _send(cli, req):
            raise SystemExit(f"warm-up request {req.kind} failed")

    tracer = None
    if args.trace:
        span_cost = tracing.span_cost_s()
        spool = os.path.join(work, "spool")
        os.makedirs(spool)
        tracer = tracing.Tracer(spool)
        tracer.install(modules)
    setup_s = BEFORE_MAIN + (time.perf_counter() - T_START)

    latencies = []
    failed_rounds = set()
    attempted = failed = rounds = 0
    cpu0 = _cpu()
    t0 = time.perf_counter()
    while True:
        rdir = os.path.join(work, f"r{rounds}")
        os.makedirs(rdir)
        os.chdir(rdir)
        for i, req in enumerate(wl.round(rounds)):
            if tracer:
                tracer.request = f"r{rounds}.{i}"
            ts = time.perf_counter()
            ok = _send(cli, req)
            dt = time.perf_counter() - ts
            attempted += 1
            if ok:
                latencies.append(dt)
            else:
                failed += 1
                failed_rounds.add(rounds)
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak = _peak_rss_mib()
    completed = attempted - failed

    if tracer:
        tracer.uninstall()
    os.chdir(work)
    rdirs = [os.path.join(work, f"r{k}") for k in range(rounds) if k not in failed_rounds]
    problems = []
    if not rdirs:
        problems.append("no round completed without a failed request")
    elif args.workload == "fit-session":
        problems += checks.fit_session(inputs, rdirs[0], wl.inputs)
    elif args.workload == "exact-check":
        problems += checks.exact_check(inputs, rdirs[0])
    else:
        rerun = os.path.join(work, "rerun")
        os.makedirs(rerun)
        os.chdir(rerun)
        first = int(os.path.basename(rdirs[0])[1:])
        req = wl.cell_request(workloads.OC_RERUN_CELL, wl.round_seed(first), workers=1)
        if _send(cli, req):
            problems += checks.oc_grid(rdirs, rerun, workloads.OC_RERUN_CELL)
        else:
            problems.append("oc-grid --workers 1 rerun failed")
        os.chdir(work)
    if wl.repeats:
        for rdir in rdirs[1:]:
            problems += checks.check_same_files(rdirs[0], rdir)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if tracer:
        spans = tracer.collect()
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        with open(trace_path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        metrics = tracing.layer_metrics(spans, rounds, elapsed, completed, span_cost)
    else:
        values = {
            "setup_s": setup_s,
            "requests_per_s": completed / elapsed,
            "request_p50_s": statistics.median(latencies) if latencies else elapsed,
            "cpu_s_per_request": cpu / max(completed, 1),
            "peak_rss_mib": peak,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} requests, "
          f"{failed} failed, {elapsed:.2f} s timed", file=sys.stderr)
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
