"""One workload invocation in its own process, optionally traced.

    python3 perfbench/child.py verify_sweep --rss R.txt [--trace PREFIX]
    python3 perfbench/child.py audit_corpus --rss R.txt --vectors V.json --latencies L.txt [--trace PREFIX]

Untraced, a CLI workload runs ``python3 -m zeta3forms ARGS`` unchanged in
this process. ``audit_corpus`` audits each vector with ``chain.audit`` and
prints one JSON record per report; the latency of every call goes to
``--latencies``. With ``--trace PREFIX`` the functions of zeta3forms are
wrapped before the run, which writes ``PREFIX.json`` (aggregates) and
``PREFIX.spans.tsv`` (every span).

At exit the peak resident set of this process image goes to ``--rss``, in
kB. It is read from ``VmHWM`` because the parent's ``wait4`` figure also
counts the parent's own memory from before ``exec``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import resource
import runpy
import sys
import time

from workloads import AUDIT_DIGITS, WORKLOADS, audit_n


def write_peak_rss(path: str) -> None:
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{kb}\n")


def audit_record(report) -> dict:
    """The fields of a chain report that the benchmark's audit check judges."""
    return {
        "n": report.n,
        "c": list(report.coeffs.c),
        "R": [str(report.R.lo), str(report.R.hi)],
        "steps": [[s.step_id, s.numeric.value] for s in report.steps],
        "digits_used": report.digits_used,
    }


def run_audits(vectors_path: str, latencies_path: str, tracer) -> int:
    from zeta3forms import chain

    with open(vectors_path, encoding="utf-8") as f:
        vectors = [chain.CoeffVector(tuple(c)) for c in json.load(f)]
    reports = []
    latencies = []
    for i, vector in enumerate(vectors):
        if tracer is not None:
            tracer.run_id = i
        start = time.perf_counter()
        reports.append(chain.audit(audit_n(i), vector, AUDIT_DIGITS))
        latencies.append(time.perf_counter() - start)
    for report in reports:
        sys.stdout.write(json.dumps(audit_record(report)) + "\n")
    with open(latencies_path, "w", encoding="utf-8") as f:
        f.write("\n".join(repr(x) for x in latencies) + "\n")
    return 0


def run_traced(args: argparse.Namespace) -> int:
    import zeta3forms.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    if args.workload == "audit_corpus":
        code = run_audits(args.vectors, args.latencies, tracer)
    else:
        code = zeta3forms.cli.main(list(WORKLOADS[args.workload].cli_args))
    sys.stdout.flush()
    wall = time.perf_counter() - start
    with open(args.trace + ".json", "w", encoding="utf-8") as f:
        json.dump(tracer.summary(wall), f, indent=1)
    tracer.write_spans(args.trace + ".spans.tsv")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--rss", required=True)
    parser.add_argument("--vectors")
    parser.add_argument("--latencies")
    parser.add_argument("--trace", metavar="PREFIX")
    args = parser.parse_args()
    atexit.register(write_peak_rss, args.rss)

    if args.trace:
        return run_traced(args)
    if args.workload == "audit_corpus":
        return run_audits(args.vectors, args.latencies, None)
    sys.argv = ["zeta3forms", *WORKLOADS[args.workload].cli_args]
    runpy.run_module("zeta3forms", run_name="__main__", alter_sys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
