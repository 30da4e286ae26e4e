#!/usr/bin/env python3
"""Benchmark of zeta3forms: one workload per run, every output checked.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each invocation of the workload is a fresh single-threaded child
process, because CLI users pay cold caches on every call. Invocations repeat,
one at a time, until the next one would end past ``--seconds``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one more invocation runs traced and the line holds the
per-layer metrics. Outputs are checked against an independent reference
outside the timed region, and must be byte-identical across the
invocations of one run. A summary with sample counts goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0  # a run must end well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "certified_frac": "share",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    latencies: list[float] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], name: str, deadline: float, latencies: Path | None = None) -> Invocation:
    """Run one ``child.py`` to completion; wall and CPU time come from wait4."""
    stdout_path, rss_path = OUT / f"{name}.stdout", OUT / f"{name}.rss"
    rss_path.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(OUT / f"{name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv + ["--rss", str(rss_path)], stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lat = []
    if latencies is not None and proc.returncode == 0:
        lat = [float(x) for x in latencies.read_text(encoding="utf-8").split()]
    rss_kb = int(rss_path.read_text(encoding="ascii")) if rss_path.is_file() else usage.ru_maxrss
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=rss_kb / 1024,
        exit_code=proc.returncode,
        stdout=stdout_path.read_bytes(),
        latencies=lat,
    )


def measure_setup() -> float:
    """Median time from spawning an interpreter to the end of ``import zeta3forms``.

    The child stamps the shared monotonic clock right after the import; the
    first, untimed spawn writes the bytecode caches.
    """
    code = "import time, zeta3forms; print(repr(time.perf_counter()), zeta3forms.__file__)"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"import zeta3forms failed:\n{done.stderr}")
        stamp, origin = done.stdout.split(maxsplit=1)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"zeta3forms imported from {origin.strip()}, not from {SRC}")
        if i:
            samples.append(float(stamp) - start)
    return statistics.median(samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100/(100-q) samples it is the maximum."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(0, int(rank) - 1)]


class Workbench:
    """Inputs, child command lines and the output check for one workload."""

    def __init__(self, name: str, seed: int):
        import checks
        from workloads import AUDIT_N_CYCLE, VERIFY_N_MAX, ZETA3_DIGITS, audit_vectors

        self.workload = WORKLOADS[name]
        self.name = name
        if name == "audit_corpus":
            self.vectors = audit_vectors(seed)
            self.vectors_path = OUT / "audit_corpus.vectors.json"
            self.vectors_path.write_text(json.dumps(self.vectors), encoding="utf-8")
            self.latencies_path = OUT / "audit_corpus.latencies.txt"
            ref = checks.FormReference(AUDIT_N_CYCLE)
            self._check = lambda text, code: checks.check_audits(text, code, self.vectors, ref)
        elif name == "verify_sweep":
            ref = checks.FormReference(VERIFY_N_MAX)
            self._check = lambda text, code: checks.check_verify(text, code, ref, VERIFY_N_MAX)
        else:
            ref = checks.Zeta3Reference(ZETA3_DIGITS)
            self._check = ref.check
        self._outcomes: dict[tuple[str, int], object] = {}

    def untraced(self, deadline: float) -> Invocation:
        return run_child(self._child_argv(), self.name, deadline, self._latencies())

    def traced(self, deadline: float) -> tuple[Invocation, dict]:
        prefix = OUT / f"{self.name}.trace"
        inv = run_child(self._child_argv() + ["--trace", str(prefix)], f"{self.name}.traced", deadline, self._latencies())
        summary_path = Path(f"{prefix}.json")
        summary = json.loads(summary_path.read_text(encoding="utf-8")) if summary_path.is_file() else {}
        return inv, summary

    def _child_argv(self) -> list[str]:
        argv = [sys.executable, str(HERE / "child.py"), self.name]
        if self.name == "audit_corpus":
            argv += ["--vectors", str(self.vectors_path), "--latencies", str(self.latencies_path)]
        return argv

    def _latencies(self) -> Path | None:
        return self.latencies_path if self.name == "audit_corpus" else None

    def check(self, inv: Invocation):
        """Judge one output; identical outputs are judged once."""
        key = (inv.digest, inv.exit_code)
        if key not in self._outcomes:
            self._outcomes[key] = self._check(inv.stdout.decode("utf-8", "replace"), inv.exit_code)
        return self._outcomes[key]


def end_to_end_metrics(setup_s: float, runs: list[Invocation], items: int, certified: int, audit: bool) -> dict:
    walls = [r.wall_s for r in runs]
    # On the CLI workloads one invocation is one request. On audit_corpus every
    # invocation replays the same audits in the same order from the same cold
    # caches, so an audit's latency is the median of its replays: a burst of
    # host load that stalls a stretch of audits in one replay does not set the
    # tail, and a fast stretch of the host does not set it either.
    replays = [r.latencies for r in runs if r.latencies] if audit else []
    samples = [statistics.median(per_audit) for per_audit in zip(*replays)] or walls
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "items_per_s": items / sum(walls),
        "latency_p50_ms": 1e3 * percentile(samples, 50),
        "latency_p99_ms": 1e3 * percentile(samples, 99),
        "certified_frac": certified / items,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Exit through the normal unwinding on SIGTERM, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "zeta3forms" / "__init__.py").is_file():
        print(f"perfbench: no zeta3forms sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        bench = Workbench(args.workload, args.seed)
        setup_s = None if args.trace else measure_setup()
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    runs: list[Invocation] = []
    window = time.perf_counter()
    while True:
        runs.append(bench.untraced(deadline))
        elapsed = time.perf_counter() - window
        if elapsed + statistics.median(r.wall_s for r in runs) > args.seconds:
            break
    traced, summary = bench.traced(deadline) if args.trace else (None, None)
    if args.trace and not summary:
        print(f"perfbench: the traced run wrote no trace (exit code {traced.exit_code})", file=sys.stderr)
        return 1

    # Correctness, outside the timed region.
    items = attempted = failed = certified = 0
    problems: list[str] = []
    for inv in runs + ([traced] if traced else []):
        outcome = bench.check(inv)
        attempted += outcome.items
        failed += outcome.wrong
        problems += outcome.problems
        if inv is not traced:
            items += outcome.items
            certified += outcome.items - outcome.uncertified
        if (inv.digest, inv.exit_code) != (runs[0].digest, runs[0].exit_code):
            failed += outcome.items - outcome.wrong
            problems.append(f"output differs between invocations ({inv.digest[:12]} vs {runs[0].digest[:12]})")
    correct = failed == 0

    audit = args.workload == "audit_corpus"
    if args.trace:
        import spans

        values = spans.per_layer_metrics(summary, traced.wall_s, statistics.median(r.wall_s for r in runs))
        problems += [f"not traced, absent from the program: {name}" for name in summary["missing"]]
        units = spans.PER_LAYER_UNITS
    else:
        values = end_to_end_metrics(setup_s, runs, items, certified, audit)
        units = END_TO_END

    samples = f"{len(runs[0].latencies)} audit latencies per invocation" if audit else "1 request per invocation"
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(runs)} invocation(s), "
        f"{samples}, {items} {bench.workload.item}s, {items - certified} uncertified, "
        f"{failed} wrong, {time.perf_counter() - started:.1f} s total",
        file=sys.stderr,
    )
    for problem in dict.fromkeys(problems):
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
