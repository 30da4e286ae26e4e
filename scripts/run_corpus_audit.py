#!/usr/bin/env python3
"""Audit the fixed corpus plus a batch of random coefficient vectors.

Tallies per-step numeric statuses and justification kinds, and reports
whether any audit ever certified the final contradiction (none should).
Exit codes: 0 when none did, 1 when one did (soundness violated), 2 on a
usage error, such as a size below 1, a negative --random or a --json-out
path that cannot be written (checked before any computation, without
truncating an existing file), 4 when the run could not complete (an
internal fault, an `ArithmeticError` or a `ValueError`, output that could
not be written, or out of memory), reported on one stderr line, 141 when its
reader closes stdout (nothing on stderr).

Example:
    python scripts/run_corpus_audit.py --random 1000 --seed 20260810 --digits 60
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zeta3forms.bounds import CheckStatus  # noqa: E402
from zeta3forms.chain import audit, fixed_corpus, random_corpus  # noqa: E402
from zeta3forms.cli import ArgumentParser, int_at_least, run_to_stdout  # noqa: E402


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=int_at_least(0), default=1000)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--digits", type=int_at_least(1), default=60)
    parser.add_argument("--n-max", type=int_at_least(1), default=20)
    parser.add_argument("--json-out", type=Path, default=None)
    args = parser.parse_args()
    created = args.json_out is not None and not args.json_out.exists()
    if args.json_out is not None:
        try:  # append mode: probing must not truncate a file the run may never rewrite
            args.json_out.open("a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --json-out: {exc}")
    try:
        return _audit_corpus(args)
    except BaseException:  # a fault or Ctrl-C: leave no file the probe made
        if created:
            args.json_out.unlink(missing_ok=True)
        raise


def _audit_corpus(args: argparse.Namespace) -> int:
    corpus = list(fixed_corpus()) + list(random_corpus(args.random, seed=args.seed))
    numeric: Counter[str] = Counter()
    justifications: Counter[str] = Counter()
    contradiction_certified = []

    started = time.perf_counter()
    for i, vector in enumerate(corpus):
        n = (i % args.n_max) + 1
        report = audit(n, vector, args.digits)
        for step in report.steps:
            numeric[f"{step.step_id}:{step.numeric.value}"] += 1
            justifications[step.justification.value.partition(":")[0]] += 1
        if report.step("final_contradiction").numeric is CheckStatus.HOLDS:
            contradiction_certified.append((n, vector.c))
    elapsed = time.perf_counter() - started

    # The side file first: a failed write must leave stdout as empty when it
    # is unbuffered as when it is buffered.
    if args.json_out is not None:
        payload = {
            "vectors": len(corpus),
            "digits": args.digits,
            "elapsed_s": round(elapsed, 3),
            "numeric": dict(sorted(numeric.items())),
            "justifications": dict(sorted(justifications.items())),
            "contradiction_certified": contradiction_certified,
        }
        args.json_out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    sound = not contradiction_certified
    print(f"audited {len(corpus)} vectors in {elapsed:.2f}s at {args.digits} digits")
    for key in sorted(numeric):
        print(f"  {key:<32} {numeric[key]}")
    for key in sorted(justifications):
        print(f"  justification:{key:<20} {justifications[key]}")
    print(f"final contradiction certified anywhere: {contradiction_certified or 'never'}")
    print(f"auditor soundness: {'OK' if sound else 'VIOLATED'}")
    if args.json_out is not None:
        print(f"wrote {args.json_out}")
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(run_to_stdout("run_corpus_audit", main))
