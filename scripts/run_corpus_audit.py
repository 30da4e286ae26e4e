#!/usr/bin/env python3
"""Audit the fixed corpus plus a batch of random coefficient vectors.

Tallies per-step numeric statuses and justification kinds, and reports
whether any audit ever certified the final contradiction (none should).
Exit codes: 0 when none did, 1 when one did (soundness violated), 2 on a
usage error, such as a size below 1 or a negative --random.

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
from zeta3forms.cli import _nonnegative_int, _positive_int  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=_nonnegative_int, default=1000)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--digits", type=_positive_int, default=60)
    parser.add_argument("--n-max", type=_positive_int, default=20)
    parser.add_argument("--json-out", type=Path, default=None)
    args = parser.parse_args()

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
            justifications[step.justification.kind.value] += 1
        if report.step("final_contradiction").numeric is CheckStatus.HOLDS:
            contradiction_certified.append((n, vector.c))
    elapsed = time.perf_counter() - started

    print(f"audited {len(corpus)} vectors in {elapsed:.2f}s at {args.digits} digits")
    for key in sorted(numeric):
        print(f"  {key:<32} {numeric[key]}")
    for key in sorted(justifications):
        print(f"  justification:{key:<20} {justifications[key]}")
    sound = not contradiction_certified
    print(f"final contradiction certified anywhere: {contradiction_certified or 'never'}")
    print(f"auditor soundness: {'OK' if sound else 'VIOLATED'}")

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
        print(f"wrote {args.json_out}")
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
