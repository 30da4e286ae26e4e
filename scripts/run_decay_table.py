#!/usr/bin/env python3
"""Emit the decay table as CSV and certify the terminal bound.

The CSV is the one ``zeta3forms decay --csv`` prints. Exit codes: 3 when a
written cell carries a +/- field (not one significant digit certified), as
the CLI does; otherwise 0 when T_{n_max} < 10**-EXP is certified, 1 when
T_{n_max} >= 10**-EXP is certified, and 3 when the enclosure of T_{n_max}
straddles 10**-EXP, so neither is (the CLI's code for unknown); 2 on a
usage error, such as a size below 1, a negative EXP or an --out
path that cannot be written (checked before any computation, without
truncating an existing file); 4 when the run could not complete (an
internal fault, an `ArithmeticError` or a `ValueError`, output that could
not be written, or out of memory), reported on one stderr line; 141 when its
reader closes stdout (nothing on stderr).

Example:
    python scripts/run_decay_table.py --n-max 50 --digits 220 --out decay.csv
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zeta3forms.bounds import decay_table  # noqa: E402
from zeta3forms.cli import (  # noqa: E402
    EXIT_FAILS,
    EXIT_OK,
    EXIT_UNKNOWN,
    ArgumentParser,
    enclosure_decimal,
    int_at_least,
    run_to_stdout,
    write_decay_table,
)
from zeta3forms.exactnum import Enclosure  # noqa: E402


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int_at_least(1), default=50)
    parser.add_argument("--digits", type=int_at_least(1), default=220)
    parser.add_argument("--out", type=Path, default=Path("decay.csv"))
    parser.add_argument("--t-cap-exp", type=int_at_least(0), default=10,
                        help="certify T_{n_max} < 10**-EXP, EXP >= 0")
    args = parser.parse_args()
    created = not args.out.exists()
    try:  # append mode: probing must not truncate a file the run may never rewrite
        args.out.open("a", encoding="utf-8").close()
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")

    try:
        started = time.perf_counter()
        rows = decay_table(args.n_max, args.digits)
        elapsed = time.perf_counter() - started
        with args.out.open("w", newline="", encoding="utf-8") as handle:
            table_code = write_decay_table(rows, handle, as_csv=True)
    except BaseException:  # a fault or Ctrl-C: leave no file the probe made
        if created:
            args.out.unlink(missing_ok=True)
        raise

    last = rows[-1]
    cap = Enclosure(1, 1, 10**args.t_cap_exp)
    bound = f"1e-{args.t_cap_exp}"
    if last.t_n.lies_below(cap):
        verdict, code = "CERTIFIED", EXIT_OK
    elif last.t_n.lies_at_or_above(cap):
        verdict, code = f"REFUTED (T_{last.n} >= {bound} is certified)", EXIT_FAILS
    else:
        verdict, code = f"UNDECIDED (its enclosure straddles {bound})", EXIT_UNKNOWN
    print(f"wrote {args.out} ({len(rows)} rows) in {elapsed:.2f}s")
    print(f"T_{last.n} = {enclosure_decimal(last.t_n, 6)}")
    print(f"T_{last.n} < {bound}: {verdict}")
    if table_code != EXIT_OK:
        print("some cells carry a +/- field: not one significant digit certified")
        return table_code
    return code


if __name__ == "__main__":
    sys.exit(run_to_stdout("run_decay_table", main))
