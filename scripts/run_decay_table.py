#!/usr/bin/env python3
"""Emit the decay table as CSV and certify the terminal bound.

The CSV is the one ``zeta3forms decay --csv`` prints. Exit codes: 3 when a
written cell carries a +/- field (not one significant digit certified), as
the CLI does; otherwise 0 when T_{n_max} < 10**-EXP is certified, else 1;
2 on a usage error, such as a size below 1 or a negative EXP.

Example:
    python scripts/run_decay_table.py --n-max 50 --digits 220 --out decay.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zeta3forms.bounds import decay_table  # noqa: E402
from zeta3forms.cli import (  # noqa: E402
    EXIT_OK,
    _nonnegative_int,
    _positive_int,
    enclosure_decimal,
    write_decay_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=_positive_int, default=50)
    parser.add_argument("--digits", type=_positive_int, default=220)
    parser.add_argument("--out", type=Path, default=Path("decay.csv"))
    parser.add_argument("--t-cap-exp", type=_nonnegative_int, default=10,
                        help="certify T_{n_max} < 10**-EXP, EXP >= 0")
    args = parser.parse_args()

    started = time.perf_counter()
    rows = decay_table(args.n_max, args.digits)
    elapsed = time.perf_counter() - started

    with args.out.open("w", newline="", encoding="utf-8") as handle:
        table_code = write_decay_table(rows, handle, as_csv=True)

    last = rows[-1]
    cap = Fraction(1, 10**args.t_cap_exp)
    certified = last.t_n.hi < cap
    print(f"wrote {args.out} ({len(rows)} rows) in {elapsed:.2f}s")
    print(f"T_{last.n} = {enclosure_decimal(last.t_n, 6)}")
    print(f"T_{last.n} < 1e-{args.t_cap_exp}: {'CERTIFIED' if certified else 'NOT CERTIFIED'}")
    if table_code != EXIT_OK:
        print("some cells carry a +/- field: not one significant digit certified")
        return table_code
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main())
