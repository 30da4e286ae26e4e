"""Command-line front end: linear forms, certified checks, constants, audits.

All data output is deterministic for a fixed argv: exact rationals print as
p/q; decimals are directed roundings of enclosure midpoints, computed from
the integer fields with no gcd and no Fraction, and are only printed to a
precision the enclosure certifies (a +/- error field is appended whenever
the width exceeds one unit in the last printed place).

Exit codes: 0 all requested checks hold / completed, 1 some check fails,
2 usage error (argparse reports every input error), 3 some check is unknown
(its enclosures overlap at the requested digits; `audit` first climbs its
refinement ladder) or some printed decay cell carries a +/- field, 4 the
command could not complete (an internal fault, an `ArithmeticError` such as
the zeta(3) routes disagreeing or a `ValueError`, unwritable output, or out
of memory), on one stderr line, 141 stdout closed by its reader (nothing on
stderr).
"""

from __future__ import annotations

# json is imported by the functions that write it, so a command that prints
# no JSON does not load it.
import argparse
import os
import sys
from collections.abc import Callable, Sequence
from io import TextIOBase

from . import bounds, chain
from .beukers import linear_form
from .bounds import CheckStatus, DecayRow
from .exactnum import Enclosure, floor_div_scaled
from .zeta3 import zeta3

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # what a shell reports for a process that SIGPIPE ended


# -- certified decimal printing ----------------------------------------------


def _below_pow10(num: int, den: int, e: int) -> bool:
    """num/den < 10**e, for den > 0, by cross-multiplying integers."""
    if e < 0:
        return num * 10**-e < den
    return num < den * 10**e


def _floor_log10(num: int, den: int) -> int:
    """Largest e with 10**e <= num/den, for num, den > 0."""
    # 2**(k-1) < num/den < 2**(k+1) for k the bit-length difference, and
    # 30103/100000 is log10(2) to five places, so e starts next to the answer.
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while _below_pow10(num, den, e):
        e -= 1
    while not _below_pow10(num, den, e + 1):
        e += 1
    return e


def _sci(num: int, den: int, sig: int, e: int, up: bool = False) -> str:
    """num/den (num != 0, den > 0) to ``sig`` significant digits, given
    e = floor(log10 |num/den|); rounded half up, or away from zero if ``up``."""
    sign = "-" if num < 0 else ""
    shift = e - sig + 1  # m is |num/den| divided by 10**shift, rounded
    num = abs(num) * 10 ** max(0, -shift)
    den = den * 10 ** max(0, shift)
    m = -(-num // den) if up else (2 * num + den) // (2 * den)
    if m >= 10**sig:  # rounding carried into the next decade
        m //= 10
        e += 1
    digs = str(m)
    mant = digs if sig == 1 else digs[0] + "." + digs[1:]
    return f"{sign}{mant}e{e:+03d}"


def enclosure_decimal(enc: Enclosure, max_sig: int = 7) -> str:
    """Midpoint decimal certified to < 1 ulp of the printed precision.

    With e = floor(log10 |mid|), the sig-th digit is in place 10**(e-sig+1),
    and for width > 0, width < 10**(e-sig+1) exactly when
    sig <= e - floor(log10 width). So sig = min(max_sig, e - floor(log10
    width)); when that is below 1, one digit is printed and the half-width
    is appended as an explicit +/- field (rounded upward).
    """
    den = enc.den
    mid = enc.lo_num + enc.hi_num  # over 2 * den
    width = enc.hi_num - enc.lo_num  # over den, so the half-width over 2 * den
    if width == 0:
        return _sci(mid, 2 * den, max_sig, _floor_log10(abs(mid), 2 * den)) if mid else "0"
    text, sig = "0", 0
    if mid:
        e = _floor_log10(abs(mid), 2 * den)
        sig = min(max_sig, e - _floor_log10(width, den))
        text = _sci(mid, 2 * den, max(sig, 1), e)
    if sig < 1:
        text += "±" + _sci(width, 2 * den, 2, _floor_log10(width, 2 * den), up=True)
    return text


def fraction_places(num: int, den: int, places: int) -> str:
    """Plain decimal of num/den with a fixed number of places, half-up.

    num >= 0 and den > 0 need not be coprime: no gcd is taken. The final
    division cancels den's power of two first (`floor_div_scaled`), so a
    power-of-two den costs a shift.
    """
    if num < 0 or den < 1:
        raise ValueError("fraction_places expects num >= 0 and den >= 1")
    digs = str(floor_div_scaled(2 * num * 10**places + den, 0, 2 * den))
    if places == 0:
        return digs
    digs = digs.rjust(places + 1, "0")
    return f"{digs[:-places]}.{digs[-places:]}"


# -- exit-code aggregation -----------------------------------------------------


def _exit_for(statuses: Sequence[CheckStatus]) -> int:
    if CheckStatus.FAILS in statuses:
        return EXIT_FAILS
    if CheckStatus.UNKNOWN in statuses:
        return EXIT_UNKNOWN
    return EXIT_OK


def _banner(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(f"[zeta3forms] {text}", file=sys.stderr)


def _write_table(
    out: TextIOBase, as_csv: bool, header: Sequence[str], rows: Sequence[tuple], keys: Sequence[str]
) -> None:
    """Rows as CSV under ``header``, or as one line of key=value pairs each. No
    cell (an int, a status or a decimal) holds a comma, quote or line break."""
    if as_csv:
        lines = [",".join(map(str, row)) for row in (header, *rows)]
    else:
        lines = [" ".join(f"{k}={v}" for k, v in zip(keys, row)) for row in rows]
    out.writelines(f"{line}\n" for line in lines)


# -- subcommands ---------------------------------------------------------------


def cmd_form(args: argparse.Namespace) -> int:
    form = linear_form(args.n)
    _banner(args, f"form n={args.n}")
    fields = dict(alpha=str(form.alpha), beta=form.beta, A=form.A, B=form.B, dn3=form.dn3)
    if args.json:
        import json

        print(json.dumps({"n": form.n, **fields}))
    else:
        _write_table(sys.stdout, False, (), [tuple(fields.values())], tuple(fields))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _banner(args, f"verify n=1..{args.n_max} digits={args.digits}")
    bounds.form_abs_enclosure(args.n_max, args.digits)  # last row first: a size no memory holds fails at once
    statuses = []
    rows = []
    for n in range(1, args.n_max + 1):
        fb = bounds.verify_form_bound(n, args.digits)
        rb = bounds.verify_ratio_bound(n, args.digits)
        statuses.extend((fb.status, rb.status))
        cells = (enclosure_decimal(fb.lhs), enclosure_decimal(fb.rhs), fb.digits_used, rb.digits_used)
        rows.append((n, fb.status.value, rb.status.value) + cells)
    header = ("n", "bound_status", "ratio_status", "lhs", "rhs", "bound_digits", "ratio_digits")
    keys = ("n", "bound", "ratio", "lhs", "rhs", "bound_digits", "ratio_digits")
    _write_table(sys.stdout, args.csv, header, rows, keys)
    return _exit_for(statuses)


def cmd_zeta3(args: argparse.Namespace) -> int:
    _banner(args, f"zeta3 digits={args.digits}")
    # One guard digit so the printed error is strictly below 1 ulp.
    enc = zeta3(args.digits + 1)
    # The midpoint (lo_num + hi_num) / (2 den), printed without reducing it.
    print(fraction_places(enc.lo_num + enc.hi_num, 2 * enc.den, args.digits))
    return EXIT_OK


def report_to_json(report: chain.ChainReport) -> str:
    import json

    payload = {
        "n": report.n,
        "coeffs": list(report.coeffs.c),
        "R": str(report.R),
        "S": str(report.S),
        "residual": str(report.residual),
        "c0_positive": report.coeffs.c0_positive,
        "digits_used": report.digits_used,
        "steps": [
            {"id": s.step_id, "numeric": s.numeric.value, "justification": s.justification.value}
            for s in report.steps
        ],
    }
    return json.dumps(payload, indent=2)


def cmd_audit(args: argparse.Namespace) -> int:
    report = chain.audit(args.n, args.coeffs, args.digits)
    _banner(args, f"audit n={args.n} coeffs={args.coeffs} digits={args.digits}")
    if args.json:
        print(report_to_json(report))
    else:
        print(
            f"n={report.n} coeffs={report.coeffs} m={report.coeffs.m} "
            f"digits_used={report.digits_used} "
            f"c0_positive={'true' if report.coeffs.c0_positive else 'false'}"
        )
        print(
            f"R={enclosure_decimal(report.R)} S={enclosure_decimal(report.S)} "
            f"residual={enclosure_decimal(report.residual)}"
        )
        for step in report.steps:
            print(f"{step.step_id}: {step.numeric.value} | {step.justification.value}")
    return _exit_for([s.numeric for s in report.steps])


def write_decay_table(rows: Sequence[DecayRow], out: TextIOBase, as_csv: bool) -> int:
    """Write the decay table to ``out`` as CSV or key=value lines; EXIT_UNKNOWN
    when a cell carries a +/- field (not one digit certified), else EXIT_OK."""
    header = ("n", "d_n", "abs_form", "rhs_bound", "ratio", "T_n")
    formatted = [
        (row.n, row.dn)
        + tuple(enclosure_decimal(e, 10) for e in (row.form_abs, row.rhs, row.ratio, row.t_n))
        for row in rows
    ]
    _write_table(out, as_csv, header, formatted, header)
    if any("±" in cell for cells in formatted for cell in cells[2:]):
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_decay(args: argparse.Namespace) -> int:
    _banner(args, f"decay n=1..{args.n_max} digits={args.digits}")
    return write_decay_table(bounds.decay_table(args.n_max, args.digits), sys.stdout, args.csv)


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull, so the flush at exit raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # None, or no descriptor (an in-memory stream)
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run_to_stdout(prog: str, command: Callable[..., int], *args: object) -> int:
    """command(*args), then a flush of stdout, as the program ``prog``, with int-str
    conversion unlimited. The flush also follows a SystemExit, such as the one
    argparse raises after --help. A reader that closed stdout ends it with
    EXIT_PIPE and nothing on stderr, as SIGPIPE would; an internal fault
    (ArithmeticError, ValueError), unwritable output (a None stdout, any
    other OSError) or running out of memory (MemoryError) with EXIT_INTERNAL
    and one stderr line."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        try:
            return command(*args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_PIPE
    except (ArithmeticError, ValueError) as exc:
        print(f"{prog}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except OSError as exc:
        _stdout_to_devnull()
        print(f"{prog}: cannot complete: {type(exc).__name__}: {exc}", file=sys.stderr)
    except MemoryError as exc:  # one the allocator raises carries no message
        print(f"{prog}: cannot complete: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
    return EXIT_INTERNAL


# -- parser ---------------------------------------------------------------------


class ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, with --help written to stdout as any other output is:
    argparse's own print_help drops a failed write and exits 0."""

    def print_help(self, file: TextIOBase | None = None) -> None:
        (sys.stdout if file is None else file).write(self.format_help())


def _parse_coeffs(text: str) -> chain.CoeffVector:
    try:  # chain.InvalidCoeffVector is a ValueError too
        return chain.CoeffVector(tuple(int(part.strip()) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}") from exc


def int_at_least(low: int) -> Callable[[str], int]:
    """A parser of integers >= low; argparse puts the option's name before its messages."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


def build_parser() -> ArgumentParser:
    common = ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress the stderr banner")

    parser = ArgumentParser(
        prog="zeta3forms",
        description="Exact linear forms in 1 and zeta(3), certified bounds, chain audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form", parents=[common], help="print the linear form for one n")
    p.add_argument("--n", type=int_at_least(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_form)

    p = sub.add_parser("verify", parents=[common], help="certify the sandwich bound for n=1..N")
    p.add_argument("--n-max", type=int_at_least(1), required=True)
    p.add_argument("--digits", type=int_at_least(1), default=30)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeta3", parents=[common], help="print zeta(3) to a certified precision")
    p.add_argument("--digits", type=int_at_least(1), required=True)
    p.set_defaults(func=cmd_zeta3)

    p = sub.add_parser("audit", parents=[common], help="audit the inequality chain for one vector")
    p.add_argument("--coeffs", type=_parse_coeffs, required=True, metavar="c0,c1,...,cm")
    p.add_argument("--n", type=int_at_least(1), required=True)
    p.add_argument("--digits", type=int_at_least(1), default=60)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("decay", parents=[common], help="tabulate the decay of the bound")
    p.add_argument("--n-max", type=int_at_least(1), required=True)
    p.add_argument("--digits", type=int_at_least(1), default=230)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_decay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Fold each "--coeffs -6,5" into "--coeffs=-6,5" so negative leading
    # coefficients are not mistaken for option flags; argparse keeps the last.
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--coeffs":
            argv[i : i + 2] = [f"--coeffs={argv[i + 1]}"]
        i += 1
    return run_to_stdout("zeta3forms", _parse_and_run, argv)


def _parse_and_run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
