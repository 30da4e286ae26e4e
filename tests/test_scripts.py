"""The experiment scripts, run as a user runs them: one subprocess each,
except where a patched package must reach them (run in-process)."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from zeta3forms.cli import EXIT_INTERNAL, EXIT_PIPE

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, encoding="utf-8", env=env, cwd=cwd
    )


# Run a script or ``zeta3forms`` (argv[1]) with |I_n| widened to [0, 2h], h its
# upper end, from n = 72 on. No real precision leaves a decay cell uncertified,
# so the widening stands in for one: the n = 72 table has +/- cells.
_WIDENED_FROM_72 = """
import runpy, sys
from zeta3forms import bounds
from zeta3forms.exactnum import Enclosure

exact = bounds.form_abs_enclosure

def widened(n, digits):
    enc = exact(n, digits)
    return enc if n < 72 else Enclosure(0, 2 * enc.hi_num, enc.den)

bounds.form_abs_enclosure = widened
sys.argv = sys.argv[1:]
if sys.argv[0] == "zeta3forms":
    runpy.run_module("zeta3forms", run_name="__main__", alter_sys=True)
else:
    runpy.run_path(sys.argv[0], run_name="__main__")
"""


# T_30 = 3.5e-9 and T_72 = 2.5e-18; the n = 72 table has +/- cells, the n = 30 one none.
# At one digit T_59 lies in [9.79e-16, 1.017e-15], which straddles 1e-15.
@pytest.mark.parametrize(
    ("n_max", "digits", "cap_exp", "script_code", "cli_code"),
    [(30, 220, 8, 0, 0), (30, 220, 10, 1, 0), (72, 220, 8, 3, 3), (59, 1, 15, 3, 0)],
)
def test_decay_script_writes_the_cli_table(tmp_path, n_max, digits, cap_exp, script_code, cli_code):
    out = tmp_path / "decay.csv"
    size = ["--n-max", str(n_max), "--digits", str(digits)]
    script = _run(
        ["-c", _WIDENED_FROM_72, str(SCRIPTS / "run_decay_table.py"), *size,
         "--t-cap-exp", str(cap_exp), "--out", str(out)],
        tmp_path,
    )
    cli = _run(["-c", _WIDENED_FROM_72, "zeta3forms", "decay", *size, "--csv", "--quiet"], tmp_path)
    assert out.read_text(encoding="utf-8") == cli.stdout
    assert (script.returncode, cli.returncode) == (script_code, cli_code)


def test_corpus_script_is_sound(tmp_path):
    proc = _run([str(SCRIPTS / "run_corpus_audit.py"), "--random", "20", "--json-out", "a.json"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.endswith("auditor soundness: OK\nwrote a.json\n")
    assert json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))["vectors"] == 220


@pytest.mark.parametrize("script", ["run_decay_table.py", "run_corpus_audit.py"])
def test_scripts_print_their_help_and_exit_0(tmp_path, script):
    proc = _run([str(SCRIPTS / script), "--help"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ")


@pytest.mark.parametrize(
    ("script", "flags"),
    [
        ("run_decay_table.py", ["--n-max", "0"]),
        ("run_decay_table.py", ["--digits", "0"]),
        ("run_corpus_audit.py", ["--n-max", "0"]),
        ("run_corpus_audit.py", ["--digits", "0"]),
        ("run_corpus_audit.py", ["--random", "-1"]),
        ("run_decay_table.py", ["--t-cap-exp", "-1"]),
        ("run_decay_table.py", ["--n-max", "1.5"]),
        ("run_decay_table.py", ["--digits", ""]),
        ("run_corpus_audit.py", ["--n-max", "ten"]),
        ("run_corpus_audit.py", ["--digits", "1e3"]),
        ("run_corpus_audit.py", ["--random", "x"]),
        ("run_decay_table.py", ["--t-cap-exp", "0x10"]),
    ],
)
def test_scripts_reject_bad_sizes_as_usage_errors(tmp_path, script, flags):
    proc = _run([str(SCRIPTS / script), *flags], tmp_path)
    assert proc.returncode == 2
    option, value = flags
    try:
        int(value)
    except ValueError:
        assert f"argument {option}: expected an integer, got {value!r}" in proc.stderr
    else:
        assert "must be >= " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "_positive_int" not in proc.stderr and "_nonnegative_int" not in proc.stderr
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize(
    ("script", "flag"),
    [("run_decay_table.py", "--out"), ("run_corpus_audit.py", "--json-out")],
)
def test_scripts_reject_an_unwritable_output_path_as_a_usage_error(tmp_path, script, flag):
    target = tmp_path / "missing" / "out"
    proc = _run([str(SCRIPTS / script), flag, str(target)], tmp_path)
    assert proc.returncode == 2
    assert f"cannot write {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # refused before any computation
    assert not (tmp_path / "missing").exists()


def test_corpus_script_accepts_zero_random_vectors(tmp_path):
    proc = _run([str(SCRIPTS / "run_corpus_audit.py"), "--random", "0"], tmp_path)
    assert proc.returncode == 0
    assert "auditor soundness: OK" in proc.stdout


_DECAY_FLAGS = ["--n-max", "3", "--out", "decay.csv"]
_CORPUS_FLAGS = ["--random", "0", "--json-out", "audit.json"]


# The last flag names the output file; the fixture plants a fault on the
# script's path that leads to the start of the stderr line given.
@pytest.mark.parametrize(
    ("script", "flags", "fault", "error"),
    [
        ("run_decay_table.py", _DECAY_FLAGS, "zeta3_methods_disagree", "internal error: DisjointEnclosures"),
        ("run_corpus_audit.py", _CORPUS_FLAGS, "zeta3_methods_disagree", "internal error: DisjointEnclosures"),
        ("run_corpus_audit.py", _CORPUS_FLAGS, "ratio_straddles_zero", "internal error: ValueError"),
        ("run_decay_table.py", _DECAY_FLAGS, "out_of_memory", "cannot complete: MemoryError"),
    ],
    ids=["run_decay_table.py-flags0", "run_corpus_audit.py-flags1", "run_corpus_audit.py-flags2",
         "run_decay_table.py-flags3"],
)
def test_scripts_exit_4_on_an_internal_fault(
    tmp_path, monkeypatch, capsys, request, script, flags, fault, error
):
    # 1 is "not certified" or "soundness VIOLATED" here, and a traceback exits
    # 1 too; a fault must not read as either
    request.getfixturevalue(fault)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    out = tmp_path / flags[-1]
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / script), *flags])
    # an existing output file keeps its bytes; a fresh path is left without a file
    for sentinel in (b"kept,by,a,fault\n", None):
        if sentinel is not None:
            out.write_bytes(sentinel)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (EXIT_INTERNAL, "")
        assert captured.err.startswith(f"{script[:-3]}: {error}: ")
        assert captured.err.count("\n") == 1
        if sentinel is not None:
            assert out.read_bytes() == sentinel
            out.unlink()
        else:
            assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "zeta3forms", "verify", "--n-max", "5", "--quiet"],
        ["-m", "zeta3forms", "audit", "--coeffs", "-6,5", "--n", "1", "--quiet"],
        ["-m", "zeta3forms", "zeta3", "--digits", "3000", "--quiet"],
        [str(SCRIPTS / "run_corpus_audit.py"), "--random", "10"],
        [str(SCRIPTS / "run_decay_table.py"), "--n-max", "5", "--digits", "60", "--out", "decay.csv"],
    ],
    ids=["verify", "audit", "zeta3", "corpus_audit", "decay_table"],
)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, args):
    # a pipe whose reader is gone: every write to it fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ends = []
    try:
        # buffered, the flush at exit retries the text left in stdout's buffer
        for unbuffered in ("", "1"):
            env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.run(
                [sys.executable, *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
            )
            ends.append((proc.returncode, proc.stderr))
    finally:
        os.close(write_end)
    assert ends == [(EXIT_PIPE, b"")] * 2


# Each program with its argv and the flag that names its output path (None: stdout).
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize(
    ("prog", "args", "flag"),
    [
        ("zeta3forms", ["-m", "zeta3forms", "verify", "--n-max", "3", "--quiet"], None),
        ("run_corpus_audit", [str(SCRIPTS / "run_corpus_audit.py"), "--random", "1"], "--json-out"),
        ("run_decay_table", [str(SCRIPTS / "run_decay_table.py")], "--out"),
        ("zeta3forms", ["-m", "zeta3forms", "--help"], None),
        ("run_corpus_audit", [str(SCRIPTS / "run_corpus_audit.py"), "--help"], None),
        ("run_decay_table", [str(SCRIPTS / "run_decay_table.py"), "--help"], None),
    ],
    ids=["verify", "corpus_audit", "decay_table", "help", "corpus_audit_help", "decay_table_help"],
)
def test_output_on_a_full_disk_exits_4_with_one_stderr_line(tmp_path, prog, args, flag):
    # a traceback exits 1, which reads as "some check fails", "soundness
    # VIOLATED" or "REFUTED"; argparse drops a failed write of --help, so
    # it would exit 0 unbuffered, and 120 buffered, from the flush at exit
    stdout = Path("/dev/full")
    if flag is not None:
        args = [*args, "--n-max", "3", "--digits", "20", flag, "/dev/full"]
        stdout = tmp_path / "stdout.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # buffered, the text left in stdout's buffer is flushed again at exit,
    # which must add no second line; unbuffered, the first print fails
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        with open(stdout, "wb") as out:
            proc = subprocess.run(
                [sys.executable, *args], stdout=out, stderr=subprocess.PIPE, env=env, cwd=tmp_path
            )
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stderr.startswith(f"{prog}: cannot complete: OSError: [Errno 28] ".encode())
        assert proc.stderr.count(b"\n") == 1
        if flag is not None:  # the output file is written before any summary line
            assert stdout.read_bytes() == b""

