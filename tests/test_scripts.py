"""The experiment scripts, run as a user runs them: one subprocess each."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, encoding="utf-8", env=env, cwd=cwd
    )


# T_30 = 3.5e-9 and T_72 = 3e-18; the n = 72 table has +/- cells, the n = 30 one none.
@pytest.mark.parametrize(
    ("n_max", "cap_exp", "script_code", "cli_code"),
    [(30, 8, 0, 0), (30, 10, 1, 0), (72, 8, 3, 3)],
)
def test_decay_script_writes_the_cli_table(tmp_path, n_max, cap_exp, script_code, cli_code):
    out = tmp_path / "decay.csv"
    size = ["--n-max", str(n_max), "--digits", "220"]
    script = _run(
        [str(SCRIPTS / "run_decay_table.py"), *size, "--t-cap-exp", str(cap_exp), "--out", str(out)],
        tmp_path,
    )
    cli = _run(["-m", "zeta3forms", "decay", *size, "--csv", "--quiet"], tmp_path)
    assert out.read_text(encoding="utf-8") == cli.stdout
    assert (script.returncode, cli.returncode) == (script_code, cli_code)


def test_corpus_script_is_sound(tmp_path):
    proc = _run([str(SCRIPTS / "run_corpus_audit.py"), "--random", "20"], tmp_path)
    assert proc.returncode == 0
    assert "auditor soundness: OK" in proc.stdout


@pytest.mark.parametrize(
    ("script", "flags"),
    [
        ("run_decay_table.py", ["--n-max", "0"]),
        ("run_decay_table.py", ["--digits", "0"]),
        ("run_corpus_audit.py", ["--n-max", "0"]),
        ("run_corpus_audit.py", ["--digits", "0"]),
        ("run_corpus_audit.py", ["--random", "-1"]),
        ("run_decay_table.py", ["--t-cap-exp", "-1"]),
    ],
)
def test_scripts_reject_bad_sizes_as_usage_errors(tmp_path, script, flags):
    proc = _run([str(SCRIPTS / script), *flags], tmp_path)
    assert proc.returncode == 2
    assert "must be >= " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "decay.csv").exists()


def test_corpus_script_accepts_zero_random_vectors(tmp_path):
    proc = _run([str(SCRIPTS / "run_corpus_audit.py"), "--random", "0"], tmp_path)
    assert proc.returncode == 0
    assert "auditor soundness: OK" in proc.stdout
